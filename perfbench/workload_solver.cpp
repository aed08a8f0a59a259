// workload_solver.cpp — road-w and paper-graphblas: one caller thread
// issuing queries, one at a time, against a warm SsspSolver.
//
// The untraced run drives SsspSolver itself.  The traced run performs the
// same work through the calls SsspSolver is made of (GraphPlan, the
// light/heavy split, warm_plan, and the registry core with a
// benchmark-owned grb::Context), so each of them can carry a span and the
// context's counters can be read.  It solves every source twice, once
// plain and once traced, alternating the order, which gives the tracing
// overhead on identical work.
//
// paper-graphblas answers its whole component (about 6k vertices) in
// roughly 20 s; the source order then starts over.  SsspSolver keeps no
// answers, so a repeated source costs what it cost the first time.
#include <stdexcept>
#include <string>

#include "perfbench.hpp"
#include "sssp/solver.hpp"
#include "sssp/validate.hpp"

namespace perfbench {

namespace {

using dsg::SsspResult;
using dsg::sssp::Algorithm;
using dsg::sssp::SolverOptions;

struct SolverWorkload {
  SolverOptions options;
  GraphInput input;
};

SolverWorkload make_workload(const Args& args) {
  if (args.workload == "road-w") {
    // The solver default, which is also what auto_algorithm picks here.
    return {SolverOptions{}, make_road_graph(args.seed)};
  }
  if (args.workload == "paper-graphblas") {
    SolverOptions options;
    options.algorithm = Algorithm::kGraphblas;  // the Fig. 2 formulation
    options.delta = 1.0;                        // the paper's setting
    return {options, make_rmat_graph(13, args.seed)};
  }
  throw std::invalid_argument("unknown solver workload " + args.workload);
}

/// Counts a query as failed unless it completed with a valid answer.
/// Runs outside every timed window.
void check_answer(Report& report, const grb::Matrix<double>& a, Index source,
                  const SsspResult& result) {
  if (result.status != dsg::SsspStatus::kComplete) {
    report.fail("source " + std::to_string(source) + ": status " +
                dsg::to_string(result.status));
    return;
  }
  const dsg::ValidationReport valid = dsg::validate_sssp(a, source, result.dist);
  if (!valid.ok) {
    report.fail("source " + std::to_string(source) + ": " + valid.message);
  }
}

Report run_untraced(const Args& args, const SolverWorkload& w) {
  Report report;
  const GraphInput& in = w.input;
  std::vector<double> setups;
  const auto setup = [&] {
    const auto t0 = Clock::now();
    auto solver = std::make_unique<dsg::sssp::SsspSolver>(in.matrix, w.options);
    setups.push_back(seconds_between(t0, Clock::now()));
    return solver;
  };
  std::unique_ptr<dsg::sssp::SsspSolver> solver;
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) {
    solver.reset();
    solver = setup();
  }

  std::size_t next = 0;
  ++report.attempted;  // untimed warm-up query
  try {
    check_answer(report, *in.matrix, in.sources[next],
                 solver->solve(in.sources[next]));
  } catch (const std::exception& e) {
    report.fail(std::string("warm-up query: ") + e.what());
  }
  ++next;

  std::vector<double> latencies, reached;
  const auto begin = Clock::now();
  while (seconds_between(begin, Clock::now()) < args.seconds) {
    const Index source = in.sources[next++ % in.sources.size()];
    ++report.attempted;
    try {
      const auto t0 = Clock::now();
      const SsspResult result = solver->solve(source);
      latencies.push_back(seconds_between(t0, Clock::now()));
      check_answer(report, *in.matrix, source, result);
      reached.push_back(static_cast<double>(count_reached(result.dist)));
    } catch (const std::exception& e) {
      report.fail("source " + std::to_string(source) + ": " + e.what());
    }
  }
  const double peak_rss = peak_rss_mb();
  solver.reset();
  for (int rep = 0; rep < kSetupRepsAfter; ++rep) setup();

  double busy = 0;
  for (double t : latencies) busy += t;
  set_end_to_end(report, latencies, setups,
                 busy > 0 ? static_cast<double>(latencies.size()) / busy : 0,
                 peak_rss);
  report.note("reached_p50", median(reached), "count");
  return report;
}

Report run_traced(const Args& args, const SolverWorkload& w) {
  Report report;
  const GraphInput& in = w.input;
  const Algorithm algorithm = w.options.algorithm;
  const bool grb_split = algorithm == Algorithm::kGraphblas;
  SpanLog log(true, 0);

  // SsspSolver's constructor: build the plan, then warm it.  warm_plan
  // materializes the light/heavy split (and, for the GraphBLAS engine, its
  // grb::Matrix copies); calling those first puts each under its own span
  // and leaves warm_plan nothing to do.
  const auto setup = [&] {
    ScopedSpan span(log, "setup");
    std::unique_ptr<dsg::GraphPlan> plan;
    {
      ScopedSpan build(log, "plan.build", span.id());
      plan = std::make_unique<dsg::GraphPlan>(in.matrix, w.options.delta);
    }
    ScopedSpan warm(log, "plan.warm", span.id());
    {
      ScopedSpan split(log, "plan.split", warm.id());
      plan->light_heavy();
    }
    if (grb_split) {
      ScopedSpan split(log, "graphblas.split", warm.id());
      plan->light_matrix();
      plan->heavy_matrix();
    }
    dsg::sssp::warm_plan(*plan, algorithm);
    return plan;
  };
  std::unique_ptr<dsg::GraphPlan> plan;
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) {
    plan.reset();
    plan = setup();
  }

  const dsg::sssp::AlgorithmInfo& core = dsg::sssp::algorithm_info(algorithm);
  grb::Context ctx;
  dsg::ExecOptions plain;
  dsg::ExecOptions profiled;
  profiled.profile = true;

  std::size_t next = 0;
  ++report.attempted;  // untimed warm-up query
  try {
    check_answer(report, *in.matrix, in.sources[next],
                 core.run(*plan, ctx, in.sources[next], plain));
  } catch (const std::exception& e) {
    report.fail(std::string("warm-up query: ") + e.what());
  }
  ++next;

  std::vector<SolveSample> samples;
  std::vector<double> dense_writes;
  double plain_total = 0, traced_total = 0;
  const auto begin = Clock::now();
  while (seconds_between(begin, Clock::now()) < args.seconds) {
    const std::uint64_t query = next;
    const Index source = in.sources[next++ % in.sources.size()];
    report.attempted += 2;
    try {
      SsspResult untraced, traced;
      std::size_t writes = 0;
      double solve_seconds = 0;
      const auto run_plain = [&] {
        const auto t0 = Clock::now();
        untraced = core.run(*plan, ctx, source, plain);
        plain_total += seconds_between(t0, Clock::now());
      };
      const auto run_traced = [&] {
        const auto t0 = Clock::now();
        {
          ScopedSpan span(log, "query", 0, query);
          const std::size_t writes_before = ctx.dense_writes;
          std::uint64_t solve_id = 0;
          {
            ScopedSpan solve(log, "sssp.solve", span.id(), query);
            solve_id = solve.id();
            traced = core.run(*plan, ctx, source, profiled);
          }
          solve_seconds = log.seconds(solve_id);
          writes = ctx.dense_writes - writes_before;
        }
        traced_total += seconds_between(t0, Clock::now());
      };
      if (query % 2) {
        run_plain();
        run_traced();
      } else {
        run_traced();
        run_plain();
      }
      check_answer(report, *in.matrix, source, traced);
      if (untraced.dist != traced.dist) {
        report.fail("source " + std::to_string(source) +
                    ": traced and untraced answers differ");
      }
      samples.push_back(
          {traced.stats, solve_seconds, count_reached(traced.dist)});
      dense_writes.push_back(static_cast<double>(writes));
    } catch (const std::exception& e) {
      report.fail("source " + std::to_string(source) + ": " + e.what());
    }
  }

  for (int rep = 0; rep < kSetupRepsAfter; ++rep) setup();

  report.set("plan.build_s", median(span_seconds(log.spans(), "plan.build")), "s");
  report.set("plan.warm_s", median(span_seconds(log.spans(), "plan.warm")), "s");
  set_plan_layer(report, *plan, grb_split);
  set_sssp_layer(report, samples);
  if (grb_split) {
    report.set("graphblas.dense_writes", median(dense_writes), "count");
    report.set("graphblas.split_s",
               median(span_seconds(log.spans(), "graphblas.split")), "s");
  }
  report.set("trace.overhead_pct",
             plain_total > 0 ? 100.0 * (traced_total / plain_total - 1.0) : 0.0,
             "%");
  report.spans = log.spans();
  return report;
}

}  // namespace

Report run_solver_workload(const Args& args) {
  const SolverWorkload w = make_workload(args);
  return args.trace ? run_traced(args, w) : run_untraced(args, w);
}

}  // namespace perfbench
