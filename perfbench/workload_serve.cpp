// workload_serve.cpp — social-serve: a cold-started SsspServer under a
// closed loop of client threads.
//
// Clients block in wait() until their answer arrives and only then submit
// the next query, which is how SsspServer callers behave, so the loop is
// closed: a slower server receives proportionally less load.  Half the
// queries repeat a small hot set (the result cache's case), the other half
// are distinct (every one a solve).
//
// Answers are checked without holding clients up: a hot answer is compared
// bit for bit with the first answer to that source, a cold answer is
// reduced to a hash.  After the loop every cold source is solved again by
// the server's engine and validated, and its hash compared with the
// client's; the hot first answers are validated too.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "perfbench.hpp"
#include "serving/server.hpp"
#include "sssp/validate.hpp"

namespace perfbench {

namespace {

using dsg::serving::ServerOptions;
using dsg::serving::ServerStats;
using dsg::serving::SsspServer;

constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr std::size_t kHotSources = 16;
constexpr std::uint64_t kClientSalt = 0x636c69656e745f34ULL;

struct Answer {
  Index source = 0;
  bool hot = false;
  bool ok = false;
  double latency = 0;
  std::uint64_t hash = 0;  ///< cold answers only
};

/// The first answer seen for each hot source.
class HotAnswers {
 public:
  /// False when `dist` differs from the first answer recorded for `source`.
  bool check(Index source, const std::vector<double>& dist) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, first] = first_.try_emplace(source, dist);
    return first || (it->second.size() == dist.size() &&
                     std::memcmp(it->second.data(), dist.data(),
                                 dist.size() * sizeof(double)) == 0);
  }
  std::unordered_map<Index, std::vector<double>> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(first_);
  }

 private:
  std::mutex mu_;
  std::unordered_map<Index, std::vector<double>> first_;
};

struct Loop {
  std::vector<Answer> answers;
  std::vector<std::string> failures;
  std::vector<Span> spans;
  double wall_s = 0;
  ServerStats stats;
};

/// Runs the closed loop for `seconds` against `server`.  Cold sources are
/// taken in order from `cold`, starting at `next_cold`.
Loop run_loop(SsspServer& server, const std::vector<Index>& hot,
              const std::vector<Index>& cold, std::atomic<std::size_t>& next_cold,
              double seconds, std::uint64_t seed, bool trace,
              HotAnswers& hot_answers) {
  struct Client {
    std::vector<Answer> answers;
    std::vector<std::string> failures;
    SpanLog log;
  };
  std::vector<Client> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back({{}, {}, SpanLog(trace, static_cast<std::uint32_t>(c + 1))});
  }

  const auto begin = Clock::now();
  const auto deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto client_loop = [&](int c) {
    Client& me = clients[static_cast<std::size_t>(c)];
    std::mt19937_64 rng(mix_seed(seed, kClientSalt + static_cast<std::uint64_t>(c)));
    for (std::uint64_t k = 1; Clock::now() < deadline; ++k) {
      Answer a;
      a.hot = (rng() >> 63) != 0;
      a.source = a.hot ? hot[rng() % hot.size()]
                       : cold[next_cold.fetch_add(1) % cold.size()];
      const std::uint64_t query = (static_cast<std::uint64_t>(c + 1) << 32) | k;
      try {
        dsg::sssp::QueryResult result;
        const auto t0 = Clock::now();
        {
          ScopedSpan span(me.log, "client.query", 0, query, a.hot ? "hot" : "cold");
          SsspServer::Ticket ticket = 0;
          {
            ScopedSpan submit(me.log, "server.submit", span.id(), query);
            ticket = server.submit(a.source);
          }
          ScopedSpan wait(me.log, "server.wait", span.id(), query);
          result = server.wait(ticket);
        }
        a.latency = seconds_between(t0, Clock::now());
        const std::string where = "source " + std::to_string(a.source) + ": ";
        if (!result.ok()) {
          me.failures.push_back(where + result.error);
        } else if (result.result.status != dsg::SsspStatus::kComplete) {
          me.failures.push_back(where + "status " +
                                dsg::to_string(result.result.status));
        } else if (a.hot && !hot_answers.check(a.source, result.result.dist)) {
          me.failures.push_back(where + "hot answer differs from the first");
        } else {
          a.ok = true;
          if (!a.hot) a.hash = hash_distances(result.result.dist);
        }
      } catch (const std::exception& e) {
        me.failures.push_back("source " + std::to_string(a.source) + ": " + e.what());
      }
      me.answers.push_back(a);
    }
  };
  {
    std::vector<std::jthread> threads;  // joined at the end of this block
    for (int c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
  }

  Loop loop;
  loop.wall_s = seconds_between(begin, Clock::now());
  loop.stats = server.stats();
  for (Client& client : clients) {
    loop.answers.insert(loop.answers.end(), client.answers.begin(), client.answers.end());
    loop.failures.insert(loop.failures.end(), client.failures.begin(),
                         client.failures.end());
    loop.spans.insert(loop.spans.end(), client.log.spans().begin(),
                      client.log.spans().end());
  }
  return loop;
}

/// Adds a segment of the loop run against the same server; the server's
/// counters are cumulative, so the later segment's stats replace the
/// earlier ones.
void append(Loop& into, Loop part) {
  into.answers.insert(into.answers.end(), part.answers.begin(), part.answers.end());
  into.failures.insert(into.failures.end(), part.failures.begin(), part.failures.end());
  into.spans.insert(into.spans.end(), part.spans.begin(), part.spans.end());
  into.wall_s += part.wall_s;
  into.stats = part.stats;
}

struct Deployment {
  std::shared_ptr<const dsg::GraphPlan> plan;
  std::unique_ptr<SsspServer> server;  ///< declared last: stops first
};

void count(Report& report, const Loop& loop) {
  report.attempted += loop.answers.size();
  for (const std::string& why : loop.failures) report.fail(why);
}

std::size_t completed(const Loop& loop) {
  std::size_t n = 0;
  for (const Answer& a : loop.answers) n += a.ok ? 1 : 0;
  return n;
}

/// Untimed: re-solves every cold source of `loop` with the server's engine,
/// compares with the client's answer, and validates.  Spread over all
/// cores, since it would otherwise take longer than the loop.
void verify_cold(Report& report, const Loop& loop, const dsg::GraphPlan& plan,
                 dsg::sssp::Algorithm algorithm) {
  const dsg::sssp::AlgorithmInfo& core = dsg::sssp::algorithm_info(algorithm);
  const std::size_t threads =
      std::max(1U, std::thread::hardware_concurrency());
  std::vector<std::vector<std::string>> failures(threads);
  const auto verify = [&](std::size_t t) {
    grb::Context ctx;
    for (std::size_t i = t; i < loop.answers.size(); i += threads) {
      const Answer& a = loop.answers[i];
      if (a.hot || !a.ok) continue;
      const std::string where = "source " + std::to_string(a.source) + ": ";
      try {
        const dsg::SsspResult result = core.run(plan, ctx, a.source, {});
        if (hash_distances(result.dist) != a.hash) {
          failures[t].push_back(where + "server answer differs from a direct solve");
          continue;
        }
        const dsg::ValidationReport valid =
            dsg::validate_sssp(plan.matrix(), a.source, result.dist);
        if (!valid.ok) failures[t].push_back(where + valid.message);
      } catch (const std::exception& e) {
        failures[t].push_back(where + e.what());
      }
    }
  };
  {
    std::vector<std::jthread> pool;  // joined at the end of this block
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(verify, t);
  }
  for (const auto& list : failures) {
    for (const std::string& why : list) report.fail(why);
  }
}

/// Untimed: the registry solve of the server's engine on the first cold
/// sources of `loop`, one at a time on an otherwise idle machine, profiled.
/// This is the solve a cold query waits for, without queueing.
std::vector<SolveSample> sample_solves(Report& report, const Loop& loop,
                                       const dsg::GraphPlan& plan,
                                       dsg::sssp::Algorithm algorithm, SpanLog& log) {
  constexpr std::size_t kSolveSamples = 200;
  const dsg::sssp::AlgorithmInfo& core = dsg::sssp::algorithm_info(algorithm);
  grb::Context ctx;
  dsg::ExecOptions exec;
  exec.profile = true;
  std::vector<SolveSample> samples;
  for (const Answer& a : loop.answers) {
    if (a.hot || !a.ok) continue;
    if (samples.size() == kSolveSamples) break;
    ++report.attempted;
    try {
      dsg::SsspResult result;
      std::uint64_t span_id = 0;
      {
        ScopedSpan span(log, "sssp.solve");
        span_id = span.id();
        result = core.run(plan, ctx, a.source, exec);
      }
      samples.push_back({result.stats, log.seconds(span_id), count_reached(result.dist)});
    } catch (const std::exception& e) {
      report.fail("source " + std::to_string(a.source) + ": " + e.what());
    }
  }
  return samples;
}

void verify_hot(Report& report, HotAnswers& hot_answers, const dsg::GraphPlan& plan) {
  for (const auto& [source, dist] : hot_answers.take()) {
    const dsg::ValidationReport valid = dsg::validate_sssp(plan.matrix(), source, dist);
    if (!valid.ok) report.fail("hot source " + std::to_string(source) + ": " + valid.message);
  }
}

std::vector<double> latencies(const Loop& loop) {
  std::vector<double> out;
  for (const Answer& a : loop.answers) {
    if (a.ok) out.push_back(a.latency);
  }
  return out;
}

}  // namespace

Report run_serve_workload(const Args& args) {
  Report report;
  SpanLog log(args.trace, 0);
  GraphInput in = make_rmat_graph(16, args.seed);
  if (in.sources.size() <= kHotSources) {
    throw std::runtime_error("social-serve: largest component too small");
  }
  const std::vector<Index> hot(in.sources.begin(), in.sources.begin() + kHotSources);
  const std::vector<Index> cold(in.sources.begin() + kHotSources, in.sources.end());

  // Untimed preparation: the plan file a deployment would ship.
  std::filesystem::create_directories(args.work_dir);
  const std::string plan_path =
      args.work_dir + "/social-serve-" + std::to_string(args.seed) + ".plan";
  {
    std::unique_ptr<dsg::GraphPlan> plan;
    {
      ScopedSpan build(log, "plan.build");
      plan = std::make_unique<dsg::GraphPlan>(in.matrix, dsg::kAutoDelta);
    }
    {
      ScopedSpan warm(log, "plan.warm");
      dsg::sssp::warm_plan(*plan, dsg::sssp::auto_algorithm(*plan));
    }
    ScopedSpan save(log, "plan_io.save");
    plan->save(plan_path);
  }
  in.matrix.reset();  // the server's plan holds the graph from here on

  // Cold start: load the plan file and start the server.  Half the set-up
  // repetitions run before the loop and half after it, so their median
  // samples the whole run.
  ServerOptions options;
  options.num_workers = kWorkers;
  options.profile = args.trace;
  std::vector<double> setups;
  const auto cold_start = [&] {
    Deployment d;
    const auto t0 = Clock::now();
    ScopedSpan setup(log, "setup");
    {
      ScopedSpan load(log, "plan_io.load", setup.id());
      d.plan = std::make_shared<const dsg::GraphPlan>(dsg::GraphPlan::load(plan_path));
    }
    ScopedSpan start(log, "server.start", setup.id());
    d.server = std::make_unique<SsspServer>(d.plan, options);
    setups.push_back(seconds_between(t0, Clock::now()));
    return d;
  };
  Deployment live;
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) {
    live = {};
    live = cold_start();
  }
  const dsg::GraphPlan& plan = *live.plan;
  const dsg::sssp::Algorithm algorithm = live.server->default_algorithm();

  std::atomic<std::size_t> next_cold{0};
  HotAnswers hot_answers;
  // Traced: the time is split into four segments, untraced server on the
  // same plan / traced / traced / untraced, so a steady drift in machine
  // speed falls on both equally; the qps ratio is the tracing overhead.
  // `measured` holds the loop whose numbers are reported.
  Loop measured, plain;
  if (args.trace) {
    ServerOptions plain_options = options;
    plain_options.profile = false;
    SsspServer untraced(live.plan, plain_options);
    for (int segment = 0; segment < 4; ++segment) {
      const bool on = segment == 1 || segment == 2;
      append(on ? measured : plain,
             run_loop(on ? *live.server : untraced, hot, cold, next_cold,
                      args.seconds / 4, mix_seed(args.seed, segment), on,
                      hot_answers));
    }
  } else {
    measured = run_loop(*live.server, hot, cold, next_cold, args.seconds,
                        args.seed, false, hot_answers);
  }
  const double peak_rss = peak_rss_mb();
  live.server.reset();
  for (int rep = 0; rep < kSetupRepsAfter; ++rep) cold_start();
  const double file_mb = static_cast<double>(std::filesystem::file_size(plan_path)) / 1e6;
  std::filesystem::remove(plan_path);

  for (const Loop* part : {&plain, &measured}) {
    count(report, *part);
    verify_cold(report, *part, plan, algorithm);
  }
  verify_hot(report, hot_answers, plan);
  const auto& cache = measured.stats.cache;
  const double hit_ratio =
      static_cast<double>(cache.hits) /
      static_cast<double>(std::max<std::uint64_t>(1, cache.hits + cache.misses));
  if (!args.trace) {
    set_end_to_end(report, latencies(measured), setups,
                   static_cast<double>(completed(measured)) / measured.wall_s,
                   peak_rss);
    report.note("cache_hit_ratio", hit_ratio, "ratio");
    report.note("cold_sources_wrapped", next_cold.load() > cold.size() ? 1 : 0, "bool");
    return report;
  }

  const std::vector<SolveSample> samples =
      sample_solves(report, measured, plan, algorithm, log);
  report.spans = log.spans();
  report.spans.insert(report.spans.end(), measured.spans.begin(),
                      measured.spans.end());
  const std::vector<Span>& spans = report.spans;
  report.set("plan.build_s", median(span_seconds(spans, "plan.build")), "s");
  report.set("plan.warm_s", median(span_seconds(spans, "plan.warm")), "s");
  set_plan_layer(report, plan, false);
  set_sssp_layer(report, samples);
  report.set("plan_io.load_s", median(span_seconds(spans, "plan_io.load")), "s");
  report.set("plan_io.file_mb", file_mb, "MB");
  report.set("server.start_s", median(span_seconds(spans, "server.start")), "s");
  report.set("server.cache_hit_ratio", hit_ratio, "ratio");
  report.set("server.cache_evictions", static_cast<double>(cache.evictions), "count");
  const double hot_p50 = 1e3 * median(span_seconds(spans, "client.query", "hot"));
  const double cold_p50 = 1e3 * median(span_seconds(spans, "client.query", "cold"));
  std::vector<double> solves;
  for (const SolveSample& sample : samples) solves.push_back(sample.seconds);
  const double solve_ms = 1e3 * median(solves);
  report.set("server.hot_p50_ms", hot_p50, "ms");
  report.set("server.cold_p50_ms", cold_p50, "ms");
  report.set("server.solve_ms", solve_ms, "ms");
  report.set("server.queue_ms", cold_p50 - solve_ms, "ms");
  const double plain_qps = static_cast<double>(completed(plain)) / plain.wall_s;
  const double traced_qps = static_cast<double>(completed(measured)) / measured.wall_s;
  report.set("trace.overhead_pct",
             traced_qps > 0 ? 100.0 * (plain_qps / traced_qps - 1.0) : 0.0, "%");
  return report;
}

}  // namespace perfbench
