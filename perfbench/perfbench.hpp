// perfbench.hpp — shared pieces of the repository benchmark: the seeded
// workload inputs, the span recorder of the traced run, and the result
// report every workload fills in.  README.md in this directory describes
// the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graphblas/matrix.hpp"
#include "sssp/common.hpp"
#include "sssp/plan.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using dsg::Index;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Set-up repetitions per run, split between before and after the measured
/// loop so that their median samples the whole run; setup_s is that median.
inline constexpr int kSetupRepsBefore = 6;
inline constexpr int kSetupRepsAfter = 5;

// ---- command line --------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span file of the traced run
  std::string work_dir;   ///< scratch files (the social-serve plan file)
};

// ---- inputs (graphs.cpp) -------------------------------------------------

/// splitmix64 of seed ^ salt: independent streams for graph, weights and
/// sources from one workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

struct GraphInput {
  std::shared_ptr<const grb::Matrix<double>> matrix;
  /// Every vertex of the largest connected component, in the seeded
  /// stratified order of graphs.cpp: queries take sources from the front,
  /// so distinct sources never repeat until the component is exhausted.
  std::vector<Index> sources;
};

/// grid-512x512, symmetric, weights uniform in [1, 100).
GraphInput make_road_graph(std::uint64_t seed);
/// rmat-<scale> (edge factor 12, Graph500 partition), symmetric, unit
/// weights.
GraphInput make_rmat_graph(unsigned scale, std::uint64_t seed);

/// Order-sensitive 64-bit hash over the bit patterns of a distance vector.
std::uint64_t hash_distances(const std::vector<double>& dist);
/// Number of finite entries.
Index count_reached(const std::vector<double>& dist);

// ---- tracing (report.cpp) ------------------------------------------------

/// One traced interval.  Ids are unique per run; parent 0 means a root.
struct Span {
  const char* name = "";
  const char* tag = nullptr;  ///< optional class, e.g. "hot" / "cold"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t query = 0;  ///< shared by the spans of one query; 0 = none
  Clock::time_point start;
  Clock::time_point end;
};

/// Spans of one thread, kept in memory until the run ends.  A disabled log
/// records nothing and costs one branch per call.
class SpanLog {
 public:
  SpanLog(bool enabled, std::uint32_t thread) : enabled_(enabled), thread_(thread) {}

  std::uint64_t open(const char* name, std::uint64_t parent,
                     std::uint64_t query, const char* tag);
  void close(std::uint64_t id);
  /// Duration of a closed span.
  double seconds(std::uint64_t id) const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::uint32_t thread_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t parent = 0,
             std::uint64_t query = 0, const char* tag = nullptr)
      : log_(log), id_(log.open(name, parent, query, tag)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

/// Durations in seconds of the spans called `name` (and tagged `tag`, when
/// given), in recording order.
std::vector<double> span_seconds(const std::vector<Span>& spans,
                                 std::string_view name,
                                 const char* tag = nullptr);

// ---- report (report.cpp) -------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<Metric> metrics;        ///< the run's reported metrics
  std::vector<Metric> info;           ///< context: sample counts, sizes
  std::vector<Span> spans;            ///< traced run only

  void set(std::string name, double value, std::string unit);
  void note(std::string name, double value, std::string unit);
  void fail(std::string why);
};

/// Linear-interpolation percentile, q in [0, 1]; 0 for no samples.
double percentile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Peak resident set of this process so far, in MB (1e6 bytes).
double peak_rss_mb();

/// The end-to-end metrics every untraced run reports, from client-observed
/// latencies (seconds), set-up times (seconds), the queries completed per
/// second and the peak resident memory read when the measured loop ended
/// (so the benchmark's own checks afterwards do not count).
void set_end_to_end(Report& report, const std::vector<double>& latencies,
                    const std::vector<double>& setups, double qps,
                    double peak_rss);

/// One solve as the sssp layer saw it (profile = true).
struct SolveSample {
  dsg::SsspStats stats;
  double seconds = 0.0;
  Index reached = 0;
};

/// sssp.*: per-query medians of the core's counters and the phase shares
/// of solve wall time.
void set_sssp_layer(Report& report, const std::vector<SolveSample>& samples);

/// plan.mb, plan.light_nnz, plan.heavy_nnz, plan.delta.  plan.mb is
/// computed from the array sizes of the CSR, the light/heavy split and,
/// with `grb_split`, its grb::Matrix copies.
void set_plan_layer(Report& report, const dsg::GraphPlan& plan,
                    bool grb_split);

/// Per-layer metrics a workload did not measure because it does not run
/// that layer are reported as 0.
void complete_per_layer(Report& report);

/// The run's result as one JSON line: stamp, correctness, metrics, info.
std::string report_json(const Args& args, const Report& report);

/// Writes the spans as a JSON array (times in microseconds from the first
/// span's start).
void write_spans(const std::string& path, const std::vector<Span>& spans);

// ---- workloads -----------------------------------------------------------

/// road-w and paper-graphblas: one caller thread on SsspSolver.
Report run_solver_workload(const Args& args);
/// social-serve: plan file cold start, SsspServer, closed-loop clients.
Report run_serve_workload(const Args& args);

}  // namespace perfbench
