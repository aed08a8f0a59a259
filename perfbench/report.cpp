// report.cpp — span recording, summary statistics and the JSON result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#ifdef DSG_HAVE_OPENMP
#include <omp.h>
#endif

#include "perfbench.hpp"

namespace perfbench {

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order of BENCHMARK.json (run.py checks
// the two lists agree).
constexpr MetricName kPerLayer[] = {
    {"plan.build_s", "s"},
    {"plan.warm_s", "s"},
    {"plan.mb", "MB"},
    {"plan.light_nnz", "count"},
    {"plan.heavy_nnz", "count"},
    {"plan.delta", "weight"},
    {"sssp.solve_ms", "ms"},
    {"sssp.buckets", "count"},
    {"sssp.light_phases", "count"},
    {"sssp.relax_requests", "count"},
    {"sssp.reached", "count"},
    {"sssp.useful_ratio", "ratio"},
    {"sssp.light_share", "ratio"},
    {"sssp.heavy_share", "ratio"},
    {"sssp.vector_share", "ratio"},
    {"sssp.unattributed_share", "ratio"},
    {"graphblas.dense_writes", "count"},
    {"graphblas.split_s", "s"},
    {"plan_io.load_s", "s"},
    {"plan_io.file_mb", "MB"},
    {"server.start_s", "s"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.cache_evictions", "count"},
    {"server.hot_p50_ms", "ms"},
    {"server.cold_p50_ms", "ms"},
    {"server.solve_ms", "ms"},
    {"server.queue_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

constexpr std::size_t kMaxFailureMessages = 8;

constexpr int kThreadShift = 40;

std::size_t index_of(std::uint64_t span_id) {
  return (span_id & ((std::uint64_t{1} << kThreadShift) - 1)) - 1;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest round-trip form; non-finite values (never produced by a
/// correct run) become null so the document stays valid JSON.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
    model.erase(std::find(model.begin(), model.end(), '\0'), model.end());
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string stamp_json(const Args& args) {
  long l3 = -1;
#ifdef _SC_LEVEL3_CACHE_SIZE
  l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  int omp_threads = 1;
#ifdef DSG_HAVE_OPENMP
  omp_threads = omp_get_max_threads();
#endif
  std::ostringstream os;
  os << "{\"seed\":" << args.seed
     << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"openmp_threads\":" << omp_threads
     << ",\"cpu_model\":" << json_string(cpu_model())
     << ",\"l3_bytes\":" << l3 << "}";
  return os.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ",";
    out += json_string(metrics[i].name) + ":{\"value\":" +
           json_number(metrics[i].value) +
           ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::uint64_t SpanLog::open(const char* name, std::uint64_t parent,
                            std::uint64_t query, const char* tag) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.tag = tag;
  span.id = (std::uint64_t{thread_} << kThreadShift) | (spans_.size() + 1);
  span.parent = parent;
  span.query = query;
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(span);
  return span.id;
}

void SpanLog::close(std::uint64_t id) {
  if (id != 0) spans_[index_of(id)].end = Clock::now();
}

double SpanLog::seconds(std::uint64_t id) const {
  if (id == 0) return 0.0;
  const Span& span = spans_[index_of(id)];
  return seconds_between(span.start, span.end);
}

std::vector<double> span_seconds(const std::vector<Span>& spans,
                                 std::string_view name, const char* tag) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    if (tag && (!s.tag || std::string_view(s.tag) != tag)) continue;
    out.push_back(seconds_between(s.start, s.end));
  }
  return out;
}

void Report::set(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Report::note(std::string name, double value, std::string unit) {
  info.push_back({std::move(name), value, std::move(unit)});
}

void Report::fail(std::string why) {
  ++failed;
  if (failures.size() < kMaxFailureMessages) failures.push_back(std::move(why));
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

void set_end_to_end(Report& report, const std::vector<double>& latencies,
                    const std::vector<double>& setups, double qps,
                    double peak_rss) {
  report.set("setup_s", median(setups), "s");
  report.set("query_p50_ms", 1e3 * percentile(latencies, 0.50), "ms");
  report.set("query_p90_ms", 1e3 * percentile(latencies, 0.90), "ms");
  report.set("query_p99_ms", 1e3 * percentile(latencies, 0.99), "ms");
  report.set("qps", qps, "1/s");
  report.set("peak_rss_mb", peak_rss, "MB");
  const auto n = static_cast<double>(latencies.size());
  report.note("queries", n, "count");
  report.note("samples_beyond_p99", std::floor(0.01 * n), "count");
}

void set_sssp_layer(Report& report, const std::vector<SolveSample>& samples) {
  std::vector<double> seconds, buckets, phases, requests, reached;
  double light = 0, heavy = 0, vec = 0, total = 0, sum_reached = 0,
         sum_requests = 0;
  for (const SolveSample& s : samples) {
    seconds.push_back(s.seconds);
    buckets.push_back(static_cast<double>(s.stats.outer_iterations));
    phases.push_back(static_cast<double>(s.stats.light_phases));
    requests.push_back(static_cast<double>(s.stats.relax_requests));
    reached.push_back(static_cast<double>(s.reached));
    light += s.stats.light_seconds;
    heavy += s.stats.heavy_seconds;
    vec += s.stats.vector_seconds;
    total += s.seconds;
    sum_reached += static_cast<double>(s.reached);
    sum_requests += static_cast<double>(s.stats.relax_requests);
  }
  const auto share = [&](double part) { return total > 0 ? part / total : 0.0; };
  report.set("sssp.solve_ms", 1e3 * median(seconds), "ms");
  report.set("sssp.buckets", median(buckets), "count");
  report.set("sssp.light_phases", median(phases), "count");
  report.set("sssp.relax_requests", median(requests), "count");
  report.set("sssp.reached", median(reached), "count");
  report.set("sssp.useful_ratio",
             sum_requests > 0 ? sum_reached / sum_requests : 0.0, "ratio");
  report.set("sssp.light_share", share(light), "ratio");
  report.set("sssp.heavy_share", share(heavy), "ratio");
  report.set("sssp.vector_share", share(vec), "ratio");
  report.set("sssp.unattributed_share", share(total - light - heavy - vec),
             "ratio");
  report.note("sssp.samples", static_cast<double>(samples.size()), "count");
}

void set_plan_layer(Report& report, const dsg::GraphPlan& plan,
                    bool grb_split) {
  const auto& split = plan.light_heavy();
  const auto rows = static_cast<double>(plan.num_vertices()) + 1;
  const double entry = sizeof(Index) + sizeof(double);
  const auto light = static_cast<double>(split.light_ind.size());
  const auto heavy = static_cast<double>(split.heavy_ind.size());
  const double csr =
      rows * sizeof(Index) + static_cast<double>(plan.matrix().nvals()) * entry;
  const double halves = 2 * rows * sizeof(Index) + (light + heavy) * entry;
  const double bytes = csr + halves * (grb_split ? 2 : 1);
  report.set("plan.mb", bytes / 1e6, "MB");
  report.set("plan.light_nnz", light, "count");
  report.set("plan.heavy_nnz", heavy, "count");
  report.set("plan.delta", plan.delta(), "weight");
}

void complete_per_layer(Report& report) {
  for (const MetricName& m : kPerLayer) {
    const bool present =
        std::any_of(report.metrics.begin(), report.metrics.end(),
                    [&](const Metric& have) { return have.name == m.name; });
    if (!present) report.set(m.name, 0.0, m.unit);
  }
}

std::string report_json(const Args& args, const Report& report) {
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, report.attempted));
  std::ostringstream os;
  os << "{\"workload\":" << json_string(args.workload)
     << ",\"trace\":" << (args.trace ? 1 : 0)
     << ",\"seconds\":" << json_number(args.seconds)
     << ",\"stamp\":" << stamp_json(args)
     << ",\"correct\":" << (report.failed == 0 ? "true" : "false")
     << ",\"attempted\":" << report.attempted
     << ",\"failed\":" << report.failed
     << ",\"fail_ratio\":" << json_number(static_cast<double>(report.failed) / attempted)
     << ",\"failures\":[";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    os << (i ? "," : "") << json_string(report.failures[i]);
  }
  os << "],\"metrics\":" << metrics_json(report.metrics)
     << ",\"info\":" << metrics_json(report.info) << "}";
  return os.str();
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  Clock::time_point epoch = spans.empty() ? Clock::now() : spans.front().start;
  for (const Span& s : spans) epoch = std::min(epoch, s.start);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "") << "{\"name\":" << json_string(s.name)
        << ",\"tag\":" << (s.tag ? json_string(s.tag) : "null")
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"query\":" << s.query << ",\"start_us\":" << json_number(us(s.start))
        << ",\"end_us\":" << json_number(us(s.end)) << "}";
  }
  out << "\n]\n";
  if (!out) throw std::runtime_error("short write to span file " + path);
}

}  // namespace perfbench
