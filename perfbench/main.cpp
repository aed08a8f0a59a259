// main.cpp — the benchmark binary.  perfbench/run.py builds and runs it;
// it can also be run by hand:
//
//   perfbench --workload road-w --seed 1 --seconds 20 --trace 0
//             [--trace-out spans.json] [--work-dir DIR]
//
// The last line of standard output is the run's result as JSON.  The exit
// status is 0 only when every query was answered correctly.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "perfbench.hpp"

namespace {

constexpr int kExitFailedQueries = 3;
constexpr int kExitUsage = 2;

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  args.work_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("flag without a value");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return kExitUsage;
  }
  perfbench::Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return kExitUsage;
  }
  try {
    perfbench::Report report;
    if (args.workload == "social-serve") {
      report = perfbench::run_serve_workload(args);
    } else if (args.workload == "road-w" || args.workload == "paper-graphblas") {
      report = perfbench::run_solver_workload(args);
    } else {
      std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
      return kExitUsage;
    }
    if (args.trace) {
      perfbench::complete_per_layer(report);
      if (!args.trace_out.empty()) perfbench::write_spans(args.trace_out, report.spans);
    }
    std::cout << perfbench::report_json(args, report) << std::endl;
    return report.failed == 0 ? 0 : kExitFailedQueries;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
