// perfbench driver: runs one workload of the mcmpart benchmark and prints
// its result object as the last line of standard output.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--mcmpart PATH]
//
// perfbench/run.py builds this binary and passes the work directory and the
// mcmpart CLI path; see perfbench/README.md.
#include <cstdio>
#include <exception>
#include <string>

#include "bench_util.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.start_s = perfbench::Now();
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") config.workload = value;
      else if (flag == "--seed") config.seed = std::stoull(value);
      else if (flag == "--seconds") config.seconds = std::stod(value);
      else if (flag == "--trace") config.trace = std::stoi(value) != 0;
      else if (flag == "--work-dir") config.work_dir = value;
      else if (flag == "--mcmpart") config.mcmpart = value;
      else throw std::runtime_error("unknown flag " + flag);
    }
    if (argc % 2 != 1) throw std::runtime_error("flags come in pairs");
    if (config.work_dir.empty()) throw std::runtime_error("--work-dir is required");
    if (config.seconds <= 0.0) throw std::runtime_error("--seconds must be positive");
    mcm::telemetry::RegisterStandardMetrics();
    // A traced run records set-up too (context, baseline repair solves).
    mcm::telemetry::EnableTracing(config.trace);

    perfbench::Outcome outcome;
    if (config.workload == "bert-search") {
      outcome = perfbench::RunBertSearch(config);
    } else if (config.workload == "hillclimb") {
      outcome = perfbench::RunHillClimb(config);
    } else if (config.workload == "corpus-rl") {
      outcome = perfbench::RunCorpusRl(config);
    } else if (config.workload == "serve") {
      outcome = perfbench::RunServe(config);
    } else {
      throw std::runtime_error("unknown workload '" + config.workload + "'");
    }
    outcome.Print();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
