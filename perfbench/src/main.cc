// perfbench — the repository's single benchmark: one engine, one workload
// per invocation, every metric printed by name with its unit and sample
// count, answers checked, and the contract's JSON result as the last line.
//
//   perfbench --workload <read_100k|churn_8k> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--scratch DIR]
//             [--commit ID]
//   perfbench --list        # workloads and metric names, one per line
//
// Normally started through `python3 perfbench/run.py`, which builds it.
// Exits 1 on any failed operation or correctness-witness mismatch, 2 on a
// usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--smoke] [--scratch DIR] [--commit ID]\n"
               "       perfbench --list\n");
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string scratch = ".bench_build/perfbench";
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      for (const std::string& w : perfbench::WorkloadNames()) std::printf("workload %s\n", w.c_str());
      for (const std::string& m : perfbench::EndToEndMetricNames()) std::printf("end_to_end %s\n", m.c_str());
      for (const std::string& m : perfbench::PerLayerMetricNames()) std::printf("per_layer %s\n", m.c_str());
      return 0;
    } else if (arg == "--workload") {
      config.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value() != "0";
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--scratch") {
      scratch = value();
    } else if (arg == "--commit") {
      commit = value();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }
  if (!have_workload || !(config.seconds > 0.0)) {
    Usage();
    return 2;
  }
  const std::string tag = config.workload + "-seed" + std::to_string(config.seed) +
                          (config.trace ? "-traced" : "");
  config.work_dir = scratch + "/work-" + tag + "-" + std::to_string(getpid());
  if (config.trace) config.trace_path = scratch + "/spans-" + config.workload + ".jsonl";

  topl::Result<perfbench::RunOutput> run = perfbench::RunWorkload(config);
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const perfbench::RunOutput& out = *run;

  std::printf("== perfbench %s ==\n", config.workload.c_str());
  std::printf("condition commit = %s\n", commit.c_str());
  for (const auto& [key, value] : out.conditions) {
    std::printf("condition %s = %s\n", key.c_str(), value.c_str());
  }
  for (const perfbench::Metric& m : out.report) {
    std::printf("metric %-38s %14.6f %-16s n=%llu%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.short_tail ? "  (fewer than 10 samples beyond this percentile)" : "");
  }
  for (const std::string& failure : out.failures) {
    std::printf("FAILED %s\n", failure.c_str());
  }

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.json.size(); ++i) {
    const perfbench::Metric& m = out.json[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
