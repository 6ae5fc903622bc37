#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "loadgen/workload.h"

namespace perfbench {

/// The operation streams, each a pure function of the benchmark seed (and
/// the graph the generator is created over).
/// read_100k: the `mixed` parameter bands, uniform popularity over 4096
/// signatures, topl / dtopl / progressive = 60 / 20 / 20.
topl::loadgen::WorkloadSpec ReadSpec(std::uint64_t seed);
/// churn_8k readers: `repeat_heavy` (zipf 1.2 over 16 signatures, 90/10).
topl::loadgen::WorkloadSpec ChurnSpec(std::uint64_t seed);
/// The writer: every op an update, MakeRandomDelta with 4 ops each.
topl::loadgen::WorkloadSpec UpdateSpec(std::uint64_t seed);

/// One invocation of the benchmark.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer spans and counters instead of end-to-end metrics.
  bool trace = false;
  /// Functional check in seconds: small graphs, one setup.
  bool smoke = false;
  /// Scratch directory (artifact, journal) — created and removed by the run.
  std::string work_dir;
  /// Where a traced run writes its spans (JSON lines).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
  /// A percentile with fewer than ten samples beyond it.
  bool short_tail = false;
};

struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Run conditions (nproc, compiler, seed, thread counts, build, ...).
  std::vector<std::pair<std::string, std::string>> conditions;
  /// Every metric the run measured, printed by name (a superset of `json`).
  std::vector<Metric> report;
  /// The BENCHMARK.json metric set of this mode, in its declared order.
  std::vector<Metric> json;
  /// One line per failed operation class or correctness-witness mismatch.
  std::vector<std::string> failures;
};

/// Client threads and the engine's pool size for a workload on `cpus` CPUs.
struct ThreadPlan {
  std::size_t readers = 1;
  /// 0: the engine default (hardware concurrency), for a workload without a
  /// writer. With a writer, the writer and the pool threads it spawns are
  /// pinned to CPUs [readers, readers + engine_threads) of the affinity mask.
  std::size_t engine_threads = 0;
};

/// Readers plus the engine's pool stay within `cpus` wherever they run at
/// the same time, and every count is at least 1 (even on one CPU).
/// InvalidArgument for an unknown workload.
topl::Result<ThreadPlan> PlanThreads(const std::string& workload, std::size_t cpus);

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Metric names of each mode, in BENCHMARK.json order.
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

topl::Result<RunOutput> RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
