#ifndef TOPL_LOADGEN_REPORT_H_
#define TOPL_LOADGEN_REPORT_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "loadgen/recorder.h"
#include "loadgen/workload.h"

namespace topl {
namespace loadgen {

/// Latency/outcome summary of one operation kind (milliseconds; percentiles
/// histogram-estimated at the geometric bucket midpoint, max exact).
struct OpKindSummary {
  std::uint64_t count = 0;
  std::uint64_t failed = 0;
  std::uint64_t truncated = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
  /// Mean time inside the engine call; diverges from mean_ms when the run
  /// builds a queue (open loop behind on its arrival schedule).
  double mean_service_ms = 0.0;
};

/// Service-level objectives a run is checked against. 0 disables a check;
/// failed operations always count against max_failed.
struct SloThresholds {
  double min_ops_per_s = 0.0;
  double max_p99_ms = 0.0;
  double max_p999_ms = 0.0;
  std::uint64_t max_failed = 0;
};

/// \brief Aggregated result of one load run, as written to BENCH_serve.json.
struct LoadReport {
  std::string mix;
  bool open_loop = false;
  double target_qps = 0.0;    // 0 in closed-loop mode
  double achieved_qps = 0.0;  // completed ops / wall seconds
  double ops_per_s = 0.0;     // same value; kept as the gated-metric name
  double wall_seconds = 0.0;
  std::uint64_t ops_total = 0;
  std::uint64_t failed = 0;
  std::uint64_t truncated = 0;
  /// Overload accounting (engine admission gate + injector retry policy):
  /// Unavailable responses observed, operations served as degraded anytime
  /// answers, and re-issued attempts after a shed response.
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t retried = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t snapshot_epoch = 0;
  std::uint64_t stream_digest = 0;

  /// Result-cache activity *during the measured run* (deltas over the
  /// engine's cumulative counters, so warmup fills don't count as measured
  /// hits). All zero when the engine runs cache-disabled.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_coalesced = 0;
  /// hits / (hits + misses + coalesced); 0 when the cache saw no lookups.
  double hit_rate = 0.0;

  std::array<OpKindSummary, kNumOpKinds> per_kind{};
  /// All kinds folded into one distribution (what the headline SLOs gate).
  OpKindSummary overall;

  /// Human-readable violation descriptions; empty = all SLOs met.
  std::vector<std::string> CheckSlo(const SloThresholds& slo) const;

  /// Pretty-printed run table for stdout.
  std::string ToString() const;

  /// The BENCH_serve.json payload (self-contained object, trailing newline).
  std::string ToJson() const;
};

/// Folds per-worker recorders into a report. `wall_seconds` is the measured
/// run duration (last completion minus start), `target_qps` 0 for closed
/// loop.
LoadReport BuildReport(std::span<const LoadRecorder> recorders,
                       const std::string& mix, bool open_loop,
                       double target_qps, double wall_seconds);

}  // namespace loadgen
}  // namespace topl

#endif  // TOPL_LOADGEN_REPORT_H_
