#ifndef TOPL_ENGINE_ENGINE_STATS_H_
#define TOPL_ENGINE_ENGINE_STATS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "common/latency_histogram.h"
#include "core/query.h"

namespace topl {

/// How a query entered the engine. Latency samples are tagged with their
/// kind so percentiles are reported per kind — batch fan-outs and
/// progressive (possibly deadline-truncated) queries have very different
/// latency profiles from interactive single queries, and mixing them into
/// one histogram made p50/p99 meaningless for all of them.
enum class QueryKind : std::uint8_t {
  kSearch = 0,       ///< Search: one plain TopL query
  kBatch = 1,        ///< a SearchBatch slot
  kDiversified = 2,  ///< SearchDiversified: one plain DTopL query
  kProgressive = 3,  ///< SearchProgressive / SearchDiversifiedProgressive
};

inline constexpr std::size_t kNumQueryKinds = 4;

inline const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSearch:
      return "search";
    case QueryKind::kBatch:
      return "batch";
    case QueryKind::kDiversified:
      return "dtopl";
    case QueryKind::kProgressive:
      return "progressive";
  }
  return "?";
}

/// Latency distribution of one query kind. Percentiles are estimated from
/// power-of-two histograms at the bucket's geometric midpoint, so they are
/// within a factor sqrt(2) of the true sample (common/latency_histogram.h);
/// max is exact.
struct LatencySummary {
  std::uint64_t count = 0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double p999_seconds = 0.0;
  double max_seconds = 0.0;
};

/// \brief Snapshot of an Engine's cumulative service counters, aggregated
/// over every query answered since the engine was created.
struct EngineStats {
  std::uint64_t queries_total = 0;
  std::uint64_t topl_queries = 0;
  std::uint64_t dtopl_queries = 0;
  std::uint64_t failed_queries = 0;
  std::uint64_t batches = 0;
  /// Progressive entry points served (also counted in topl/dtopl_queries).
  std::uint64_t progressive_queries = 0;
  /// Queries that returned best-so-far after a deadline, cancellation, or
  /// progressive early stop.
  std::uint64_t truncated_queries = 0;

  /// Queries rejected by admission control with Status::Unavailable
  /// (engine_options.h max_in_flight_queries) — not counted in
  /// queries_total, which tracks executions.
  std::uint64_t queries_shed = 0;
  /// Queries the overloaded engine served as truncated anytime answers
  /// instead of shedding (the caller had a deadline). Also counted in
  /// queries_total and truncated_queries.
  std::uint64_t queries_degraded = 0;

  /// Graph deltas installed via Engine::ApplyUpdate.
  std::uint64_t updates_applied = 0;
  /// Cumulative dirty centers re-precomputed across all updates (the
  /// incremental-maintenance work actually done; compare against
  /// updates_applied * n for the avoided fraction).
  std::uint64_t update_dirty_centers = 0;
  /// Epoch of the snapshot currently serving new queries (0 until the first
  /// update).
  std::uint64_t snapshot_epoch = 0;
  /// Snapshots still referenced: the current one plus any older epochs kept
  /// alive by in-flight queries or not-yet-retired worker contexts.
  std::uint64_t live_snapshots = 0;
  /// Worker contexts destroyed because their snapshot was superseded (their
  /// counters live on in these stats).
  std::uint64_t retired_contexts = 0;

  /// Result-cache counters (engine_options.h enable_result_cache; all zero
  /// when the cache is off). queries_total counts *executions*: a cache hit
  /// or coalesced wait answers a query without executing it, so hits and
  /// coalesced are reported here instead of inflating the latency
  /// histograms with sub-microsecond samples.
  bool cache_enabled = false;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;      ///< lookups that led an execution
  std::uint64_t cache_coalesced = 0;   ///< lookups that joined an in-flight one
  std::uint64_t cache_invalidated = 0; ///< entries erased by dirty-region checks
  std::uint64_t cache_evicted = 0;     ///< entries erased by the LRU byte budget
  std::uint64_t cache_entries = 0;     ///< resident entries right now
  std::uint64_t cache_bytes = 0;       ///< resident bytes right now

  /// Per-query counters merged with QueryStats::operator+= (prune counters,
  /// heap pops, refinements; elapsed_seconds is the summed query time).
  QueryStats query_stats;

  /// Latency percentiles per query kind, indexed by QueryKind.
  std::array<LatencySummary, kNumQueryKinds> latency;

  /// Latency percentiles over *all* queries of every kind (legacy view;
  /// prefer the per-kind summaries for alerting).
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  double p999_latency_seconds = 0.0;
  double max_latency_seconds = 0.0;

  const LatencySummary& ForKind(QueryKind kind) const {
    return latency[static_cast<std::size_t>(kind)];
  }

  std::string ToString() const {
    std::string out =
        "queries=" + std::to_string(queries_total) +
        " (topl=" + std::to_string(topl_queries) +
        " dtopl=" + std::to_string(dtopl_queries) +
        " failed=" + std::to_string(failed_queries) +
        " truncated=" + std::to_string(truncated_queries) +
        ") shed=" + std::to_string(queries_shed) +
        " degraded=" + std::to_string(queries_degraded) +
        " batches=" + std::to_string(batches) +
        " p50=" + std::to_string(p50_latency_seconds) + "s" +
        " p99=" + std::to_string(p99_latency_seconds) + "s" +
        " p999=" + std::to_string(p999_latency_seconds) + "s" +
        " max=" + std::to_string(max_latency_seconds) + "s";
    for (std::size_t k = 0; k < kNumQueryKinds; ++k) {
      if (latency[k].count == 0) continue;
      out += std::string(" ") + QueryKindName(static_cast<QueryKind>(k)) +
             "{n=" + std::to_string(latency[k].count) +
             " p50=" + std::to_string(latency[k].p50_seconds) + "s" +
             " p99=" + std::to_string(latency[k].p99_seconds) + "s" +
             " p999=" + std::to_string(latency[k].p999_seconds) + "s}";
    }
    out += " pruned=" + std::to_string(query_stats.TotalPruned()) +
           " refined=" + std::to_string(query_stats.candidates_refined);
    if (cache_enabled) {
      out += " cache{hits=" + std::to_string(cache_hits) +
             " misses=" + std::to_string(cache_misses) +
             " coalesced=" + std::to_string(cache_coalesced) +
             " invalidated=" + std::to_string(cache_invalidated) +
             " evicted=" + std::to_string(cache_evicted) +
             " entries=" + std::to_string(cache_entries) +
             " bytes=" + std::to_string(cache_bytes) + "}";
    }
    if (updates_applied > 0) {
      out += " updates=" + std::to_string(updates_applied) +
             " dirty_centers=" + std::to_string(update_dirty_centers) +
             " epoch=" + std::to_string(snapshot_epoch) +
             " live_snapshots=" + std::to_string(live_snapshots) +
             " retired_contexts=" + std::to_string(retired_contexts);
    }
    return out;
  }
};

/// \brief One worker context's mutex-free stats accumulator.
///
/// Exactly one query writes to a shard at a time (the Engine leases each
/// worker context to a single query), but Engine::Stats() reads shards
/// concurrently with writers, so every field is a relaxed atomic: snapshots
/// are cheap, race-free, and never block the query path. Latencies go into
/// one power-of-two histogram *per query kind* (the shared layout of
/// common/latency_histogram.h: bucket i holds queries taking
/// [2^(i-1), 2^i) microseconds) from which the snapshot derives per-kind and
/// overall p50/p99/p999.
class EngineStatsShard {
 public:
  static constexpr std::size_t kLatencyBuckets = kLatencyHistogramBuckets;

  using Histogram = LatencyBuckets;

  void Record(QueryKind kind, bool diversified, bool ok, bool truncated,
              double seconds, const QueryStats& qs) {
    constexpr auto relaxed = std::memory_order_relaxed;
    const std::size_t k = static_cast<std::size_t>(kind);
    (diversified ? dtopl_queries_ : topl_queries_).fetch_add(1, relaxed);
    if (!ok) failed_queries_.fetch_add(1, relaxed);
    if (truncated) truncated_queries_.fetch_add(1, relaxed);
    if (kind == QueryKind::kProgressive) {
      progressive_queries_.fetch_add(1, relaxed);
    }

    const std::uint64_t micros =
        seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e6);
    total_micros_.fetch_add(micros, relaxed);
    std::atomic<std::uint64_t>& max_micros = max_micros_[k];
    std::uint64_t prev_max = max_micros.load(relaxed);
    while (prev_max < micros &&
           !max_micros.compare_exchange_weak(prev_max, micros, relaxed)) {
    }
    latency_buckets_[k][LatencyBucket(micros)].fetch_add(1, relaxed);

    heap_pops_.fetch_add(qs.heap_pops, relaxed);
    index_nodes_visited_.fetch_add(qs.index_nodes_visited, relaxed);
    pruned_keyword_.fetch_add(qs.pruned_keyword, relaxed);
    pruned_support_.fetch_add(qs.pruned_support, relaxed);
    pruned_score_.fetch_add(qs.pruned_score, relaxed);
    pruned_termination_.fetch_add(qs.pruned_termination, relaxed);
    candidates_refined_.fetch_add(qs.candidates_refined, relaxed);
    precheck_rejected_.fetch_add(qs.precheck_rejected, relaxed);
    communities_found_.fetch_add(qs.communities_found, relaxed);
    propagations_.fetch_add(qs.propagations, relaxed);
    triangles_inspected_.fetch_add(qs.triangles_inspected, relaxed);
    support_recomputes_avoided_.fetch_add(qs.support_recomputes_avoided, relaxed);
    waves_.fetch_add(qs.waves, relaxed);
    parallel_chunks_.fetch_add(qs.parallel_chunks, relaxed);
  }

  /// Adds this shard's counters into `total` and its per-kind latency
  /// histograms into `buckets`. Percentiles are computed by the caller once
  /// all shards (and thus all buckets) are merged.
  void MergeInto(EngineStats* total,
                 std::array<Histogram, kNumQueryKinds>* buckets) const {
    constexpr auto relaxed = std::memory_order_relaxed;
    total->topl_queries += topl_queries_.load(relaxed);
    total->dtopl_queries += dtopl_queries_.load(relaxed);
    total->failed_queries += failed_queries_.load(relaxed);
    total->truncated_queries += truncated_queries_.load(relaxed);
    total->progressive_queries += progressive_queries_.load(relaxed);
    for (std::size_t k = 0; k < kNumQueryKinds; ++k) {
      total->latency[k].max_seconds =
          std::max(total->latency[k].max_seconds,
                   static_cast<double>(max_micros_[k].load(relaxed)) / 1e6);
    }

    QueryStats shard;
    shard.heap_pops = heap_pops_.load(relaxed);
    shard.index_nodes_visited = index_nodes_visited_.load(relaxed);
    shard.pruned_keyword = pruned_keyword_.load(relaxed);
    shard.pruned_support = pruned_support_.load(relaxed);
    shard.pruned_score = pruned_score_.load(relaxed);
    shard.pruned_termination = pruned_termination_.load(relaxed);
    shard.candidates_refined = candidates_refined_.load(relaxed);
    shard.precheck_rejected = precheck_rejected_.load(relaxed);
    shard.communities_found = communities_found_.load(relaxed);
    shard.propagations = propagations_.load(relaxed);
    shard.triangles_inspected = triangles_inspected_.load(relaxed);
    shard.support_recomputes_avoided = support_recomputes_avoided_.load(relaxed);
    shard.waves = waves_.load(relaxed);
    shard.parallel_chunks = parallel_chunks_.load(relaxed);
    shard.elapsed_seconds = static_cast<double>(total_micros_.load(relaxed)) / 1e6;
    total->query_stats += shard;

    for (std::size_t k = 0; k < kNumQueryKinds; ++k) {
      for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
        (*buckets)[k][i] += latency_buckets_[k][i].load(relaxed);
      }
    }
  }

  /// Representative latency (seconds) of bucket i: the geometric midpoint of
  /// its [2^(i-1), 2^i) microsecond range (common/latency_histogram.h).
  static double BucketSeconds(std::size_t i) { return LatencyBucketSeconds(i); }

  static std::size_t LatencyBucket(std::uint64_t micros) {
    return LatencyBucketIndex(micros);
  }

 private:
  std::atomic<std::uint64_t> topl_queries_{0};
  std::atomic<std::uint64_t> dtopl_queries_{0};
  std::atomic<std::uint64_t> failed_queries_{0};
  std::atomic<std::uint64_t> truncated_queries_{0};
  std::atomic<std::uint64_t> progressive_queries_{0};
  std::atomic<std::uint64_t> total_micros_{0};
  std::array<std::atomic<std::uint64_t>, kNumQueryKinds> max_micros_{};
  std::array<std::array<std::atomic<std::uint64_t>, kLatencyBuckets>,
             kNumQueryKinds>
      latency_buckets_{};

  std::atomic<std::uint64_t> heap_pops_{0};
  std::atomic<std::uint64_t> index_nodes_visited_{0};
  std::atomic<std::uint64_t> pruned_keyword_{0};
  std::atomic<std::uint64_t> pruned_support_{0};
  std::atomic<std::uint64_t> pruned_score_{0};
  std::atomic<std::uint64_t> pruned_termination_{0};
  std::atomic<std::uint64_t> candidates_refined_{0};
  std::atomic<std::uint64_t> precheck_rejected_{0};
  std::atomic<std::uint64_t> communities_found_{0};
  std::atomic<std::uint64_t> propagations_{0};
  std::atomic<std::uint64_t> triangles_inspected_{0};
  std::atomic<std::uint64_t> support_recomputes_avoided_{0};
  std::atomic<std::uint64_t> waves_{0};
  std::atomic<std::uint64_t> parallel_chunks_{0};
};

}  // namespace topl

#endif  // TOPL_ENGINE_ENGINE_STATS_H_
