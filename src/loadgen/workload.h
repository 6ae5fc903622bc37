#ifndef TOPL_LOADGEN_WORKLOAD_H_
#define TOPL_LOADGEN_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/query.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"

namespace topl {

class PrecomputedData;

namespace loadgen {

/// Operation kinds a workload mixes. Query kinds map 1:1 onto Engine entry
/// points; kUpdate drives Engine::ApplyUpdate concurrently with the queries,
/// which makes the harness the first sustained exerciser of the MVCC
/// snapshot-swap path.
enum class OpKind : std::uint8_t {
  kTopL = 0,         ///< Engine::Search
  kDTopL = 1,        ///< Engine::SearchDiversified
  kProgressive = 2,  ///< Engine::SearchProgressive (anytime scan)
  kUpdate = 3,       ///< Engine::ApplyUpdate of a random GraphDelta
};

inline constexpr std::size_t kNumOpKinds = 4;

inline const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kTopL:
      return "topl";
    case OpKind::kDTopL:
      return "dtopl";
    case OpKind::kProgressive:
      return "progressive";
    case OpKind::kUpdate:
      return "update";
  }
  return "?";
}

/// How query popularity is distributed over the signature pool.
enum class Popularity : std::uint8_t {
  kUniform = 0,
  kZipfian = 1,
};

/// Discrete bands the per-operation query parameters are drawn from
/// (uniformly, one independent draw per field). Mirrors the paper's §VIII
/// parameter sweeps; WorkloadSpec::FitToIndex fits the radius and theta
/// bands to what a given index can serve.
struct ParamBands {
  std::vector<std::uint32_t> k_values = {3, 4, 5};
  std::vector<std::uint32_t> radius_values = {1, 2};
  std::vector<double> theta_values = {0.1, 0.2, 0.3};
  std::vector<std::uint32_t> top_l_values = {3, 5, 10};
};

/// \brief Full description of a synthetic serving workload. A spec plus a
/// graph determines the operation stream bit-for-bit (see
/// WorkloadGenerator); everything a run needs to be reproduced is in here.
struct WorkloadSpec {
  /// Mix label carried into reports ("read_heavy", "mixed", ...).
  std::string name = "mixed";

  /// Fraction of operations per OpKind (indexed by OpKind, sums to 1).
  std::array<double, kNumOpKinds> mix = {0.50, 0.15, 0.25, 0.10};

  /// Popularity of the query-signature pool: kZipfian concentrates traffic
  /// on a few hot signatures (rank-frequency exponent `zipf_skew`, YCSB's
  /// default 0.99), kUniform spreads it evenly.
  Popularity popularity = Popularity::kZipfian;
  double zipf_skew = 0.99;

  /// Distinct query signatures (keyword set templates). Signature s is the
  /// rank-s most popular under kZipfian.
  std::uint32_t num_signatures = 64;

  /// Keywords per signature, drawn population-weighted from the graph so
  /// skewed keyword assignments still produce non-empty answers.
  std::uint32_t keywords_per_query = 3;

  ParamBands params;

  /// Shape of the random GraphDelta drawn per kUpdate operation.
  RandomDeltaOptions delta;

  /// Master seed: same seed + same graph => byte-identical operation stream,
  /// independent of thread count or interleaving.
  std::uint64_t seed = 42;

  /// The named mixes: read_heavy (80/10/8/2), update_heavy (45/5/0/50),
  /// progressive_scan (5/0/90/5), mixed (50/15/25/10), repeat_heavy
  /// (90/10/0/0 with zipf 1.2 over 16 signatures and single-value parameter
  /// bands — the result-cache workload) — fractions over
  /// topl/dtopl/progressive/update.
  static Result<WorkloadSpec> Named(const std::string& name);

  /// Fits the parameter bands to what `pre` can serve, keeping the mix's
  /// band shape (repeat_heavy's single values stay single, so its cache
  /// keys still repeat): radii outside 1..r_max are dropped, and a band left
  /// empty falls back to 1..min(r_max, 2); each theta snaps to the nearest
  /// precomputed threshold (queries off the grid are uncacheable below
  /// theta_min and imprecise elsewhere), duplicates removed.
  void FitToIndex(const PrecomputedData& pre);

  Status Validate() const;
};

/// One generated operation. Query kinds carry a fully-formed Query; updates
/// carry the seed from which the executor draws a MakeRandomDelta against
/// the engine's *current* snapshot (delta validity depends on graph state,
/// so materialization is deferred to apply time; the stream itself — kinds,
/// seeds, queries — stays deterministic).
struct Operation {
  std::uint64_t index = 0;
  OpKind kind = OpKind::kTopL;
  std::uint32_t signature = 0;
  Query query;
  std::uint64_t delta_seed = 0;
};

/// \brief Deterministic, thread-safe workload stream.
///
/// Operation i is a pure function of (spec, signature pool, i): At(i) seeds
/// a private Rng from the master seed and the index, so any number of
/// injector threads can claim indices in any order and the stream they
/// jointly execute is byte-identical to a single-threaded run — the
/// reproducibility contract the determinism tests pin down.
class WorkloadGenerator {
 public:
  /// Builds the signature pool from `graph` (population-weighted keyword
  /// draws, deterministic per spec.seed). Fails when the spec is invalid or
  /// the graph has no keywords to sample.
  static Result<WorkloadGenerator> Create(WorkloadSpec spec, const Graph& graph);

  /// The i-th operation of the stream. Thread-safe, O(|Q|) per call.
  Operation At(std::uint64_t index) const;

  /// FNV-1a digest over the first `num_ops` operations (kind, parameters,
  /// keywords, delta seeds). Two runs with the same spec and graph agree on
  /// this value; it is emitted into BENCH_serve.json as the determinism
  /// witness.
  std::uint64_t StreamDigest(std::uint64_t num_ops) const;

  const WorkloadSpec& spec() const { return spec_; }
  const std::vector<KeywordId>& signature(std::uint32_t s) const {
    return signatures_[s];
  }

 private:
  WorkloadGenerator(WorkloadSpec spec,
                    std::vector<std::vector<KeywordId>> signatures);

  WorkloadSpec spec_;
  /// Cumulative mix fractions, for O(kinds) kind selection.
  std::array<double, kNumOpKinds> cumulative_{};
  std::vector<std::vector<KeywordId>> signatures_;
};

}  // namespace loadgen
}  // namespace topl

#endif  // TOPL_LOADGEN_WORKLOAD_H_
