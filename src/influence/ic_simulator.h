#ifndef TOPL_INFLUENCE_IC_SIMULATOR_H_
#define TOPL_INFLUENCE_IC_SIMULATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "influence/propagation.h"

namespace topl {

/// \brief Monte-Carlo simulator for the Independent Cascade (IC) model.
///
/// The paper's influence machinery uses the MIA model, which scores a target
/// by its single best activation path — a tractable lower bound on the IC
/// model (§II-B), where activation succeeds if *any* incoming attempt from an
/// active neighbor fires and exact spread computation is #P-hard. This
/// simulator estimates IC activation probabilities by repeated randomized
/// cascades, giving the library a ground-truth oracle to quantify how tight
/// the MIA approximation is on a given workload (bench_mia_vs_ic).
class IcSimulator {
 public:
  struct Options {
    /// Monte-Carlo rounds; the standard error of each activation probability
    /// is at most 0.5 / sqrt(num_rounds).
    std::uint32_t num_rounds = 1000;
    std::uint64_t seed = 42;
  };

  explicit IcSimulator(const Graph& g);

  /// Estimates activation probabilities from `seeds` (deduplicated ids).
  /// Returns every vertex whose estimated probability is ≥ min_probability,
  /// with `score` = estimated expected spread Σ p̂(v) over those vertices
  /// (seeds included at probability 1).
  InfluencedCommunity EstimateSpread(std::span<const VertexId> seeds,
                                     const Options& options,
                                     double min_probability = 0.0);

  /// Expected cascade size E[|active|] over all vertices (no threshold).
  double EstimateExpectedSpread(std::span<const VertexId> seeds,
                                const Options& options);

 private:
  friend class EpochWrapTestPeer;

  // Runs the cascades and returns per-touched-vertex activation counts.
  void RunCascades(std::span<const VertexId> seeds, const Options& options);

  const Graph* graph_;
  // Epoch-stamped per-vertex activation counters (allocation-free reuse).
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<VertexId> touched_;
  // Per-cascade "active this round" stamps; the tag is monotone across all
  // cascades of the simulator's lifetime.
  std::vector<std::uint64_t> active_round_;
  std::uint64_t cascade_tag_ = 0;
  std::vector<VertexId> frontier_;
  std::vector<VertexId> next_;
};

}  // namespace topl

#endif  // TOPL_INFLUENCE_IC_SIMULATOR_H_
