#ifndef TOPL_CORE_DTOPL_DETECTOR_H_
#define TOPL_CORE_DTOPL_DETECTOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/community_result.h"
#include "core/query.h"
#include "core/search_control.h"
#include "core/topl_detector.h"
#include "graph/graph.h"
#include "index/precompute.h"
#include "index/tree_index.h"

namespace topl {

/// Selection algorithm for the refinement step of DTopL-ICDE.
enum class DTopLAlgorithm {
  /// Algorithm 4: lazy greedy with the diversity-score pruning of Lemma 9 —
  /// stale marginal gains are valid upper bounds by submodularity, so a heap
  /// entry whose round stamp is current is the true argmax (CELF-style).
  kGreedyWithPruning,
  /// Greedy_WoP: recompute every candidate's marginal gain each round.
  kGreedyWithoutPruning,
  /// Exhaustive search over all C(|T|, L) subsets (small inputs only).
  kOptimal,
};

/// Parameters of a DTopL-ICDE query beyond the base Query.
struct DTopLOptions {
  /// Candidate-pool factor n (> 1): refinement selects L out of the top-(nL)
  /// most influential communities. Paper default 5.
  std::uint32_t n_factor = 5;
  DTopLAlgorithm algorithm = DTopLAlgorithm::kGreedyWithPruning;
  /// Guard for kOptimal: fail instead of enumerating more subsets than this.
  std::uint64_t max_optimal_subsets = 20'000'000;
  /// Pruning toggles forwarded to the candidate-generation TopL call.
  QueryOptions topl_options;
};

/// \brief A DTopL-ICDE answer: the selected set S plus D(S) and cost
/// counters for the two phases.
struct DTopLResult {
  std::vector<CommunityResult> communities;  // in selection order
  double diversity_score = 0.0;

  /// True when candidate generation stopped early (deadline, cancellation,
  /// progressive stop): the selection is then greedy over the best candidate
  /// pool found so far rather than the full top-(nL).
  bool truncated = false;
  /// Anytime gap inherited from the candidate phase: the largest influential
  /// score any unexplored candidate could still contribute to the pool. −∞
  /// when the pool is exact.
  double score_upper_bound = -std::numeric_limits<double>::infinity();

  /// True when admission control shed the full-work path and served this
  /// answer as a best-effort anytime result (engine/engine.h overload
  /// handling); the candidate pool is then whatever was explored in the
  /// degraded budget, with `score_upper_bound` still a valid gap bound.
  bool degraded = false;

  /// Centers of the full top-(nL) candidate pool the selection was refined
  /// from (selection order of the pool, i.e. σ desc / center asc). The
  /// diversified answer is a deterministic function of this pool, so result
  /// caches invalidate on the pool's dependence set, not the selected L's.
  std::vector<VertexId> pool_centers;
  /// σ of the weakest pool member; −∞ when the pool is empty.
  double pool_floor = -std::numeric_limits<double>::infinity();
  /// True when the pool reached the full n·L candidates — only then does
  /// `pool_floor` bound what a new community must score to enter the pool.
  bool pool_full = false;

  QueryStats candidate_stats;     // the embedded TopL call
  double candidate_seconds = 0.0;
  double refine_seconds = 0.0;
  /// Number of marginal-gain evaluations during refinement; the paper's
  /// diversity-score pruning shows up as this counter staying near L·log
  /// instead of n·L² (Greedy_WoP).
  std::uint64_t gain_evaluations = 0;
};

/// \brief Online DTopL-ICDE processing (§VII): top-(nL) candidates via
/// Algorithm 3, then greedy (or exhaustive) diversified selection.
class DTopLDetector {
 public:
  /// `scratch` as for TopLDetector: nullptr gives it a pool of its own.
  DTopLDetector(const Graph& g, const PrecomputedData& pre, const TreeIndex& tree,
                std::shared_ptr<RefineScratchPool> scratch = nullptr);

  Result<DTopLResult> Search(const Query& query, const DTopLOptions& options = {});

  /// Controlled variant: the candidate phase (which dominates cost) runs
  /// under `control` — intra-query parallelism, deadline, cancellation. A
  /// progressive callback receives *diversified* updates: after each
  /// candidate wave, the greedy selection is re-run over the pool so far and
  /// streamed in canonical order, making DTopL anytime too. Returning false
  /// from the callback, expiry, or cancellation yields a truncated result
  /// selected from the best pool found so far.
  Result<DTopLResult> Search(const Query& query, const DTopLOptions& options,
                             const SearchControl& control);

 private:
  TopLDetector topl_;
};

/// Greedy_WP refinement over an explicit candidate pool; returns indices
/// into `candidates` in selection order. Exposed for tests and benchmarks.
std::vector<std::size_t> SelectDiversifiedGreedyWP(
    std::span<const CommunityResult> candidates, std::uint32_t top_l,
    std::uint64_t* gain_evaluations);

/// Greedy_WoP refinement (no pruning; recomputes all gains every round).
std::vector<std::size_t> SelectDiversifiedGreedyWoP(
    std::span<const CommunityResult> candidates, std::uint32_t top_l,
    std::uint64_t* gain_evaluations);

/// Optimal refinement by exhaustive subset enumeration. Fails with
/// InvalidArgument when C(|candidates|, top_l) exceeds `max_subsets`.
Result<std::vector<std::size_t>> SelectDiversifiedOptimal(
    std::span<const CommunityResult> candidates, std::uint32_t top_l,
    std::uint64_t max_subsets);

/// D(S) for a set of selected candidate indices.
double DiversityOfSelection(std::span<const CommunityResult> candidates,
                            std::span<const std::size_t> selection);

}  // namespace topl

#endif  // TOPL_CORE_DTOPL_DETECTOR_H_
