#ifndef TOPL_CORE_TOPL_DETECTOR_H_
#define TOPL_CORE_TOPL_DETECTOR_H_

#include <memory>
#include <vector>

#include "common/lease_pool.h"
#include "common/result.h"
#include "core/community_result.h"
#include "core/query.h"
#include "core/search_control.h"
#include "core/seed_community.h"
#include "graph/graph.h"
#include "graph/local_subgraph.h"
#include "index/precompute.h"
#include "index/tree_index.h"
#include "influence/propagation.h"

namespace topl {

/// One refining thread's scratch: seed-community extraction plus
/// propagation, each O(n) over one graph and single-threaded.
struct RefineScratch {
  explicit RefineScratch(const Graph& g) : extractor(g), engine(g) {}

  SeedCommunityExtractor extractor;
  PropagationEngine engine;
};

/// \brief RefineScratch for every thread refining candidates over one graph.
///
/// Grows lazily to the peak number of threads refining at once and recycles
/// instances across waves, queries and detectors, so detectors that share
/// one pool hold scratch in proportion to the threads refining, not to the
/// number of detectors. The scores do not depend on which instance ran a
/// propagation, so chunked evaluation is bit-identical to sequential.
class RefineScratchPool : public LeasePool<RefineScratch> {
 public:
  explicit RefineScratchPool(const Graph& g)
      : LeasePool<RefineScratch>(
            [graph = &g] { return std::make_unique<RefineScratch>(*graph); }) {}
};

/// \brief Online TopL-ICDE processing (Algorithm 3) as a staged
/// plan → score → merge pipeline.
///
///  - Plan: best-first traversal of the tree index with a max-heap keyed by
///    the nodes' influential-score upper bounds, applying the index-level
///    pruning rules (Lemmas 5–7) at non-leaf entries and the candidate-level
///    rules (Lemmas 1, 2, 4) at leaf vertices. Keyword pruning also skips
///    every subtree and leaf vertex outside the query's keyword core (the
///    (k−1)-core of the keyword-holders' subgraph, KeywordMatch). The traversal is exposed as a
///    cursor that yields *waves* of surviving candidate centers.
///  - Score: each wave's candidates are refined — maximal seed community
///    extraction plus an exact score-only MIA propagation of σ(g) — either
///    inline (sequential) or fanned out in chunks over a ThreadPool
///    (SearchControl::pool). While the pool scores a wave, the calling thread
///    plans the next one, then claims chunks of the wave itself. A per-query
///    memo of σ(g) by seed set means a community reached from several centers
///    is scored once.
///  - Merge: refined communities, carrying σ only, fold into a bounded top-L
///    collector ordered by the canonical total order (σ desc, center asc),
///    whose L-th entry drives the score pruning / early-termination
///    threshold of later waves. The collector builds gInf (a full
///    propagation) only for the entries it holds right before a progressive
///    snapshot and before the answer is returned, each entry at most once.
///
/// Because candidates are pruned only when their upper bound is *strictly*
/// below the threshold and the collector's order is total, the final answer
/// is one specific community set regardless of wave sizes, chunk boundaries,
/// or merge order: the parallel path returns byte-identical results to the
/// sequential path (which in turn equals brute force). Parallelism changes
/// wall-clock, never answers.
///
/// SearchControl additionally provides deadlines, cooperative cancellation,
/// and progressive streaming of intermediate answers (anytime search); see
/// core/search_control.h.
///
/// Refinement scratch comes from a RefineScratchPool: the calling thread
/// leases one RefineScratch per query, and a pool task leases one only once
/// it has claimed a chunk. A detector still serves one query at a time (it
/// keeps the query's keyword core); use one detector per thread, or serve
/// through topl::Engine (engine/engine.h), which leases one detector per
/// in-flight query and lets every detector over one snapshot share a
/// RefineScratchPool. The referenced graph/index must outlive it.
class TopLDetector {
 public:
  /// `scratch` must be over `g`; nullptr gives the detector a pool of its own.
  TopLDetector(const Graph& g, const PrecomputedData& pre, const TreeIndex& tree,
               std::shared_ptr<RefineScratchPool> scratch = nullptr);

  /// Answers one query sequentially to completion. Fails with
  /// InvalidArgument when the query is malformed or asks for a radius beyond
  /// the index's r_max.
  Result<TopLResult> Search(const Query& query, const QueryOptions& options = {});

  /// Answers one query under runtime controls: intra-query parallelism,
  /// deadline/budget, cancellation, progressive streaming. A truncated run
  /// (deadline, cancel, callback stop) still succeeds, returning best-so-far
  /// communities with TopLResult::truncated set and the remaining
  /// score_upper_bound as the anytime gap.
  Result<TopLResult> Search(const Query& query, const QueryOptions& options,
                            const SearchControl& control);

  /// Refinement scratch created so far in this detector's pool (== peak
  /// number of threads refining at once); exposed for tests.
  std::size_t pooled_scratch() const { return scratch_->size(); }

 private:
  const Graph* graph_;
  const PrecomputedData* pre_;
  const TreeIndex* tree_;
  std::shared_ptr<RefineScratchPool> scratch_;
  // The running query's keyword core (KeywordMatch), refilled by each
  // query's plan stage before any candidate is refined, and the marks of the
  // index subtrees that hold a vertex of it; parallel scoring workers only
  // read the core.
  KeywordMatch keyword_match_;
  std::vector<std::uint8_t> core_subtrees_;
};

}  // namespace topl

#endif  // TOPL_CORE_TOPL_DETECTOR_H_
