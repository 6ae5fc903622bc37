#ifndef TOPL_INDEX_INDEX_UPDATE_H_
#define TOPL_INDEX_INDEX_UPDATE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "index/precompute.h"
#include "index/tree_index.h"

namespace topl {

/// \brief How much offline-phase work an incremental update performed — and,
/// more importantly, how much it proved it could skip.
struct RebuildScope {
  std::size_t num_vertices = 0;       ///< n of the (unchanged-size) vertex set
  std::size_t touched_vertices = 0;   ///< vertices named by the delta
  /// Vertices whose optimal propagation path to a touched edge carries
  /// probability ≥ θ_min in the old or new graph — the reverse-influence
  /// frontier that seeds the structural dirty expansion.
  std::size_t influence_frontier = 0;
  std::size_t dirty_centers = 0;      ///< precompute rows recomputed
  std::size_t tree_nodes_patched = 0; ///< tree nodes whose aggregates were redone
  std::size_t tree_nodes_total = 0;

  /// Fraction of per-vertex Algorithm-2 work the update avoided, in [0, 1].
  double precompute_avoided() const {
    return num_vertices == 0
               ? 0.0
               : 1.0 - static_cast<double>(dirty_centers) /
                           static_cast<double>(num_vertices);
  }

  std::string ToString() const;
};

/// The output of one incremental maintenance pass: a fully owned serving
/// state (never views into the base, so a mmap'd base artifact is untouched)
/// plus the work report. `tree` references `*pre`; keep them together.
struct UpdatedIndex {
  Graph graph;
  std::unique_ptr<PrecomputedData> pre;
  TreeIndex tree;
  RebuildScope scope;
  /// The exact dirty-center set (sorted ascending) the pass recomputed —
  /// `scope.dirty_centers` is its size. Every center *not* in this list
  /// keeps byte-identical precompute rows, seed community, and influenced
  /// community for every query at θ ≥ θ_min; result caches invalidate
  /// against exactly this set.
  std::vector<VertexId> dirty_center_ids;
};

/// \brief Incremental maintenance of the offline phase under a GraphDelta.
///
/// The paper's index is deliberately local: every vertex's precomputed rows
/// derive from its own r_max-ball (ball supports, center trussness) plus one
/// bounded propagation per radius (score bounds at θ ≥ θ_min). An edge or
/// keyword update therefore invalidates only a bounded region:
///
///  - keyword change at w: centers within r_max structural hops of w. No
///    row reads keywords, but w can enter or leave the seed community such
///    a center yields for a query, so result caches must drop its answers;
///  - edge change {a, b}: centers within r_max hops of a or b in the old
///    *or* new graph (ball membership / ball supports / center trussness),
///    plus centers whose ball reaches a or b with propagation probability
///    ≥ θ_min in the old or new graph (score bounds). The latter set is
///    computed exactly by a reverse max-product Dijkstra from {a, b}: any
///    optimal-score path that an update creates or destroys has a prefix
///    reaching the updated edge with probability ≥ θ_min, so every center
///    outside the expanded region keeps byte-identical rows.
///
/// Apply recomputes exactly the dirty rows with the same VertexPrecomputer
/// code Build uses, then patches the tree index in place: dirty leaves and
/// their ancestors get fresh aggregates, every other node is untouched. The
/// vertex order inside the tree is kept (sort keys of dirty vertices may
/// drift from a from-scratch ordering, which affects traversal order but
/// never answers — all pruning bounds stay exact, and the PR-3 total-order
/// collector makes answers traversal-order independent). TopL/DTopL answers
/// over the patched index are byte-identical to answers over a full rebuild
/// of the mutated graph; tests/dynamic_update_test.cc sweeps that contract.
class IndexUpdater {
 public:
  /// Applies `delta` to (base, pre, tree). `pool` parallelizes the dirty-row
  /// recompute when given (nullptr = sequential). The inputs are only read;
  /// mapped instances are materialized into owned memory.
  static Result<UpdatedIndex> Apply(const Graph& base, const PrecomputedData& pre,
                                    const TreeIndex& tree, const GraphDelta& delta,
                                    ThreadPool* pool = nullptr);

  /// The dirty-center set (sorted) for `delta` between `base` and `updated`,
  /// with the reverse-influence frontier size reported through
  /// `influence_frontier` when non-null. Exposed for tests and for the
  /// RebuildScope report; Apply uses exactly this set.
  static std::vector<VertexId> DirtyCenters(const Graph& base,
                                            const Graph& updated,
                                            const GraphDelta& delta,
                                            std::uint32_t r_max, double theta_min,
                                            std::size_t* influence_frontier = nullptr);

 private:
  /// Zeroes and refills node `id`'s aggregates from its leaf vertices or its
  /// children — the same folds TreeIndex::Build performs.
  static void RecomputeNodeAggregates(TreeIndex* t, std::uint32_t id);
};

}  // namespace topl

#endif  // TOPL_INDEX_INDEX_UPDATE_H_
