#ifndef TOPL_TRUSS_LOCAL_TRUSS_H_
#define TOPL_TRUSS_LOCAL_TRUSS_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "graph/local_subgraph.h"

namespace topl {

/// \brief Allocation-free triangle/truss verification substrate over one
/// LocalGraph at a time.
///
/// Every exact candidate verification — the seed-community fixpoint
/// (core/seed_community.h), the per-ball truss decomposition of the offline
/// phase (LocalTrussDecomposer), and the incremental index updater that
/// reruns it — reduces to the same three primitives over a materialized hop
/// subgraph:
///
///  1. *Full triangle enumeration* for initial edge supports. The substrate
///     keeps a degree-ordered **oriented** adjacency view (each undirected
///     edge stored once, at its lower-(degree, id) endpoint) and enumerates
///     each triangle exactly once from its minimum-order corner, identifying
///     the closing edge through epoch-stamped neighbor marks. Cost is
///     O(Σ_e min(deg u, deg v)) — the classic forward algorithm — instead of
///     the O(Σ_e (deg u + deg v)) of per-edge sorted-list intersection.
///  2. *Incremental support maintenance*: killing an edge enumerates only the
///     alive triangles it closes and decrements the two surviving side edges,
///     so a fixpoint loop that bulk-kills vertices pays O(triangles touched)
///     instead of recomputing every local support from scratch per round.
///  3. *A persistent peel queue*: edges whose support drops below k-2 are
///     enqueued at decrement time, whether the decrement came from peeling or
///     from a bulk kill. Peel() therefore never rescans the edge set after
///     the initial seeding — the queue state survives across fixpoint rounds.
///
/// All scratch (oriented CSR, marks, queue flags) lives in the substrate and
/// is reused across Bind() calls: after warm-up, binding and running a
/// verification performs no heap allocation. One substrate per thread;
/// SeedCommunityExtractor and VertexPrecomputer each own one.
///
/// Exactness: supports maintained incrementally always equal a from-scratch
/// recount over the currently-alive edges (each destroyed triangle is
/// observed exactly once, when its first edge dies), and the k-truss peel
/// fixpoint is order-independent, so every consumer produces byte-identical
/// results to the from-scratch reference path. tests/truss_substrate_test.cc
/// and bench_seed_extraction enforce this.
class TriangleSubstrate {
 public:
  /// Points the substrate at `lg` and (re)builds the oriented adjacency
  /// view. O(V + E); resets the peel queue; `lg` must outlive the binding.
  void Bind(const LocalGraph& lg);

  /// Supports of every alive edge via oriented triangle enumeration; dead
  /// edges get support 0. Equivalent to ComputeLocalEdgeSupports.
  void ComputeSupports(const std::vector<char>& edge_alive,
                       std::vector<std::uint32_t>* support);

  /// ComputeSupports with every edge alive (the offline decomposition
  /// path) — same counts, no per-edge liveness branches.
  void ComputeAllSupports(std::vector<std::uint32_t>* support);

  /// Seeds the persistent peel queue with every alive edge whose support is
  /// below k-2. Call once after ComputeSupports; later deficits are enqueued
  /// automatically by Peel/KillEdge decrements.
  void SeedPeelQueue(std::uint32_t k, const std::vector<char>& edge_alive,
                     const std::vector<std::uint32_t>& support);

  /// Drains the peel queue: deletes queued deficient edges, decrementing the
  /// two surviving edges of each destroyed triangle and enqueueing newly
  /// deficient ones. Identical fixpoint to PeelToKTruss; on return every
  /// alive edge closes ≥ k-2 alive triangles. Returns the number of edges
  /// deleted (callers track the alive count for cost decisions).
  std::size_t Peel(std::uint32_t k, std::vector<char>* edge_alive,
                   std::vector<std::uint32_t>* support);

  /// Kills one alive edge incrementally: destroys its alive triangles
  /// (decrementing the two side edges and enqueueing new deficits for the
  /// next Peel), then marks it dead with support 0. Returns false (no-op) on
  /// dead edges.
  bool KillEdge(std::uint32_t e, std::uint32_t k, std::vector<char>* edge_alive,
                std::vector<std::uint32_t>* support);

  /// KillEdge over a batch (order-independent end state); returns the number
  /// of edges actually killed.
  std::size_t KillEdges(std::span<const std::uint32_t> doomed, std::uint32_t k,
                        std::vector<char>* edge_alive,
                        std::vector<std::uint32_t>* support);

  /// Invokes fn(c, edge_ac, edge_bc) for every alive triangle closed by the
  /// alive edge `e` = {a, b}. Sorted-list merge over the (by-`to`-sorted)
  /// adjacency lists: liveness is only probed on common neighbors, which
  /// beats mark-stamping both lists for the one-edge-at-a-time cadence of
  /// the peel loop. Shared with LocalTrussDecomposer's peel loop.
  template <typename Fn>
  void ForEachAliveTriangle(std::uint32_t e, const std::vector<char>& edge_alive,
                            Fn&& fn) {
    ForEachAliveTriangleLimited(e, edge_alive,
                                std::numeric_limits<std::uint32_t>::max(),
                                static_cast<Fn&&>(fn));
  }

  /// ForEachAliveTriangle that stops after `limit` triangles. Peel/KillEdge
  /// pass the edge's current support: the fixpoint's supports are *exact*
  /// alive-triangle counts (every destroyed triangle decrements exactly
  /// once), so the merge can end the moment the known count is exhausted —
  /// and skip entirely for support 0, the common case deep in a cascade.
  /// NOT valid for the decomposition peel, whose level-clamped supports are
  /// lower bounds, not counts.
  template <typename Fn>
  void ForEachAliveTriangleLimited(std::uint32_t e,
                                   const std::vector<char>& edge_alive,
                                   std::uint32_t limit, Fn&& fn) {
    if (limit == 0) return;
    const auto [a, b] = lg_->edge_endpoints[e];
    const auto na = lg_->Neighbors(a);
    const auto nb = lg_->Neighbors(b);
    std::size_t i = 0;
    std::size_t j = 0;
    std::uint32_t seen = 0;
    while (i < na.size() && j < nb.size()) {
      if (na[i].to == nb[j].to) {
        if (edge_alive[na[i].local_edge] && edge_alive[nb[j].local_edge]) {
          ++triangles_inspected_;
          fn(na[i].to, na[i].local_edge, nb[j].local_edge);
          if (++seen == limit) return;
        }
        ++i;
        ++j;
      } else if (na[i].to < nb[j].to) {
        ++i;
      } else {
        ++j;
      }
    }
  }

  /// Alive triangles enumerated since the last ResetTriangleCounter (one
  /// count per triangle in full enumeration, one per callback in per-edge
  /// enumeration). Feeds QueryStats::triangles_inspected.
  std::uint64_t triangles_inspected() const { return triangles_inspected_; }
  void ResetTriangleCounter() { triangles_inspected_ = 0; }

 private:
  std::span<const LocalGraph::LocalArc> OutNeighbors(std::uint32_t v) const {
    return {out_arcs_.data() + out_offsets_[v],
            out_arcs_.data() + out_offsets_[v + 1]};
  }

  template <bool kFiltered>
  void EnumerateSupports(const std::vector<char>& edge_alive,
                         std::vector<std::uint32_t>* support);

  void Enqueue(std::uint32_t e) {
    if (!queued_[e]) {
      queued_[e] = 1;
      queue_.push_back(e);
    }
  }

  const LocalGraph* lg_ = nullptr;

  // Oriented CSR: every local edge appears exactly once, at its
  // degree-order-minimal endpoint.
  std::vector<std::uint32_t> out_offsets_;
  std::vector<LocalGraph::LocalArc> out_arcs_;
  std::vector<std::uint32_t> cursor_;
  std::vector<std::uint32_t> degree_;
  std::vector<char> src_is_b_;

  // Epoch-stamped neighbor marks (per local vertex).
  std::vector<std::uint32_t> mark_stamp_;
  std::vector<std::uint32_t> mark_edge_;
  std::uint32_t epoch_ = 0;

  // Persistent peel queue; queued_[e] stays set once e has ever been
  // enqueued (a queued edge always dies — supports never increase).
  std::vector<std::uint32_t> queue_;
  std::vector<char> queued_;

  std::uint64_t triangles_inspected_ = 0;
};

}  // namespace topl

#endif  // TOPL_TRUSS_LOCAL_TRUSS_H_
