#ifndef TOPL_GRAPH_LOCAL_SUBGRAPH_H_
#define TOPL_GRAPH_LOCAL_SUBGRAPH_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace topl {

/// \brief An induced subgraph hop(center, r) materialized with dense local
/// vertex ids, local CSR adjacency, and dense local edge ids.
///
/// Local vertices are numbered in BFS order from the center, so `dist` is
/// non-decreasing and the vertex set of hop(center, r') for any r' ≤ r is a
/// prefix of `global_ids` — the precompute phase exploits this to process all
/// radii from one extraction.
struct LocalGraph {
  struct LocalArc {
    std::uint32_t to;          // local vertex id
    std::uint32_t local_edge;  // dense local edge id
  };

  VertexId center = kInvalidVertex;

  std::vector<VertexId> global_ids;   // local id -> global id (BFS order)
  std::vector<std::uint32_t> dist;    // hop distance from center, per local id

  std::vector<std::size_t> offsets;   // local CSR, size NumVertices()+1
  std::vector<LocalArc> arcs;         // sorted by `to` within each list

  // Per local edge: endpoints (a < b), the radius at which the edge first
  // appears (max of endpoint distances), and the global EdgeId.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_endpoints;
  std::vector<std::uint32_t> edge_radius;
  std::vector<EdgeId> global_edge_ids;

  std::size_t NumVertices() const { return global_ids.size(); }
  std::size_t NumEdges() const { return edge_endpoints.size(); }

  std::span<const LocalArc> Neighbors(std::uint32_t local) const {
    return {arcs.data() + offsets[local], arcs.data() + offsets[local + 1]};
  }

  void Clear();
};

/// \brief One query's keyword core: the vertices that can belong to a seed
/// community of (Q, k, r), as a bitmap over vertex ids.
///
/// Every member of a seed community holds a query keyword (Definition 2), and
/// a k-truss gives each member at least k−1 neighbours inside it. So every
/// community lies in C, the (k−1)-core of G[M], where M is the set of
/// vertices that hold a keyword of Q and k−1 means max(k, 2)−1, the least
/// degree of a member (README, "Design notes"). Fill computes C and
/// Contains(v) answers v ∈ C. The detector's hot path asks this for the same
/// vertices many times per query: once per leaf vertex (Lemma 1's center
/// test, sharpened), and once per arc of every keyword-filtered ball.
///
/// Fill costs O(n/64 + Σ_{w∈Q} |postings(w)| + Σ_{v∈M} deg v) and never
/// scans the vertices' keyword lists: it sets M's bits from the query
/// keywords' posting lists (Graph::Postings), then counts each member's
/// matched neighbours in one forward pass over M and peels as it goes. A
/// member below the bound decrements its neighbours from the arcs the pass
/// just read; only cascaded removals read adjacency again. The peel's
/// scratch is one counter per member of M, not per vertex.
///
/// Holds reusable storage; refill it for each query. Readers may share a
/// filled instance across threads.
class KeywordMatch {
 public:
  /// Fills M from the sorted KeywordId list `query` (a keyword no vertex
  /// holds adds nothing) and peels G[M] to its (max(k, 2)−1)-core C.
  void Fill(const Graph& g, std::span<const KeywordId> query, std::uint32_t k);

  /// True iff v ∈ C for the query the bitmap was last filled for.
  bool Contains(VertexId v) const {
    TOPL_DCHECK(v / 64 < core_.size(), "KeywordMatch: vertex not filled");
    return (core_[v >> 6] >> (v & 63)) & 1u;
  }

  /// True iff v ∈ M: v.W intersects the query, i.e. HopExtractor::
  /// HasAnyKeyword(g, v, query). C ⊆ M.
  bool Holds(VertexId v) const {
    TOPL_DCHECK(v / 64 < matched_.size(), "KeywordMatch: vertex not filled");
    return (matched_[v >> 6] >> (v & 63)) & 1u;
  }

  /// The core's degree bound, max(k, 2)−1, of the last Fill. C for a bound b
  /// contains C for every bound above b, so a core may serve any query whose
  /// bound is at least this one.
  std::uint32_t degree_bound() const { return degree_bound_; }

  /// Calls f(v) for every v ∈ C, ascending.
  template <typename F>
  void ForEachInCore(F&& f) const {
    for (std::size_t i = 0; i < core_.size(); ++i) {
      for (std::uint64_t bits = core_[i]; bits != 0; bits &= bits - 1) {
        f(static_cast<VertexId>(i * 64 + std::countr_zero(bits)));
      }
    }
  }

 private:
  /// Index of member v in M's ascending order.
  std::uint32_t RankInMatched(VertexId v) const {
    const std::uint64_t below = (std::uint64_t{1} << (v & 63)) - 1;
    return rank_base_[v >> 6] +
           static_cast<std::uint32_t>(std::popcount(matched_[v >> 6] & below));
  }

  std::vector<std::uint64_t> core_;     // bit v: v ∈ C
  std::vector<std::uint64_t> matched_;  // bit v: v ∈ M
  std::uint32_t degree_bound_ = 1;
  // Peel scratch, reused across fills (see Fill).
  std::vector<std::uint32_t> rank_base_;  // members in the words before
  std::vector<std::uint32_t> degree_;     // per member, by rank in M
  std::vector<VertexId> cascade_;         // removals awaiting decrements
};

/// \brief Extracts hop(center, r) subgraphs, reusing scratch buffers across
/// calls so that per-query extraction does no O(n) work.
///
/// Thread-compatibility: one HopExtractor per thread (the precompute pool
/// allocates one per worker); extraction only reads the shared Graph.
class HopExtractor {
 public:
  explicit HopExtractor(const Graph& g);

  /// Extracts the subgraph induced by the vertices within `radius` hops of
  /// `center`. If `keyword_filter` is non-empty, only vertices whose keyword
  /// set intersects it (a sorted KeywordId list) are traversed — this bakes
  /// the paper's keyword constraint (Definition 2, bullet 4) into the BFS.
  /// A non-empty filter is tested with HasAnyKeyword per vertex. Precompute
  /// (unfiltered), the reference seed-community pipeline and the baselines
  /// use this form.
  ///
  /// Returns false (and clears `out`) when the center itself fails the
  /// keyword filter; otherwise fills `out` and returns true.
  bool Extract(VertexId center, std::uint32_t radius,
               std::span<const KeywordId> keyword_filter, LocalGraph* out);

  /// Extract with the filter given as the query's filled KeywordMatch: only
  /// vertices of its core C are traversed. The result is the part of
  /// Extract(c, r, Q, out) reachable from c within r hops through C, which
  /// holds every seed community of c (README, "Design notes"). The
  /// detector's incremental seed-community path uses this form.
  bool ExtractMatching(VertexId center, std::uint32_t radius,
                       const KeywordMatch& filter, LocalGraph* out);

  /// True iff v.W intersects the sorted keyword list `query`, by a merge of
  /// the two sorted lists. The independent form of the keyword test: the
  /// reference and brute-force paths, precompute, the result cache's
  /// invalidation check and the baselines use it, while the detector's hot
  /// path reads the query's KeywordMatch instead.
  static bool HasAnyKeyword(const Graph& g, VertexId v,
                            std::span<const KeywordId> query);

 private:
  friend class EpochWrapTestPeer;

  /// The one BFS body behind Extract and ExtractMatching; `keep(v)` is the
  /// keyword filter.
  template <typename Keep>
  bool ExtractIf(VertexId center, std::uint32_t radius, Keep keep,
                 LocalGraph* out);

  const Graph* graph_;
  // Epoch-stamped global->local map: O(1) membership without O(n) clearing.
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> local_of_;
  std::uint32_t epoch_ = 0;
  // CSR fill cursors, reused across calls (no per-extraction allocation).
  std::vector<std::size_t> cursor_;
};

}  // namespace topl

#endif  // TOPL_GRAPH_LOCAL_SUBGRAPH_H_
