#ifndef TOPL_GRAPH_LOCAL_SUBGRAPH_H_
#define TOPL_GRAPH_LOCAL_SUBGRAPH_H_

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

/// \brief One query's keyword predicate ("does v.W intersect Q?") for every
/// vertex, as a bitmap over vertex ids.
///
/// The detector's hot path asks this question for the same vertices many
/// times per query: once per leaf vertex (Lemma 1's center test), once per
/// neighbour in the center prechecks, and once per arc of every
/// keyword-filtered ball. Filling the bitmap zeroes n/64 words and sets the
/// bits of the query keywords' posting lists (Graph::Postings), so it costs
/// O(n/64 + Σ_{w∈Q} |postings(w)|) and never scans the vertices' keyword
/// lists; every test after that is one bit.
///
/// Holds reusable storage; refill it for each query. Readers may share a
/// filled instance across threads.
class KeywordMatch {
 public:
  /// Sets bit v iff HopExtractor::HasAnyKeyword(g, v, query), for every vertex
  /// of g. `query` is a sorted KeywordId list; a keyword no vertex holds sets
  /// nothing.
  void Fill(const Graph& g, std::span<const KeywordId> query);

  /// True iff v.W intersects the query the bitmap was last filled for.
  bool Contains(VertexId v) const {
    TOPL_DCHECK(v / 64 < words_.size(), "KeywordMatch: vertex not filled");
    return (words_[v >> 6] >> (v & 63)) & 1u;
  }

 private:
  std::vector<std::uint64_t> words_;  // bit v: v holds a query keyword
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
  /// vertices whose bit is set are traversed. For a non-empty query Q,
  /// ExtractMatching(c, r, match filled from Q, out) produces the same
  /// LocalGraph as Extract(c, r, Q, out). The detector's incremental
  /// seed-community path uses this form.
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
