#ifndef TOPL_GRAPH_LOCAL_SUBGRAPH_H_
#define TOPL_GRAPH_LOCAL_SUBGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

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
  ///
  /// Returns false (and clears `out`) when the center itself fails the
  /// keyword filter; otherwise fills `out` and returns true.
  bool Extract(VertexId center, std::uint32_t radius,
               std::span<const KeywordId> keyword_filter, LocalGraph* out);

  /// True iff v.W intersects the sorted keyword list `query`.
  static bool HasAnyKeyword(const Graph& g, VertexId v,
                            std::span<const KeywordId> query);

 private:
  friend class EpochWrapTestPeer;

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
