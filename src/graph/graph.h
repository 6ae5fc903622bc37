#ifndef TOPL_GRAPH_GRAPH_H_
#define TOPL_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "graph/types.h"

namespace topl {

class MappedFile;

/// \brief Immutable attributed social network in CSR form (Definition 1).
///
/// The structure is undirected: every undirected edge {u, v} appears as two
/// CSR arcs (u→v and v→u) with sorted neighbor lists. Influence propagation
/// is directional, so each arc carries its own activation probability
/// p(u→v) — the probability that u activates v under the MIA model. The two
/// arcs of an undirected edge share one dense EdgeId, which truss algorithms
/// use to address per-edge state (support, trussness).
///
/// Per-vertex keyword sets (v.W in the paper) are stored as a CSR of sorted
/// KeywordIds. The inverse, one ascending posting list of vertices per
/// distinct keyword, is derived from that CSR whenever the keyword arrays
/// are bound, and always lives on the heap.
///
/// All flat arrays are accessed through std::span views. The backing is
/// either owned heap memory (instances assembled by GraphBuilder, the I/O
/// readers or the generators) or a read-only mmap of a TOPLIDX2 artifact
/// (instances opened by ArtifactReader) — query code cannot tell the two
/// apart. Instances are immutable after construction, which makes them safe
/// to share across the precompute thread pool without locks.
class Graph {
 public:
  /// An outgoing arc: target vertex, activation probability p(source→target),
  /// and the undirected EdgeId shared with the reverse arc.
  struct Arc {
    VertexId to;
    float prob;
    EdgeId edge;
  };

  /// The two endpoints of an undirected edge, u < v. POD (rather than
  /// std::pair) so the endpoint array has a guaranteed flat layout and can
  /// be mapped straight off disk.
  struct EdgeEndpoints {
    VertexId u;
    VertexId v;
  };

  Graph() = default;

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  // Moving the owned vectors keeps their heap buffers (and thus the spans
  // into them) valid, so default member-wise moves are correct.
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Number of vertices n = |V(G)|.
  std::size_t NumVertices() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  /// Number of undirected edges m = |E(G)|.
  std::size_t NumEdges() const { return edge_endpoints_.size(); }

  /// Degree of v in the undirected structure.
  std::size_t Degree(VertexId v) const {
    TOPL_DCHECK(v < NumVertices(), "Graph::Degree: vertex id out of range");
    return offsets_[v + 1] - offsets_[v];
  }

  /// Outgoing arcs of v, sorted by target id.
  std::span<const Arc> Neighbors(VertexId v) const {
    TOPL_DCHECK(v < NumVertices(), "Graph::Neighbors: vertex id out of range");
    return arcs_.subspan(offsets_[v], offsets_[v + 1] - offsets_[v]);
  }

  /// True iff the undirected edge {u, v} exists (binary search, O(log deg)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// EdgeId of {u, v}, or kInvalidEdge if absent.
  EdgeId FindEdge(VertexId u, VertexId v) const;

  /// The two endpoints of undirected edge e (u < v).
  VertexId EdgeSource(EdgeId e) const { return edge_endpoints_[e].u; }
  VertexId EdgeTarget(EdgeId e) const { return edge_endpoints_[e].v; }

  /// Keyword set of v (sorted ascending).
  std::span<const KeywordId> Keywords(VertexId v) const {
    TOPL_DCHECK(v < NumVertices(), "Graph::Keywords: vertex id out of range");
    return keywords_.subspan(keyword_offsets_[v],
                             keyword_offsets_[v + 1] - keyword_offsets_[v]);
  }

  /// True iff keyword w ∈ v.W (binary search).
  bool HasKeyword(VertexId v, KeywordId w) const;

  /// The vertices whose keyword set holds w, ascending; empty when no vertex
  /// does. O(log D) for D distinct keywords: the lists are keyed by a sorted
  /// array of the keyword ids in use, never indexed by the raw id.
  std::span<const VertexId> Postings(KeywordId w) const;

  /// One past the largest stored KeywordId: an exclusive upper bound on the
  /// keyword ids of every vertex. 0 for keyword-less graphs.
  KeywordId KeywordDomainBound() const { return keyword_domain_bound_; }

  /// Sum of |v.W| over all vertices.
  std::size_t TotalKeywordCount() const { return keywords_.size(); }

  /// True when the graph is a zero-copy view of a mapped artifact.
  bool IsMapped() const { return backing_ != nullptr; }

 private:
  friend class GraphBuilder;
  friend class ArtifactWriter;
  friend class ArtifactReader;

  /// Points the view spans at the owned vectors (builder path).
  void BindOwned() {
    offsets_ = owned_offsets_;
    arcs_ = owned_arcs_;
    edge_endpoints_ = owned_edge_endpoints_;
    keyword_offsets_ = owned_keyword_offsets_;
    keywords_ = owned_keywords_;
  }

  /// Derives the posting lists from the bound keyword arrays. Both paths
  /// that bind them (GraphBuilder::Build, ArtifactReader::Open) call it.
  void BuildPostings();

  // Views over the active backing. Always valid; never dangling because the
  // owned vectors move with the object and a mapped backing is refcounted.
  std::span<const std::uint64_t> offsets_;           // size n+1
  std::span<const Arc> arcs_;                        // size 2m, sorted per vertex
  std::span<const EdgeEndpoints> edge_endpoints_;    // size m
  std::span<const std::uint64_t> keyword_offsets_;   // size n+1
  std::span<const KeywordId> keywords_;              // flat sorted-per-vertex sets
  KeywordId keyword_domain_bound_ = 0;

  // Owned backing; empty when the graph is a view over `backing_`.
  std::vector<std::uint64_t> owned_offsets_;
  std::vector<Arc> owned_arcs_;
  std::vector<EdgeEndpoints> owned_edge_endpoints_;
  std::vector<std::uint64_t> owned_keyword_offsets_;
  std::vector<KeywordId> owned_keywords_;

  // Posting lists: the vertices of posting_keywords_[i] are
  // posting_vertices_[posting_offsets_[i] .. posting_offsets_[i + 1]).
  // Owned in both backings, so a moved Graph keeps them valid.
  std::vector<KeywordId> posting_keywords_;       // distinct ids, ascending
  std::vector<std::uint64_t> posting_offsets_;    // size D+1
  std::vector<VertexId> posting_vertices_;        // size Σ|v.W|

  // Keeps the mmap alive for artifact-backed instances.
  std::shared_ptr<const MappedFile> backing_;
};

// The arc and endpoint arrays are stored verbatim in the TOPLIDX2 artifact.
static_assert(std::is_trivially_copyable_v<Graph::Arc> &&
                  sizeof(Graph::Arc) == 12,
              "Graph::Arc is part of the on-disk artifact format");
static_assert(std::is_trivially_copyable_v<Graph::EdgeEndpoints> &&
                  sizeof(Graph::EdgeEndpoints) == 8,
              "Graph::EdgeEndpoints is part of the on-disk artifact format");

}  // namespace topl

#endif  // TOPL_GRAPH_GRAPH_H_
