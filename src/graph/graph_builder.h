#ifndef TOPL_GRAPH_GRAPH_BUILDER_H_
#define TOPL_GRAPH_GRAPH_BUILDER_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace topl {

/// \brief Mutable accumulator that assembles an immutable CSR Graph.
///
/// Usage:
/// \code
///   GraphBuilder b(/*num_vertices=*/n);
///   b.AddEdge(u, v, p_uv, p_vu);
///   b.AddKeyword(u, w);
///   Result<Graph> g = std::move(b).Build();
/// \endcode
///
/// AddEdge records an undirected edge with the two directional activation
/// probabilities. Duplicate edges are rejected at Build time (Corruption);
/// self-loops are rejected immediately on insertion order-independently at
/// Build time as well, so bulk loaders can defer all validation to one place.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_vertices);

  /// Records undirected edge {u, v} with activation probabilities
  /// prob_uv = p(u→v) and prob_vu = p(v→u). Probabilities must lie in (0, 1].
  void AddEdge(VertexId u, VertexId v, double prob_uv, double prob_vu);

  /// Convenience: symmetric probability p(u→v) = p(v→u) = prob.
  void AddEdge(VertexId u, VertexId v, double prob) { AddEdge(u, v, prob, prob); }

  /// Adds keyword w to u.W. Duplicate (u, w) pairs are deduplicated at Build;
  /// w above kMaxKeywordId fails Build with InvalidArgument.
  void AddKeyword(VertexId u, KeywordId w);

  std::size_t num_vertices() const { return num_vertices_; }
  std::size_t num_pending_edges() const { return edges_.size(); }

  /// Validates and assembles the graph. Consumes the builder. Fails with
  /// InvalidArgument on out-of-range endpoints / probabilities / keyword ids,
  /// and Corruption on self-loops or duplicate edges.
  Result<Graph> Build() &&;

 private:
  struct PendingEdge {
    VertexId u;
    VertexId v;
    float prob_uv;
    float prob_vu;
  };

  std::size_t num_vertices_;
  std::vector<PendingEdge> edges_;
  std::vector<std::pair<VertexId, KeywordId>> keyword_pairs_;
  Status deferred_error_;
};

}  // namespace topl

#endif  // TOPL_GRAPH_GRAPH_BUILDER_H_
