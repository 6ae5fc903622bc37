#include "graph/graph_builder.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

namespace topl {

GraphBuilder::GraphBuilder(std::size_t num_vertices) : num_vertices_(num_vertices) {}

void GraphBuilder::AddEdge(VertexId u, VertexId v, double prob_uv, double prob_vu) {
  if (!deferred_error_.ok()) return;
  if (u >= num_vertices_ || v >= num_vertices_) {
    deferred_error_ = Status::InvalidArgument(
        "edge endpoint out of range: {" + std::to_string(u) + ", " +
        std::to_string(v) + "} with n=" + std::to_string(num_vertices_));
    return;
  }
  if (u == v) {
    deferred_error_ =
        Status::Corruption("self-loop at vertex " + std::to_string(u));
    return;
  }
  if (!(prob_uv > 0.0 && prob_uv <= 1.0) || !(prob_vu > 0.0 && prob_vu <= 1.0)) {
    deferred_error_ = Status::InvalidArgument(
        "activation probability outside (0, 1] on edge {" + std::to_string(u) +
        ", " + std::to_string(v) + "}");
    return;
  }
  // Normalize so that u < v; keep probabilities oriented with the endpoints.
  if (u > v) {
    std::swap(u, v);
    std::swap(prob_uv, prob_vu);
  }
  edges_.push_back({u, v, static_cast<float>(prob_uv), static_cast<float>(prob_vu)});
}

void GraphBuilder::AddKeyword(VertexId u, KeywordId w) {
  if (!deferred_error_.ok()) return;
  if (u >= num_vertices_) {
    deferred_error_ = Status::InvalidArgument(
        "keyword vertex out of range: " + std::to_string(u));
    return;
  }
  if (w > kMaxKeywordId) {
    deferred_error_ = Status::InvalidArgument(
        "keyword id " + std::to_string(w) + " out of range (largest is " +
        std::to_string(kMaxKeywordId) + ")");
    return;
  }
  keyword_pairs_.emplace_back(u, w);
}

Result<Graph> GraphBuilder::Build() && {
  if (!deferred_error_.ok()) return deferred_error_;

  std::sort(edges_.begin(), edges_.end(),
            [](const PendingEdge& a, const PendingEdge& b) {
              return std::tie(a.u, a.v) < std::tie(b.u, b.v);
            });
  for (std::size_t i = 1; i < edges_.size(); ++i) {
    if (edges_[i].u == edges_[i - 1].u && edges_[i].v == edges_[i - 1].v) {
      // Distinct from every other builder diagnostic: the duplicate arcs may
      // carry different probabilities, and silently letting one win would
      // corrupt influence scores, so the pair is named explicitly.
      return Status::Corruption(
          "duplicate undirected edge {" + std::to_string(edges_[i].u) + ", " +
          std::to_string(edges_[i].v) +
          "}: AddEdge was called more than once for this vertex pair (in "
          "either endpoint order), probabilities would be ambiguous");
    }
  }

  Graph g;
  const std::size_t n = num_vertices_;
  const std::size_t m = edges_.size();
  g.owned_edge_endpoints_.reserve(m);

  // Degree counting pass.
  std::vector<std::size_t> degree(n, 0);
  for (const PendingEdge& e : edges_) {
    ++degree[e.u];
    ++degree[e.v];
  }
  auto& offsets = g.owned_offsets_;
  auto& arcs = g.owned_arcs_;
  offsets.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + degree[v];
  arcs.resize(2 * m);

  // Fill pass: edges are sorted by (u, v) so per-vertex arc lists come out
  // sorted by construction (u's arcs get ascending v; v's arcs get ascending
  // u because edges are grouped by u ascending).
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    const PendingEdge& pe = edges_[e];
    g.owned_edge_endpoints_.push_back({pe.u, pe.v});
    arcs[cursor[pe.u]++] = {pe.v, pe.prob_uv, e};
    arcs[cursor[pe.v]++] = {pe.u, pe.prob_vu, e};
  }
  // The v-side lists receive arcs in ascending u order, but interleaved with
  // the u-side fills they can end up locally unsorted; sort each list once.
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(arcs.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              arcs.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]),
              [](const Graph::Arc& a, const Graph::Arc& b) { return a.to < b.to; });
  }

  // Keyword CSR.
  std::sort(keyword_pairs_.begin(), keyword_pairs_.end());
  keyword_pairs_.erase(std::unique(keyword_pairs_.begin(), keyword_pairs_.end()),
                       keyword_pairs_.end());
  auto& keyword_offsets = g.owned_keyword_offsets_;
  keyword_offsets.assign(n + 1, 0);
  for (const auto& [v, w] : keyword_pairs_) {
    ++keyword_offsets[v + 1];
    g.keyword_domain_bound_ = std::max(g.keyword_domain_bound_, w + 1);
  }
  for (std::size_t v = 0; v < n; ++v) {
    keyword_offsets[v + 1] += keyword_offsets[v];
  }
  g.owned_keywords_.reserve(keyword_pairs_.size());
  for (const auto& [v, w] : keyword_pairs_) g.owned_keywords_.push_back(w);

  g.BindOwned();
  g.BuildPostings();
  return g;
}

}  // namespace topl
