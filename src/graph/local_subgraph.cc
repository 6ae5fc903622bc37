#include "graph/local_subgraph.h"

#include <algorithm>

#include "common/check.h"
#include "common/epoch.h"

namespace topl {

void LocalGraph::Clear() {
  center = kInvalidVertex;
  global_ids.clear();
  dist.clear();
  offsets.clear();
  arcs.clear();
  edge_endpoints.clear();
  edge_radius.clear();
  global_edge_ids.clear();
}

HopExtractor::HopExtractor(const Graph& g)
    : graph_(&g),
      stamp_(g.NumVertices(), 0),
      local_of_(g.NumVertices(), 0) {}

bool HopExtractor::HasAnyKeyword(const Graph& g, VertexId v,
                                 std::span<const KeywordId> query) {
  // Merge-style intersection test over two sorted sequences; both sets are
  // tiny (|v.W| ≤ 5, |Q| ≤ 10 in the paper's grid) so linear merge wins over
  // repeated binary search.
  const auto kws = g.Keywords(v);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < kws.size() && j < query.size()) {
    if (kws[i] == query[j]) return true;
    if (kws[i] < query[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

void KeywordMatch::Fill(const Graph& g, std::span<const KeywordId> query) {
  words_.assign((g.NumVertices() + 63) / 64, 0);
  for (const KeywordId w : query) {
    for (const VertexId v : g.Postings(w)) {
      words_[v >> 6] |= std::uint64_t{1} << (v & 63);
    }
  }
}

bool HopExtractor::Extract(VertexId center, std::uint32_t radius,
                           std::span<const KeywordId> keyword_filter,
                           LocalGraph* out) {
  const bool filtered = !keyword_filter.empty();
  return ExtractIf(
      center, radius,
      [&](VertexId v) {
        return !filtered || HasAnyKeyword(*graph_, v, keyword_filter);
      },
      out);
}

bool HopExtractor::ExtractMatching(VertexId center, std::uint32_t radius,
                                   const KeywordMatch& filter, LocalGraph* out) {
  return ExtractIf(
      center, radius, [&](VertexId v) { return filter.Contains(v); }, out);
}

template <typename Keep>
bool HopExtractor::ExtractIf(VertexId center, std::uint32_t radius, Keep keep,
                             LocalGraph* out) {
  TOPL_CHECK(center < graph_->NumVertices(), "HopExtractor: center out of range");
  out->Clear();
  if (!keep(center)) return false;

  const std::uint32_t epoch = NextEpoch(&epoch_, &stamp_);
  out->center = center;

  // BFS, assigning local ids in discovery order.
  stamp_[center] = epoch;
  local_of_[center] = 0;
  out->global_ids.push_back(center);
  out->dist.push_back(0);
  std::size_t head = 0;
  while (head < out->global_ids.size()) {
    const VertexId u = out->global_ids[head];
    const std::uint32_t du = out->dist[head];
    ++head;
    if (du == radius) continue;
    for (const Graph::Arc& arc : graph_->Neighbors(u)) {
      if (stamp_[arc.to] == epoch) continue;
      if (!keep(arc.to)) continue;
      stamp_[arc.to] = epoch;
      local_of_[arc.to] = static_cast<std::uint32_t>(out->global_ids.size());
      out->global_ids.push_back(arc.to);
      out->dist.push_back(du + 1);
    }
  }

  // Enumerate induced edges once from the smaller-local-id endpoint,
  // assigning dense local edge ids.
  const std::size_t nv = out->global_ids.size();
  for (std::uint32_t l = 0; l < nv; ++l) {
    for (const Graph::Arc& arc : graph_->Neighbors(out->global_ids[l])) {
      if (stamp_[arc.to] != epoch) continue;
      const std::uint32_t peer = local_of_[arc.to];
      if (l < peer) {
        out->edge_endpoints.emplace_back(l, peer);
        out->edge_radius.push_back(std::max(out->dist[l], out->dist[peer]));
        out->global_edge_ids.push_back(arc.edge);
      }
    }
  }

  // Local CSR straight from the edge list (degree count, prefix sum, fill),
  // then per-list sort by local target id.
  out->offsets.assign(nv + 1, 0);
  for (const auto& [a, b] : out->edge_endpoints) {
    ++out->offsets[a + 1];
    ++out->offsets[b + 1];
  }
  for (std::size_t l = 0; l < nv; ++l) out->offsets[l + 1] += out->offsets[l];
  out->arcs.resize(out->offsets[nv]);
  cursor_.assign(out->offsets.begin(), out->offsets.end() - 1);
  for (std::uint32_t e = 0; e < out->edge_endpoints.size(); ++e) {
    const auto [a, b] = out->edge_endpoints[e];
    out->arcs[cursor_[a]++] = {b, e};
    out->arcs[cursor_[b]++] = {a, e};
  }
  for (std::uint32_t l = 0; l < nv; ++l) {
    std::sort(out->arcs.begin() + static_cast<std::ptrdiff_t>(out->offsets[l]),
              out->arcs.begin() + static_cast<std::ptrdiff_t>(out->offsets[l + 1]),
              [](const LocalGraph::LocalArc& x, const LocalGraph::LocalArc& y) {
                return x.to < y.to;
              });
  }
  return true;
}

}  // namespace topl
