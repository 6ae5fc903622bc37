#include "graph/local_subgraph.h"

#include <algorithm>
#include <bit>

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

void KeywordMatch::Fill(const Graph& g, std::span<const KeywordId> query,
                        std::uint32_t k) {
  const std::size_t num_words = (g.NumVertices() + 63) / 64;
  matched_.assign(num_words, 0);
  for (const KeywordId w : query) {
    for (const VertexId v : g.Postings(w)) {
      matched_[v >> 6] |= std::uint64_t{1} << (v & 63);
    }
  }
  degree_bound_ = std::max<std::uint32_t>(k, 2) - 1;
  rank_base_.resize(num_words);
  std::uint32_t members = 0;
  for (std::size_t i = 0; i < num_words; ++i) {
    rank_base_[i] = members;
    members += static_cast<std::uint32_t>(std::popcount(matched_[i]));
  }
  core_.assign(matched_.begin(), matched_.end());

  const auto in = [](const std::vector<std::uint64_t>& words, VertexId v) {
    return static_cast<std::uint32_t>(words[v >> 6] >> (v & 63)) & 1u;
  };
  const auto member = [](std::size_t word, std::uint64_t bits) {
    return static_cast<VertexId>(word * 64 + std::countr_zero(bits));
  };

  // One forward pass over M counts each member's matched neighbours (one bit
  // read per arc, added without a branch) while the next word's adjacency
  // lists are prefetched, and peels as it goes. degree_[rank] holds, for a
  // member already counted, its matched neighbours still in the core or
  // awaiting their decrements; before the count it holds minus the removed
  // neighbours seen so far, which the count then absorbs (mod 2^32). A
  // removal decrements each neighbour still in the core, and a counted one
  // that falls below the bound leaves too.
  degree_.assign(members, 0);
  cascade_.clear();
  std::uint32_t counted = 0;
  const auto remove = [&](VertexId v) {
    core_[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
  };
  const auto decrement = [&](VertexId u) {
    if (!in(core_, u)) return;
    const std::uint32_t rank = RankInMatched(u);
    if (--degree_[rank] < degree_bound_ && rank < counted) {
      remove(u);
      cascade_.push_back(u);
    }
  };
  for (std::size_t i = 0; i < num_words; ++i) {
    if (i + 1 < num_words) {
      for (std::uint64_t bits = matched_[i + 1]; bits != 0; bits &= bits - 1) {
        __builtin_prefetch(g.Neighbors(member(i + 1, bits)).data());
      }
    }
    for (std::uint64_t bits = matched_[i]; bits != 0; bits &= bits - 1) {
      const VertexId v = member(i, bits);
      const std::span<const Graph::Arc> arcs = g.Neighbors(v);
      std::uint32_t degree = 0;
      for (const Graph::Arc& arc : arcs) degree += in(matched_, arc.to);
      degree_[counted++] += degree;
      if (degree_[counted - 1] >= degree_bound_) continue;
      // The neighbours to decrement come from the arcs just read; only
      // cascaded removals read adjacency again.
      remove(v);
      for (const Graph::Arc& arc : arcs) decrement(arc.to);
      while (!cascade_.empty()) {
        const VertexId u = cascade_.back();
        cascade_.pop_back();
        for (const Graph::Arc& arc : g.Neighbors(u)) decrement(arc.to);
      }
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
