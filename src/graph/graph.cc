#include "graph/graph.h"

#include <algorithm>
#include <array>
#include <utility>

namespace topl {

namespace {

// Binary search in a sorted arc span for target `v`.
const Graph::Arc* FindArc(std::span<const Graph::Arc> arcs, VertexId v) {
  auto it = std::lower_bound(
      arcs.begin(), arcs.end(), v,
      [](const Graph::Arc& a, VertexId target) { return a.to < target; });
  if (it != arcs.end() && it->to == v) return &*it;
  return nullptr;
}

}  // namespace

bool Graph::HasEdge(VertexId u, VertexId v) const {
  // Search from the lower-degree endpoint.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  return FindArc(Neighbors(u), v) != nullptr;
}

EdgeId Graph::FindEdge(VertexId u, VertexId v) const {
  if (Degree(u) > Degree(v)) std::swap(u, v);
  const Arc* arc = FindArc(Neighbors(u), v);
  return arc == nullptr ? kInvalidEdge : arc->edge;
}

bool Graph::HasKeyword(VertexId v, KeywordId w) const {
  const auto kw = Keywords(v);
  return std::binary_search(kw.begin(), kw.end(), w);
}

std::span<const VertexId> Graph::Postings(KeywordId w) const {
  const auto it =
      std::lower_bound(posting_keywords_.begin(), posting_keywords_.end(), w);
  if (it == posting_keywords_.end() || *it != w) return {};
  const std::size_t i = static_cast<std::size_t>(it - posting_keywords_.begin());
  return {posting_vertices_.data() + posting_offsets_[i],
          posting_vertices_.data() + posting_offsets_[i + 1]};
}

void Graph::BuildPostings() {
  // (keyword << 32 | vertex) for every keyword entry, in vertex order. A
  // stable LSD radix sort on the keyword's bytes then groups the entries by
  // keyword with each group's vertices still ascending. A byte that is the
  // same in every entry is skipped, so ids below 2^16 take two passes.
  const std::size_t total = keywords_.size();
  std::vector<std::uint64_t> entries(total);
  const std::size_t n = NumVertices();
  for (std::size_t v = 0; v < n; ++v) {
    for (std::uint64_t i = keyword_offsets_[v]; i < keyword_offsets_[v + 1]; ++i) {
      entries[i] = (std::uint64_t{keywords_[i]} << 32) | v;
    }
  }
  std::array<std::array<std::size_t, 256>, 4> counts{};
  for (const std::uint64_t e : entries) {
    for (std::size_t b = 0; b < 4; ++b) ++counts[b][(e >> (32 + 8 * b)) & 0xff];
  }
  std::vector<std::uint64_t> sorted(total);
  for (std::size_t b = 0; b < 4; ++b) {
    std::array<std::size_t, 256>& bucket = counts[b];
    if (std::find(bucket.begin(), bucket.end(), total) != bucket.end()) continue;
    std::size_t start = 0;
    for (std::size_t& c : bucket) start += std::exchange(c, start);
    for (const std::uint64_t e : entries) {
      sorted[bucket[(e >> (32 + 8 * b)) & 0xff]++] = e;
    }
    entries.swap(sorted);
  }

  posting_keywords_.clear();
  posting_offsets_.clear();
  posting_vertices_.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto w = static_cast<KeywordId>(entries[i] >> 32);
    if (posting_keywords_.empty() || posting_keywords_.back() != w) {
      posting_keywords_.push_back(w);
      posting_offsets_.push_back(i);
    }
    posting_vertices_[i] = static_cast<VertexId>(entries[i]);
  }
  posting_offsets_.push_back(total);
}

}  // namespace topl
