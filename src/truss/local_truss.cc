#include "truss/local_truss.h"

#include <algorithm>

#include "common/epoch.h"

namespace topl {

void TriangleSubstrate::Bind(const LocalGraph& lg) {
  lg_ = &lg;
  const std::size_t nv = lg.NumVertices();
  const std::size_t ne = lg.NumEdges();

  // Oriented CSR straight from the edge list: count, prefix-sum, fill. Each
  // edge lands once, at its degree-order-minimal endpoint, so the total
  // out-degree is ne and the per-vertex out-degree is O(sqrt(ne)). The
  // orientation predicate is evaluated once per edge (cached in src_is_b_)
  // over a dense degree array rather than re-deriving both degrees from CSR
  // offsets on every pass.
  degree_.resize(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    degree_[v] = static_cast<std::uint32_t>(lg.offsets[v + 1] - lg.offsets[v]);
  }
  src_is_b_.resize(ne);
  out_offsets_.assign(nv + 1, 0);
  for (std::size_t e = 0; e < ne; ++e) {
    const auto [a, b] = lg.edge_endpoints[e];
    const bool from_b =
        degree_[b] != degree_[a] ? degree_[b] < degree_[a] : b < a;
    src_is_b_[e] = from_b;
    ++out_offsets_[(from_b ? b : a) + 1];
  }
  for (std::size_t v = 0; v < nv; ++v) out_offsets_[v + 1] += out_offsets_[v];
  out_arcs_.resize(ne);
  cursor_.assign(out_offsets_.begin(), out_offsets_.end() - 1);
  for (std::uint32_t e = 0; e < ne; ++e) {
    const auto [a, b] = lg.edge_endpoints[e];
    if (src_is_b_[e]) {
      out_arcs_[cursor_[b]++] = {a, e};
    } else {
      out_arcs_[cursor_[a]++] = {b, e};
    }
  }

  if (mark_stamp_.size() < nv) {
    // Fresh slots carry stamp 0 < any live epoch, so no epoch reset needed.
    mark_stamp_.resize(nv, 0);
    mark_edge_.resize(nv);
  }

  queue_.clear();
  queued_.assign(ne, 0);
}

template <bool kFiltered>
void TriangleSubstrate::EnumerateSupports(const std::vector<char>& edge_alive,
                                          std::vector<std::uint32_t>* support) {
  TOPL_DCHECK(lg_ != nullptr, "TriangleSubstrate used before Bind");
  const std::size_t nv = lg_->NumVertices();
  support->assign(lg_->NumEdges(), 0);
  std::uint32_t* sup = support->data();
  for (std::uint32_t u = 0; u < nv; ++u) {
    const auto out_u = OutNeighbors(u);
    if (out_u.size() < 2) continue;  // no wedge can open at u
    const std::uint32_t epoch = NextEpoch(&epoch_, &mark_stamp_);
    for (const LocalGraph::LocalArc& arc : out_u) {
      if (kFiltered && !edge_alive[arc.local_edge]) continue;
      mark_stamp_[arc.to] = epoch;
      mark_edge_[arc.to] = arc.local_edge;
    }
    for (const LocalGraph::LocalArc& arc : out_u) {
      if (kFiltered && !edge_alive[arc.local_edge]) continue;
      // Triangles u < v < w in degree order: u holds edges u-v and u-w, so
      // scanning v's out-list against u's marks finds each exactly once.
      std::uint32_t closed = 0;  // triangles through u-v, flushed once
      for (const LocalGraph::LocalArc& arc2 : OutNeighbors(arc.to)) {
        if (kFiltered && !edge_alive[arc2.local_edge]) continue;
        if (mark_stamp_[arc2.to] != epoch) continue;
        ++closed;
        ++sup[arc2.local_edge];
        ++sup[mark_edge_[arc2.to]];
      }
      triangles_inspected_ += closed;
      sup[arc.local_edge] += closed;
    }
  }
}

void TriangleSubstrate::ComputeSupports(const std::vector<char>& edge_alive,
                                        std::vector<std::uint32_t>* support) {
  TOPL_DCHECK(edge_alive.size() == lg_->NumEdges(),
              "edge_alive size mismatch in TriangleSubstrate::ComputeSupports");
  EnumerateSupports<true>(edge_alive, support);
}

void TriangleSubstrate::ComputeAllSupports(std::vector<std::uint32_t>* support) {
  static const std::vector<char> kNoFilter;
  EnumerateSupports<false>(kNoFilter, support);
}

void TriangleSubstrate::SeedPeelQueue(std::uint32_t k,
                                      const std::vector<char>& edge_alive,
                                      const std::vector<std::uint32_t>& support) {
  const std::uint32_t required = k >= 2 ? k - 2 : 0;
  if (required == 0) return;  // every subgraph is a 2-truss
  for (std::uint32_t e = 0; e < edge_alive.size(); ++e) {
    if (edge_alive[e] && support[e] < required) Enqueue(e);
  }
}

std::size_t TriangleSubstrate::Peel(std::uint32_t k,
                                    std::vector<char>* edge_alive,
                                    std::vector<std::uint32_t>* support) {
  const std::uint32_t required = k >= 2 ? k - 2 : 0;
  std::size_t killed = 0;
  while (!queue_.empty()) {
    const std::uint32_t e = queue_.back();
    queue_.pop_back();
    // A queued edge is deficient forever (supports only decrease), so it is
    // either already dead or about to die here — never requeued.
    if (!(*edge_alive)[e]) continue;
    ForEachAliveTriangleLimited(
        e, *edge_alive, (*support)[e],
        [&](std::uint32_t /*c*/, std::uint32_t edge_ac, std::uint32_t edge_bc) {
          for (const std::uint32_t side : {edge_ac, edge_bc}) {
            if ((*support)[side] > 0) --(*support)[side];
            if ((*support)[side] < required) Enqueue(side);
          }
        });
    (*edge_alive)[e] = 0;
    (*support)[e] = 0;
    ++killed;
  }
  return killed;
}

bool TriangleSubstrate::KillEdge(std::uint32_t e, std::uint32_t k,
                                 std::vector<char>* edge_alive,
                                 std::vector<std::uint32_t>* support) {
  if (!(*edge_alive)[e]) return false;
  const std::uint32_t required = k >= 2 ? k - 2 : 0;
  // Destroy e's triangles while e still counts as alive, exactly like the
  // peel step; newly deficient side edges wait in the queue for the next
  // Peel, so a bulk kill replaces a from-scratch support recompute.
  ForEachAliveTriangleLimited(
      e, *edge_alive, (*support)[e],
      [&](std::uint32_t /*c*/, std::uint32_t edge_ac, std::uint32_t edge_bc) {
        for (const std::uint32_t side : {edge_ac, edge_bc}) {
          if ((*support)[side] > 0) --(*support)[side];
          if ((*support)[side] < required) Enqueue(side);
        }
      });
  (*edge_alive)[e] = 0;
  (*support)[e] = 0;
  return true;
}

std::size_t TriangleSubstrate::KillEdges(std::span<const std::uint32_t> doomed,
                                         std::uint32_t k,
                                         std::vector<char>* edge_alive,
                                         std::vector<std::uint32_t>* support) {
  std::size_t killed = 0;
  for (const std::uint32_t e : doomed) {
    killed += KillEdge(e, k, edge_alive, support) ? 1 : 0;
  }
  return killed;
}

}  // namespace topl
