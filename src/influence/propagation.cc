#include "influence/propagation.h"

#include <algorithm>

#include "common/check.h"
#include "common/epoch.h"

namespace topl {

PropagationEngine::PropagationEngine(const Graph& g)
    : graph_(&g), best_(g.NumVertices(), 0.0), stamp_(g.NumVertices(), 0) {}

InfluencedCommunity PropagationEngine::Compute(std::span<const VertexId> seeds,
                                               double theta) {
  TOPL_DCHECK(theta >= 0.0 && theta < 1.0, "influence threshold must be in [0, 1)");
  InfluencedCommunity out;
  const std::uint32_t epoch = NextEpoch(&epoch_, &stamp_);
  heap_.clear();

  for (VertexId s : seeds) {
    TOPL_DCHECK(s < graph_->NumVertices(), "seed out of range");
    if (stamp_[s] == epoch) continue;  // duplicate seed
    stamp_[s] = epoch;
    best_[s] = 1.0;
    heap_.push_back({1.0, s});
  }
  std::make_heap(heap_.begin(), heap_.end());

  // Max-product Dijkstra with lazy deletion: an entry is stale if its prob
  // no longer matches best_[v].
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    if (top.prob < best_[top.vertex]) continue;  // stale
    // Settle: top.prob == best_[top.vertex] and no larger path can appear.
    out.vertices.push_back(top.vertex);
    out.cpp.push_back(top.prob);
    out.score += top.prob;
    best_[top.vertex] = 2.0;  // sentinel: settled, reject future relaxations
    for (const Graph::Arc& arc : graph_->Neighbors(top.vertex)) {
      const double candidate = top.prob * static_cast<double>(arc.prob);
      if (candidate < theta || candidate == 0.0) continue;
      if (stamp_[arc.to] != epoch) {
        stamp_[arc.to] = epoch;
        best_[arc.to] = candidate;
        heap_.push_back({candidate, arc.to});
        std::push_heap(heap_.begin(), heap_.end());
      } else if (candidate > best_[arc.to]) {
        best_[arc.to] = candidate;
        heap_.push_back({candidate, arc.to});
        std::push_heap(heap_.begin(), heap_.end());
      }
    }
  }
  return out;
}

InfluencedCommunity PropagationEngine::ComputeFromSource(VertexId source,
                                                         double theta) {
  const VertexId seeds[1] = {source};
  return Compute(seeds, theta);
}

}  // namespace topl
