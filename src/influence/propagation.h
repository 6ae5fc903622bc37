#ifndef TOPL_INFLUENCE_PROPAGATION_H_
#define TOPL_INFLUENCE_PROPAGATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace topl {

/// \brief The influenced community gInf of a seed set plus its influential
/// score (Definitions 3 and Eq. (5)).
///
/// `vertices[i]` has community-to-user propagation probability `cpp[i]`;
/// seeds are included with cpp = 1 (Eq. (4)). `score` = Σ cpp[i].
struct InfluencedCommunity {
  std::vector<VertexId> vertices;
  std::vector<double> cpp;
  double score = 0.0;

  std::size_t size() const { return vertices.size(); }
};

/// \brief MIA-model propagation engine.
///
/// Under the maximum influence arborescence model, upp(u, v) is the largest
/// product of arc probabilities over any u→v path (Eqs. (1)–(3)), and
/// cpp(g, v) = max_{u∈g} upp(u, v). Both reduce to a single multi-source
/// max-product Dijkstra: probabilities lie in (0, 1], so path products only
/// shrink as paths grow and the greedy settle order is correct — this is the
/// paper's calculate_influence(g, θ) (§VI-B).
///
/// The engine owns epoch-stamped scratch arrays sized to the graph, so a
/// query workload can run thousands of propagations with no allocation
/// beyond the result vectors. One engine per thread — the detectors lease
/// each refining thread its own (RefineScratchPool, core/topl_detector.h).
class PropagationEngine {
 public:
  explicit PropagationEngine(const Graph& g);

  /// Computes gInf and σ for seed set `seeds` (deduplicated global ids) with
  /// influence threshold theta ∈ [0, 1): every vertex v with cpp(g, v) ≥
  /// theta is reported. theta = 0 explores everything reachable.
  InfluencedCommunity Compute(std::span<const VertexId> seeds, double theta);

  /// Single-source user-to-user propagation probabilities (Eq. (3)):
  /// upp(source, v) for all v with upp ≥ theta. upp(source, source) = 1.
  InfluencedCommunity ComputeFromSource(VertexId source, double theta);

 private:
  friend class EpochWrapTestPeer;

  struct HeapEntry {
    double prob;
    VertexId vertex;
    bool operator<(const HeapEntry& other) const { return prob < other.prob; }
  };

  const Graph* graph_;
  std::vector<double> best_;         // tentative cpp per vertex (epoch-guarded)
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<HeapEntry> heap_;
};

}  // namespace topl

#endif  // TOPL_INFLUENCE_PROPAGATION_H_
