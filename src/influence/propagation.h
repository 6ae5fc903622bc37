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

  /// Score-only form of Compute for the offline σ bounds (Algorithm 2):
  /// writes σ_{thetas[z]}(seeds) to scores[z] for every z, propagating once
  /// at thetas.front(). `thetas` must be non-empty, ascending and in [0, 1);
  /// `scores` must have thetas.size() slots. Each score is bit-identical to
  /// ScoresAtThresholds(Compute(seeds, thetas.front()), thetas)[z]: the same
  /// cpp values are summed in the same non-increasing order.
  ///
  /// Three differences from Compute make it cheaper, none visible in the
  /// sums:
  ///  - Seeds settle at 1.0 directly instead of through the heap.
  ///  - A vertex whose tentative cpp c has fl(c · p_max) < θ_min (p_max: the
  ///    graph's largest arc probability) is terminal: it never enters the
  ///    heap, and later offers only max-update its value in place. Every
  ///    arc p ≤ p_max and rounding is monotone, so fl(c · p) ≤ fl(c · p_max)
  ///    < θ_min; Compute cuts every relaxation out of such a vertex, so
  ///    leaving it off the heap drops no relaxation and changes no other
  ///    vertex's value. A terminal value later beaten by a non-terminal
  ///    offer moves to the heap as usual.
  ///  - Terminal values are summed after the heap drains, in descending
  ///    order. Compute settles in non-increasing cpp order; by the same
  ///    monotonicity every heap-settled value h (fl(h · p_max) ≥ θ_min)
  ///    exceeds every terminal value t (fl(t · p_max) < θ_min), so "seeds,
  ///    heap settle order, then terminal values descending" is Compute's
  ///    summation sequence up to swaps of equal values, which leave
  ///    floating-point sums unchanged.
  void ComputeScores(std::span<const VertexId> seeds,
                     std::span<const double> thetas, std::span<double> scores);

 private:
  friend class EpochWrapTestPeer;

  struct HeapEntry {
    double prob;
    VertexId vertex;
    bool operator<(const HeapEntry& other) const { return prob < other.prob; }
  };

  // Largest arc probability of *graph_, scanned once per engine on the first
  // ComputeScores call: one O(m) pass per refining thread's engine, so per
  // snapshot on the query path. Engines that only run Compute never pay it.
  double MaxArcProb();

  const Graph* graph_;
  std::vector<double> best_;         // tentative cpp per vertex (epoch-guarded)
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<HeapEntry> heap_;

  // ComputeScores scratch.
  double p_max_ = -1.0;  // MaxArcProb's cache; < 0 until computed
  std::vector<VertexId> terminal_;    // reached first below the relax cut
  std::vector<double> terminal_cpp_;  // their final values, then sorted
  std::vector<double> sorted_cpp_;
  std::vector<std::uint32_t> bucket_end_;
};

}  // namespace topl

#endif  // TOPL_INFLUENCE_PROPAGATION_H_
