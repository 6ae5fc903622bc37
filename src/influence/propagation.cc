#include "influence/propagation.h"

#include <algorithm>
#include <functional>

#include "common/check.h"
#include "common/epoch.h"

namespace topl {

namespace {

// best_ value of a settled vertex: above every cpp, so no offer beats it.
constexpr double kSettled = 2.0;

// Adds one settled cpp to every σ_z it counts toward (thetas ascending).
inline void AddToScores(double cpp, std::span<const double> thetas,
                        std::span<double> scores) {
  for (std::size_t z = 0; z < thetas.size() && cpp >= thetas[z]; ++z) {
    scores[z] += cpp;
  }
}

// Sorts `values` descending in O(n) expected time: a scatter into n buckets
// by value, then a sort within each bucket. The bucket index is a
// non-increasing function of the value (fl subtraction, division and
// multiplication by positive constants, and truncation are all monotone), so
// bucket order never contradicts value order, and the per-bucket sort keeps
// the worst case (one crowded bucket) at O(n log n). (top - v) / span lies
// in [0, 1] even for a subnormal span; the clamp puts v = lo, index n, into
// the last bucket.
void SortDescending(std::vector<double>* values, std::vector<double>* scratch,
                    std::vector<std::uint32_t>* bucket_end) {
  const std::size_t n = values->size();
  if (n < 2) return;
  const auto [lo, hi] = std::minmax_element(values->begin(), values->end());
  const double top = *hi;
  const double span = top - *lo;
  if (span == 0.0) return;  // all equal
  const auto bucket = [&](double v) {
    return std::min(
        n - 1, static_cast<std::size_t>((top - v) / span * static_cast<double>(n)));
  };
  std::vector<std::uint32_t>& end = *bucket_end;
  end.assign(n + 1, 0);
  for (double v : *values) ++end[bucket(v) + 1];
  for (std::size_t b = 1; b <= n; ++b) end[b] += end[b - 1];
  // end[b] is now where bucket b starts; the scatter advances it to its end.
  scratch->resize(n);
  for (double v : *values) (*scratch)[end[bucket(v)]++] = v;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < n; ++b) {
    if (end[b] - begin > 1) {
      std::sort(scratch->begin() + static_cast<std::ptrdiff_t>(begin),
                scratch->begin() + static_cast<std::ptrdiff_t>(end[b]),
                std::greater<>());
    }
    begin = end[b];
  }
  values->swap(*scratch);
}

}  // namespace

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
    best_[top.vertex] = kSettled;  // reject future relaxations
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

double PropagationEngine::MaxArcProb() {
  if (p_max_ < 0.0) {
    float p_max = 0.0f;
    for (VertexId v = 0; v < graph_->NumVertices(); ++v) {
      for (const Graph::Arc& arc : graph_->Neighbors(v)) {
        p_max = std::max(p_max, arc.prob);
      }
    }
    p_max_ = static_cast<double>(p_max);
  }
  return p_max_;
}

void PropagationEngine::ComputeScores(std::span<const VertexId> seeds,
                                      std::span<const double> thetas,
                                      std::span<double> scores) {
  TOPL_DCHECK(!thetas.empty() && scores.size() == thetas.size(),
              "ComputeScores needs one score slot per threshold");
  const double theta = thetas.front();
  TOPL_DCHECK(theta >= 0.0 && theta < 1.0, "influence threshold must be in [0, 1)");
  const double p_max = MaxArcProb();
  std::fill(scores.begin(), scores.end(), 0.0);
  const std::uint32_t epoch = NextEpoch(&epoch_, &stamp_);
  heap_.clear();
  terminal_.clear();

  // Offers cpp(u) · p(u→w) to every out-neighbor w of u (Compute's θ cut).
  const auto relax = [&](VertexId u, double prob) {
    for (const Graph::Arc& arc : graph_->Neighbors(u)) {
      const double candidate = prob * static_cast<double>(arc.prob);
      if (candidate < theta || candidate == 0.0) continue;
      const VertexId w = arc.to;
      const bool fresh = stamp_[w] != epoch;
      if (!fresh && !(candidate > best_[w])) continue;
      stamp_[w] = epoch;
      best_[w] = candidate;
      if (candidate * p_max < theta) {
        // Terminal: can relax nothing. Any earlier value of w was smaller,
        // hence terminal too, so w is already listed unless fresh.
        if (fresh) terminal_.push_back(w);
      } else {
        heap_.push_back({candidate, w});
        std::push_heap(heap_.begin(), heap_.end());
      }
    }
  };

  // Seeds settle at 1.0 (all marked before any relaxes, so a seed is never
  // offered a value). A duplicate seed relaxes again, to no effect.
  for (VertexId s : seeds) {
    TOPL_DCHECK(s < graph_->NumVertices(), "seed out of range");
    if (stamp_[s] == epoch) continue;  // duplicate seed
    stamp_[s] = epoch;
    best_[s] = kSettled;
    AddToScores(1.0, thetas, scores);
  }
  for (VertexId s : seeds) relax(s, 1.0);

  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    if (top.prob < best_[top.vertex]) continue;  // stale (or settled)
    if (!heap_.empty()) {
      // Likely the next settle: fetch its arc list while this one relaxes.
      __builtin_prefetch(graph_->Neighbors(heap_.front().vertex).data());
    }
    AddToScores(top.prob, thetas, scores);
    best_[top.vertex] = kSettled;
    relax(top.vertex, top.prob);
  }

  // Terminal vertices that never reached the heap, summed descending after
  // every heap-settled value.
  terminal_cpp_.clear();
  for (VertexId w : terminal_) {
    if (best_[w] != kSettled) terminal_cpp_.push_back(best_[w]);
  }
  SortDescending(&terminal_cpp_, &sorted_cpp_, &bucket_end_);
  for (double cpp : terminal_cpp_) AddToScores(cpp, thetas, scores);
}

}  // namespace topl
