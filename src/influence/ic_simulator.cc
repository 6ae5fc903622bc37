#include "influence/ic_simulator.h"

#include <algorithm>

#include "common/check.h"
#include "common/epoch.h"

namespace topl {

IcSimulator::IcSimulator(const Graph& g)
    : graph_(&g),
      count_(g.NumVertices(), 0),
      stamp_(g.NumVertices(), 0),
      active_round_(g.NumVertices(), 0) {}

void IcSimulator::RunCascades(std::span<const VertexId> seeds,
                              const Options& options) {
  TOPL_CHECK(options.num_rounds > 0, "IcSimulator requires num_rounds > 0");
  const std::uint32_t epoch = NextEpoch(&epoch_, &stamp_);
  touched_.clear();
  Rng rng(options.seed);

  auto touch = [this, epoch](VertexId v) {
    if (stamp_[v] != epoch) {
      stamp_[v] = epoch;
      count_[v] = 0;
      touched_.push_back(v);
    }
  };

  // `active_round_[v] == cascade_tag_` marks v active in the current
  // cascade; the tag advances per cascade (and across calls) so no clearing
  // is ever needed. 64-bit: overflow is out of scope.
  for (std::uint32_t round = 0; round < options.num_rounds; ++round) {
    ++cascade_tag_;
    frontier_.clear();
    for (VertexId s : seeds) {
      TOPL_DCHECK(s < graph_->NumVertices(), "seed out of range");
      if (active_round_[s] == cascade_tag_) continue;  // duplicate seed
      active_round_[s] = cascade_tag_;
      touch(s);
      ++count_[s];
      frontier_.push_back(s);
    }
    while (!frontier_.empty()) {
      next_.clear();
      for (VertexId u : frontier_) {
        for (const Graph::Arc& arc : graph_->Neighbors(u)) {
          if (active_round_[arc.to] == cascade_tag_) continue;
          // One independent activation attempt per (newly active u, arc).
          if (rng.NextDouble() < static_cast<double>(arc.prob)) {
            active_round_[arc.to] = cascade_tag_;
            touch(arc.to);
            ++count_[arc.to];
            next_.push_back(arc.to);
          }
        }
      }
      frontier_.swap(next_);
    }
  }
}

InfluencedCommunity IcSimulator::EstimateSpread(std::span<const VertexId> seeds,
                                                const Options& options,
                                                double min_probability) {
  RunCascades(seeds, options);
  InfluencedCommunity out;
  const double rounds = static_cast<double>(options.num_rounds);
  for (VertexId v : touched_) {
    const double p = count_[v] / rounds;
    if (p >= min_probability && p > 0.0) {
      out.vertices.push_back(v);
      out.cpp.push_back(p);
      out.score += p;
    }
  }
  return out;
}

double IcSimulator::EstimateExpectedSpread(std::span<const VertexId> seeds,
                                           const Options& options) {
  RunCascades(seeds, options);
  double total = 0.0;
  const double rounds = static_cast<double>(options.num_rounds);
  for (VertexId v : touched_) total += count_[v] / rounds;
  return total;
}

}  // namespace topl
