#ifndef TOPL_INFLUENCE_INFLUENCE_CALCULATOR_H_
#define TOPL_INFLUENCE_INFLUENCE_CALCULATOR_H_

#include <span>
#include <vector>

#include "influence/propagation.h"

namespace topl {

/// \brief Influential scores σ_z at several thresholds from a single
/// propagation.
///
/// σ_θ(g) = Σ {cpp(g, v) : cpp(g, v) ≥ θ} is non-increasing in θ, so the
/// propagation run once at the smallest threshold contains every term needed
/// for all larger thresholds, so the m (σ_z, θ_z) pairs of Algorithm 2 need
/// one Dijkstra instead of m. The offline phase itself calls the score-only
/// PropagationEngine::ComputeScores; this form over a full Compute result is
/// the reference its sums must equal bit for bit.
///
/// `thetas` must be sorted ascending; `community` must come from a
/// propagation with threshold ≤ thetas.front(). Returns one score per theta.
std::vector<double> ScoresAtThresholds(const InfluencedCommunity& community,
                                       std::span<const double> thetas);

}  // namespace topl

#endif  // TOPL_INFLUENCE_INFLUENCE_CALCULATOR_H_
