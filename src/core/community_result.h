#ifndef TOPL_CORE_COMMUNITY_RESULT_H_
#define TOPL_CORE_COMMUNITY_RESULT_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "core/query.h"
#include "core/seed_community.h"
#include "influence/propagation.h"

namespace topl {

/// \brief One answer community: the seed community g, its influenced
/// community gInf (vertices + cpp values), and σ(g).
struct CommunityResult {
  SeedCommunity community;
  InfluencedCommunity influence;

  double score() const { return influence.score; }
};

/// Canonical strict ordering of answer communities: σ desc, center asc.
/// Centers are unique per candidate, so this is a *total* order — which is
/// what makes the parallel scoring path deterministic: the top-L of any
/// candidate set under a total order is one specific set of communities, no
/// matter in which order the candidates were refined and merged. RanksAbove
/// is the same order on bare (σ, center) keys; it needs only σ, so the
/// detectors rank communities whose gInf is not built yet.
inline bool RanksAbove(double a_score, VertexId a_center, double b_score,
                       VertexId b_center) {
  if (a_score != b_score) return a_score > b_score;
  return a_center < b_center;
}

inline bool BetterCommunity(const CommunityResult& a, const CommunityResult& b) {
  return RanksAbove(a.score(), a.community.center, b.score(),
                    b.community.center);
}

/// \brief A TopL-ICDE answer: up to L communities sorted by σ descending
/// (ties broken by center id for determinism), plus execution counters.
struct TopLResult {
  std::vector<CommunityResult> communities;
  QueryStats stats;

  /// True when the search stopped before exhausting the candidate space —
  /// deadline expiry, cancellation, or a progressive callback returning
  /// false. `communities` then holds the best answers found so far.
  bool truncated = false;

  /// Largest influential score any community *not* in `communities` could
  /// still have. −∞ once the candidate space is exhausted (the answer is
  /// exact); for truncated answers this bounds how much better a missed
  /// community could be — the anytime quality gap.
  double score_upper_bound = -std::numeric_limits<double>::infinity();

  /// True when admission control shed the full-work path and served this
  /// answer as a best-effort anytime result instead (engine/engine.h
  /// overload handling). Implies `truncated` semantics: `communities` is a
  /// valid prefix of the exact answer and `score_upper_bound` still bounds
  /// what was missed.
  bool degraded = false;
};

/// Sorts `communities` into canonical answer order (see BetterCommunity).
inline void SortCommunityResults(std::vector<CommunityResult>* communities) {
  std::sort(communities->begin(), communities->end(), BetterCommunity);
}

}  // namespace topl

#endif  // TOPL_CORE_COMMUNITY_RESULT_H_
