#include "influence/influence_calculator.h"

namespace topl {

std::vector<double> ScoresAtThresholds(const InfluencedCommunity& community,
                                       std::span<const double> thetas) {
  std::vector<double> scores(thetas.size(), 0.0);
  for (std::size_t i = 0; i < community.cpp.size(); ++i) {
    const double p = community.cpp[i];
    for (std::size_t z = 0; z < thetas.size(); ++z) {
      if (p >= thetas[z]) {
        scores[z] += p;
      } else {
        break;  // thetas ascending: p fails every larger threshold too
      }
    }
  }
  return scores;
}

}  // namespace topl
