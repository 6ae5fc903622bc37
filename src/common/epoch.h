#ifndef TOPL_COMMON_EPOCH_H_
#define TOPL_COMMON_EPOCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace topl {

/// Advances the epoch of epoch-stamped scratch, where `stamps[i] == epoch`
/// marks slot i as touched by the current call, so a call starts with every
/// slot clear in O(1). On the wraparound after 2^32 calls the stamps are
/// zeroed and the epoch restarts at 1: a stale stamp never aliases a fresh
/// epoch, and 0 always means "never stamped". Returns the new epoch.
inline std::uint32_t NextEpoch(std::uint32_t* epoch,
                               std::vector<std::uint32_t>* stamps) {
  if (++*epoch == 0) {
    std::fill(stamps->begin(), stamps->end(), 0);
    *epoch = 1;
  }
  return *epoch;
}

}  // namespace topl

#endif  // TOPL_COMMON_EPOCH_H_
