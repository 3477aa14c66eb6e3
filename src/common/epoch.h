#ifndef MTSHARE_COMMON_EPOCH_H_
#define MTSHARE_COMMON_EPOCH_H_

#include <algorithm>
#include <cstdint>

namespace mtshare {

/// Opens a new epoch for epoch-stamped buffers: a slot is live only while
/// its stamp equals `epoch`, so one increment invalidates every slot in
/// O(1). When the counter wraps to 0, every stamp array is zeroed and the
/// counter restarts at 1, so a stamp written 2^32 epochs ago can never read
/// as current.
template <typename... Stamps>
void NextEpoch(uint32_t& epoch, Stamps&... stamps) {
  if (++epoch == 0) {
    (std::fill(stamps.begin(), stamps.end(), uint32_t{0}), ...);
    epoch = 1;
  }
}

}  // namespace mtshare

#endif  // MTSHARE_COMMON_EPOCH_H_
