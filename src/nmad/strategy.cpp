#include "nmad/strategy.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "util/env.hpp"

namespace piom::nmad {

Strategy::Strategy(std::optional<bool> aggregation)
    : aggregation_(aggregation.value_or(
          util::env::boolean("PIOM_AGGREGATION", false))) {}

int Strategy::select_eager_rail(const std::vector<double>& latencies_us) {
  const int nrails = static_cast<int>(latencies_us.size());
  int best = 0;
  bool unique = true;
  for (int r = 1; r < nrails; ++r) {
    const double lat = latencies_us[static_cast<std::size_t>(r)];
    const double best_lat = latencies_us[static_cast<std::size_t>(best)];
    if (lat < best_lat) {
      best = r;
      unique = true;
    } else if (lat == best_lat) {
      unique = false;
    }
  }
  // A strictly fastest rail (the shmem fast path of a hybrid gate) takes
  // all small traffic; tied rails are interchangeable -> rail 0.
  return unique ? best : 0;
}

std::vector<StripeChunk> Strategy::stripe(
    std::size_t len, const std::vector<double>& bandwidths) {
  assert(!bandwidths.empty());
  std::vector<StripeChunk> chunks;
  const int nrails = static_cast<int>(bandwidths.size());
  if (nrails == 1 || len < 2 * kStripeMinChunk) {
    chunks.push_back(StripeChunk{0, 0, len});
    return chunks;
  }
  const double total_bw =
      std::accumulate(bandwidths.begin(), bandwidths.end(), 0.0);
  std::size_t offset = 0;
  for (int r = 0; r < nrails; ++r) {
    std::size_t share =
        (r == nrails - 1)
            ? len - offset  // last rail absorbs rounding
            : static_cast<std::size_t>(static_cast<double>(len) *
                                       bandwidths[static_cast<std::size_t>(r)] /
                                       total_bw);
    if (r < nrails - 1 && share < kStripeMinChunk) {
      // Too small to be worth a packet on its own rail: skip this rail and
      // let later rails (or the tail) absorb it.
      continue;
    }
    if (share == 0) continue;
    chunks.push_back(StripeChunk{r, offset, share});
    offset += share;
  }
  if (offset < len) {
    // Rounding shortfall (possible when rails were skipped): extend the
    // last chunk.
    if (chunks.empty()) {
      chunks.push_back(StripeChunk{0, 0, len});
    } else {
      chunks.back().len += len - offset;
    }
  }
  return chunks;
}

bool Strategy::should_pack(int pending_count, std::size_t bytes) const {
  return aggregation_ && pending_count >= 2 &&
         pending_count <= kMaxPackMsgs && bytes <= kMaxPackBytes;
}

}  // namespace piom::nmad
