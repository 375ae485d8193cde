#include "strategies/adversary.h"

#include <algorithm>
#include <utility>

namespace sep2p::strategies {

Coalition::Coalition(std::vector<uint32_t> indices, size_t directory_size)
    : indices_(std::move(indices)), member_(directory_size, false) {
  for (uint32_t idx : indices_) member_[idx] = true;
}

std::optional<uint32_t> FindClaimingColluder(const dht::Directory& directory,
                                             const Coalition& coalition,
                                             dht::RingPos p,
                                             double tolerance_rs) {
  dht::Region tolerance = dht::Region::Centered(p, tolerance_rs);
  std::optional<uint32_t> best;
  dht::RingPos best_distance = 0;
  for (uint32_t idx : directory.NodesInRegion(tolerance)) {
    if (!coalition.contains(idx)) continue;
    dht::RingPos d = dht::RingDistance(directory.pos(idx), p);
    if (!best.has_value() || d < best_distance) {
      best = idx;
      best_distance = d;
    }
  }
  return best;
}

Coalition SampleColluders(const dht::Directory& directory, uint64_t count,
                          util::Rng& rng) {
  // Sample over the alive population (pool/departed nodes never collude;
  // their handles are interleaved with alive ones because the directory
  // sorts by ring position). With no pool and no churn the k-th alive
  // node IS handle k, so the RNG stream and the chosen set are
  // bit-identical to the historical sample-over-[0, n) path.
  const size_t alive = directory.alive_count();
  std::vector<size_t> chosen =
      rng.SampleIndices(alive, std::min<uint64_t>(count, alive));
  std::vector<uint32_t> colluders;
  colluders.reserve(chosen.size());
  for (size_t k : chosen) {
    colluders.push_back(*directory.NthAlive(k));
  }
  std::sort(colluders.begin(), colluders.end());
  return Coalition(std::move(colluders), directory.size());
}

}  // namespace sep2p::strategies
