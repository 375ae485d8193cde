#include "crypto/verdict_cache.h"

#include "crypto/sha256.h"

namespace sep2p::crypto {

bool VerdictCache::Check(const PublicKey& key,
                         const std::vector<uint8_t>& msg,
                         const Signature& sig) {
  // The msg length is hashed too so (msg, sig) concatenation boundaries
  // can't alias across different splits.
  Sha256 hasher;
  hasher.Update(key.data(), key.size());
  const uint64_t msg_len = msg.size();
  uint8_t len_le[8];
  for (int i = 0; i < 8; ++i) {
    len_le[i] = static_cast<uint8_t>(msg_len >> (8 * i));
  }
  hasher.Update(len_le, sizeof(len_le));
  hasher.Update(msg.data(), msg.size());
  hasher.Update(sig.data(), sig.size());
  const TripleId id = hasher.Finish();

  auto hit = verdicts_.find(id);
  if (hit != verdicts_.end()) {
    ++stats_.coalesced;
    return hit->second;
  }
  const bool ok = provider_->Verify(key, msg, sig);
  if (verdicts_.size() >= kCapacity) {
    verdicts_.erase(insertion_order_.front());
    insertion_order_.pop_front();
  }
  verdicts_.emplace(id, ok);
  insertion_order_.push_back(id);
  return ok;
}

}  // namespace sep2p::crypto
