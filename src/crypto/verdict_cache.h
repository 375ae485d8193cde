// VerdictCache: synchronous, bounded memoization of signature verdicts.
//
// SEP2P's verification load is heavily duplicated: an attested actor
// list is verified by every party it is disclosed to (2k asymmetric
// operations each, §4 cost model), and all of them check the exact same
// (key, msg, sig) triples. A verdict is a pure function of its triple,
// so the cache verifies each unique triple once through the wrapped
// SignatureProvider and answers repeats from memory — a SHA-256 over
// the triple instead of an asymmetric operation.
//
// Check() always returns the real verdict at the call site: a forged
// signature fails exactly where the uncached Verify() would fail it,
// including a forgery over a (key, msg) pair whose genuine signature is
// already cached (the signature is part of the identity). Evicting an
// entry only costs one re-verification; it never changes a verdict.
//
// Bounded: at most kCapacity verdicts are kept, evicted FIFO by
// insertion, so eviction order is a pure function of the call sequence.
// Single-threaded: one caller (the throughput engine's coordinator)
// owns the cache.

#ifndef SEP2P_CRYPTO_VERDICT_CACHE_H_
#define SEP2P_CRYPTO_VERDICT_CACHE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "crypto/signature_provider.h"

namespace sep2p::crypto {

class VerdictCache {
 public:
  // One engine run of the mixed Ed25519 workload resolves a few
  // thousand unique triples, so this bound never evicts there while
  // capping the cache at a few MiB.
  static constexpr size_t kCapacity = size_t{1} << 15;

  struct Stats {
    uint64_t coalesced = 0;  // checks answered without a provider call
  };

  explicit VerdictCache(SignatureProvider* provider) : provider_(provider) {}

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  // Returns provider->Verify(key, msg, sig), calling the provider (and
  // so metering one verification) only on a cache miss.
  bool Check(const PublicKey& key, const std::vector<uint8_t>& msg,
             const Signature& sig);

  size_t size() const { return verdicts_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  // Identity of one (key, msg, sig) triple: SHA-256 over key, msg
  // length, msg and sig.
  using TripleId = std::array<uint8_t, 32>;
  struct TripleIdHash {
    size_t operator()(const TripleId& id) const {
      size_t v = 0;
      for (size_t i = 0; i < sizeof(size_t); ++i) {
        v |= static_cast<size_t>(id[i]) << (8 * i);
      }
      return v;
    }
  };

  SignatureProvider* provider_;
  std::unordered_map<TripleId, bool, TripleIdHash> verdicts_;
  std::deque<TripleId> insertion_order_;  // eviction queue, oldest first
  Stats stats_;
};

}  // namespace sep2p::crypto

#endif  // SEP2P_CRYPTO_VERDICT_CACHE_H_
