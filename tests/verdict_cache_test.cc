// VerdictCache: synchronous, bounded verdict memoization
// (crypto/verdict_cache.h). Every Check() must return exactly what the
// provider's own Verify() returns, whether the answer comes from the
// provider or from the cache, and whatever was evicted before.

#include "crypto/verdict_cache.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "crypto/ed25519_provider.h"
#include "crypto/sim_provider.h"
#include "util/rng.h"

namespace sep2p::crypto {
namespace {

struct Signed {
  PublicKey key;
  std::vector<uint8_t> msg;
  Signature sig;
};

// `count` signed messages from `signers` distinct keys; item i is
// corrupted (one flipped signature byte) iff corrupt(i).
std::vector<Signed> MakeItems(SignatureProvider& provider, int count,
                              int signers,
                              const std::function<bool(int)>& corrupt) {
  util::Rng rng(99);
  std::vector<KeyPair> pairs;
  for (int s = 0; s < signers; ++s) {
    pairs.push_back(std::move(provider.GenerateKeyPair(rng).value()));
  }
  std::vector<Signed> items;
  items.reserve(count);
  for (int i = 0; i < count; ++i) {
    const KeyPair& pair = pairs[static_cast<size_t>(i) % pairs.size()];
    Signed item;
    item.key = pair.pub;
    item.msg = {static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8), 0x5e};
    item.sig = std::move(provider.Sign(pair.priv, item.msg).value());
    if (corrupt(i)) item.sig[0] ^= 0xff;
    items.push_back(std::move(item));
  }
  return items;
}

template <typename Provider>
class VerdictCacheProviderTest : public ::testing::Test {};
using Providers = ::testing::Types<SimProvider, Ed25519Provider>;
TYPED_TEST_SUITE(VerdictCacheProviderTest, Providers);

TYPED_TEST(VerdictCacheProviderTest, VerdictsMatchProviderVerify) {
  TypeParam provider;
  auto items = MakeItems(provider, 60, 6, [](int i) { return i % 13 == 7; });
  VerdictCache cache(&provider);
  int failed = 0;
  // Two passes: the first fills the cache, the second is answered from
  // it. Both must agree with the provider on every item.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Signed& item : items) {
      const bool expect = provider.Verify(item.key, item.msg, item.sig);
      EXPECT_EQ(cache.Check(item.key, item.msg, item.sig), expect);
      if (!expect) ++failed;
    }
  }
  EXPECT_GT(failed, 0);
  EXPECT_LT(failed, 2 * static_cast<int>(items.size()));
  EXPECT_EQ(cache.stats().coalesced, items.size());
}

TYPED_TEST(VerdictCacheProviderTest, ForgedSignatureOverCachedPairFails) {
  // The genuine (key, msg, sig) verdict is cached first; a forgery over
  // the same (key, msg) is a different triple and must be verified, and
  // fail, on its own.
  TypeParam provider;
  auto items = MakeItems(provider, 2, 1, [](int) { return false; });
  const Signed& genuine = items[0];
  VerdictCache cache(&provider);
  ASSERT_TRUE(cache.Check(genuine.key, genuine.msg, genuine.sig));

  Signature flipped = genuine.sig;
  flipped.back() ^= 0x01;
  Signature truncated(genuine.sig.begin(), genuine.sig.end() - 1);
  Signature extended = genuine.sig;
  extended.push_back(0);
  const Signature other_msg_sig = items[1].sig;  // same key, other msg
  const uint64_t before = provider.meter().verifies();
  for (const Signature& forged :
       {flipped, truncated, extended, other_msg_sig}) {
    EXPECT_FALSE(cache.Check(genuine.key, genuine.msg, forged));
    // Asked again, the cached false verdict still fails it.
    EXPECT_FALSE(cache.Check(genuine.key, genuine.msg, forged));
  }
  EXPECT_EQ(provider.meter().verifies() - before, 4u);
  // The genuine verdict is untouched by the forgeries.
  EXPECT_TRUE(cache.Check(genuine.key, genuine.msg, genuine.sig));
  EXPECT_EQ(provider.meter().verifies() - before, 4u);
}

TEST(VerdictCacheTest, DuplicateTripleIsVerifiedOnce) {
  // SEP2P's duplication pattern: every party an actor list is disclosed
  // to checks the same triples. Ten parties checking one triple cost
  // one provider verification.
  SimProvider provider;
  auto items = MakeItems(provider, 1, 1, [](int) { return false; });
  VerdictCache cache(&provider);
  const uint64_t before = provider.meter().verifies();
  for (int party = 0; party < 10; ++party) {
    EXPECT_TRUE(cache.Check(items[0].key, items[0].msg, items[0].sig));
  }
  EXPECT_EQ(provider.meter().verifies() - before, 1u);
  EXPECT_EQ(cache.stats().coalesced, 9u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VerdictCacheTest, CorruptItemReturnsFalse) {
  SimProvider provider;
  auto items = MakeItems(provider, 8, 4, [](int i) { return i == 3; });
  VerdictCache cache(&provider);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(cache.Check(items[i].key, items[i].msg, items[i].sig), i != 3)
        << "item " << i;
  }
  // Served from the cache, the false verdict is still false.
  const uint64_t before = provider.meter().verifies();
  EXPECT_FALSE(cache.Check(items[3].key, items[3].msg, items[3].sig));
  EXPECT_EQ(provider.meter().verifies(), before);
}

TEST(VerdictCacheTest, EvictionNeverChangesAVerdict) {
  SimProvider provider;
  util::Rng rng(7);
  const KeyPair pair = std::move(provider.GenerateKeyPair(rng).value());
  // Triple i: message i under one key. The first kHead triples mix
  // genuine and forged signatures; the filler behind them is forged.
  constexpr size_t kHead = 64;
  auto triple = [&](size_t i) {
    Signed t;
    t.key = pair.pub;
    for (int b = 0; b < 8; ++b) {
      t.msg.push_back(static_cast<uint8_t>(i >> (8 * b)));
    }
    if (i < kHead && i % 3 != 0) {
      t.sig = std::move(provider.Sign(pair.priv, t.msg).value());
    } else {
      t.sig = Signature(32, static_cast<uint8_t>(i));
    }
    return t;
  };
  auto expected = [](size_t i) { return i < kHead && i % 3 != 0; };

  VerdictCache cache(&provider);
  const size_t total = VerdictCache::kCapacity + kHead;
  for (size_t i = 0; i < total; ++i) {
    const Signed t = triple(i);
    ASSERT_EQ(cache.Check(t.key, t.msg, t.sig), expected(i)) << i;
    ASSERT_LE(cache.size(), VerdictCache::kCapacity) << i;
  }
  EXPECT_EQ(cache.size(), VerdictCache::kCapacity);

  // FIFO: exactly the head was evicted. Re-checking it costs one
  // verification per triple and returns the original verdicts.
  uint64_t before = provider.meter().verifies();
  for (size_t i = 0; i < kHead; ++i) {
    const Signed t = triple(i);
    EXPECT_EQ(cache.Check(t.key, t.msg, t.sig), expected(i)) << i;
  }
  EXPECT_EQ(provider.meter().verifies() - before, kHead);
  EXPECT_EQ(cache.size(), VerdictCache::kCapacity);

  // The newest filler triple is still cached.
  before = provider.meter().verifies();
  const Signed last = triple(total - 1);
  EXPECT_FALSE(cache.Check(last.key, last.msg, last.sig));
  EXPECT_EQ(provider.meter().verifies(), before);
}

}  // namespace
}  // namespace sep2p::crypto
