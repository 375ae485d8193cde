#include "node/join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "dht/region.h"
#include "node/node_cache.h"
#include "tests/test_util.h"

namespace sep2p::node {
namespace {

class JoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(/*n=*/2000, /*c_fraction=*/0.01,
                                 /*cache=*/200);
    ASSERT_NE(network_, nullptr);
    ctx_ = network_->context();
  }

  std::unique_ptr<sim::Network> network_;
  core::ProtocolContext ctx_;
  net::SimNetwork net_ = test::MakeIdealNet(2000);
  util::Rng rng_{41};
};

TEST_F(JoinTest, AttestedCacheVerifies) {
  JoinProtocol join(ctx_, net_);
  auto cache = join.AttestCache(15, rng_);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_GE(cache->k(), 2);
  EXPECT_FALSE(cache->entries.empty());
  auto cost = VerifyAttestedCache(ctx_, *cache);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_DOUBLE_EQ(cost->crypto_work, 2.0 * cache->k() + 1);
}

TEST_F(JoinTest, AttestedEntriesMatchTheOwnersRealCache) {
  JoinProtocol join(ctx_, net_);
  auto cache = join.AttestCache(99, rng_);
  ASSERT_TRUE(cache.ok());
  NodeCache truth(&network_->directory(), 99, ctx_.rs3);
  std::vector<crypto::PublicKey> expected;
  for (uint32_t idx : truth.Entries()) {
    expected.push_back(network_->directory().pub(idx));
  }
  EXPECT_EQ(cache->entries, expected);
}

TEST_F(JoinTest, TamperedEntryListRejected) {
  JoinProtocol join(ctx_, net_);
  auto cache = join.AttestCache(15, rng_);
  ASSERT_TRUE(cache.ok());
  AttestedCache forged = *cache;
  // Sneak a fabricated node (a Sybil) into the attested cache.
  crypto::PublicKey fake{};
  fake[3] = 0x33;
  forged.entries.push_back(fake);
  EXPECT_FALSE(VerifyAttestedCache(ctx_, forged).ok());
}

TEST_F(JoinTest, ForeignAttestorRejected) {
  JoinProtocol join(ctx_, net_);
  auto cache = join.AttestCache(15, rng_);
  ASSERT_TRUE(cache.ok());
  // A node far from the owner signs the same bytes — legit signature,
  // wrong region.
  const dht::Directory& dir = network_->directory();
  dht::Region r1 = dht::Region::Centered(dir.pos(15), cache->rs1);
  uint32_t outsider = 0;
  for (uint32_t i = 0; i < dir.size(); ++i) {
    if (!r1.Contains(dir.pos(i))) {
      outsider = i;
      break;
    }
  }
  auto sig = ctx_.SignAs(outsider, cache->SignedBytes());
  ASSERT_TRUE(sig.ok());
  AttestedCache forged = *cache;
  forged.attestations[0] = {dir.cert(outsider), *sig};
  EXPECT_FALSE(VerifyAttestedCache(ctx_, forged).ok());
}

TEST_F(JoinTest, StaleAttestationRejected) {
  JoinProtocol join(ctx_, net_);
  auto cache = join.AttestCache(15, rng_);
  ASSERT_TRUE(cache.ok());
  core::ProtocolContext later = ctx_;
  later.now = ctx_.now + ctx_.max_timestamp_age + 1;
  EXPECT_FALSE(VerifyAttestedCache(later, *cache).ok());
}

TEST_F(JoinTest, JoinBuildsNearCompleteValidCache) {
  JoinProtocol join(ctx_, net_);
  const uint32_t newcomer = 777;
  auto outcome = join.Join(newcomer, rng_);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  // Everything in the joined cache is genuinely legitimate w.r.t. the
  // newcomer's coverage (validity)...
  NodeCache truth(&network_->directory(), newcomer, ctx_.rs3);
  std::vector<uint32_t> expected = truth.Entries();
  std::sort(expected.begin(), expected.end());
  for (uint32_t idx : outcome->cache) {
    EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(), idx));
  }
  // ...and covers nearly all of it (the neighbors' caches overlap the
  // newcomer's region except for slivers at the far edges).
  EXPECT_GE(outcome->cache.size(), expected.size() * 8 / 10);
}

TEST_F(JoinTest, JoinCostsScaleWithCoverage) {
  JoinProtocol join(ctx_, net_);
  auto outcome = join.Join(42, rng_);
  ASSERT_TRUE(outcome.ok());
  // Announcement dominates: ~cache_size certificate checks.
  EXPECT_GT(outcome->cost.crypto_work, 100);   // ~200-entry coverage
  EXPECT_GT(outcome->cost.msg_work, 100);
  // But the newcomer's own critical path stays short.
  EXPECT_LT(outcome->cost.crypto_latency, 40);
}

TEST_F(JoinTest, NeighborsAreAdjacentOnTheRing) {
  JoinProtocol join(ctx_, net_);
  auto outcome = join.Join(100, rng_);
  ASSERT_TRUE(outcome.ok());
  EXPECT_NE(outcome->successor, 100u);
  EXPECT_NE(outcome->predecessor, 100u);
  EXPECT_NE(outcome->successor, outcome->predecessor);
}

// On a lossy link an attestor whose every attempt is lost is declared
// failed and EngageQuorum substitutes the next shuffled R1 candidate;
// the resulting cache still verifies. The same Rng seed on the ideal
// link gives the unreplaced attestor set to compare against.
TEST_F(JoinTest, LossyLinkReplacesUnresponsiveAttestors) {
  net::LinkModel link;
  link.drop_probability = 0.2;
  net::RetryPolicy retry;
  retry.max_attempts = 2;
  net::SimNetwork lossy(2000, link, retry, /*seed=*/11);
  JoinProtocol ideal_join(ctx_, net_);
  JoinProtocol lossy_join(ctx_, lossy);
  int replaced_sets = 0;
  for (uint32_t owner : {15u, 99u, 300u, 777u, 1234u, 1800u}) {
    util::Rng ideal_rng(owner);
    util::Rng lossy_rng(owner);
    auto ideal = ideal_join.AttestCache(owner, ideal_rng);
    auto attested = lossy_join.AttestCache(owner, lossy_rng);
    ASSERT_TRUE(ideal.ok()) << owner << ": " << ideal.status().ToString();
    ASSERT_TRUE(attested.ok()) << owner << ": "
                               << attested.status().ToString();
    ASSERT_EQ(attested->k(), ideal->k());
    auto verified = VerifyAttestedCache(ctx_, *attested);
    EXPECT_TRUE(verified.ok()) << owner << ": "
                               << verified.status().ToString();
    bool same = true;
    for (int j = 0; j < ideal->k(); ++j) {
      same = same && attested->attestations[j].cert.subject ==
                         ideal->attestations[j].cert.subject;
    }
    replaced_sets += same ? 0 : 1;
  }
  EXPECT_GT(lossy.stats().quorum_replacements, 0u);
  EXPECT_GT(replaced_sets, 0);
  EXPECT_EQ(net_.stats().timeouts, 0u);
}

// A crash only marks the node in the Directory, which drops it from
// region queries; once it rejoins it is an R1 candidate again and
// answers attestation requests on the same transport.
TEST_F(JoinTest, CrashedThenRejoinedNodeServesAsAttestor) {
  dht::Directory& dir = network_->directory();
  JoinProtocol join(ctx_, net_);
  auto attestor_of = [&](const AttestedCache& cache, int j) {
    return *dir.IndexOf(cache.attestations[j].cert.NodeIdFromSubject());
  };
  auto has_attestor = [&](const AttestedCache& cache, uint32_t node) {
    for (int j = 0; j < cache.k(); ++j) {
      if (attestor_of(cache, j) == node) return true;
    }
    return false;
  };

  util::Rng before_rng(5);
  auto before = join.AttestCache(15, before_rng);
  ASSERT_TRUE(before.ok());
  const uint32_t node = attestor_of(*before, 0);

  dir.MarkCrashed(node);
  util::Rng crashed_rng(5);
  auto while_crashed = join.AttestCache(15, crashed_rng);
  ASSERT_TRUE(while_crashed.ok());
  EXPECT_FALSE(has_attestor(*while_crashed, node));

  dir.SetAlive(node, true);
  util::Rng rejoined_rng(5);
  auto rejoined = join.AttestCache(15, rejoined_rng);
  ASSERT_TRUE(rejoined.ok());
  EXPECT_TRUE(has_attestor(*rejoined, node));
  EXPECT_TRUE(VerifyAttestedCache(ctx_, *rejoined).ok());
  EXPECT_EQ(net_.stats().timeouts, 0u);
  EXPECT_EQ(net_.stats().retries, 0u);
}

// Golden pin for the attested join: 20 joins on a small world (N=600,
// cache 64), each followed by an attestation of the new successor's
// cache, folded into one FNV-1a digest of the neighbors, the validated
// cache, every Cost field, the attestors' subjects and rs1, and the
// CryptoMeter sign/verify counts each step spends. Any change to the
// join's Rng consumption, attestor choice, cost accounting or crypto
// work moves the digest.
class JoinGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::Parameters params;
    params.n = 600;
    params.colluding_fraction = 0.01;
    params.cache_size = 64;
    params.seed = 77;
    auto network = sim::Network::Build(params);
    ASSERT_TRUE(network.ok()) << network.status().ToString();
    network_ = std::move(network.value());
    ctx_ = network_->context();
  }

  static uint64_t Fold(uint64_t h, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
    return h;
  }
  static uint64_t FoldDouble(uint64_t h, double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return Fold(h, bits);
  }

  std::unique_ptr<sim::Network> network_;
  core::ProtocolContext ctx_;
};

TEST_F(JoinGoldenTest, JoinDigestIsPinned) {
  crypto::CryptoMeter& meter = network_->provider().meter();
  net::SimNetwork transport = test::MakeIdealNet(600);
  JoinProtocol join(ctx_, transport);
  util::Rng rng(2024);
  uint64_t digest = 14695981039346656037ULL;
  for (uint64_t i = 0; i < 20; ++i) {
    const uint32_t newcomer = static_cast<uint32_t>((i * 29 + 3) % 600);
    meter.Reset();
    auto outcome = join.Join(newcomer, rng);
    ASSERT_TRUE(outcome.ok()) << i << ": " << outcome.status().ToString();
    digest = Fold(digest, outcome->successor);
    digest = Fold(digest, outcome->predecessor);
    digest = Fold(digest, outcome->cache.size());
    for (uint32_t idx : outcome->cache) digest = Fold(digest, idx);
    digest = FoldDouble(digest, outcome->cost.crypto_latency);
    digest = FoldDouble(digest, outcome->cost.msg_latency);
    digest = FoldDouble(digest, outcome->cost.crypto_work);
    digest = FoldDouble(digest, outcome->cost.msg_work);
    digest = Fold(digest, meter.signs());
    digest = Fold(digest, meter.verifies());

    meter.Reset();
    auto attested = join.AttestCache(outcome->successor, rng);
    ASSERT_TRUE(attested.ok()) << i << ": " << attested.status().ToString();
    digest = FoldDouble(digest, attested->rs1);
    digest = Fold(digest, attested->entries.size());
    for (const AttestedCache::Attestation& att : attested->attestations) {
      for (uint8_t b : att.cert.subject) digest = Fold(digest, b);
    }
    digest = Fold(digest, meter.signs());
    digest = Fold(digest, meter.verifies());
  }
  EXPECT_EQ(digest, 0x7a08c8d837ded62dULL) << std::hex << digest;
}

}  // namespace
}  // namespace sep2p::node
