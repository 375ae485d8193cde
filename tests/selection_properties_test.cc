// Property-style parameterized sweeps over the SEP2P selection: the
// protocol's contracts must hold across network sizes, collusion levels
// and actor counts, not just at the defaults.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "core/selection.h"
#include "core/verification.h"
#include "dht/region.h"
#include "tests/test_util.h"

namespace sep2p::core {
namespace {

// (network size, colluding fraction, actor count)
using SweepParam = std::tuple<uint64_t, double, int>;

class SelectionSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  void SetUp() override {
    auto [n, c_fraction, actor_count] = GetParam();
    sim::Parameters params;
    params.n = n;
    params.colluding_fraction = c_fraction;
    params.actor_count = actor_count;
    params.cache_size = std::max<size_t>(4 * actor_count, n / 25);
    params.seed = 1000 + n + actor_count;
    auto network = sim::Network::Build(params);
    ASSERT_TRUE(network.ok());
    network_ = std::move(network.value());
    ctx_ = network_->context();
  }

  std::unique_ptr<sim::Network> network_;
  ProtocolContext ctx_;
};

TEST_P(SelectionSweepTest, ContractHoldsForSeveralTriggers) {
  SelectionProtocol protocol(ctx_);
  net::SimNetwork transport =
      test::MakeIdealNet(network_->directory().size());
  util::Rng rng(9);
  for (int trial = 0; trial < 6; ++trial) {
    uint32_t trigger =
        static_cast<uint32_t>(rng.NextUint64(network_->directory().size()));
    auto outcome = protocol.Run(trigger, rng, transport);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

    // A actors, all distinct, all legitimate for R3.
    EXPECT_EQ(outcome->val.actor_count(), ctx_.actor_count);
    std::set<uint32_t> unique(outcome->actor_indices.begin(),
                              outcome->actor_indices.end());
    EXPECT_EQ(unique.size(), outcome->actor_indices.size());
    dht::Region r3 = dht::Region::Centered(
        outcome->val.SetterPoint().ring_pos(), ctx_.rs3);
    for (uint32_t actor : outcome->actor_indices) {
      EXPECT_TRUE(r3.Contains(network_->directory().pos(actor)));
    }

    // Verification accepts at exactly 2k ops; k within the k-table.
    auto cost = VerifyActorList(ctx_, outcome->val);
    ASSERT_TRUE(cost.ok()) << cost.status().ToString();
    EXPECT_DOUBLE_EQ(cost->crypto_work, 2.0 * outcome->val.k());
    EXPECT_GE(outcome->val.k(), 2);
    EXPECT_LE(outcome->val.k(), ctx_.ktable->k_max());

    // Any single-byte tamper is rejected.
    auto forged =
        tamper::ReplaceRandom(outcome->val, crypto::Hash256::Of("t"));
    EXPECT_FALSE(VerifyActorList(ctx_, forged).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SelectionSweepTest,
    ::testing::Values(SweepParam{500, 0.01, 4}, SweepParam{1000, 0.002, 8},
                      SweepParam{2000, 0.01, 8}, SweepParam{2000, 0.05, 16},
                      SweepParam{5000, 0.01, 32},
                      SweepParam{5000, 0.001, 8},
                      SweepParam{10000, 0.02, 16}),
    [](const auto& info) {
      return "N" + std::to_string(std::get<0>(info.param)) + "_C" +
             std::to_string(
                 static_cast<int>(std::get<1>(info.param) * 10000)) +
             "bp_A" + std::to_string(std::get<2>(info.param));
    });

TEST(ActorListUniformityTest, NoCandidateStarvedOrDominant) {
  // A subtle property of the paper's kpub xor RND_S sort: it is
  // *pairwise* fair (P(a beats b) = 1/2 for any fixed pair over a
  // uniform RND_S) but, for a FIXED candidate set, the joint min-rank
  // probabilities depend on the keys' XOR-tree geometry — the same
  // effect as Kademlia's XOR metric. Selection is therefore unbiasable
  // and unpredictable, yet not exactly uniform per candidate. Assert the
  // security-relevant bounds: nobody is starved, nobody dominates.
  crypto::SimProvider provider;
  util::Rng rng(5);
  std::vector<std::vector<crypto::PublicKey>> lists(1);
  constexpr int kCandidates = 40;
  constexpr int kPick = 8;
  constexpr int kRounds = 3000;
  for (int i = 0; i < kCandidates; ++i) {
    lists[0].push_back(provider.GenerateKeyPair(rng)->pub);
  }
  std::map<crypto::PublicKey, int> hits;
  for (int round = 0; round < kRounds; ++round) {
    crypto::Hash256 rnd_s =
        crypto::Hash256::Of("uniformity-" + std::to_string(round));
    for (const crypto::PublicKey& key :
         BuildActorList(lists, rnd_s, kPick)) {
      ++hits[key];
    }
  }
  const double expected =
      static_cast<double>(kRounds) * kPick / kCandidates;  // 600
  EXPECT_EQ(hits.size(), static_cast<size_t>(kCandidates));
  for (const auto& [key, count] : hits) {
    EXPECT_GT(count, expected * 0.25);  // never starved
    EXPECT_LT(count, expected * 3.0);   // never dominant
  }
}

TEST(ActorListUniformityTest, UniformOverRandomKeySets) {
  // Averaged over random key material (which is what an attacker faces:
  // keys are hashes it cannot shape towards a future unknown candidate
  // set), each list position is hit uniformly.
  crypto::SimProvider provider;
  util::Rng rng(15);
  constexpr int kCandidates = 20;
  constexpr int kPick = 5;
  constexpr int kRounds = 4000;
  // hits[i] = how often the i-th generated candidate was selected.
  std::vector<int> hits(kCandidates, 0);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<crypto::PublicKey>> lists(1);
    std::map<crypto::PublicKey, int> position;
    for (int i = 0; i < kCandidates; ++i) {
      crypto::PublicKey key = provider.GenerateKeyPair(rng)->pub;
      position[key] = i;
      lists[0].push_back(key);
    }
    crypto::Hash256 rnd_s =
        crypto::Hash256::Of("fresh-" + std::to_string(round));
    for (const crypto::PublicKey& key :
         BuildActorList(lists, rnd_s, kPick)) {
      ++hits[position[key]];
    }
  }
  const double expected =
      static_cast<double>(kRounds) * kPick / kCandidates;  // 1000
  for (int count : hits) {
    EXPECT_NEAR(count, expected, expected * 0.12);
  }
}

TEST(ActorListUniformityTest, SelectionUnbiasedTowardListOwners) {
  // An SL cannot boost its own selection chance by being a list builder:
  // the sort key depends only on the candidate's key and RND_S.
  crypto::SimProvider provider;
  util::Rng rng(6);
  std::vector<crypto::PublicKey> shared;
  for (int i = 0; i < 30; ++i) {
    shared.push_back(provider.GenerateKeyPair(rng)->pub);
  }
  // Two builders with the same candidate pool split differently.
  std::vector<std::vector<crypto::PublicKey>> split_a{
      {shared.begin(), shared.begin() + 20},
      {shared.begin() + 10, shared.end()}};
  std::vector<std::vector<crypto::PublicKey>> split_b{
      {shared.begin(), shared.end()}, {}};
  crypto::Hash256 rnd_s = crypto::Hash256::Of("same-round");
  EXPECT_EQ(BuildActorList(split_a, rnd_s, 10),
            BuildActorList(split_b, rnd_s, 10));
}

TEST(SetterDistributionTest, SettersSpreadAcrossTheRing) {
  // Benefit (2)/(3) of §3.5: hash(RND_T) relocates every computation to
  // a fresh region, balancing load. Bucket the setter positions of many
  // runs into 8 arcs.
  auto network = test::MakeNetwork(2000, 0.01);
  ASSERT_NE(network, nullptr);
  core::ProtocolContext ctx = network->context();
  SelectionProtocol protocol(ctx);
  net::SimNetwork transport = test::MakeIdealNet(2000);
  util::Rng rng(11);
  int buckets[8] = {};
  const int kRuns = 160;
  for (int run = 0; run < kRuns; ++run) {
    uint32_t trigger =
        static_cast<uint32_t>(rng.NextUint64(network->directory().size()));
    auto outcome = protocol.Run(trigger, rng, transport);
    ASSERT_TRUE(outcome.ok());
    dht::RingPos pos =
        network->directory().pos(outcome->setter_index);
    ++buckets[static_cast<int>(pos >> 125)];
  }
  for (int b : buckets) {
    EXPECT_GT(b, 4) << "a ring octant is starved of setters";
    EXPECT_LT(b, kRuns / 2) << "a ring octant hoards the setters";
  }
}

}  // namespace
}  // namespace sep2p::core
