// CSAR baseline protocol + the Ideal/CSAR bound strategies.

#include "core/csar.h"

#include <gtest/gtest.h>

#include <set>

#include "strategies/baselines.h"
#include "tests/test_util.h"

namespace sep2p::core {
namespace {

class CsarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(/*n=*/1000, /*c_fraction=*/0.02);
    ASSERT_NE(network_, nullptr);
    ctx_ = network_->context();
  }

  std::unique_ptr<sim::Network> network_;
  ProtocolContext ctx_;
  util::Rng rng_{3};
};

TEST_F(CsarTest, GeneratesAndVerifies) {
  CsarProtocol protocol(ctx_);
  auto outcome = protocol.Generate(5, /*participant_count=*/21, rng_);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->random.participant_count(), 21);
  auto cost = VerifyCsar(ctx_, outcome->random);
  ASSERT_TRUE(cost.ok());
  EXPECT_DOUBLE_EQ(cost->crypto_work, 2.0 * 21 + 1);
}

TEST_F(CsarTest, ParticipantsAreDistinctAndExcludeTrigger) {
  CsarProtocol protocol(ctx_);
  auto outcome = protocol.Generate(5, 30, rng_);
  ASSERT_TRUE(outcome.ok());
  std::set<uint32_t> unique(outcome->participant_indices.begin(),
                            outcome->participant_indices.end());
  EXPECT_EQ(unique.size(), 30u);
  EXPECT_EQ(unique.count(5), 0u);
}

TEST_F(CsarTest, TamperedContributionRejected) {
  CsarProtocol protocol(ctx_);
  auto outcome = protocol.Generate(5, 10, rng_);
  ASSERT_TRUE(outcome.ok());
  CsarRandom forged = outcome->random;
  forged.participants[3].rnd = crypto::Hash256::Of("steered");
  EXPECT_FALSE(VerifyCsar(ctx_, forged).ok());
}

TEST_F(CsarTest, BadParticipantCountsRejected) {
  CsarProtocol protocol(ctx_);
  EXPECT_FALSE(protocol.Generate(5, 0, rng_).ok());
  EXPECT_FALSE(protocol.Generate(5, 1000, rng_).ok());
}

TEST_F(CsarTest, ActorMappingIsDeterministicAndDistinct) {
  crypto::Hash256 rnd = crypto::Hash256::Of("round-42");
  auto a = CsarActorsFromRandom(network_->directory(), rnd, 16);
  auto b = CsarActorsFromRandom(network_->directory(), rnd, 16);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 16u);
  std::set<uint32_t> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), a.size());
}

TEST_F(CsarTest, ActorMappingIsUniformish) {
  // Each alive node should be hit roughly uniformly across many randoms.
  std::vector<int> hits(network_->directory().size(), 0);
  for (int round = 0; round < 400; ++round) {
    crypto::Hash256 rnd = crypto::Hash256::Of("r" + std::to_string(round));
    for (uint32_t actor :
         CsarActorsFromRandom(network_->directory(), rnd, 8)) {
      ++hits[actor];
    }
  }
  // 3200 picks over 1000 nodes: expect ~3.2, no node dominating.
  int max_hits = 0;
  for (int h : hits) max_hits = std::max(max_hits, h);
  EXPECT_LE(max_hits, 16);
}

TEST_F(CsarTest, CsarStrategyIsIdealButExpensive) {
  strategies::AdversaryConfig full;
  strategies::CsarStrategy csar(ctx_, full, network_->coalition());
  util::Rng rng(7);
  double corrupted = 0;
  const int kTrials = 40;
  for (int t = 0; t < kTrials; ++t) {
    auto run = csar.Run(t % 100, rng);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    corrupted += run->corrupted_actors;
    // 2(C+1) + A with C = 20, A = 8.
    EXPECT_DOUBLE_EQ(run->verification_cost, 2.0 * 21 + 8);
    // Setup fans out to C+1 participants.
    EXPECT_GE(run->setup_cost.msg_work, 4.0 * 21);
  }
  // Ideal effectiveness: ~A*C/N = 0.16 corrupted per run.
  EXPECT_LE(corrupted / kTrials, 0.6);
}

TEST_F(CsarTest, IdealStrategyCostsOneVerification) {
  strategies::AdversaryConfig full;
  strategies::IdealStrategy ideal(ctx_, full, network_->coalition());
  util::Rng rng(9);
  auto run = ideal.Run(0, rng);
  ASSERT_TRUE(run.ok());
  EXPECT_DOUBLE_EQ(run->verification_cost, 1.0);
  EXPECT_EQ(run->actors.size(), static_cast<size_t>(ctx_.actor_count));
}

TEST_F(CsarTest, IdealStrategyIsUnbiased) {
  strategies::AdversaryConfig full;
  strategies::IdealStrategy ideal(ctx_, full, network_->coalition());
  util::Rng rng(11);
  double corrupted = 0;
  for (int t = 0; t < 60; ++t) {
    auto run = ideal.Run(0, rng);
    ASSERT_TRUE(run.ok());
    corrupted += run->corrupted_actors;
  }
  EXPECT_LE(corrupted / 60, 0.6);  // ideal ~0.16
}

TEST_F(CsarTest, FactoryKnowsBaselines) {
  strategies::AdversaryConfig adv;
  const strategies::Coalition& coalition = network_->coalition();
  EXPECT_NE(strategies::MakeStrategy("Ideal", ctx_, adv, coalition), nullptr);
  EXPECT_NE(strategies::MakeStrategy("CSAR", ctx_, adv, coalition), nullptr);
}

TEST_F(CsarTest, VerificationCostGrowsLinearlyWithC) {
  // The scaling failure that motivates SEP2P: CSAR verification is
  // linear in the collusion size, SEP2P's 2k is (nearly) flat.
  strategies::AdversaryConfig passive =
      strategies::AdversaryConfig::Passive();
  util::Rng rng(13);

  auto small_net = test::MakeNetwork(1000, 0.01);  // C = 10
  auto big_net = test::MakeNetwork(1000, 0.05);    // C = 50
  ASSERT_NE(small_net, nullptr);
  ASSERT_NE(big_net, nullptr);
  core::ProtocolContext small_ctx = small_net->context();
  core::ProtocolContext big_ctx = big_net->context();

  strategies::CsarStrategy csar_small(small_ctx, passive,
                                      small_net->coalition());
  strategies::CsarStrategy csar_big(big_ctx, passive,
                                    big_net->coalition());
  auto rs = csar_small.Run(1, rng);
  auto rb = csar_big.Run(1, rng);
  ASSERT_TRUE(rs.ok() && rb.ok());
  EXPECT_DOUBLE_EQ(rb->verification_cost - rs->verification_cost,
                   2.0 * (50 - 10));

  strategies::Sep2pStrategy sep2p_small(small_ctx, passive,
                                        small_net->coalition());
  strategies::Sep2pStrategy sep2p_big(big_ctx, passive,
                                      big_net->coalition());
  auto ss = sep2p_small.Run(1, rng);
  auto sb = sep2p_big.Run(1, rng);
  ASSERT_TRUE(ss.ok() && sb.ok());
  EXPECT_LE(sb->verification_cost - ss->verification_cost, 8);
}

}  // namespace
}  // namespace sep2p::core
