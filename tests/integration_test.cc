// End-to-end scenarios with REAL Ed25519 cryptography on a small network:
// the full pipeline the examples demonstrate, asserted.

#include <gtest/gtest.h>

#include "apps/diffusion.h"
#include "apps/query.h"
#include "apps/sensing.h"
#include "core/verification.h"
#include "strategies/strategy.h"
#include "tests/test_util.h"

namespace sep2p {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(/*n=*/400, /*c_fraction=*/0.02,
                                 /*cache=*/96, /*seed=*/2026,
                                 sim::Parameters::ProviderKind::kEd25519);
    ASSERT_NE(network_, nullptr);
    for (uint32_t i = 0; i < network_->directory().size(); ++i) {
      pdms_.emplace_back(i);
    }
    simnet_ = std::make_unique<net::SimNetwork>(
        test::MakeZeroFaultSimNet(400));
    runtime_ = std::make_unique<node::AppRuntime>(simnet_.get());
  }

  std::unique_ptr<sim::Network> network_;
  std::vector<node::PdmsNode> pdms_;
  std::unique_ptr<net::SimNetwork> simnet_;
  std::unique_ptr<node::AppRuntime> runtime_;
  util::Rng rng_{31};
};

TEST_F(IntegrationTest, SelectionVerifiesUnderRealCrypto) {
  core::ProtocolContext ctx = network_->context();
  core::SelectionProtocol protocol(ctx);
  net::SimNetwork transport =
      test::MakeIdealNet(network_->directory().size());
  auto outcome = protocol.Run(5, rng_, transport);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  auto cost = core::VerifyActorList(ctx, outcome->val);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_DOUBLE_EQ(cost->crypto_work, 2.0 * outcome->val.k());

  // Tampering is caught under real signatures too.
  auto forged =
      core::tamper::ReplaceRandom(outcome->val, crypto::Hash256::Of("x"));
  EXPECT_FALSE(core::VerifyActorList(ctx, forged).ok());
}

TEST_F(IntegrationTest, FullSensingRound) {
  apps::ParticipatorySensingApp::Config config;
  config.aggregator_count = 4;
  apps::ParticipatorySensingApp app(network_.get(), &pdms_, runtime_.get(),
                                    config);
  app.GenerateWorkload(/*sources=*/60, /*readings_per_source=*/4, rng_);
  auto round = app.RunRound(3, rng_);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->sources, 60);
  EXPECT_EQ(round->aggregate.total_count(), 240u);
  EXPECT_EQ(round->verifier_rejections, 0);
}

TEST_F(IntegrationTest, FullDiffusionAndQueryPipeline) {
  for (uint32_t i = 0; i < pdms_.size(); ++i) {
    if (i % 4 == 0) pdms_[i].AddConcept("subscriber");
    pdms_[i].SetAttribute("score", (i % 7) * 1.0);
  }
  apps::ConceptIndex index(network_.get(), runtime_.get());
  apps::DiffusionApp diffusion(network_.get(), &pdms_, &index,
                               runtime_.get());
  ASSERT_TRUE(diffusion.PublishAllProfiles(rng_).ok());

  auto diffused = diffusion.Diffuse(1, "subscriber", "breaking news", rng_);
  ASSERT_TRUE(diffused.ok()) << diffused.status().ToString();
  EXPECT_EQ(diffused->targets.size(), 100u);  // 400 / 4

  apps::QueryApp query(network_.get(), &pdms_, &index, runtime_.get());
  apps::QuerySpec spec;
  spec.profile_expression = "subscriber";
  spec.attribute = "score";
  spec.aggregate = apps::Aggregate::kAvg;
  auto result = query.Execute(2, spec, rng_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->contributors, 100u);
  double expected = 0;
  for (uint32_t i = 0; i < 400; i += 4) expected += i % 7;
  expected /= 100;
  EXPECT_NEAR(result->value, expected, 1e-9);
}

TEST_F(IntegrationTest, StrategiesRunUnderRealCrypto) {
  core::ProtocolContext ctx = network_->context();
  strategies::AdversaryConfig passive =
      strategies::AdversaryConfig::Passive();
  for (const char* name : {"SEP2P", "ES.NAV", "ES.AV", "M.Hash"}) {
    auto strategy = strategies::MakeStrategy(name, ctx, passive);
    auto run = strategy->Run(9, rng_);
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    EXPECT_EQ(run->actors.size(), static_cast<size_t>(ctx.actor_count));
  }
}

TEST_F(IntegrationTest, MeterAgreesWithCostModelAcrossWholeSelection) {
  core::ProtocolContext ctx = network_->context();
  core::SelectionProtocol protocol(ctx);
  net::SimNetwork transport =
      test::MakeIdealNet(network_->directory().size());
  network_->provider().meter().Reset();
  auto outcome = protocol.Run(11, rng_, transport);
  ASSERT_TRUE(outcome.ok());
  // The meter counts every real signature/verification performed during
  // setup; the cost model's crypto_work counts the same operations.
  EXPECT_EQ(network_->provider().meter().asym_ops(),
            static_cast<uint64_t>(outcome->cost.crypto_work));
}

}  // namespace
}  // namespace sep2p
