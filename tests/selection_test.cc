#include "core/selection.h"

#include <gtest/gtest.h>

#include <set>

#include "core/verification.h"
#include "dht/region.h"
#include "tests/test_util.h"

namespace sep2p::core {
namespace {

class SelectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(/*n=*/3000, /*c_fraction=*/0.01,
                                 /*cache=*/256);
    ASSERT_NE(network_, nullptr);
    ctx_ = network_->context();
  }

  ProtocolContext ctx_;
  std::unique_ptr<sim::Network> network_;
  net::SimNetwork transport_ = test::MakeIdealNet(3000);
  util::Rng rng_{11};
};

TEST_F(SelectionTest, SelectsExactlyAActors) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_, transport_);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->val.actor_count(), ctx_.actor_count);
  EXPECT_EQ(outcome->actor_indices.size(),
            static_cast<size_t>(ctx_.actor_count));
}

TEST_F(SelectionTest, ActorsAreDistinct) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_, transport_);
  ASSERT_TRUE(outcome.ok());
  std::set<uint32_t> unique(outcome->actor_indices.begin(),
                            outcome->actor_indices.end());
  EXPECT_EQ(unique.size(), outcome->actor_indices.size());
}

TEST_F(SelectionTest, ActorsAreLegitimateForR3) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_, transport_);
  ASSERT_TRUE(outcome.ok());
  dht::Region r3 = dht::Region::Centered(
      outcome->val.SetterPoint().ring_pos(), ctx_.rs3);
  for (uint32_t actor : outcome->actor_indices) {
    EXPECT_TRUE(r3.Contains(network_->directory().pos(actor)));
  }
}

TEST_F(SelectionTest, SlsAreLegitimateForR2) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_, transport_);
  ASSERT_TRUE(outcome.ok());
  dht::Region r2 = dht::Region::Centered(
      outcome->val.SetterPoint().ring_pos(), outcome->val.rs2);
  for (const auto& att : outcome->val.attestations) {
    EXPECT_TRUE(r2.Contains(att.cert.NodeIdFromSubject().ring_pos()));
  }
}

TEST_F(SelectionTest, VerificationSucceedsAndCostsExactlyTwoK) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_, transport_);
  ASSERT_TRUE(outcome.ok());
  auto cost = VerifyActorList(ctx_, outcome->val);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_DOUBLE_EQ(cost->crypto_work, 2.0 * outcome->val.k());

  // And the cost model matches the provider's actual operation count.
  network_->provider().meter().Reset();
  auto again = VerifyActorList(ctx_, outcome->val);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(network_->provider().meter().asym_ops(),
            static_cast<uint64_t>(2 * outcome->val.k()));
}

TEST_F(SelectionTest, RepeatedAttestationRejected) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_, transport_);
  ASSERT_TRUE(outcome.ok());
  // One SL's genuine attestation copied into all k slots: every
  // per-attestation check passes, but only one SL vouched for the list.
  VerifiableActorList forged = outcome->val;
  for (auto& att : forged.attestations) att = outcome->val.attestations[0];
  network_->provider().meter().Reset();
  auto verified = VerifyActorList(ctx_, forged);
  EXPECT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kSecurityViolation);
  // Rejected before any certificate or signature check.
  EXPECT_EQ(network_->provider().meter().asym_ops(), 0u);
}

TEST_F(SelectionTest, SetterIsOwnerOfHashedRandom) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_, transport_);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->relocations, 0);
  auto owner = network_->directory().SuccessorIndex(
      outcome->val.SetterPoint().ring_pos());
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(outcome->setter_index, *owner);
}

TEST_F(SelectionTest, DifferentTriggersSelectDifferentRegions) {
  SelectionProtocol protocol(ctx_);
  auto a = protocol.Run(5, rng_, transport_);
  auto b = protocol.Run(6, rng_, transport_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->val.rnd_t, b->val.rnd_t);
  std::set<uint32_t> actors_a(a->actor_indices.begin(),
                              a->actor_indices.end());
  int overlap = 0;
  for (uint32_t x : b->actor_indices) overlap += actors_a.count(x);
  // Two random R3 regions of ~256/3000 of the ring almost never coincide.
  EXPECT_LT(overlap, ctx_.actor_count / 2);
}

TEST_F(SelectionTest, BuildActorListDeterministicAcrossBuilders) {
  std::vector<std::vector<crypto::PublicKey>> lists(3);
  util::Rng rng(3);
  crypto::SimProvider provider;
  for (auto& list : lists) {
    for (int i = 0; i < 20; ++i) {
      list.push_back(provider.GenerateKeyPair(rng)->pub);
    }
  }
  crypto::Hash256 rnd_s = crypto::Hash256::Of("round");
  auto a = BuildActorList(lists, rnd_s, 10);
  auto b = BuildActorList(lists, rnd_s, 10);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 10u);
}

TEST_F(SelectionTest, BuildActorListOrderIndependentOfListOrder) {
  std::vector<std::vector<crypto::PublicKey>> lists(2);
  util::Rng rng(4);
  crypto::SimProvider provider;
  for (auto& list : lists) {
    for (int i = 0; i < 15; ++i) {
      list.push_back(provider.GenerateKeyPair(rng)->pub);
    }
  }
  crypto::Hash256 rnd_s = crypto::Hash256::Of("x");
  auto a = BuildActorList(lists, rnd_s, 8);
  std::swap(lists[0], lists[1]);
  auto b = BuildActorList(lists, rnd_s, 8);
  EXPECT_EQ(a, b);  // union + sort: the SLs' message order is irrelevant
}

TEST_F(SelectionTest, RandomnessOfSortKeyChangesSelection) {
  std::vector<std::vector<crypto::PublicKey>> lists(1);
  util::Rng rng(5);
  crypto::SimProvider provider;
  for (int i = 0; i < 64; ++i) {
    lists[0].push_back(provider.GenerateKeyPair(rng)->pub);
  }
  auto a = BuildActorList(lists, crypto::Hash256::Of("round-1"), 8);
  auto b = BuildActorList(lists, crypto::Hash256::Of("round-2"), 8);
  EXPECT_NE(a, b);  // unpredictability comes from RND_S
}

TEST_F(SelectionTest, CollusionHidingCacheEntriesIsDefeated) {
  // A corrupted SL that reports only colluders in CL_j gains nothing: at
  // least one honest SL contributes its full candidate list, so the
  // union restores (nearly) all honest candidates — the corrupted-actor
  // count cannot grow beyond edge noise, and the contract always holds.
  SelectionProtocol protocol(ctx_);
  strategies::HideHonestEntries hide(network_->coalition());
  SelectionOptions honest;
  SelectionOptions hiding;
  hiding.attack = &hide;

  int honest_corrupted = 0, hiding_corrupted = 0;
  for (uint32_t trigger = 0; trigger < 15; ++trigger) {
    util::Rng rng_a(900 + trigger), rng_b(900 + trigger);
    auto a = protocol.Run(trigger, rng_a, transport_, honest);
    auto b = protocol.Run(trigger, rng_b, transport_, hiding);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(b->val.actor_count(), ctx_.actor_count);
    EXPECT_TRUE(VerifyActorList(ctx_, b->val).ok());
    for (uint32_t actor : a->actor_indices) {
      honest_corrupted += network_->coalition().contains(actor);
    }
    for (uint32_t actor : b->actor_indices) {
      hiding_corrupted += network_->coalition().contains(actor);
    }
  }
  // 15 runs x 8 actors at C% = 1%: ideal ~1.2 corrupted in total. The
  // hiding adversary must stay in the same regime (far from controlling
  // the lists), not merely "not much worse".
  EXPECT_LE(hiding_corrupted, honest_corrupted + 5);
  EXPECT_LE(hiding_corrupted, 12);  // << A * runs = 120
}

TEST_F(SelectionTest, SmallR3TriggersRelocation) {
  ProtocolContext tight = ctx_;
  tight.actor_count = 8;
  // R3 sized for ~10 expected candidates against A = 8: relocations
  // become likely; run several triggers and require at least one
  // relocation overall.
  tight.rs3 = 10.0 / 3000.0;
  tight.max_relocations = 64;
  SelectionProtocol protocol(tight);
  int total_relocations = 0;
  for (uint32_t trigger = 0; trigger < 10; ++trigger) {
    auto outcome = protocol.Run(trigger, rng_, transport_);
    if (outcome.ok()) {
      total_relocations += outcome->relocations;
      // Even after relocating, the contract holds.
      EXPECT_EQ(outcome->val.actor_count(), tight.actor_count);
      auto cost = VerifyActorList(tight, outcome->val);
      EXPECT_TRUE(cost.ok()) << cost.status().ToString();
    }
  }
  EXPECT_GT(total_relocations, 0);
}

TEST_F(SelectionTest, RelocationBudgetExhaustionFails) {
  ProtocolContext impossible = ctx_;
  impossible.actor_count = 2000;  // more than any R3 can hold
  impossible.rs3 = 8.0 / 3000.0;
  impossible.max_relocations = 3;
  SelectionProtocol protocol(impossible);
  auto outcome = protocol.Run(5, rng_, transport_);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(SelectionTest, SetupCostAccountsVrandRoutingAndSlWork) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_, transport_);
  ASSERT_TRUE(outcome.ok());
  const int k = outcome->val.k();
  // Lower bounds: vrand (4 msg rounds) + 5 SL rounds + signatures.
  EXPECT_GE(outcome->cost.msg_latency, 9.0);
  EXPECT_GE(outcome->cost.msg_work, 9.0 * k);
  EXPECT_GE(outcome->cost.crypto_work, 3.0 * k);
  // Latency stays bounded (paper: ~20 crypto ops, ~30 messages).
  EXPECT_LE(outcome->cost.crypto_latency, 40.0);
  EXPECT_LE(outcome->cost.msg_latency, 60.0);
}

TEST_F(SelectionTest, FailureInjectionAbortsCleanly) {
  // Every contacted participant crashes on receipt: no quorum forms and
  // the run aborts with kUnavailable (the caller's cue to restart).
  transport_.set_step_crash_probability(1.0);
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_, transport_);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace sep2p::core
