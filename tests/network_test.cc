#include "sim/network.h"

#include <gtest/gtest.h>

#include "dht/node_id.h"
#include "sim/trial_runner.h"
#include "tests/test_util.h"

namespace sep2p::sim {
namespace {

TEST(NetworkTest, BuildsRequestedSize) {
  auto network = test::MakeNetwork(1000, 0.01);
  ASSERT_NE(network, nullptr);
  EXPECT_EQ(network->directory().size(), 1000u);
  EXPECT_EQ(network->directory().alive_count(), 1000u);
}

TEST(NetworkTest, ColluderCountMatchesFraction) {
  auto network = test::MakeNetwork(1000, 0.05);
  ASSERT_NE(network, nullptr);
  EXPECT_EQ(network->coalition().size(), 50u);
}

TEST(NetworkTest, AtLeastOneColluderEvenForTinyFractions) {
  auto network = test::MakeNetwork(1000, 1e-9);
  ASSERT_NE(network, nullptr);
  EXPECT_EQ(network->coalition().size(), 1u);
}

TEST(NetworkTest, NodeIdsAreImposedFromPublicKeys) {
  auto network = test::MakeNetwork(200, 0.01);
  ASSERT_NE(network, nullptr);
  for (uint32_t i = 0; i < network->directory().size(); ++i) {
    const dht::Directory& dir = network->directory();
    EXPECT_EQ(dir.id(i), dht::NodeIdForKey(dir.pub(i)));
    EXPECT_EQ(dir.pos(i), dir.id(i).ring_pos());
  }
}

TEST(NetworkTest, EveryCertificateChecksOut) {
  auto network = test::MakeNetwork(200, 0.01);
  ASSERT_NE(network, nullptr);
  for (uint32_t i = 0; i < network->directory().size(); ++i) {
    EXPECT_TRUE(network->ca().Check(network->directory().cert(i)));
  }
}

// A per-epoch redraw (sim::DrawCoalitions) keeps C and leaves the
// network's own coalition alone.
TEST(NetworkTest, ReassignColludersKeepsCount) {
  auto network = test::MakeNetwork(1000, 0.03);
  ASSERT_NE(network, nullptr);
  const std::vector<uint32_t> before = network->coalition().indices();
  std::vector<strategies::Coalition> epochs =
      DrawCoalitions(*network, /*trials=*/2 * TrialRunner::kShardSize, 5);
  ASSERT_EQ(epochs.size(), 2u);
  for (const strategies::Coalition& epoch : epochs) {
    EXPECT_EQ(epoch.size(), before.size());
    EXPECT_NE(epoch.indices(), before);  // overwhelmingly likely
  }
  EXPECT_NE(epochs[0].indices(), epochs[1].indices());
  EXPECT_EQ(network->coalition().indices(), before);
}

TEST(NetworkTest, ColludersAreSpreadUniformly) {
  // Imposed locations: colluders cannot cluster. Bucket their ring
  // positions into 8 arcs and check rough balance.
  auto network = test::MakeNetwork(8000, 0.1, /*cache=*/256, /*seed=*/3);
  ASSERT_NE(network, nullptr);
  int buckets[8] = {};
  for (uint32_t idx : network->coalition().indices()) {
    ++buckets[static_cast<int>(network->directory().pos(idx) >> 125)];
  }
  for (int b : buckets) EXPECT_NEAR(b, 100, 45);
}

TEST(NetworkTest, ContextIsFullyWired) {
  auto network = test::MakeNetwork(500, 0.01);
  ASSERT_NE(network, nullptr);
  core::ProtocolContext ctx = network->context();
  EXPECT_NE(ctx.directory, nullptr);
  EXPECT_NE(ctx.overlay, nullptr);
  EXPECT_NE(ctx.provider, nullptr);
  EXPECT_NE(ctx.ca, nullptr);
  EXPECT_NE(ctx.ktable, nullptr);
  EXPECT_GT(ctx.rs3, 0);
  EXPECT_GT(ctx.tolerance_rs, 0);
}

TEST(NetworkTest, RejectsDegenerateParameters) {
  Parameters too_small;
  too_small.n = 2;
  EXPECT_FALSE(Network::Build(too_small).ok());

  Parameters all_colluding;
  all_colluding.n = 100;
  all_colluding.colluding_fraction = 1.0;
  EXPECT_FALSE(Network::Build(all_colluding).ok());
}

TEST(NetworkTest, Ed25519ProviderWorksEndToEnd) {
  auto network = test::MakeNetwork(64, 0.05, /*cache=*/16, /*seed=*/9,
                                   Parameters::ProviderKind::kEd25519);
  ASSERT_NE(network, nullptr);
  EXPECT_STREQ(network->provider().name(), "ed25519");
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(network->ca().Check(network->directory().cert(i)));
  }
}

TEST(NetworkTest, SameSeedSameNetwork) {
  auto a = test::MakeNetwork(300, 0.01, 64, /*seed=*/77);
  auto b = test::MakeNetwork(300, 0.01, 64, /*seed=*/77);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  for (uint32_t i = 0; i < a->directory().size(); ++i) {
    EXPECT_EQ(a->directory().id(i), b->directory().id(i));
    EXPECT_EQ(a->coalition().contains(i), b->coalition().contains(i));
  }
}

TEST(NetworkTest, CanOverlayIsLazilyAvailable) {
  auto network = test::MakeNetwork(128, 0.01);
  ASSERT_NE(network, nullptr);
  EXPECT_EQ(network->can().zone_count(), 128u);
}

}  // namespace
}  // namespace sep2p::sim
