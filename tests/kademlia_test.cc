#include "dht/kademlia.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/selection.h"
#include "core/verification.h"

#include "sim/metrics.h"
#include "tests/test_util.h"

namespace sep2p::dht {
namespace {

RingPos RandomPos(util::Rng& rng) {
  return (static_cast<RingPos>(rng.NextUint64()) << 64) | rng.NextUint64();
}

TEST(KademliaTest, XorNearestMatchesBruteForce) {
  auto dir = test::MakeDirectory(600);
  KademliaOverlay kad(dir.get());
  util::Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    RingPos target = RandomPos(rng);
    auto fast = kad.XorNearest(target);
    ASSERT_TRUE(fast.has_value());

    uint32_t best = 0;
    RingPos best_distance = ~static_cast<RingPos>(0);
    for (uint32_t i = 0; i < dir->size(); ++i) {
      RingPos d = KademliaOverlay::XorDistance(dir->pos(i), target);
      if (d < best_distance) {
        best_distance = d;
        best = i;
      }
    }
    EXPECT_EQ(*fast, best) << "trial " << trial;
  }
}

TEST(KademliaTest, XorNearestInIntervalRespectsBounds) {
  auto dir = test::MakeDirectory(400);
  KademliaOverlay kad(dir.get());
  util::Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    // Random dyadic interval of width 2^120 (about 1/256 of the space).
    int shift = 120;
    RingPos lo = RandomPos(rng) & ~((static_cast<RingPos>(1) << shift) - 1);
    RingPos hi = lo + (static_cast<RingPos>(1) << shift);
    RingPos target = RandomPos(rng);
    auto found = kad.XorNearestInInterval(target, lo, hi);
    if (!found.has_value()) continue;
    RingPos pos = dir->pos(*found);
    EXPECT_GE(pos, lo);
    if (hi != 0) {
      EXPECT_LT(pos, hi);  // hi == 0: interval ends at 2^128
    }
    // Optimality within the interval (brute force).
    for (uint32_t i = 0; i < dir->size(); ++i) {
      RingPos p = dir->pos(i);
      if (p < lo || (hi != 0 && p >= hi)) continue;
      EXPECT_LE(KademliaOverlay::XorDistance(pos, target),
                KademliaOverlay::XorDistance(p, target));
    }
  }
}

TEST(KademliaTest, RouteReachesXorOwner) {
  auto dir = test::MakeDirectory(1000);
  KademliaOverlay kad(dir.get());
  util::Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    uint32_t from = rng.NextUint64(dir->size());
    NodeId key = NodeId::Of("key-" + std::to_string(trial));
    auto route = kad.RouteKey(from, key);
    ASSERT_TRUE(route.ok()) << route.status().ToString();
    auto owner = kad.XorNearest(key.ring_pos());
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(route->dest_index, *owner);
  }
}

TEST(KademliaTest, RouteToOwnKeyIsZeroHops) {
  auto dir = test::MakeDirectory(300);
  KademliaOverlay kad(dir.get());
  for (uint32_t i = 0; i < dir->size(); i += 37) {
    auto route = kad.RouteKey(i, dir->id(i));
    ASSERT_TRUE(route.ok());
    EXPECT_EQ(route->dest_index, i);
    EXPECT_EQ(route->hops, 0);
  }
}

TEST(KademliaTest, HopCountIsLogarithmic) {
  auto dir = test::MakeDirectory(4096);
  KademliaOverlay kad(dir.get());
  util::Rng rng(4);
  sim::OnlineStats hops;
  for (int trial = 0; trial < 200; ++trial) {
    uint32_t from = rng.NextUint64(dir->size());
    NodeId key = NodeId::Of("k" + std::to_string(trial));
    auto route = kad.RouteKey(from, key);
    ASSERT_TRUE(route.ok());
    hops.Add(route->hops);
  }
  double log2n = std::log2(4096.0);
  EXPECT_GT(hops.mean(), 0.2 * log2n);
  EXPECT_LT(hops.mean(), 1.5 * log2n);
  EXPECT_LE(hops.max(), 2.5 * log2n);
}

TEST(KademliaTest, RoutesAroundDeadNodes) {
  auto dir = test::MakeDirectory(300);
  KademliaOverlay kad(dir.get());
  for (uint32_t i = 0; i < dir->size(); i += 2) dir->SetAlive(i, false);
  util::Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    uint32_t from;
    do {
      from = rng.NextUint64(dir->size());
    } while (!dir->alive(from));
    NodeId key = NodeId::Of("x" + std::to_string(trial));
    auto route = kad.RouteKey(from, key);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(dir->alive(route->dest_index));
  }
}

TEST(KademliaTest, EmptyNetworkUnavailable) {
  auto dir = test::MakeDirectory(4);
  for (uint32_t i = 0; i < 4; ++i) dir->SetAlive(i, false);
  KademliaOverlay kad(dir.get());
  EXPECT_FALSE(kad.RouteKey(0, NodeId::Of("k")).ok());
}

TEST(KademliaTest, WorksAsSelectionOverlay) {
  // The SEP2P selection must run unchanged over Kademlia routing.
  auto network = test::MakeNetwork(1500, 0.01, /*cache=*/192);
  ASSERT_NE(network, nullptr);
  KademliaOverlay kad(&network->directory());
  core::ProtocolContext ctx = network->context();
  ctx.overlay = &kad;
  core::SelectionProtocol protocol(ctx);
  net::SimNetwork transport = test::MakeIdealNet(1500);
  util::Rng rng(7);
  auto outcome = protocol.Run(5, rng, transport);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->val.actor_count(), ctx.actor_count);
  EXPECT_TRUE(core::VerifyActorList(ctx, outcome->val).ok());
}

}  // namespace
}  // namespace sep2p::dht
