#include "apps/proxy.h"

#include <gtest/gtest.h>

#include <set>

#include "tests/test_util.h"

namespace sep2p::apps {
namespace {

TEST(SealedMessageTest, RecipientOpensSuccessfully) {
  crypto::SimProvider provider;
  util::Rng rng(1);
  auto pair = provider.GenerateKeyPair(rng);
  std::vector<uint8_t> payload{1, 2, 3, 4, 5, 6, 7};
  SealedMessage sealed = SealForRecipient(pair->pub, payload, rng);
  auto opened = OpenSealed(provider, sealed, pair->priv);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, payload);
}

TEST(SealedMessageTest, CiphertextDiffersFromPlaintext) {
  crypto::SimProvider provider;
  util::Rng rng(2);
  auto pair = provider.GenerateKeyPair(rng);
  std::vector<uint8_t> payload(100, 0xab);
  SealedMessage sealed = SealForRecipient(pair->pub, payload, rng);
  EXPECT_NE(sealed.ciphertext, payload);
}

TEST(SealedMessageTest, FreshNoncePerMessage) {
  crypto::SimProvider provider;
  util::Rng rng(3);
  auto pair = provider.GenerateKeyPair(rng);
  std::vector<uint8_t> payload{9, 9};
  SealedMessage a = SealForRecipient(pair->pub, payload, rng);
  SealedMessage b = SealForRecipient(pair->pub, payload, rng);
  EXPECT_NE(a.nonce, b.nonce);
  EXPECT_NE(a.ciphertext, b.ciphertext);
}

TEST(SealedMessageTest, WrongPrivateKeyDenied) {
  crypto::SimProvider provider;
  util::Rng rng(4);
  auto recipient = provider.GenerateKeyPair(rng);
  auto intruder = provider.GenerateKeyPair(rng);
  SealedMessage sealed =
      SealForRecipient(recipient->pub, {1, 2, 3}, rng);
  auto opened = OpenSealed(provider, sealed, intruder->priv);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kPermissionDenied);
}

TEST(SealedMessageTest, MultiBlockPayloadRoundTrips) {
  crypto::SimProvider provider;
  util::Rng rng(5);
  auto pair = provider.GenerateKeyPair(rng);
  std::vector<uint8_t> payload(1000);
  rng.FillBytes(payload.data(), payload.size());
  SealedMessage sealed = SealForRecipient(pair->pub, payload, rng);
  auto opened = OpenSealed(provider, sealed, pair->priv);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, payload);
}

TEST(ProxyTest, DeliveryEnforcesKnowledgeSeparation) {
  auto network = test::MakeNetwork(500, 0.01);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(500);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(6);
  const crypto::PublicKey recipient_pub = network->directory().pub(33);
  auto delivery = ForwardViaProxy(runtime, *network, /*sender=*/7,
                                  recipient_pub, {1, 2, 3}, rng);
  ASSERT_TRUE(delivery.ok()) << delivery.status().ToString();
  EXPECT_TRUE(delivery->relayed);
  EXPECT_TRUE(delivery->delivered_ok);
  EXPECT_TRUE(delivery->proxy_saw_sender);
  EXPECT_FALSE(delivery->proxy_saw_payload);
  EXPECT_FALSE(delivery->recipient_saw_sender);
  EXPECT_NE(delivery->proxy_index, 7u);
  EXPECT_NE(delivery->proxy_index, 33u);
  EXPECT_DOUBLE_EQ(delivery->cost.msg_work, 2.0);

  // Only the recipient opens the payload.
  auto opened = OpenSealed(network->provider(), delivery->delivered,
                           network->directory().priv(33));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(ProxyTest, BothPartiesColludingIsRare) {
  // (C/N)^2 argument from the paper: count proxy+recipient collusions
  // across many deliveries with 5% colluders.
  auto network = test::MakeNetwork(500, 0.05);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(500);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(8);
  const auto& dir = network->directory();
  int both_colluding = 0;
  const int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    uint32_t recipient_index = rng.NextUint64(dir.size());
    if (recipient_index == 7) continue;
    auto delivery = ForwardViaProxy(runtime, *network, 7,
                                    dir.pub(recipient_index), {1}, rng);
    ASSERT_TRUE(delivery.ok());
    if (network->coalition().contains(delivery->proxy_index) &&
        network->coalition().contains(recipient_index)) {
      ++both_colluding;
    }
  }
  // Expectation ~ kTrials * 0.05^2 = 0.75; demand well under 5%.
  EXPECT_LT(both_colluding, kTrials / 20);
}

TEST(ProxyTest, UnknownRecipientFails) {
  auto network = test::MakeNetwork(100, 0.01);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(100);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(9);
  crypto::PublicKey stranger{};
  stranger[5] = 0x55;
  auto delivery = ForwardViaProxy(runtime, *network, 3, stranger, {1}, rng);
  EXPECT_FALSE(delivery.ok());
}

TEST(ProxyTest, DeadProxyLeavesRelayedFalse) {
  auto network = test::MakeNetwork(100, 0.0);
  ASSERT_NE(network, nullptr);
  // Every link drops everything: the relay leg must exhaust its retries.
  net::SimNetwork simnet = test::MakeSimNet(100, /*drop=*/1.0);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(10);
  const crypto::PublicKey recipient_pub = network->directory().pub(12);
  auto delivery =
      ForwardViaProxy(runtime, *network, 3, recipient_pub, {1}, rng);
  ASSERT_TRUE(delivery.ok());
  EXPECT_FALSE(delivery->relayed);
  EXPECT_FALSE(delivery->delivered_ok);
  EXPECT_GT(simnet.stats().rpc_failures, 0u);
  // The logical cost still counts the attempted message.
  EXPECT_DOUBLE_EQ(delivery->cost.msg_work, 1.0);
}


TEST(ProxyChainTest, ChainHasDistinctRelaysExcludingEndpoints) {
  auto network = test::MakeNetwork(300, 0.01);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(300);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(21);
  const crypto::PublicKey recipient_pub = network->directory().pub(50);
  auto delivery = ForwardViaProxyChain(runtime, *network, 7, recipient_pub,
                                       {1, 2, 3}, /*chain_length=*/4, rng);
  ASSERT_TRUE(delivery.ok()) << delivery.status().ToString();
  EXPECT_TRUE(delivery->delivered_ok);
  EXPECT_EQ(delivery->chain.size(), 4u);
  std::set<uint32_t> unique(delivery->chain.begin(),
                            delivery->chain.end());
  EXPECT_EQ(unique.size(), 4u);
  EXPECT_EQ(unique.count(7), 0u);
  EXPECT_EQ(unique.count(50), 0u);
  EXPECT_DOUBLE_EQ(delivery->cost.msg_work, 5.0);
}

TEST(ProxyChainTest, OnlyEndsOfChainSeeEndpoints) {
  auto network = test::MakeNetwork(300, 0.01);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(300);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(23);
  const crypto::PublicKey recipient_pub = network->directory().pub(9);
  auto delivery = ForwardViaProxyChain(runtime, *network, 4, recipient_pub,
                                       {8}, 3, rng);
  ASSERT_TRUE(delivery.ok());
  EXPECT_TRUE(delivery->relay_saw_sender[0]);
  EXPECT_FALSE(delivery->relay_saw_sender[1]);
  EXPECT_FALSE(delivery->relay_saw_sender[2]);
  EXPECT_FALSE(delivery->relay_saw_recipient[0]);
  EXPECT_FALSE(delivery->relay_saw_recipient[1]);
  EXPECT_TRUE(delivery->relay_saw_recipient[2]);
}

TEST(ProxyChainTest, PayloadStaysSealedAcrossChain) {
  auto network = test::MakeNetwork(300, 0.01);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(300);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(25);
  const crypto::PublicKey recipient_pub = network->directory().pub(11);
  std::vector<uint8_t> payload{9, 8, 7, 6};
  auto delivery = ForwardViaProxyChain(runtime, *network, 4, recipient_pub,
                                       payload, 2, rng);
  ASSERT_TRUE(delivery.ok());
  // A relay cannot open it...
  EXPECT_FALSE(OpenSealed(network->provider(), delivery->delivered,
                          network->directory().priv(delivery->chain[0]))
                   .ok());
  // ...the recipient can.
  auto opened = OpenSealed(network->provider(), delivery->delivered,
                           network->directory().priv(11));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, payload);
}

TEST(ProxyChainTest, DegenerateParametersRejected) {
  auto network = test::MakeNetwork(64, 0.01);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(64);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(27);
  const crypto::PublicKey recipient_pub = network->directory().pub(5);
  EXPECT_FALSE(
      ForwardViaProxyChain(runtime, *network, 1, recipient_pub, {1}, 0, rng)
          .ok());
  EXPECT_FALSE(
      ForwardViaProxyChain(runtime, *network, 1, recipient_pub, {1}, 64, rng)
          .ok());
}

}  // namespace
}  // namespace sep2p::apps
