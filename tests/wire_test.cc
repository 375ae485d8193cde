#include "core/wire.h"

#include <gtest/gtest.h>

#include "core/verification.h"
#include "tests/test_util.h"

namespace sep2p::core::wire {
namespace {

class WireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(/*n=*/1500, /*c_fraction=*/0.01,
                                 /*cache=*/192);
    ASSERT_NE(network_, nullptr);
    ctx_ = network_->context();
    util::Rng rng(77);
    net::SimNetwork transport = test::MakeIdealNet(1500);

    VrandProtocol vrand(ctx_);
    auto vr = vrand.Generate(3, rng, transport);
    ASSERT_TRUE(vr.ok());
    vrnd_ = vr->vrnd;

    SelectionProtocol selection(ctx_);
    auto run = selection.Run(3, rng, transport);
    ASSERT_TRUE(run.ok());
    val_ = run->val;
  }

  std::unique_ptr<sim::Network> network_;
  ProtocolContext ctx_;
  VerifiableRandom vrnd_;
  VerifiableActorList val_;
};

TEST_F(WireTest, VrandRoundTripsAndStillVerifies) {
  std::vector<uint8_t> bytes = EncodeVerifiableRandom(vrnd_);
  auto decoded = DecodeVerifiableRandom(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->Value(), vrnd_.Value());
  EXPECT_EQ(decoded->timestamp, vrnd_.timestamp);
  EXPECT_EQ(decoded->k(), vrnd_.k());
  EXPECT_TRUE(VerifyVrand(ctx_, *decoded).ok());
}

TEST_F(WireTest, ActorListRoundTripsAndStillVerifies) {
  std::vector<uint8_t> bytes = EncodeActorList(val_);
  auto decoded = DecodeActorList(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->rnd_t, val_.rnd_t);
  EXPECT_EQ(decoded->actor_keys, val_.actor_keys);
  EXPECT_EQ(decoded->relocations, val_.relocations);
  EXPECT_EQ(decoded->attestations.size(), val_.attestations.size());
  EXPECT_TRUE(VerifyActorList(ctx_, *decoded).ok());
}

TEST_F(WireTest, EncodingIsDeterministic) {
  EXPECT_EQ(EncodeActorList(val_), EncodeActorList(val_));
  EXPECT_EQ(EncodeVerifiableRandom(vrnd_), EncodeVerifiableRandom(vrnd_));
}

TEST_F(WireTest, TruncationAtEveryPointRejected) {
  std::vector<uint8_t> bytes = EncodeActorList(val_);
  // Dropping any suffix must be rejected (sampled to keep runtime sane).
  for (size_t keep = 0; keep < bytes.size(); keep += 7) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    EXPECT_FALSE(DecodeActorList(cut).ok()) << "kept " << keep;
  }
}

TEST_F(WireTest, TrailingGarbageRejected) {
  std::vector<uint8_t> bytes = EncodeActorList(val_);
  bytes.push_back(0x00);
  EXPECT_FALSE(DecodeActorList(bytes).ok());
}

TEST_F(WireTest, BadMagicAndTagRejected) {
  std::vector<uint8_t> bytes = EncodeActorList(val_);
  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeActorList(bad_magic).ok());

  // A vrand blob is not an actor list.
  EXPECT_FALSE(DecodeActorList(EncodeVerifiableRandom(vrnd_)).ok());
  EXPECT_FALSE(DecodeVerifiableRandom(EncodeActorList(val_)).ok());
}

TEST_F(WireTest, BadVersionRejected) {
  std::vector<uint8_t> bytes = EncodeActorList(val_);
  bytes[5] = 0x7f;  // version low byte
  EXPECT_FALSE(DecodeActorList(bytes).ok());
}

TEST_F(WireTest, AbsurdCountsRejectedWithoutAllocation) {
  std::vector<uint8_t> bytes = EncodeActorList(val_);
  // The actor-count field sits after magic(4)+ver(2)+rnd(32)+ts(8)+
  // rs2(8)+relocations(4) = offset 58.
  bytes[58] = 0xff;
  bytes[59] = 0xff;
  bytes[60] = 0xff;
  bytes[61] = 0xff;
  EXPECT_FALSE(DecodeActorList(bytes).ok());
}

TEST_F(WireTest, BitFlippedPayloadFailsVerificationNotDecoding) {
  // Flips inside fixed-size fields still decode (the framing is intact)
  // but must then fail the cryptographic verification.
  std::vector<uint8_t> bytes = EncodeActorList(val_);
  bytes[10] ^= 0x01;  // inside rnd_t
  auto decoded = DecodeActorList(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(VerifyActorList(ctx_, *decoded).ok());
}

TEST_F(WireTest, RandomFuzzNeverCrashes) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> junk(rng.NextUint64(512));
    rng.FillBytes(junk.data(), junk.size());
    // Must return an error or a structurally valid object — never crash.
    auto val = DecodeActorList(junk);
    auto vrnd = DecodeVerifiableRandom(junk);
    (void)val;
    (void)vrnd;
  }
  SUCCEED();
}

TEST_F(WireTest, MutatedEncodingFuzzNeverCrashes) {
  util::Rng rng(777);
  std::vector<uint8_t> base = EncodeActorList(val_);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> mutated = base;
    int flips = 1 + rng.NextUint64(8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextUint64(mutated.size())] ^=
          static_cast<uint8_t>(1 + rng.NextUint64(255));
    }
    auto decoded = DecodeActorList(mutated);
    if (decoded.ok()) {
      // Structurally valid mutants must still never verify unless the
      // mutation was semantically neutral (it cannot be: every byte is
      // load-bearing).
      auto verified = VerifyActorList(ctx_, *decoded);
      (void)verified;
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace sep2p::core::wire
