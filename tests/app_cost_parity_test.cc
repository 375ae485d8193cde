// Fault-free cost parity: on a zero-drop, zero-jitter SimNetwork the
// network-measured Cost of every application round must equal the
// closed-form message counts the pre-runtime code charged by hand, and
// the selection and vrand protocols must reproduce pinned outputs,
// costs and crypto-operation counts.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "apps/concept_index.h"
#include "apps/diffusion.h"
#include "apps/proxy.h"
#include "apps/query.h"
#include "apps/sensing.h"
#include "core/selection.h"
#include "core/vrand.h"
#include "crypto/hash256.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace sep2p::apps {
namespace {

class AppCostParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(1200, 0.01, /*cache=*/160);
    ASSERT_NE(network_, nullptr);
    for (uint32_t i = 0; i < network_->directory().size(); ++i) {
      pdms_.emplace_back(i);
    }
    for (uint32_t i = 0; i < pdms_.size(); ++i) {
      if (i % 5 == 0) pdms_[i].AddConcept("pilot");
      if (i % 3 == 0) pdms_[i].AddConcept("age:40s");
      pdms_[i].SetAttribute("sick_leave_days", (i % 10) * 1.0);
    }
    simnet_ = std::make_unique<net::SimNetwork>(
        test::MakeZeroFaultSimNet(1200));
    runtime_ = std::make_unique<node::AppRuntime>(simnet_.get());
  }

  // Messages a DHT store/lookup for `share_key` costs: the routing hops
  // plus the indexer round trip.
  double RouteMessages(uint32_t from, const std::string& share_key) {
    auto route = network_->overlay().RouteKey(
        from, crypto::Hash256::Of(share_key));
    EXPECT_TRUE(route.ok());
    return route->hops + 1.0;
  }

  std::unique_ptr<sim::Network> network_;
  std::vector<node::PdmsNode> pdms_;
  std::unique_ptr<net::SimNetwork> simnet_;
  std::unique_ptr<node::AppRuntime> runtime_;
  util::Rng rng_{19};
};

TEST_F(AppCostParityTest, ProxyDeliveryCostsTwoMessages) {
  auto delivery = ForwardViaProxy(*runtime_, *network_, 3,
                                  network_->directory().pub(7),
                                  {1, 2, 3}, rng_);
  ASSERT_TRUE(delivery.ok());
  EXPECT_TRUE(delivery->delivered_ok);
  EXPECT_DOUBLE_EQ(delivery->cost.msg_work, 2.0);
  EXPECT_DOUBLE_EQ(delivery->cost.msg_latency, 2.0);
}

TEST_F(AppCostParityTest, ProxyChainCostsChainPlusOneMessages) {
  auto delivery = ForwardViaProxyChain(*runtime_, *network_, 3,
                                       network_->directory().pub(7),
                                       {1, 2, 3},
                                       /*chain_length=*/3, rng_);
  ASSERT_TRUE(delivery.ok());
  EXPECT_TRUE(delivery->delivered_ok);
  EXPECT_DOUBLE_EQ(delivery->cost.msg_work, 4.0);
}

TEST_F(AppCostParityTest, ConceptIndexPublishAndLookupMatchRouting) {
  ConceptIndex index(network_.get(), runtime_.get());  // p = s = 1
  std::set<std::string> concepts = {"pilot", "age:40s"};
  auto publish = index.Publish(17, concepts, rng_);
  ASSERT_TRUE(publish.ok());
  double expected = 0;
  for (const std::string& c : concepts) expected += RouteMessages(17, c + "#0");
  EXPECT_DOUBLE_EQ(publish->msg_work, expected);

  auto lookup = index.Lookup(23, "pilot");
  ASSERT_TRUE(lookup.ok());
  EXPECT_FALSE(lookup->indexer_unreachable);
  EXPECT_DOUBLE_EQ(lookup->cost.msg_work, RouteMessages(23, "pilot#0"));
}

TEST_F(AppCostParityTest, SensingRoundMatchesLegacyCounters) {
  ParticipatorySensingApp::Config config;
  config.aggregator_count = 4;
  ParticipatorySensingApp app(network_.get(), &pdms_, runtime_.get(),
                              config);
  app.GenerateWorkload(/*sources=*/50, /*readings_per_source=*/4, rng_);
  auto round = app.RunRound(3, rng_);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  ASSERT_EQ(round->readings_delivered, round->readings_sent);

  // Legacy: one message per contribution, one partial per DA, one
  // publish of the merged aggregate.
  EXPECT_DOUBLE_EQ(round->cost.msg_work,
                   round->selection_cost.msg_work + round->readings_sent +
                       config.aggregator_count + 1);
  // Legacy: every source verifies the DA actor list (2k asymmetric ops).
  EXPECT_DOUBLE_EQ(round->cost.crypto_work,
                   round->selection_cost.crypto_work +
                       round->sources * round->per_source_verification_ops);
  EXPECT_GT(round->per_source_verification_ops, 0);
}

TEST_F(AppCostParityTest, DiffusionRoundMatchesLegacyCounters) {
  ConceptIndex index(network_.get(), runtime_.get());
  DiffusionApp app(network_.get(), &pdms_, &index, runtime_.get());
  ASSERT_TRUE(app.PublishAllProfiles(rng_).ok());
  auto result = app.Diffuse(1, "pilot", "msg", rng_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->offer_failures, 0);
  ASSERT_EQ(result->indexer_failures, 0);

  // Legacy: the TF's index lookup plus one offer per candidate. The
  // lookup route is deterministic, so re-running it re-measures it.
  auto lookup = index.Lookup(result->target_finders[0], "pilot");
  ASSERT_TRUE(lookup.ok());
  EXPECT_DOUBLE_EQ(result->cost.msg_work,
                   result->selection_cost.msg_work + lookup->cost.msg_work +
                       result->candidates_contacted);

  // Legacy: one VAL verification (2k asymmetric ops) per contacted MI.
  const double verif =
      result->cost.crypto_work - result->selection_cost.crypto_work;
  ASSERT_GT(result->indexers_contacted, 0);
  const double per_indexer = verif / result->indexers_contacted;
  EXPECT_GT(per_indexer, 0);
  EXPECT_DOUBLE_EQ(per_indexer, 2.0 * std::round(per_indexer / 2.0));
}

TEST_F(AppCostParityTest, QueryRoundMatchesLegacyCounters) {
  ConceptIndex index(network_.get(), runtime_.get());
  DiffusionApp publisher(network_.get(), &pdms_, &index, runtime_.get());
  ASSERT_TRUE(publisher.PublishAllProfiles(rng_).ok());

  QueryApp app(network_.get(), &pdms_, &index, runtime_.get());
  QuerySpec spec;
  spec.profile_expression = "pilot AND age:40s";
  spec.attribute = "sick_leave_days";
  spec.aggregate = Aggregate::kAvg;
  auto result = app.Execute(2, spec, rng_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->answer_delivered);
  ASSERT_EQ(result->lost_contributions, 0);
  ASSERT_EQ(result->da_failovers, 0);
  ASSERT_GT(result->contributors, 0u);

  // Legacy: two messages per contribution (target -> proxy -> DA), one
  // partial per DA slot, one merged answer back to the querier.
  const double app_msgs = result->cost.msg_work -
                          result->target_finding_cost.msg_work -
                          result->selection_cost.msg_work;
  EXPECT_DOUBLE_EQ(app_msgs, 2.0 * result->contributors +
                                 result->aggregators.size() + 1);

  // Legacy: one VAL verification (2k asymmetric ops) per contributor.
  const double verif = result->cost.crypto_work -
                       result->target_finding_cost.crypto_work -
                       result->selection_cost.crypto_work;
  const double per_contributor = verif / result->contributors;
  EXPECT_GT(per_contributor, 0);
  EXPECT_DOUBLE_EQ(per_contributor,
                   2.0 * std::round(per_contributor / 2.0));
}

// Golden pin for the selection protocol: 20 (seed, trigger) pairs on a
// small network — five of them with an R3 tight enough to relocate —
// folded into one FNV-1a digest of every outcome field the figures
// read (actors, setter, SLs, relocations, k, all four Cost fields) and
// of the CryptoMeter sign/verify counts each selection spends. Any
// change to the protocol's Rng consumption, cost accounting or crypto
// work moves the digest.
class SelectionGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(1200, 0.01, /*cache=*/160);
    ASSERT_NE(network_, nullptr);
    ctx_ = network_->context();
    tight_ = ctx_;
    tight_.rs3 = 12.0 / 1200.0;
    tight_.max_relocations = 64;
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
  static uint64_t FoldBytes(uint64_t h, const std::string& bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    return h;
  }
  static uint64_t FoldCost(uint64_t h, const net::Cost& cost) {
    h = FoldDouble(h, cost.crypto_latency);
    h = FoldDouble(h, cost.msg_latency);
    h = FoldDouble(h, cost.crypto_work);
    return FoldDouble(h, cost.msg_work);
  }

  std::unique_ptr<sim::Network> network_;
  core::ProtocolContext ctx_;
  core::ProtocolContext tight_;
};

TEST_F(SelectionGoldenTest, SelectionDigestIsPinned) {
  crypto::CryptoMeter& meter = network_->provider().meter();
  uint64_t digest = 14695981039346656037ULL;
  int relocations = 0;
  for (uint64_t i = 0; i < 20; ++i) {
    const core::ProtocolContext& ctx = i < 15 ? ctx_ : tight_;
    core::SelectionProtocol protocol(ctx);
    net::SimNetwork transport = test::MakeIdealNet(1200);
    util::Rng rng(1000 + 17 * i);
    const uint32_t trigger = static_cast<uint32_t>((i * 61 + 5) % 1200);
    meter.Reset();
    auto run = protocol.Run(trigger, rng, transport);
    ASSERT_TRUE(run.ok()) << i << ": " << run.status().ToString();
    digest = Fold(digest, run->actor_indices.size());
    for (uint32_t a : run->actor_indices) digest = Fold(digest, a);
    digest = Fold(digest, run->setter_index);
    digest = Fold(digest, run->sl_indices.size());
    for (uint32_t s : run->sl_indices) digest = Fold(digest, s);
    digest = Fold(digest, static_cast<uint64_t>(run->relocations));
    digest = Fold(digest, static_cast<uint64_t>(run->val.k()));
    digest = FoldCost(digest, run->cost);
    digest = Fold(digest, meter.signs());
    digest = Fold(digest, meter.verifies());
    relocations += run->relocations;
  }
  EXPECT_GT(relocations, 0);  // the tight pairs exercise relocation
  EXPECT_EQ(digest, 0xcafc11f7eb6e86a7ULL) << std::hex << digest;
}

// Golden pin for the RPC engine on a faulty link: 20 traced and
// metered selections over ONE SimNetwork with drops, latency jitter,
// backoff jitter and step crashes (nodes die for good, so later
// selections route around earlier casualties). A selection that gives
// up is restarted, as the failure sweeps do. The digest folds every
// outcome, the whole JSONL trace, the metrics snapshot and every Stats
// field, so any change to the retry loop's Rng draws, clock arithmetic,
// event order or accounting moves it.
TEST_F(SelectionGoldenTest, FaultyLinkDigestIsPinned) {
  net::LinkModel link;
  link.drop_probability = 0.05;
  link.jitter_mean_us = 15'000;
  // A timeout close to the round trip, so some replies land late.
  net::RetryPolicy retry;
  retry.timeout_us = 100'000;
  retry.backoff_base_us = 20'000;
  net::SimNetwork transport(1200, link, retry, /*seed=*/77);
  transport.set_step_crash_probability(0.004);
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  transport.set_trace(&trace);
  transport.set_metrics(&metrics);
  uint64_t digest = 14695981039346656037ULL;
  int failed_runs = 0;
  for (uint64_t i = 0; i < 20; ++i) {
    core::SelectionProtocol protocol(ctx_);
    util::Rng rng(3000 + 29 * i);
    const uint32_t trigger = static_cast<uint32_t>((i * 83 + 11) % 1200);
    for (int attempt = 1; attempt <= 5; ++attempt) {
      auto run = protocol.Run(trigger, rng, transport);
      digest = Fold(digest, static_cast<uint64_t>(run.status().code()));
      if (!run.ok()) {
        ++failed_runs;
        continue;
      }
      for (uint32_t a : run->actor_indices) digest = Fold(digest, a);
      digest = Fold(digest, run->setter_index);
      for (uint32_t s : run->sl_indices) digest = Fold(digest, s);
      digest = FoldCost(digest, run->cost);
      break;
    }
  }
  transport.FinalizeTrace();
  const net::Transport::Stats& st = transport.stats();
  EXPECT_GT(st.retries, 0u);
  EXPECT_GT(st.step_crashes, 0u);
  EXPECT_GT(st.late_replies, 0u);
  EXPECT_GT(st.quorum_replacements, 0u);
  EXPECT_GT(failed_runs, 0);
  for (uint64_t v :
       {st.messages_sent, st.messages_dropped, st.messages_delivered,
        st.late_replies, st.bytes_sent, st.timeouts, st.retries,
        st.rpc_failures, st.step_crashes, st.quorum_replacements,
        transport.now_us(), static_cast<uint64_t>(failed_runs)}) {
    digest = Fold(digest, v);
  }
  digest = FoldBytes(digest, obs::ToJsonl(trace.trace()));
  digest = FoldBytes(digest, metrics.ToJson());
  EXPECT_EQ(digest, 0x0aac21dc34f51f6cULL) << std::hex << digest;
}

TEST_F(SelectionGoldenTest, VrandDigestIsPinned) {
  crypto::CryptoMeter& meter = network_->provider().meter();
  core::VrandProtocol protocol(ctx_);
  uint64_t digest = 14695981039346656037ULL;
  for (uint64_t i = 0; i < 20; ++i) {
    net::SimNetwork transport = test::MakeIdealNet(1200);
    util::Rng rng(2000 + 13 * i);
    const uint32_t trigger = static_cast<uint32_t>((i * 97 + 3) % 1200);
    meter.Reset();
    auto run = protocol.Generate(trigger, rng, transport);
    ASSERT_TRUE(run.ok()) << i << ": " << run.status().ToString();
    for (uint32_t tl : run->tl_indices) digest = Fold(digest, tl);
    const crypto::Hash256 value = run->vrnd.Value();
    for (uint8_t b : value.bytes()) digest = Fold(digest, b);
    digest = FoldCost(digest, run->cost);
    digest = Fold(digest, meter.signs());
    digest = Fold(digest, meter.verifies());
  }
  EXPECT_EQ(digest, 0xea4f493cf907a832ULL) << std::hex << digest;
}

}  // namespace
}  // namespace sep2p::apps
