// ThroughputEngine: concurrent-task execution with the mempool,
// admission backpressure and memoized verification
// (engine/throughput.h). The determinism tests build a FRESH world per
// run (engine runs mutate caches, rate limiters and the virtual clock)
// and compare the bit-identity probes across verify modes.

#include "engine/throughput.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "apps/concept_index.h"
#include "apps/diffusion.h"
#include "apps/query.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace sep2p::engine {
namespace {

// One self-contained world: network, PDMS fleet, message runtime, apps.
// Identical seeds => bit-identical worlds.
struct World {
  std::unique_ptr<sim::Network> network;
  std::vector<node::PdmsNode> pdms;
  std::unique_ptr<net::SimNetwork> simnet;
  std::unique_ptr<node::AppRuntime> runtime;
  std::unique_ptr<apps::ConceptIndex> index;
  std::unique_ptr<apps::DiffusionApp> diffusion;
  std::unique_ptr<apps::QueryApp> query;
};

World MakeWorld() {
  World w;
  w.network = test::MakeNetwork(600, 0.01, /*cache=*/128);
  EXPECT_NE(w.network, nullptr);
  for (uint32_t i = 0; i < w.network->directory().size(); ++i) {
    w.pdms.emplace_back(i);
    if (i % 4 == 0) w.pdms.back().AddConcept("pilot");
    w.pdms.back().SetAttribute("hours", i % 50);
  }
  w.simnet = std::make_unique<net::SimNetwork>(
      test::MakeZeroFaultSimNet(600));
  w.runtime = std::make_unique<node::AppRuntime>(w.simnet.get());
  w.index = std::make_unique<apps::ConceptIndex>(w.network.get(),
                                                 w.runtime.get());
  w.diffusion = std::make_unique<apps::DiffusionApp>(
      w.network.get(), &w.pdms, w.index.get(), w.runtime.get());
  util::Rng rng(5);
  EXPECT_TRUE(w.diffusion->PublishAllProfiles(rng).ok());
  w.query = std::make_unique<apps::QueryApp>(w.network.get(), &w.pdms,
                                             w.index.get(), w.runtime.get());
  return w;
}

apps::QuerySpec Spec() {
  apps::QuerySpec spec;
  spec.profile_expression = "pilot";
  spec.attribute = "hours";
  spec.aggregate = apps::Aggregate::kAvg;
  return spec;
}

const std::vector<TaskKind> kMix = {TaskKind::kSelection, TaskKind::kQuery,
                                   TaskKind::kSelection,
                                   TaskKind::kDiffusion};

struct EngineRun {
  ThroughputEngine::Report report;
  std::vector<uint64_t> failed_ids;
};

// Runs `tasks` tasks of kMix on a fresh world. `prepare` may tamper
// with the world before the engine starts and submit further tasks
// after the mix.
EngineRun RunEngine(
    const ThroughputEngine::Options& options, int tasks,
    obs::MetricsRegistry* metrics = nullptr,
    const std::function<void(World&, ThroughputEngine&)>& prepare =
        nullptr) {
  World w = MakeWorld();
  ThroughputEngine engine(w.network.get(), w.simnet.get(), w.runtime.get(),
                          options);
  engine.set_diffusion(w.diffusion.get(), "pilot", "notice");
  engine.set_query(w.query.get(), Spec());
  if (metrics != nullptr) engine.set_metrics(metrics);
  engine.SubmitWorkload(tasks, kMix);
  if (prepare) prepare(w, engine);
  auto report = engine.Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  EngineRun run{report.value(), {}};
  for (const Task& t : engine.mempool().tasks()) {
    if (t.state == TaskState::kFailed) run.failed_ids.push_back(t.id);
  }
  return run;
}

TEST(ThroughputEngineTest, NaiveAndCachedAgreeOnVirtualTimeResults) {
  // Verification never advances the virtual clock and returns the same
  // verdicts in either mode, so everything except wall-clock and cache
  // stats must agree — the anchor that makes the saturation bench's
  // naive/cached comparison apples-to-apples.
  ThroughputEngine::Options options;
  options.window = 8;
  options.arrival_gap_us = 5'000;

  options.verify_mode = ThroughputEngine::VerifyMode::kNaive;
  obs::MetricsRegistry naive_metrics;
  const ThroughputEngine::Report naive =
      RunEngine(options, 16, &naive_metrics).report;
  options.verify_mode = ThroughputEngine::VerifyMode::kCached;
  obs::MetricsRegistry cached_metrics;
  const ThroughputEngine::Report cached =
      RunEngine(options, 16, &cached_metrics).report;

  EXPECT_GT(cached.completed, 0u);
  EXPECT_EQ(cached.failed, 0u);
  EXPECT_EQ(cached.results_digest, naive.results_digest);
  EXPECT_EQ(cached.completed, naive.completed);
  EXPECT_EQ(cached.failed, naive.failed);
  EXPECT_EQ(cached.virtual_makespan_us, naive.virtual_makespan_us);
  EXPECT_EQ(cached.p50_task_latency_us, naive.p50_task_latency_us);
  EXPECT_EQ(cached.p99_task_latency_us, naive.p99_task_latency_us);
  EXPECT_EQ(cached.p99_queue_delay_us, naive.p99_queue_delay_us);
  EXPECT_EQ(cached.crypto_signs, naive.crypto_signs);
  EXPECT_EQ(cached_metrics.ToJson(), naive_metrics.ToJson());
  // Both modes make the same checks; the cache answers the repeats
  // without calling the provider.
  EXPECT_EQ(naive.crypto_verifies,
            cached.crypto_verifies + cached.verify_stats.coalesced);
  EXPECT_GT(cached.verify_stats.coalesced, 0u);
  EXPECT_EQ(naive.verify_stats.coalesced, 0u);
}

TEST(ThroughputEngineTest, CachedFalseVerdictFailsTheSameTasksAsNaive) {
  // One node's certificate signature is corrupted in the directory.
  // Every check of that certificate is false; the cached mode must fail
  // exactly the tasks the naive mode fails, at the same virtual
  // instants. The two trailing selections are triggered by the forged
  // node, so each checks its certificate: the first verifies the forged
  // triple (or hits a verdict an earlier task cached), the second is
  // answered from the cache — a cached false verdict.
  constexpr uint32_t kForged = 17;
  auto prepare = [](World& w, ThroughputEngine& engine) {
    dht::Directory& dir = w.network->directory();
    crypto::Signature forged = dir.cert(kForged).ca_signature;
    forged[0] ^= 0xff;
    dir.SetCertSignature(kForged, forged);
    const uint64_t last = engine.mempool().task(engine.mempool().size() - 1)
                              .arrival_us;
    engine.Submit(TaskKind::kSelection, kForged, last + 5'000);
    engine.Submit(TaskKind::kSelection, kForged, last + 10'000);
  };
  ThroughputEngine::Options options;
  options.window = 8;
  options.arrival_gap_us = 5'000;

  options.verify_mode = ThroughputEngine::VerifyMode::kNaive;
  const EngineRun naive = RunEngine(options, 16, nullptr, prepare);
  options.verify_mode = ThroughputEngine::VerifyMode::kCached;
  const EngineRun cached = RunEngine(options, 16, nullptr, prepare);

  EXPECT_EQ(cached.failed_ids, naive.failed_ids);
  ASSERT_GE(naive.failed_ids.size(), 2u);
  EXPECT_EQ(naive.failed_ids[naive.failed_ids.size() - 2], 16u);
  EXPECT_EQ(naive.failed_ids.back(), 17u);
  EXPECT_GT(naive.report.completed, 0u);
  EXPECT_EQ(cached.report.results_digest, naive.report.results_digest);
  EXPECT_EQ(cached.report.completed, naive.report.completed);
  EXPECT_EQ(cached.report.virtual_makespan_us,
            naive.report.virtual_makespan_us);
  EXPECT_EQ(naive.report.crypto_verifies,
            cached.report.crypto_verifies +
                cached.report.verify_stats.coalesced);
}

TEST(ThroughputEngineTest, BackpressureNeverDropsAnAdmittedTask) {
  // A window far smaller than the workload forces heavy queuing; the
  // conservation invariant must hold: every submitted task is admitted,
  // every admitted task resolves to completed or failed.
  ThroughputEngine::Options options;
  options.window = 2;
  options.arrival_gap_us = 100;  // offered load far beyond capacity
  const ThroughputEngine::Report r = RunEngine(options, 30).report;
  EXPECT_EQ(r.submitted, 30u);
  EXPECT_EQ(r.admitted, 30u);
  EXPECT_EQ(r.completed + r.failed, r.admitted);
  // Saturation shows up as queue delay, not as loss.
  EXPECT_GT(r.p99_queue_delay_us, 0u);
}

TEST(ThroughputEngineTest, QueueDelayGrowsWithOfferedLoad) {
  ThroughputEngine::Options options;
  options.window = 2;

  options.arrival_gap_us = 100'000'000;  // trickle: window never fills
  const ThroughputEngine::Report idle = RunEngine(options, 10).report;
  options.arrival_gap_us = 100;  // flood
  const ThroughputEngine::Report flooded = RunEngine(options, 10).report;

  EXPECT_EQ(idle.p99_queue_delay_us, 0u);
  EXPECT_GT(flooded.p99_queue_delay_us, idle.p99_queue_delay_us);
  // Offered rate beyond capacity cannot raise the completion rate.
  EXPECT_GT(flooded.offered_per_virtual_sec,
            flooded.completed_per_virtual_sec);
}

TEST(ThroughputEngineTest, RunIsOneShot) {
  World w = MakeWorld();
  ThroughputEngine::Options options;
  ThroughputEngine engine(w.network.get(), w.simnet.get(), w.runtime.get(),
                          options);
  engine.Submit(TaskKind::kSelection, 3, 0);
  EXPECT_TRUE(engine.Run().ok());
  EXPECT_FALSE(engine.Run().ok());
}

}  // namespace
}  // namespace sep2p::engine
