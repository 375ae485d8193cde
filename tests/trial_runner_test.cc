// The determinism contract of the parallel trial engine: thread count
// and scheduling must never leak into results. These tests pin the
// rules of TrialRunner::RunPoint, then run the same experiments
// serially and heavily threaded and require bit-identical output
// (EXPECT_EQ on doubles, not EXPECT_NEAR).

#include "sim/trial_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "attack/sweep.h"
#include "obs/export.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "sim/network.h"

namespace sep2p::sim {
namespace {

Parameters SmallNet(int threads) {
  Parameters p;
  p.n = 2000;
  p.colluding_fraction = 0.02;
  p.actor_count = 8;
  p.cache_size = 128;
  p.seed = 11;
  p.threads = threads;
  return p;
}

TEST(StreamSeedTest, DistinctIndicesGiveDistinctWellMixedSeeds) {
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 10000; ++i) {
    seeds.insert(StreamSeed(42, i));
  }
  EXPECT_EQ(seeds.size(), 10000u);
  // Deterministic: same (seed, index) -> same stream.
  EXPECT_EQ(StreamSeed(42, 7), StreamSeed(42, 7));
  EXPECT_NE(StreamSeed(42, 7), StreamSeed(43, 7));
}

TEST(StreamSeedTest, MixSeedSeparatesFamiliesAndLabels) {
  EXPECT_NE(MixSeed(42, 0x111), MixSeed(42, 0x222));
  EXPECT_NE(MixSeed(42, 0x111, 0, 0), MixSeed(42, 0x111, 1, 0));
  EXPECT_NE(MixSeed(42, 0x111, 0, 0), MixSeed(42, 0x111, 0, 1));
  // The (a, b) labels must not alias ((a+1), (b-1)) style neighbors.
  EXPECT_NE(MixSeed(42, 0x111, 1, 2), MixSeed(42, 0x111, 2, 1));
}

TEST(OnlineStatsMergeTest, MergeMatchesSequentialAdd) {
  util::Rng rng(99);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(rng.NextDouble() * 100 - 50);
  }

  OnlineStats sequential;
  for (double v : values) sequential.Add(v);

  // Merge uneven chunks (including an empty one).
  OnlineStats merged;
  const size_t cuts[] = {0, 17, 17, 400, 999, 1000};
  for (size_t c = 0; c + 1 < std::size(cuts); ++c) {
    OnlineStats chunk;
    for (size_t i = cuts[c]; i < cuts[c + 1]; ++i) chunk.Add(values[i]);
    merged.Merge(chunk);
  }

  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_EQ(merged.min(), sequential.min());
  EXPECT_EQ(merged.max(), sequential.max());
  EXPECT_NEAR(merged.mean(), sequential.mean(), 1e-9);
  EXPECT_NEAR(merged.stddev(), sequential.stddev(), 1e-9);
}

TEST(OnlineStatsMergeTest, MergeIntoEmptyCopies) {
  OnlineStats a;
  OnlineStats b;
  b.Add(3);
  b.Add(5);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), 4.0);
  a.Merge(OnlineStats());  // merging an empty is a no-op
  EXPECT_EQ(a.count(), 2u);
}

TEST(TrialRunnerTest, RunPointCoversEveryTrialExactlyOnce) {
  TrialRunner runner(/*threads=*/4);
  constexpr int kTrials = 1003;  // not a multiple of kShardSize
  std::vector<std::atomic<int>> hits(kTrials);
  std::atomic<int> misplaced{0};
  Status status = runner.RunPoint(
      /*point=*/0, kTrials, /*seed=*/7, /*observers=*/nullptr,
      [&](const Trial& trial) {
        hits[trial.t].fetch_add(1, std::memory_order_relaxed);
        if (trial.shard != trial.t / TrialRunner::kShardSize ||
            trial.rec != nullptr || trial.met != nullptr) {
          misplaced.fetch_add(1, std::memory_order_relaxed);
        }
        return Status::Ok();
      });
  ASSERT_TRUE(status.ok());
  for (int t = 0; t < kTrials; ++t) EXPECT_EQ(hits[t].load(), 1);
  EXPECT_EQ(misplaced.load(), 0);
}

// First draw of every trial's stream, run with the given thread count.
std::vector<uint64_t> FirstDraws(int threads, int trials) {
  std::vector<uint64_t> draws(trials);
  TrialRunner runner(threads);
  Status status = runner.RunPoint(0, trials, /*seed=*/42, nullptr,
                                  [&](const Trial& trial) {
                                    draws[trial.t] = trial.rng.NextUint64();
                                    return Status::Ok();
                                  });
  EXPECT_TRUE(status.ok());
  return draws;
}

TEST(TrialRunnerTest, PerTrialRngIndependentOfExecutionOrder) {
  // Each trial's stream is Rng(StreamSeed(seed, t)) whatever the thread
  // count, a partial last shard included.
  constexpr int kTrials = 256;
  std::vector<uint64_t> expected(kTrials);
  for (int t = 0; t < kTrials; ++t) {
    expected[t] = util::Rng(StreamSeed(42, static_cast<uint64_t>(t)))
                      .NextUint64();
  }
  EXPECT_EQ(TrialRunner(1).pool().workers(), 0);
  EXPECT_EQ(FirstDraws(1, kTrials), expected);
  EXPECT_EQ(FirstDraws(8, kTrials), expected);
  EXPECT_EQ(FirstDraws(1, 40), FirstDraws(8, 40));
}

TEST(TrialRunnerTest, LowestIndexedFailingTrialWins) {
  auto fail_at = [](const Trial& trial) {
    if (trial.t == 77 || trial.t == 402) {
      return Status::Internal("trial " + std::to_string(trial.t));
    }
    return Status::Ok();
  };
  TrialRunner runner(4);
  Status status = runner.RunPoint(0, 500, 1, nullptr, fail_at);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "trial 77");
}

TEST(TrialRunnerTest, RunPointObserverSlotsAndShardMetrics) {
  std::vector<obs::TraceRecorder> recorders(9);  // stale slots
  obs::MetricsRegistry metrics;
  SweepObservers observers;
  observers.trace_trials = 3;
  observers.recorders = &recorders;
  observers.metrics = &metrics;
  TrialRunner runner(4);

  // Point 0: trials 0..2 own slots 0..2; every trial of a shard shares
  // that shard's registry.
  std::vector<obs::TraceRecorder*> recs(40);
  std::vector<obs::MetricsRegistry*> mets(40);
  auto record = [&](const Trial& trial) {
    recs[trial.t] = trial.rec;
    mets[trial.t] = trial.met;
    return Status::Ok();
  };
  ASSERT_TRUE(runner.RunPoint(0, 40, 1, &observers, record).ok());
  ASSERT_EQ(recorders.size(), 3u);
  for (int t = 0; t < 40; ++t) {
    EXPECT_EQ(recs[t], t < 3 ? &recorders[t] : nullptr) << t;
    ASSERT_NE(mets[t], nullptr);
    EXPECT_EQ(mets[t] == mets[0], t < TrialRunner::kShardSize) << t;
  }
  EXPECT_EQ(metrics.counter(obs::Counter::kTrials), 40u);

  // Later points record nothing and leave the slots alone, but are
  // metered too.
  ASSERT_TRUE(runner.RunPoint(1, 40, 2, &observers, record).ok());
  EXPECT_EQ(recorders.size(), 3u);
  for (int t = 0; t < 40; ++t) EXPECT_EQ(recs[t], nullptr) << t;
  EXPECT_EQ(metrics.counter(obs::Counter::kTrials), 80u);

  // A failed point folds none of its metrics.
  Status status = runner.RunPoint(1, 40, 3, &observers,
                                  [](const Trial&) {
                                    return Status::Internal("fail");
                                  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(metrics.counter(obs::Counter::kTrials), 80u);
}

TEST(TrialRunnerTest, NetworkBuildIsIdenticalForAnyThreadCount) {
  Result<std::unique_ptr<Network>> serial = Network::Build(SmallNet(1));
  Result<std::unique_ptr<Network>> parallel = Network::Build(SmallNet(8));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  const dht::Directory& a = (*serial)->directory();
  const dht::Directory& b = (*parallel)->directory();
  ASSERT_EQ(a.size(), b.size());
  for (uint32_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.pub(i), b.pub(i)) << "node " << i;
    EXPECT_TRUE(a.pos(i) == b.pos(i)) << "node " << i;
  }
  EXPECT_EQ((*serial)->coalition().indices(),
            (*parallel)->coalition().indices());
}

// FNV-1a over what the epoch harnesses must never write: the network's
// coalition and the Directory's flag column.
uint64_t SharedStateDigest(const Network& net) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (uint32_t idx : net.coalition().indices()) mix(idx);
  const dht::Directory& dir = net.directory();
  for (uint32_t i = 0; i < dir.size(); ++i) {
    mix(i);
    mix((dir.alive(i) ? 1u : 0u) | (dir.crashed(i) ? 2u : 0u) |
        (dir.has_cert(i) ? 4u : 0u));
  }
  return h;
}

// Epochs draw their own coalitions, so the strategy comparison and the
// adversary sweep run over the network without rewriting any of it.
TEST(TrialRunnerTest, EpochHarnessesLeaveTheNetworkUntouched) {
  Result<std::unique_ptr<Network>> network = Network::Build(SmallNet(4));
  ASSERT_TRUE(network.ok());
  Network& net = **network;
  const uint64_t before = SharedStateDigest(net);

  ASSERT_TRUE(
      RunStrategyComparison(net, {"SEP2P", "ES.AV"}, /*trials=*/40).ok());
  EXPECT_EQ(SharedStateDigest(net), before);

  ASSERT_TRUE(attack::RunAdversarySweep(net, {"csar-grind", "sl-bias"},
                                        /*trials=*/40)
                  .ok());
  EXPECT_EQ(SharedStateDigest(net), before);
}

// The flagship guarantee: a whole experiment harness produces
// bit-identical numbers serially and with 8 threads.
TEST(TrialRunnerTest, StrategyComparisonBitIdenticalAcrossThreadCounts) {
  const std::vector<double> c_fractions = {0.01, 0.03};
  const std::vector<std::string> strategies = {"SEP2P", "ES.AV"};
  auto serial =
      RunStrategyComparison(SmallNet(1), c_fractions, strategies,
                            /*trials=*/48);
  auto parallel =
      RunStrategyComparison(SmallNet(8), c_fractions, strategies,
                            /*trials=*/48);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    const StrategyPoint& s = (*serial)[i];
    const StrategyPoint& p = (*parallel)[i];
    EXPECT_EQ(s.strategy, p.strategy);
    EXPECT_EQ(s.c_fraction, p.c_fraction);
    EXPECT_EQ(s.verification_cost, p.verification_cost);
    EXPECT_EQ(s.avg_corrupted, p.avg_corrupted);
    EXPECT_EQ(s.effectiveness, p.effectiveness);
    EXPECT_EQ(s.setup_crypto_latency, p.setup_crypto_latency);
    EXPECT_EQ(s.setup_crypto_work, p.setup_crypto_work);
    EXPECT_EQ(s.setup_msg_latency, p.setup_msg_latency);
    EXPECT_EQ(s.setup_msg_work, p.setup_msg_work);
    EXPECT_EQ(s.relocation_rate, p.relocation_rate);
  }
}

TEST(TrialRunnerTest, ExhaustiveSettersBitIdenticalAcrossThreadCounts) {
  auto serial = RunExhaustiveSetters(SmallNet(1), /*sample=*/64);
  auto parallel = RunExhaustiveSetters(SmallNet(8), /*sample=*/64);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(serial->setters, parallel->setters);
  EXPECT_EQ(serial->verif_avg, parallel->verif_avg);
  EXPECT_EQ(serial->verif_max, parallel->verif_max);
  EXPECT_EQ(serial->verif_stddev, parallel->verif_stddev);
  EXPECT_EQ(serial->crypto_work_avg, parallel->crypto_work_avg);
  EXPECT_EQ(serial->crypto_work_max, parallel->crypto_work_max);
  EXPECT_EQ(serial->msg_work_avg, parallel->msg_work_avg);
  EXPECT_EQ(serial->crypto_lat_avg, parallel->crypto_lat_avg);
  EXPECT_EQ(serial->msg_lat_avg, parallel->msg_lat_avg);
}

TEST(TrialRunnerTest, CacheSweepBitIdenticalAcrossThreadCounts) {
  const std::vector<size_t> cache_sizes = {32, 128};
  auto serial = RunCacheSweep(SmallNet(1), cache_sizes, /*trials=*/40);
  auto parallel = RunCacheSweep(SmallNet(8), cache_sizes, /*trials=*/40);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ((*serial)[i].relocation_rate, (*parallel)[i].relocation_rate);
    EXPECT_EQ((*serial)[i].relocated_fraction,
              (*parallel)[i].relocated_fraction);
    EXPECT_EQ((*serial)[i].failed_fraction, (*parallel)[i].failed_fraction);
    EXPECT_EQ((*serial)[i].setup_msg_work, (*parallel)[i].setup_msg_work);
  }
}

// The message-level acceptance criterion: per-trial SimNetworks seeded
// from SplitMix64 streams keep the whole sweep — retries, restarts and
// the sorted latency percentiles — bit-identical for any thread count.
TEST(TrialRunnerTest, MessageFailureSweepBitIdenticalAcrossThreadCounts) {
  std::vector<MessageFailureSetting> settings(2);
  settings[1].drop_probability = 0.05;
  settings[1].step_crash_probability = 0.002;
  auto serial =
      RunMessageFailureSweep(SmallNet(1), settings, /*trials=*/24);
  auto parallel =
      RunMessageFailureSweep(SmallNet(8), settings, /*trials=*/24);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    const MessageFailurePoint& s = (*serial)[i];
    const MessageFailurePoint& p = (*parallel)[i];
    EXPECT_EQ(s.first_try_success_rate, p.first_try_success_rate);
    EXPECT_EQ(s.avg_retries, p.avg_retries);
    EXPECT_EQ(s.avg_replacements, p.avg_replacements);
    EXPECT_EQ(s.restart_rate, p.restart_rate);
    EXPECT_EQ(s.give_up_rate, p.give_up_rate);
    EXPECT_EQ(s.p50_latency_ms, p.p50_latency_ms);
    EXPECT_EQ(s.p99_latency_ms, p.p99_latency_ms);
  }
}

// Same criterion one layer up: a full sensing round per trial (selection
// + contribution wave + merge + publish) through node::AppRuntime.
TEST(TrialRunnerTest, AppFailureSweepBitIdenticalAcrossThreadCounts) {
  std::vector<MessageFailureSetting> settings(2);
  settings[1].drop_probability = 0.1;
  settings[1].step_crash_probability = 0.001;
  auto serial = RunAppFailureSweep(SmallNet(1), settings, /*trials=*/12);
  auto parallel = RunAppFailureSweep(SmallNet(8), settings, /*trials=*/12);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    const AppFailurePoint& s = (*serial)[i];
    const AppFailurePoint& p = (*parallel)[i];
    EXPECT_EQ(s.first_try_success_rate, p.first_try_success_rate);
    EXPECT_EQ(s.avg_retries, p.avg_retries);
    EXPECT_EQ(s.avg_restarts, p.avg_restarts);
    EXPECT_EQ(s.avg_delivered_fraction, p.avg_delivered_fraction);
    EXPECT_EQ(s.give_up_rate, p.give_up_rate);
    EXPECT_EQ(s.p50_latency_ms, p.p50_latency_ms);
    EXPECT_EQ(s.p99_latency_ms, p.p99_latency_ms);
  }
  // Fault-free rounds deliver everything; faulty rounds degrade.
  EXPECT_EQ((*serial)[0].avg_delivered_fraction, 1.0);
  EXPECT_EQ((*serial)[0].first_try_success_rate, 1.0);
  EXPECT_LE((*serial)[1].avg_delivered_fraction, 1.0);
}

TEST(TrialRunnerTest, ComputeAverageKBitIdenticalAcrossThreadCounts) {
  KCurvePoint serial =
      ComputeAverageK(10000, 0.01, 1e-6, /*samples=*/500, /*seed=*/3,
                      /*threads=*/1);
  KCurvePoint parallel =
      ComputeAverageK(10000, 0.01, 1e-6, /*samples=*/500, /*seed=*/3,
                      /*threads=*/8);
  EXPECT_EQ(serial.avg_k, parallel.avg_k);
  EXPECT_EQ(serial.max_k_seen, parallel.max_k_seen);
}


// Exact text of a point's fields: hexfloat keeps every bit of a double.
template <typename... Fields>
std::string Exact(const Fields&... fields) {
  std::ostringstream out;
  out << std::hexfloat;
  ((out << fields << ' '), ...);
  out << '\n';
  return out.str();
}

// One experiment harness on SmallNet(threads), its points rendered with
// Exact. Every harness gets more than one shard of trials.
struct ObservedHarness {
  const char* name;
  std::function<std::string(int, const SweepObservers*)> run;
};

// Names the test instance (gtest would otherwise print the raw bytes).
void PrintTo(const ObservedHarness& harness, std::ostream* out) {
  *out << harness.name;
}

template <typename Points, typename Render>
std::string RenderPoints(const Result<Points>& points, Render render) {
  EXPECT_TRUE(points.ok()) << points.status().ToString();
  std::string out;
  if (points.ok()) {
    for (const auto& p : *points) out += render(p);
  }
  return out;
}

std::vector<MessageFailureSetting> FaultySettings() {
  std::vector<MessageFailureSetting> settings(2);
  settings[0].drop_probability = 0.05;
  settings[0].step_crash_probability = 0.002;
  return settings;
}

const ObservedHarness kObservedHarnesses[] = {
    {"StrategyComparison",
     [](int threads, const SweepObservers* observers) {
       return RenderPoints(
           RunStrategyComparison(SmallNet(threads), {0.02}, {"SEP2P", "ES.AV"},
                                 /*trials=*/20, observers),
           [](const StrategyPoint& p) {
             return Exact(p.strategy, p.c_fraction, p.trials,
                          p.verification_cost, p.ideal_corrupted,
                          p.avg_corrupted, p.effectiveness,
                          p.setup_crypto_latency, p.setup_crypto_work,
                          p.setup_msg_latency, p.setup_msg_work,
                          p.relocation_rate);
           });
     }},
    {"CacheSweep",
     [](int threads, const SweepObservers* observers) {
       return RenderPoints(
           RunCacheSweep(SmallNet(threads), {32, 128}, /*trials=*/20,
                         observers),
           [](const CachePoint& p) {
             return Exact(p.cache_size, p.trials, p.relocation_rate,
                          p.relocated_fraction, p.failed_fraction,
                          p.setup_crypto_latency, p.setup_crypto_work,
                          p.setup_msg_latency, p.setup_msg_work);
           });
     }},
    {"ActorSweep",
     [](int threads, const SweepObservers* observers) {
       return RenderPoints(
           RunActorSweep(SmallNet(threads), {8, 16}, /*trials=*/20,
                         observers),
           [](const ActorsPoint& p) {
             return Exact(p.actor_count, p.setup_crypto_work,
                          p.setup_msg_work, p.verification_cost);
           });
     }},
    {"ExhaustiveSetters",
     [](int threads, const SweepObservers* observers) {
       Result<ExhaustiveStats> stats =
           RunExhaustiveSetters(SmallNet(threads), /*sample=*/40, observers);
       EXPECT_TRUE(stats.ok()) << stats.status().ToString();
       if (!stats.ok()) return std::string();
       const ExhaustiveStats& s = *stats;
       return Exact(s.setters, s.verif_avg, s.verif_max, s.verif_stddev,
                    s.crypto_work_avg, s.crypto_work_max,
                    s.crypto_work_stddev, s.msg_work_avg, s.msg_work_max,
                    s.msg_work_stddev, s.crypto_lat_avg, s.crypto_lat_max,
                    s.crypto_lat_stddev, s.msg_lat_avg, s.msg_lat_max,
                    s.msg_lat_stddev);
     }},
    {"MessageFailureSweep",
     [](int threads, const SweepObservers* observers) {
       return RenderPoints(
           RunMessageFailureSweep(SmallNet(threads), FaultySettings(),
                                  /*trials=*/20, observers),
           [](const MessageFailurePoint& p) {
             return Exact(p.trials, p.first_try_success_rate, p.avg_retries,
                          p.avg_replacements, p.restart_rate, p.give_up_rate,
                          p.p50_latency_ms, p.p99_latency_ms);
           });
     }},
    {"AppFailureSweep",
     [](int threads, const SweepObservers* observers) {
       return RenderPoints(
           RunAppFailureSweep(SmallNet(threads), FaultySettings(),
                              /*trials=*/18, observers),
           [](const AppFailurePoint& p) {
             return Exact(p.trials, p.first_try_success_rate, p.avg_retries,
                          p.avg_restarts, p.avg_delivered_fraction,
                          p.give_up_rate, p.p50_latency_ms,
                          p.p99_latency_ms);
           });
     }},
    {"AdversarySweep",
     [](int threads, const SweepObservers* observers) {
       return RenderPoints(
           attack::RunAdversarySweep(SmallNet(threads),
                                     {"csar-grind", "none"},
                                     /*trials=*/20, observers),
           [](const attack::AdversaryPoint& p) {
             return Exact(p.scenario, p.c_fraction, p.trials, p.attempted,
                          p.detected, p.accepted, p.succeeded,
                          p.detection_rate, p.avg_corrupted,
                          p.ideal_corrupted, p.effectiveness, p.avg_strikes,
                          p.avg_attempts, p.avg_restarts, p.avg_relocations,
                          p.verification_cost, p.setup_crypto_work,
                          p.setup_msg_work, p.cost_overhead,
                          p.checker_violations, p.digest);
           });
     }},
};

class TrialRunnerObservedHarnessTest
    : public testing::TestWithParam<ObservedHarness> {};

// SweepObservers' contract: with both observers on, the points, the
// merged metrics and every recorded trace are bit-identical serially
// and with 8 threads.
TEST_P(TrialRunnerObservedHarnessTest, BitIdenticalAcrossThreadCounts) {
  struct Observed {
    std::string points;
    std::vector<obs::TraceRecorder> recorders;
    obs::MetricsRegistry metrics;
  };
  auto run = [&](int threads, Observed* out) {
    SweepObservers observers;
    observers.trace_trials = 3;
    observers.recorders = &out->recorders;
    observers.metrics = &out->metrics;
    out->points = GetParam().run(threads, &observers);
  };
  Observed serial, parallel;
  run(1, &serial);
  run(8, &parallel);

  EXPECT_FALSE(serial.points.empty());
  EXPECT_EQ(serial.points, parallel.points);
  EXPECT_GT(serial.metrics.counter(obs::Counter::kTrials), 0u);
  EXPECT_EQ(serial.metrics.ToJson(), parallel.metrics.ToJson());
  ASSERT_EQ(serial.recorders.size(), 3u);
  ASSERT_EQ(parallel.recorders.size(), 3u);
  for (size_t i = 0; i < serial.recorders.size(); ++i) {
    EXPECT_GT(serial.recorders[i].size(), 0u) << "slot " << i;
    EXPECT_EQ(obs::ToJsonl(serial.recorders[i].trace()),
              obs::ToJsonl(parallel.recorders[i].trace()))
        << "slot " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Harnesses, TrialRunnerObservedHarnessTest,
    testing::ValuesIn(kObservedHarnesses),
    [](const testing::TestParamInfo<ObservedHarness>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sep2p::sim
