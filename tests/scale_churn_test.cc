// Scale + churn regression suite (ROADMAP item 1).
//
// Covers the bugs that only bite at large N or under concurrency:
//  - ChordOverlay's hop bound is per-overlay state (it was a mutable
//    process-global static shared across concurrent trials) — the
//    ChordOverlayRace suite runs under TSan in CI.
//  - Incremental directory maintenance (SetAlive / MarkCrashed /
//    AddNode) must answer every query exactly like a from-scratch
//    rebuild of the surviving population.
//  - CAN incremental join/leave keeps a valid partition equal (as an
//    owner set) to a from-scratch rebuild.
//  - Repeated coalition draws (strategies::SampleColluders) are
//    bit-identical to the historical clear-all-then-sample path.
//  - The ChurnDriver is deterministic for any build thread count, and
//    churn-pool nodes get genuine CA certificates at join time.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/sim_provider.h"
#include "dht/can.h"
#include "dht/chord.h"
#include "dht/directory.h"
#include "dht/node_id.h"
#include "gtest/gtest.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "sim/churn_driver.h"
#include "sim/network.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace sep2p {
namespace {

std::vector<dht::NodeRecord> MakeRecords(size_t n, uint64_t seed) {
  crypto::SimProvider provider;
  util::Rng rng(seed);
  std::vector<dht::NodeRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto pair = provider.GenerateKeyPair(rng);
    dht::NodeRecord record;
    record.pub = pair->pub;
    record.priv = std::move(pair->priv);
    record.id = dht::NodeIdForKey(record.pub);
    record.pos = record.id.ring_pos();
    records.push_back(std::move(record));
  }
  return records;
}

// ---------------------------------------------------------------------
// Satellite (a): per-overlay hop bound, raced from two threads.

TEST(ChordOverlayRaceTest, HopBoundIsPerOverlayNotProcessGlobal) {
  auto dir_a = test::MakeDirectory(300, 1);
  auto dir_b = test::MakeDirectory(300, 2);
  dht::ChordOverlay tight(dir_a.get(), /*max_hops=*/7);
  dht::ChordOverlay roomy(dir_b.get(), /*max_hops=*/500);
  EXPECT_EQ(tight.max_hops(), 7);
  EXPECT_EQ(roomy.max_hops(), 500);

  // With the old `static int kMaxHops`, either thread's configuration
  // clobbered the other's (and TSan flagged the write race). Each
  // overlay must keep its own bound while both route concurrently.
  std::atomic<bool> failed{false};
  auto worker = [&failed](const dht::Directory& dir,
                          const dht::ChordOverlay& overlay,
                          int expected_bound, uint64_t seed) {
    util::Rng rng(seed);
    for (int i = 0; i < 400; ++i) {
      if (overlay.max_hops() != expected_bound) {
        failed = true;
        return;
      }
      uint32_t from = static_cast<uint32_t>(rng.NextUint64(dir.size()));
      auto route = overlay.Route(from, dir.pos(static_cast<uint32_t>(
                                           rng.NextUint64(dir.size()))));
      if (route.ok() && route->hops > expected_bound) {
        failed = true;
        return;
      }
    }
  };
  std::thread a(worker, std::cref(*dir_a), std::cref(tight), 7, 11);
  std::thread b(worker, std::cref(*dir_b), std::cref(roomy), 500, 12);
  a.join();
  b.join();
  EXPECT_FALSE(failed.load());
}

TEST(ChordOverlayRaceTest, TightBoundStillRoutesSmallRings) {
  // log2(300) ~ 8.2; a 7-hop bound can fail, a 50-hop bound cannot.
  auto dir = test::MakeDirectory(300, 3);
  dht::ChordOverlay overlay(dir.get(), /*max_hops=*/50);
  util::Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    uint32_t from = static_cast<uint32_t>(rng.NextUint64(dir->size()));
    auto route = overlay.Route(
        from, dir->pos(static_cast<uint32_t>(rng.NextUint64(dir->size()))));
    ASSERT_TRUE(route.ok());
    EXPECT_LE(route->hops, 50);
  }
}

// ---------------------------------------------------------------------
// Incremental maintenance == from-scratch rebuild.

TEST(DirectoryChurnEquivalenceTest, RandomChurnMatchesRebuild) {
  const size_t kInitial = 400;
  std::vector<dht::NodeRecord> records = MakeRecords(kInitial + 100, 21);

  // Incremental directory starts with the initial population; the last
  // 100 records are fed through AddNode mid-sequence.
  std::vector<dht::NodeRecord> initial(records.begin(),
                                       records.begin() + kInitial);
  dht::Directory incremental(initial);

  std::vector<dht::NodeRecord> mirror = initial;  // rebuild input
  auto mirror_of = [&mirror](const dht::NodeId& id) -> dht::NodeRecord& {
    for (auto& r : mirror) {
      if (r.id == id) return r;
    }
    ADD_FAILURE() << "mirror lookup failed";
    return mirror.front();
  };

  util::Rng rng(31);
  size_t next_new = kInitial;
  for (int step = 0; step < 600; ++step) {
    const double p = rng.NextDouble();
    if (p < 0.25 && next_new < records.size()) {
      // Genuine insertion.
      incremental.AddNode(records[next_new]);
      mirror.push_back(records[next_new]);
      ++next_new;
    } else if (p < 0.50) {
      // Revive (no-op when already alive).
      uint32_t idx = static_cast<uint32_t>(
          rng.NextUint64(incremental.size()));
      incremental.SetAlive(idx, true);
      mirror_of(incremental.id(idx)).alive = true;
    } else if (p < 0.75) {
      uint32_t idx = static_cast<uint32_t>(
          rng.NextUint64(incremental.size()));
      incremental.RemoveNode(idx);
      mirror_of(incremental.id(idx)).alive = false;
    } else {
      uint32_t idx = static_cast<uint32_t>(
          rng.NextUint64(incremental.size()));
      incremental.MarkCrashed(idx);
      mirror_of(incremental.id(idx)).alive = false;
      EXPECT_TRUE(incremental.crashed(idx));
    }
  }

  dht::Directory rebuilt(mirror);
  ASSERT_EQ(incremental.size(), rebuilt.size());
  ASSERT_EQ(incremental.alive_count(), rebuilt.alive_count());

  // Handles differ between the two directories (rebuild re-sorts), so
  // compare by node id everywhere.
  auto id_of = [](const dht::Directory& d, std::optional<uint32_t> idx) {
    return idx.has_value() ? d.id(*idx) : dht::NodeId();
  };
  util::Rng probe_rng(41);
  for (int probe = 0; probe < 300; ++probe) {
    dht::RingPos pos =
        (static_cast<dht::RingPos>(probe_rng.NextUint64()) << 64) |
        probe_rng.NextUint64();
    EXPECT_EQ(id_of(incremental, incremental.SuccessorIndex(pos)),
              id_of(rebuilt, rebuilt.SuccessorIndex(pos)));
    EXPECT_EQ(id_of(incremental, incremental.PredecessorIndex(pos)),
              id_of(rebuilt, rebuilt.PredecessorIndex(pos)));
    EXPECT_EQ(id_of(incremental, incremental.NearestIndex(pos)),
              id_of(rebuilt, rebuilt.NearestIndex(pos)));

    dht::Region region = dht::Region::Centered(pos, 0.04);
    EXPECT_EQ(incremental.CountInRegion(region),
              rebuilt.CountInRegion(region));
    std::vector<uint32_t> a = incremental.NodesInRegion(region);
    std::vector<uint32_t> b = rebuilt.NodesInRegion(region);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(incremental.id(a[i]), rebuilt.id(b[i]));
    }
  }
  // Ring enumeration via NthAlive agrees end-to-end.
  for (size_t k = 0; k < incremental.alive_count(); ++k) {
    EXPECT_EQ(id_of(incremental, incremental.NthAlive(k)),
              id_of(rebuilt, rebuilt.NthAlive(k)));
  }
  EXPECT_FALSE(incremental.NthAlive(incremental.alive_count()).has_value());
}

TEST(DirectoryChurnEquivalenceTest, LargePopulationCountsStayExact) {
  // N large enough that narrow (16-bit, or int-truncated) arithmetic in
  // rank/count bookkeeping would corrupt results.
  const size_t kN = 70000;
  auto dir = test::MakeDirectory(kN, 51);
  EXPECT_EQ(dir->alive_count(), kN);

  util::Rng rng(52);
  size_t killed = 0;
  for (size_t i = 0; i < kN / 2; ++i) {
    uint32_t idx = static_cast<uint32_t>(rng.NextUint64(kN));
    if (dir->alive(idx)) {
      dir->RemoveNode(idx);
      ++killed;
    }
  }
  EXPECT_EQ(dir->alive_count(), kN - killed);

  // Full-ring region == alive population, and the two half-rings
  // partition it (catches prefix-count truncation).
  dht::Region full = dht::Region::Centered(0, 1.0);
  EXPECT_EQ(dir->CountInRegion(full), kN - killed);
  const dht::RingPos half = static_cast<dht::RingPos>(1) << 127;
  size_t lo = dir->CountAliveInRange(0, half);
  size_t hi = dir->CountAliveInRange(half, 0);
  EXPECT_EQ(lo + hi, kN - killed);
}

// ---------------------------------------------------------------------
// CAN incremental join/leave.

void ExpectValidPartition(const dht::CanOverlay& can,
                          const std::set<uint32_t>& members) {
  ASSERT_EQ(can.zone_count(), members.size());
  double area = 0;
  std::set<uint32_t> owners;
  for (uint32_t idx : members) {
    ASSERT_TRUE(can.HasZone(idx));
    const dht::CanOverlay::Zone& z = can.ZoneOfNode(idx);
    EXPECT_EQ(z.owner, idx);
    area += z.width() * z.height();
    owners.insert(z.owner);
    // The owner's own point lies in (or routes to) a zone; spot-check
    // that lookup by the zone's center returns this owner.
    EXPECT_EQ(can.OwnerOf((z.x0 + z.x1) / 2, (z.y0 + z.y1) / 2), idx);
  }
  EXPECT_EQ(owners, members);
  EXPECT_NEAR(area, 1.0, 1e-9);  // zones tile the torus
}

TEST(CanChurnTest, JoinLeaveSequenceMatchesRebuild) {
  const size_t kN = 300;
  auto dir = test::MakeDirectory(kN, 61);
  dht::CanOverlay can(dir.get());

  std::set<uint32_t> members;
  for (uint32_t i = 0; i < kN; ++i) members.insert(i);
  ExpectValidPartition(can, members);

  util::Rng rng(62);
  for (int step = 0; step < 500; ++step) {
    if (rng.NextDouble() < 0.5 && members.size() > 1) {
      uint32_t idx = *dir->NthAlive(rng.NextUint64(dir->alive_count()));
      can.RemoveNode(idx);
      dir->RemoveNode(idx);
      members.erase(idx);
    } else {
      // Re-join a departed node (if any).
      std::vector<uint32_t> dead;
      for (uint32_t i = 0; i < kN; ++i) {
        if (!dir->alive(i)) dead.push_back(i);
      }
      if (dead.empty()) continue;
      uint32_t idx = dead[rng.NextUint64(dead.size())];
      dir->SetAlive(idx, true);
      can.AddNode(idx);
      members.insert(idx);
    }
  }
  ExpectValidPartition(can, members);

  // From-scratch rebuild over the same survivor set: identical owner
  // set and an equally valid partition (zone shapes are path-dependent,
  // ownership is not).
  dht::CanOverlay rebuilt(dir.get());
  ExpectValidPartition(rebuilt, members);

  // Routing works on both partitions between random member pairs.
  util::Rng route_rng(63);
  for (int i = 0; i < 50; ++i) {
    uint32_t from = *dir->NthAlive(route_rng.NextUint64(dir->alive_count()));
    dht::NodeId key =
        dir->id(*dir->NthAlive(route_rng.NextUint64(dir->alive_count())));
    ASSERT_TRUE(can.Route(from, key).ok());
    ASSERT_TRUE(rebuilt.Route(from, key).ok());
  }
}

TEST(CanChurnTest, RemoveDownToOneAndRegrow) {
  auto dir = test::MakeDirectory(16, 71);
  dht::CanOverlay can(dir.get());
  for (uint32_t i = 1; i < 16; ++i) {
    can.RemoveNode(i);
    dir->RemoveNode(i);
  }
  ASSERT_EQ(can.zone_count(), 1u);
  const dht::CanOverlay::Zone& z = can.ZoneOfNode(0);
  EXPECT_DOUBLE_EQ(z.width() * z.height(), 1.0);  // whole torus again

  for (uint32_t i = 1; i < 16; ++i) {
    dir->SetAlive(i, true);
    can.AddNode(i);
  }
  std::set<uint32_t> members;
  for (uint32_t i = 0; i < 16; ++i) members.insert(i);
  ExpectValidPartition(can, members);
}

// ---------------------------------------------------------------------
// Colluder redraw parity: the per-epoch coalitions the harnesses draw
// are the sets the historical wipe-all-flags-then-sample path marked.

TEST(ColluderReassignTest, IncrementalMatchesClearAllPath) {
  auto network = test::MakeNetwork(2000, 0.03);
  ASSERT_NE(network, nullptr);
  const dht::Directory& dir = network->directory();
  const uint64_t c = network->params().c();

  for (uint64_t round = 0; round < 5; ++round) {
    // Historical path, simulated on the side: wipe everything, then
    // sample the same count from the same stream.
    util::Rng historical(900 + round);
    std::vector<bool> expected(dir.size(), false);
    for (size_t idx :
         historical.SampleIndices(network->params().n, c)) {
      expected[idx] = true;
    }

    util::Rng redraw(900 + round);
    const strategies::Coalition coalition =
        strategies::SampleColluders(dir, c, redraw);

    size_t members = 0;
    for (uint32_t i = 0; i < dir.size(); ++i) {
      EXPECT_EQ(coalition.contains(i), expected[i]) << "node " << i;
      members += coalition.contains(i) ? 1 : 0;
    }
    EXPECT_EQ(members, c);

    // indices() is the ascending list of members.
    const std::vector<uint32_t>& listed = coalition.indices();
    EXPECT_EQ(listed.size(), c);
    EXPECT_TRUE(std::is_sorted(listed.begin(), listed.end()));
    for (uint32_t idx : listed) EXPECT_TRUE(expected[idx]);
  }
}

// ---------------------------------------------------------------------
// ChurnDriver: determinism, CA issuance at join, pool provisioning.

sim::Parameters PoolParams(int threads) {
  sim::Parameters params;
  params.n = 600;
  params.churn_pool = 60;
  params.colluding_fraction = 0.01;
  params.cache_size = 64;
  params.seed = 77;
  params.threads = threads;
  return params;
}

TEST(ChurnDriverTest, PoolNodesProvisionedDeadWithoutCerts) {
  auto network = sim::Network::Build(PoolParams(1));
  ASSERT_TRUE(network.ok());
  const dht::Directory& dir = network.value()->directory();
  ASSERT_EQ(dir.size(), 660u);
  EXPECT_EQ(dir.alive_count(), 600u);
  // Pool handles are scattered across [0, size) — the directory sorts by
  // ring position — so identify them by state, not handle range: exactly
  // the 60 dead nodes lack certificates, and every alive node has one.
  size_t dead = 0;
  for (uint32_t i = 0; i < dir.size(); ++i) {
    EXPECT_GT(dir.serial(i), 0u);  // serial reserved at provisioning
    if (dir.alive(i)) {
      EXPECT_TRUE(dir.has_cert(i));
    } else {
      ++dead;
      EXPECT_FALSE(dir.has_cert(i));
      EXPECT_TRUE(dir.cert(i).ca_signature.empty());
    }
  }
  EXPECT_EQ(dead, 60u);
  // Dead pool nodes never collude.
  for (uint32_t idx : network.value()->coalition().indices()) {
    EXPECT_TRUE(dir.alive(idx));
  }
}

TEST(ChurnDriverTest, JoinsIssueVerifiableCertificates) {
  auto network = sim::Network::Build(PoolParams(1));
  ASSERT_TRUE(network.ok());

  // Snapshot the pool before churn: the nodes without certificates.
  std::set<uint32_t> pool;
  {
    const dht::Directory& dir = network.value()->directory();
    for (uint32_t i = 0; i < dir.size(); ++i) {
      if (!dir.has_cert(i)) pool.insert(i);
    }
  }
  ASSERT_EQ(pool.size(), 60u);

  sim::ChurnDriver::Options options;
  options.join_rate_per_s = 3.0;
  options.leave_rate_per_s = 1.0;
  options.crash_rate_per_s = 1.0;
  sim::ChurnDriver driver(network.value().get(), nullptr, options);
  ASSERT_EQ(driver.standby_count(), 60u);

  driver.Run(300);
  const sim::ChurnDriver::Stats& stats = driver.stats();
  EXPECT_EQ(stats.events, 300u);
  EXPECT_GT(stats.joins, 0u);
  EXPECT_GT(stats.leaves, 0u);
  EXPECT_GT(stats.crashes, 0u);
  EXPECT_GT(stats.certs_issued, 0u);
  EXPECT_EQ(stats.final_alive, network.value()->directory().alive_count());

  // Every pool node that holds a certificate now was certified mid-run,
  // and the certificate verifies against the CA.
  const dht::Directory& dir = network.value()->directory();
  size_t certified_pool = 0;
  for (uint32_t i : pool) {
    if (!dir.has_cert(i)) continue;
    ++certified_pool;
    EXPECT_TRUE(network.value()->ca().Check(dir.cert(i)));
  }
  EXPECT_EQ(certified_pool, stats.certs_issued);
}

TEST(ChurnDriverTest, DigestIsIdenticalForAnyBuildThreadCount) {
  sim::ChurnDriver::Options options;
  options.join_rate_per_s = 2.0;
  options.leave_rate_per_s = 1.0;
  options.crash_rate_per_s = 1.0;

  std::optional<uint64_t> reference;
  std::optional<uint64_t> reference_alive;
  for (int threads : {1, 2, 4}) {
    auto network = sim::Network::Build(PoolParams(threads));
    ASSERT_TRUE(network.ok());
    sim::ChurnDriver driver(network.value().get(), nullptr, options);
    driver.Run(400);
    // The driver's own ideal link: every attestation request succeeds
    // on its first attempt, rejoined crash victims included.
    EXPECT_GT(driver.transport().stats().messages_sent, 0u);
    EXPECT_EQ(driver.transport().stats().timeouts, 0u);
    EXPECT_EQ(driver.transport().stats().retries, 0u);
    if (!reference.has_value()) {
      reference = driver.stats().digest;
      reference_alive = driver.stats().final_alive;
    } else {
      EXPECT_EQ(driver.stats().digest, *reference)
          << "threads=" << threads;
      EXPECT_EQ(driver.stats().final_alive, *reference_alive);
    }
  }
  // The run's value is pinned too, so a change to the join path (or to
  // anything else the digest folds) cannot pass by moving every thread
  // count in step.
  EXPECT_EQ(*reference, 0x7076378f721cf5caULL) << std::hex << *reference;
}

TEST(ChurnDriverTest, ConcurrentDriversDoNotInterfere) {
  // Two independent worlds churned from two threads: any hidden shared
  // static (the chord hop bound was one) breaks the digest match with
  // the serial reference. Runs under TSan in CI.
  sim::ChurnDriver::Options options;
  options.join_rate_per_s = 2.0;
  options.leave_rate_per_s = 1.0;
  options.crash_rate_per_s = 1.0;

  auto run = [&options](uint64_t seed) {
    sim::Parameters params = PoolParams(1);
    params.seed = seed;
    auto network = sim::Network::Build(params);
    if (!network.ok()) return uint64_t{0};
    sim::ChurnDriver driver(network.value().get(), nullptr, options);
    driver.Run(250);
    return driver.stats().digest;
  };

  uint64_t serial_a = run(101);
  uint64_t serial_b = run(202);

  uint64_t threaded_a = 0, threaded_b = 0;
  std::thread ta([&] { threaded_a = run(101); });
  std::thread tb([&] { threaded_b = run(202); });
  ta.join();
  tb.join();
  EXPECT_EQ(threaded_a, serial_a);
  EXPECT_EQ(threaded_b, serial_b);
  EXPECT_NE(serial_a, serial_b);
}

// Crashes only touch the Directory, so a crashed node that rejoins from
// the standby queue answers attestation requests like any other node.
// A caller-supplied ideal-link SimNetwork runs the same events as the
// driver's own one (the digest pinned above), and its per-node metrics
// show which nodes signed.
TEST(ChurnDriverTest, RejoinedCrashVictimsServeAsAttestors) {
  auto network = sim::Network::Build(PoolParams(1));
  ASSERT_TRUE(network.ok());
  const dht::Directory& dir = network.value()->directory();
  const uint32_t size = static_cast<uint32_t>(dir.size());
  net::SimNetwork simnet = test::MakeIdealNet(size);
  obs::MetricsRegistry metrics;
  metrics.EnablePerNode(size);
  simnet.set_metrics(&metrics);

  sim::ChurnDriver::Options options;
  options.join_rate_per_s = 2.0;
  options.leave_rate_per_s = 1.0;
  options.crash_rate_per_s = 1.0;
  sim::ChurnDriver driver(network.value().get(), &simnet, options);

  // Per node: crashed at some point, and its crypto count when it first
  // came back.
  std::vector<bool> crashed(size, false);
  std::vector<std::optional<uint64_t>> work_at_rejoin(size);
  for (int event = 0; event < 400; ++event) {
    driver.Run(1);
    for (uint32_t i = 0; i < size; ++i) {
      if (dir.crashed(i)) crashed[i] = true;
      if (crashed[i] && dir.alive(i) && !work_at_rejoin[i].has_value()) {
        work_at_rejoin[i] = metrics.node_counter(i, obs::NodeCounter::kCrypto);
      }
    }
  }
  size_t served = 0;
  for (uint32_t i = 0; i < size; ++i) {
    if (work_at_rejoin[i].has_value() &&
        metrics.node_counter(i, obs::NodeCounter::kCrypto) >
            *work_at_rejoin[i]) {
      ++served;
    }
  }
  EXPECT_GT(served, 0u);
  EXPECT_EQ(simnet.stats().timeouts, 0u);
  EXPECT_EQ(simnet.stats().retries, 0u);
  EXPECT_EQ(driver.stats().joins_rejected, 0u);
  EXPECT_EQ(driver.stats().digest, 0x7076378f721cf5caULL)
      << std::hex << driver.stats().digest;
}

TEST(ChurnDriverTest, VirtualClockAdvancesOnSimNetwork) {
  auto network = sim::Network::Build(PoolParams(1));
  ASSERT_TRUE(network.ok());
  net::LinkModel link;
  link.jitter_mean_us = 0;
  link.drop_probability = 0.0;
  net::SimNetwork simnet(660, link, net::RetryPolicy{}, /*seed=*/5);

  sim::ChurnDriver::Options options;
  options.join_rate_per_s = 1.0;
  options.leave_rate_per_s = 1.0;
  options.crash_rate_per_s = 1.0;
  sim::ChurnDriver driver(network.value().get(), &simnet, options);
  driver.Run(50);
  EXPECT_EQ(&driver.transport(), &simnet);
  EXPECT_GT(simnet.now_us(), 0u);
}

}  // namespace
}  // namespace sep2p
