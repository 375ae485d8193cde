// Million-node scale sweep: build throughput, steady-state churn
// throughput, and peak RSS for the SoA directory + incremental
// maintenance stack (ROADMAP item 1).
//
// For each N the harness builds a network with a 1% pre-provisioned
// churn pool, then runs the continuous Poisson churn driver
// (sim/churn_driver.h) with attested §3.6 joins — every join issues or
// re-uses a CA certificate, runs 2k attestation signatures and 2(2k+1)
// verifications, so the numbers below are the *secure* maintenance
// cost, not bare DHT bookkeeping.
//
// Determinism: the per-row digest folds every churn event plus the
// provisioned directory; it must be bit-identical for any --threads.
// The harness re-runs its smallest point at --threads 1/4/8 and exits
// nonzero on any divergence.
//
// Emits BENCH_scale.json. --quick caps the sweep at N=1e5 (CI smoke);
// the default sweep tops out at N=1e6; --n=X replaces the sweep with a
// single point (e.g. --n=10000000 for the 1e7 stress run).

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/export.h"
#include "sim/churn_driver.h"
#include "sim/network.h"

namespace {

using namespace sep2p;

uint64_t PeakRssKb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);  // KB on Linux
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Folds the provisioned directory and its coalition into a digest: any
// cross-thread-count difference in build output (ids, positions,
// aliveness, colluders) lands here before the churn digest could even
// diverge.
uint64_t DirectoryDigest(const dht::Directory& dir,
                         const strategies::Coalition& coalition) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (uint32_t i = 0; i < dir.size(); ++i) {
    mix(static_cast<uint64_t>(dir.pos(i) >> 64));
    mix(static_cast<uint64_t>(dir.pos(i)));
    mix(dir.serial(i));
    mix((dir.alive(i) ? 1u : 0u) | (coalition.contains(i) ? 2u : 0u));
  }
  return h;
}

struct Row {
  uint64_t n = 0;
  uint64_t pool = 0;
  uint64_t events = 0;
  double build_s = 0;
  double nodes_per_s = 0;
  double churn_s = 0;
  double events_per_s = 0;
  sim::ChurnDriver::Stats churn;
  uint64_t digest = 0;  // directory fold XOR churn fold
  uint64_t peak_rss_kb = 0;
};

Row RunOnce(uint64_t n, int threads, uint64_t events) {
  sim::Parameters params;
  params.n = n;
  params.churn_pool = n / 100;  // 1% standby pool
  params.threads = threads;
  // Paper defaults otherwise: C%=1, alpha=1e-6, cache=512, SimProvider.

  Row row;
  row.n = n;
  row.pool = params.churn_pool;
  row.events = events;

  auto t0 = std::chrono::steady_clock::now();
  auto network = sim::Network::Build(params);
  auto t1 = std::chrono::steady_clock::now();
  if (!network.ok()) {
    std::fprintf(stderr, "network build failed: %s\n",
                 network.status().ToString().c_str());
    std::exit(1);
  }
  row.build_s = Seconds(t0, t1);
  row.nodes_per_s =
      static_cast<double>(n + params.churn_pool) / row.build_s;

  sim::ChurnDriver::Options churn_options;
  churn_options.join_rate_per_s = 2.0;
  churn_options.leave_rate_per_s = 1.0;
  churn_options.crash_rate_per_s = 1.0;
  sim::ChurnDriver driver(network.value().get(), nullptr, churn_options);

  auto t2 = std::chrono::steady_clock::now();
  driver.Run(events);
  auto t3 = std::chrono::steady_clock::now();
  row.churn_s = Seconds(t2, t3);
  row.events_per_s = static_cast<double>(events) / row.churn_s;
  row.churn = driver.stats();
  row.digest =
      DirectoryDigest(network.value()->directory(),
                      network.value()->coalition()) ^
      row.churn.digest;
  row.peak_rss_kb = PeakRssKb();
  return row;
}

std::string RowJson(const Row& row) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"n\": %" PRIu64 ", \"churn_pool\": %" PRIu64
      ", \"events\": %" PRIu64
      ", \"build_s\": %.3f, \"build_nodes_per_s\": %.0f"
      ", \"churn_s\": %.3f, \"churn_events_per_s\": %.0f"
      ", \"joins\": %" PRIu64 ", \"joins_rejected\": %" PRIu64
      ", \"leaves\": %" PRIu64 ", \"crashes\": %" PRIu64
      ", \"certs_issued\": %" PRIu64 ", \"ktable_refreshes\": %" PRIu64
      ", \"final_alive\": %" PRIu64 ", \"peak_rss_kb\": %" PRIu64
      ", \"digest\": \"%016" PRIx64 "\"}",
      row.n, row.pool, row.events, row.build_s, row.nodes_per_s,
      row.churn_s, row.events_per_s, row.churn.joins,
      row.churn.joins_rejected, row.churn.leaves, row.churn.crashes,
      row.churn.certs_issued, row.churn.ktable_refreshes,
      row.churn.final_alive, row.peak_rss_kb, row.digest);
  return buf;
}

uint64_t NArg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--n=", 4) == 0) {
      return std::strtoull(argv[i] + 4, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  const int threads = bench::ThreadsArg(argc, argv);
  const uint64_t n_override = NArg(argc, argv);

  std::vector<uint64_t> ns;
  if (n_override != 0) {
    ns = {n_override};
  } else if (quick) {
    ns = {100000};
  } else {
    ns = {100000, 1000000};
  }

  std::printf(
      "==============================================================\n"
      "scale_churn: million-node build + continuous churn (ROADMAP 1)\n"
      "attested joins per event: CA issuance + 2k sigs + 2(2k+1) vers\n"
      "==============================================================\n\n");
  std::printf("%10s %10s %9s %12s %9s %11s %11s %9s\n", "N", "build_s",
              "Mnode/s", "churn_ev/s", "joins", "leaves+cr", "rss_MB",
              "digest16");

  std::vector<Row> rows;
  for (uint64_t n : ns) {
    // Enough events to reach a steady churn mix, scaled down at 1e6+ so
    // the default run stays minutes, not hours.
    const uint64_t events = quick ? 4000 : (n >= 1000000 ? 8000 : 20000);
    Row row = RunOnce(n, threads, events);
    rows.push_back(row);
    std::printf("%10" PRIu64 " %10.2f %9.2f %12.0f %9" PRIu64
                " %11" PRIu64 " %11.1f %08" PRIx64 "\n",
                row.n, row.build_s, row.nodes_per_s / 1e6,
                row.events_per_s, row.churn.joins,
                row.churn.leaves + row.churn.crashes,
                static_cast<double>(row.peak_rss_kb) / 1024.0,
                row.digest >> 32);
  }

  // Thread-invariance audit at the smallest point: the digest must not
  // depend on how many workers built the network.
  std::printf("\nthread invariance (N=%" PRIu64 "):\n", ns.front());
  bool digests_agree = true;
  std::vector<Row> audit;
  for (int t : {1, 4, 8}) {
    Row row = RunOnce(ns.front(), t, /*events=*/quick ? 1000 : 4000);
    audit.push_back(row);
    std::printf("  threads=%d digest=%016" PRIx64 "\n", t, row.digest);
    if (row.digest != audit.front().digest) digests_agree = false;
  }
  if (!digests_agree) {
    std::fprintf(stderr, "DIGEST MISMATCH across thread counts\n");
  }

  std::string json = "{\n  \"bench\": \"scale_churn\",\n" +
                     bench::ProvenanceJson(argc, argv) + "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json += RowJson(rows[i]);
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ],\n  \"thread_invariance\": {\n    \"n\": " +
          std::to_string(ns.front()) + ",\n    \"digests\": [";
  for (size_t i = 0; i < audit.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"",
                  audit[i].digest);
    json += buf;
    if (i + 1 < audit.size()) json += ", ";
  }
  json += std::string("],\n    \"agree\": ") +
          (audit.front().digest == audit.back().digest &&
                   audit.front().digest == audit[1].digest
               ? "true"
               : "false") +
          "\n  }\n}\n";

  Status st = obs::WriteFile("BENCH_scale.json", json);
  if (!st.ok()) {
    std::fprintf(stderr, "BENCH_scale.json write failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_scale.json\n");
  return digests_agree ? 0 : 2;
}
