// The benchmark's workloads and the replay probes they share.
//
// Every workload follows one shape (README.md has the table):
//  * plain run (--trace 0): set the world up several times (setup_s is
//    the median), warm up, then run ops for --seconds and report the
//    end-to-end metrics;
//  * traced run (--trace 1): run a plain segment for half of --seconds
//    on a fresh world, then the same ops with spans on another fresh
//    world (their digests must match), then replay the layers' public
//    calls on inputs captured from the traced segment and report the
//    per-layer metrics.
// Workloads reach the program only through its public API.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/selection.h"
#include "crypto/signature_provider.h"
#include "dht/region.h"
#include "harness.h"
#include "net/sim_network.h"
#include "net/transport.h"
#include "sim/network.h"

namespace perfbench {

namespace core = sep2p::core;
namespace crypto = sep2p::crypto;
namespace dht = sep2p::dht;
namespace net = sep2p::net;
namespace sim = sep2p::sim;

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span file of the traced run ("" = none)
};

struct WorkloadOutput {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end or per-layer, per RunConfig
  // Workload-specific numbers printed above the result line: metrics
  // only this workload has (the result line carries the same names on
  // every workload), digests, and sample counts.
  std::vector<Metric> detail;
  // Free-form lines printed with the detail (digests, sizes).
  std::vector<std::string> facts;
  // Correctness failures; any entry makes the run incorrect.
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0, const std::string& note = "") {
    metrics.push_back(Metric{name, value, unit, samples, note});
  }
  void Detail(const std::string& name, double value, const std::string& unit,
              size_t samples = 0, const std::string& note = "") {
    detail.push_back(Metric{name, value, unit, samples, note});
  }
  // Records a determinism digest pair and checks that they agree.
  void Digests(const std::string& what, uint64_t plain, uint64_t traced);
};

WorkloadOutput RunSelect(const RunConfig& config);
WorkloadOutput RunMixed(const RunConfig& config);
WorkloadOutput RunChurn(const RunConfig& config);
WorkloadOutput RunLive(const RunConfig& config);

// ---------------------------------------------------------------------
// Shared pieces.

// Set-ups per plain run; setup_s is their median.
inline constexpr int kSetups = 5;

// Repeats `build` `times` times and returns the median wall seconds;
// `build` returns false on failure (then the median covers the builds
// that ran and *ok is cleared).
template <typename Fn>
double MedianSetup(int times, Fn&& build, bool* ok) {
  Samples s;
  for (int i = 0; i < times; ++i) {
    const int64_t t0 = NowNs();
    const bool built = build();
    s.Add(static_cast<double>(NowNs() - t0) / 1e9);
    if (!built) {
      *ok = false;
      break;
    }
  }
  return s.Median();
}

// The end-to-end metrics every workload reports (--trace 0).
struct EndToEnd {
  double setup_s = 0;
  LoopClock loop;         // around the measured loop
  uint64_t ok_ops = 0;    // ops that completed and verified
  Samples op_ms;          // wall latency per op
  double asym_ops = 0;    // CryptoMeter signs + verifies over the loop
  // Peak RSS once set-up and a fixed amount of work (set per workload)
  // are done, so that it does not grow with the run's throughput; state
  // that grows per op shows in the rss_end_mb detail line.
  double peak_rss_mb = 0;
  // Records the peak RSS when `done` reaches `at` (call once per op).
  void RssCheckpoint(uint64_t done, uint64_t at) {
    if (done == at) peak_rss_mb = PeakRssMb();
  }
};
void ReportEndToEnd(const EndToEnd& e2e, WorkloadOutput* out);

// Inputs captured from a workload's own ops, replayed by the probes.
struct Captured {
  std::vector<core::VerifiableActorList> vals;
  std::vector<std::vector<uint8_t>> val_bytes;  // wire encodings
  std::vector<uint32_t> signers;                // SL node indices
  std::vector<std::pair<uint32_t, dht::RingPos>> routes;  // trigger -> p
  std::vector<dht::Region> regions;             // R2 and R3 of each VAL

  static constexpr size_t kMax = 256;
  // Records one selection's artifacts (up to kMax selections).
  void Add(const core::ProtocolContext& ctx, uint32_t trigger,
           const core::SelectionProtocol::Outcome& outcome,
           std::vector<uint8_t> bytes);
};

// Per-call wall times of the layers' public calls, replayed on
// captured inputs (microseconds per call; samples are short batches).
struct ProbeTimes {
  Samples verify_us, sign_us, sha256_us, hmac_us;
  Samples route_us, route_hops, region_us, successor_us, set_alive_us;
  Samples verify_val_us, build_al_us, encode_us, decode_us;
  Samples frame_us, rpc_us, ktable_us;
  // core.select: span durations where the workload's ops are single
  // selections, otherwise ProbeSelections on the workload's triggers.
  Samples select_us;
};

// Replays every probe on `world`; `rpc` carries the echo probe from
// `client` to `server` (an echo handler is registered on every
// transport in `echo_hosts`). Replayed verifications must all succeed;
// failures land in out->errors.
ProbeTimes RunProbes(sim::Network& world, const Captured& in,
                     net::Transport* rpc,
                     const std::vector<net::Transport*>& echo_hosts,
                     uint32_t client, uint32_t server, WorkloadOutput* out);

// Per-layer counters of a traced segment, per op.
struct LayerCounts {
  uint64_t ops = 0;
  uint64_t verifies = 0, signs = 0;  // CryptoMeter deltas
  uint64_t verify_requests = 0;      // protocol verify requests
  uint64_t relocations = 0, restarts = 0;
  // DHT routes of the segment: counted where the ops expose them
  // (`routes`), otherwise derived from routed hops over the replayed
  // hops per route (`route_hops`, from an attached MetricsRegistry).
  uint64_t routes = 0;
  uint64_t route_hops = 0;
  uint64_t msgs = 0, bytes = 0, retries = 0, timeouts = 0;
  double plain_s = 0;   // the same ops untraced
  double traced_s = 0;  // the traced segment's wall seconds
  double cpu_s = 0;     // process CPU seconds over the traced segment
};

// Emits every per-layer metric from the traced segment, the probes and
// the counters; also runs the self-time gate (layer self times plus
// `unattributed` sum to the traced wall time).
void ReportPerLayer(const Tracer& tracer, const ProbeTimes& probes,
                    const LayerCounts& counts, double build_s,
                    WorkloadOutput* out);

// Runs a SimNetwork selection from each trigger on `world` (fresh
// ideal-link transport), checking every VAL; records per-call times as
// core.select samples and captures the artifacts. Used by the
// workloads whose own ops do not expose single selections.
void ProbeSelections(sim::Network& world,
                     const std::vector<uint32_t>& triggers, uint64_t seed,
                     Samples* select_us, Captured* captured,
                     WorkloadOutput* out);

// Writes the traced run's spans if a path was given.
void WriteSpans(const Tracer& tracer, const RunConfig& config,
                WorkloadOutput* out);

// Builds a world or records the failure; nullptr on failure.
std::unique_ptr<sim::Network> BuildWorld(const sim::Parameters& params,
                                         WorkloadOutput* out);

// The SimNetwork link the simulated workloads use: lossless, fixed
// 20 ms one-way latency and 1 ms service time, so virtual latencies
// count critical-path messages the way the paper's latency model does.
net::LinkModel IdealLink();

// FNV-1a fold for digests.
inline uint64_t Fold(uint64_t digest, uint64_t v) {
  digest ^= v;
  return digest * 1099511628211ULL;
}
inline constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
