// select_100k: the paper's reference network (N = 10^5, C = 1%, A = 32,
// alpha = 1e-6, cache 512, SimProvider, Chord) as a closed loop with one
// client. Each op: a selection from a random trigger over a lossless
// SimNetwork, VerifyActorList on its VAL, and a VAL wire round trip.
// The read path: DHT routing, directory region queries and SHA-256/HMAC
// do most of the work; Ed25519, the engine, apps and transport do none.

#include "core/wire.h"
#include "net/sim_network.h"
#include "node/app_runtime.h"
#include "sim/trial_runner.h"
#include "workloads.h"

namespace perfbench {

using namespace sep2p;

namespace {

constexpr uint64_t kTriggerSalt = 0x74726967;  // "trig"
constexpr uint64_t kOpSalt = 0x6f70;           // "op"

struct World {
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<net::SimNetwork> simnet;
  std::unique_ptr<node::AppRuntime> runtime;
  core::ProtocolContext ctx;
};

bool Build(uint64_t seed, World* w, WorkloadOutput* out) {
  *w = World();
  sim::Parameters params;  // the reference network's defaults
  params.seed = seed;
  params.threads = 1;
  w->net = BuildWorld(params, out);
  if (w->net == nullptr) return false;
  w->simnet = std::make_unique<net::SimNetwork>(
      static_cast<uint32_t>(w->net->directory().size()), IdealLink(),
      net::RetryPolicy{}, seed);
  w->runtime = std::make_unique<node::AppRuntime>(w->simnet.get());
  w->ctx = w->net->context();
  return true;
}

// Running totals of a sequence of ops.
struct Totals {
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t digest = kFnvBasis;
  uint64_t relocations = 0;
  uint64_t restarts = 0;
  Samples op_ms;
  Samples vlat_ms;
  Samples select_us;  // RunSelection span durations (traced ops)
};

// Runs op `i`: trigger and protocol randomness are pure functions of
// (seed, i), so two fresh worlds replay identical ops.
void Op(World& w, uint64_t seed, uint64_t i, Tracer* tracer,
        Captured* captured, Totals* t, WorkloadOutput* out) {
  const int64_t t0 = NowNs();
  const uint32_t n = static_cast<uint32_t>(w.net->directory().size());
  const uint32_t trigger = static_cast<uint32_t>(
      util::Rng(sim::StreamSeed(seed ^ kTriggerSalt, i)).NextUint64(n));
  util::Rng rng(sim::StreamSeed(seed ^ kOpSalt, i));
  int restarts = 0;
  const uint64_t v0 = w.simnet->now_us();
  Result<core::SelectionProtocol::Outcome> outcome =
      Status::Unavailable("not run");
  {
    Tracer::Scope s(tracer, "core.select");
    outcome = w.runtime->RunSelection(w.ctx, trigger, rng, 8, &restarts);
  }
  if (tracer != nullptr) {
    const Span& span = tracer->spans()[tracer->spans().size() - 1];
    t->select_us.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
  const uint64_t v1 = w.simnet->now_us();
  if (!outcome.ok()) {
    ++t->failed;
    out->errors.push_back("selection failed: " + outcome.status().ToString());
    return;
  }
  bool verified = false;
  {
    Tracer::Scope s(tracer, "core.verify_val");
    verified = core::VerifyActorList(w.ctx, outcome->val).ok();
  }
  std::vector<uint8_t> bytes;
  {
    Tracer::Scope s(tracer, "codec.val_encode");
    bytes = core::wire::EncodeActorList(outcome->val);
  }
  Result<core::VerifiableActorList> decoded =
      Status::Unavailable("not run");
  {
    Tracer::Scope s(tracer, "codec.val_decode");
    decoded = core::wire::DecodeActorList(bytes);
  }
  const bool round_trip =
      decoded.ok() && core::wire::EncodeActorList(*decoded) == bytes;
  out->Check(verified, "VAL failed to verify");
  out->Check(round_trip, "VAL wire round trip changed the bytes");
  if (!verified || !round_trip) {
    ++t->failed;
    return;
  }
  ++t->ok;
  t->relocations += static_cast<uint64_t>(outcome->relocations);
  t->restarts += static_cast<uint64_t>(restarts);
  for (const crypto::PublicKey& key : outcome->val.actor_keys) {
    t->digest = Fold(t->digest, key[0] | (uint64_t{key[1]} << 8) |
                                    (uint64_t{key[2]} << 16));
  }
  t->digest = Fold(t->digest, outcome->setter_index);
  t->digest = Fold(t->digest, static_cast<uint64_t>(outcome->relocations));
  t->vlat_ms.Add(static_cast<double>(v1 - v0) / 1e3);
  if (captured != nullptr) captured->Add(w.ctx, trigger, *outcome, bytes);
  t->op_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
}

void ReportVirtual(const Totals& t, WorkloadOutput* out) {
  out->Detail("vlat_p50_ms", t.vlat_ms.Median(), "ms", t.vlat_ms.size());
  const Tail tail = t.vlat_ms.TailAt(99);
  out->Detail("vlat_p99_ms", tail.value, "ms", t.vlat_ms.size());
  out->Detail("failed_frac",
              static_cast<double>(t.failed) /
                  static_cast<double>(std::max<uint64_t>(t.ok + t.failed, 1)),
              "frac");
}

}  // namespace

WorkloadOutput RunSelect(const RunConfig& config) {
  WorkloadOutput out;
  World w;
  const uint64_t seed = config.seed;
  const crypto::CryptoMeter* meter = nullptr;

  if (!config.trace) {
    bool ok = true;
    EndToEnd e2e;
    e2e.setup_s = MedianSetup(kSetups, [&] { return Build(seed, &w, &out); }, &ok);
    if (!ok) return out;
    meter = &w.net->provider().meter();
    Totals warm;
    constexpr uint64_t kWarmup = 50;
    for (uint64_t i = 0; i < kWarmup; ++i) {
      Op(w, seed, i, nullptr, nullptr, &warm, &out);
    }
    Totals t;
    const uint64_t asym0 = meter->asym_ops();
    e2e.loop.Start();
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(config.seconds * 1e9);
    for (uint64_t i = kWarmup; NowNs() < deadline; ++i) {
      Op(w, seed, i, nullptr, nullptr, &t, &out);
      e2e.RssCheckpoint(t.ok, 2000);
    }
    e2e.loop.Stop();
    e2e.ok_ops = t.ok;
    e2e.op_ms = t.op_ms;
    e2e.asym_ops = static_cast<double>(meter->asym_ops() - asym0);
    out.attempted = t.ok + t.failed + warm.ok + warm.failed;
    out.failed = t.failed + warm.failed;
    ReportEndToEnd(e2e, &out);
    ReportVirtual(t, &out);
    return out;
  }

  // Traced run. Plain segment first: it fixes the op count.
  if (!Build(seed, &w, &out)) return out;
  Totals plain;
  const int64_t p0 = NowNs();
  const int64_t deadline = p0 + static_cast<int64_t>(config.seconds / 2 * 1e9);
  uint64_t ops = 0;
  for (; NowNs() < deadline; ++ops) {
    Op(w, seed, ops, nullptr, nullptr, &plain, &out);
  }
  LayerCounts c;
  c.ops = ops;
  c.plain_s = static_cast<double>(NowNs() - p0) / 1e9;

  const int64_t b0 = NowNs();
  if (!Build(seed, &w, &out)) return out;
  const double build_s = static_cast<double>(NowNs() - b0) / 1e9;
  meter = &w.net->provider().meter();
  const uint64_t verifies0 = meter->verifies();
  const uint64_t signs0 = meter->signs();
  Tracer tracer;
  Captured captured;
  Totals traced;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  const int root = tracer.Open("run");
  for (uint64_t i = 0; i < ops; ++i) {
    tracer.SetOp(i + 1);
    Tracer::Scope op(&tracer, "op");
    Op(w, seed, i, &tracer, &captured, &traced, &out);
  }
  tracer.Close(root);
  c.traced_s = static_cast<double>(NowNs() - t0) / 1e9;
  c.cpu_s = ProcessCpuSeconds() - cpu0;
  out.Digests("selection", plain.digest, traced.digest);

  c.verifies = meter->verifies() - verifies0;
  c.signs = meter->signs() - signs0;
  c.verify_requests = c.verifies;  // nothing here saves a verify
  c.relocations = traced.relocations;
  c.restarts = traced.restarts;
  // One route to the setter per attempt and relocation.
  c.routes = traced.ok + traced.relocations + traced.restarts;
  const net::Transport::Stats& st = w.simnet->stats();
  c.msgs = st.messages_sent;
  c.bytes = st.bytes_sent;
  c.retries = st.retries;
  c.timeouts = st.timeouts;

  ProbeTimes probes = RunProbes(*w.net, captured, w.simnet.get(),
                                {w.simnet.get()}, 0, 1, &out);
  probes.select_us = traced.select_us;
  out.attempted = plain.ok + plain.failed + traced.ok + traced.failed;
  out.failed = plain.failed + traced.failed;
  ReportPerLayer(tracer, probes, c, build_s, &out);
  ReportVirtual(traced, &out);
  WriteSpans(tracer, config, &out);
  return out;
}

}  // namespace perfbench
