// Shared pieces of the workloads: setup helpers, the end-to-end and
// per-layer reports, and the replay probes.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/wire.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "net/frame.h"
#include "net/sim_network.h"
#include "node/app_runtime.h"
#include "sim/trial_runner.h"
#include "workloads.h"

namespace perfbench {

using namespace sep2p;

std::unique_ptr<sim::Network> BuildWorld(const sim::Parameters& params,
                                         WorkloadOutput* out) {
  auto built = sim::Network::Build(params);
  if (!built.ok()) {
    out->errors.push_back("world build failed: " +
                          built.status().ToString());
    return nullptr;
  }
  return std::move(built.value());
}

void WorkloadOutput::Digests(const std::string& what, uint64_t plain,
                             uint64_t traced) {
  char line[160];
  std::snprintf(line, sizeof(line), "%s digest: plain %016llx traced %016llx",
                what.c_str(), static_cast<unsigned long long>(plain),
                static_cast<unsigned long long>(traced));
  facts.push_back(line);
  Check(plain == traced, what + " digest differs between the plain and "
                                "traced runs");
}

net::LinkModel IdealLink() {
  net::LinkModel link;
  link.base_latency_us = 20'000;
  link.jitter_mean_us = 0;
  link.drop_probability = 0.0;
  link.process_us = 1'000;
  return link;
}

void ReportEndToEnd(const EndToEnd& e2e, WorkloadOutput* out) {
  const double ops = static_cast<double>(std::max<uint64_t>(e2e.ok_ops, 1));
  const Tail tail = e2e.op_ms.TailAt(99);
  char note[64];
  std::snprintf(note, sizeof(note), "p%g, %zu samples beyond", tail.percentile,
                tail.beyond);
  out->Add("setup_s", e2e.setup_s, "s", kSetups);
  out->Add("ops_per_s", static_cast<double>(e2e.ok_ops) / e2e.loop.wall_s(),
           "1/s", e2e.ok_ops);
  out->Add("op_p50_ms", e2e.op_ms.Median(), "ms", e2e.op_ms.size());
  out->Add("op_p99_ms", tail.value, "ms", e2e.op_ms.size(), note);
  out->Add("asym_ops_per_op", e2e.asym_ops / ops, "count", e2e.ok_ops);
  out->Add("peak_rss_mb",
           e2e.peak_rss_mb > 0 ? e2e.peak_rss_mb : PeakRssMb(), "MiB");
  out->Detail("rss_end_mb", PeakRssMb(), "MiB");
  out->Detail("proc.cpu_util", e2e.loop.cpu_util(), "frac");
  out->Detail("proc.steal_frac", e2e.loop.steal_frac(), "frac");
}

void Captured::Add(const core::ProtocolContext& ctx, uint32_t trigger,
                   const core::SelectionProtocol::Outcome& outcome,
                   std::vector<uint8_t> bytes) {
  if (vals.size() >= kMax) return;
  const core::VerifiableActorList& val = outcome.val;
  const dht::RingPos p = val.SetterPoint().ring_pos();
  vals.push_back(val);
  val_bytes.push_back(std::move(bytes));
  for (uint32_t sl : outcome.sl_indices) signers.push_back(sl);
  routes.emplace_back(trigger, p);
  regions.push_back(dht::Region::Centered(p, val.rs2));
  regions.push_back(dht::Region::Centered(p, ctx.rs3));
}

namespace {

// Times call(i) over the inputs in batches long enough (~20 us) for
// the clock reads not to matter; each sample is one batch's mean time
// per call in microseconds. Stops at `max_samples` or, once 20 samples
// exist, when `budget_s` is spent.
template <typename Fn>
void TimeCalls(size_t inputs, size_t max_samples, double budget_s, Fn&& call,
               Samples* out) {
  if (inputs == 0) return;
  const int64_t t0 = NowNs();
  call(0);
  const int64_t one = std::max<int64_t>(NowNs() - t0, 1);
  const size_t batch = std::clamp<size_t>(
      static_cast<size_t>(20'000 / one), 1, 64);
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  size_t next = 1;
  while (out->size() < max_samples) {
    const int64_t start = NowNs();
    for (size_t b = 0; b < batch; ++b) call(next++ % inputs);
    out->Add(static_cast<double>(NowNs() - start) / 1e3 /
             static_cast<double>(batch));
    if (out->size() >= 20 && NowNs() > deadline) break;
  }
}

// The replayed calls' results are folded here so that the compiler
// cannot drop the calls.
volatile uint64_t g_sink = 0;

constexpr uint8_t kEchoTag = 0x7e;  // unused by core/messages.h

std::vector<uint8_t> EchoRequest() {
  std::vector<uint8_t> req = {'S', '2', 'P', kEchoTag};
  req.resize(64, 0xab);
  return req;
}

}  // namespace

ProbeTimes RunProbes(sim::Network& world, const Captured& in,
                     net::Transport* rpc,
                     const std::vector<net::Transport*>& echo_hosts,
                     uint32_t client, uint32_t server, WorkloadOutput* out) {
  ProbeTimes t;
  constexpr size_t kSamples = 200;
  constexpr double kBudget = 0.25;
  crypto::SignatureProvider& provider = world.provider();
  dht::Directory& dir = world.directory();
  const core::ProtocolContext ctx = world.context();
  out->Check(ctx.verify_sink == nullptr, "probes: verify sink still set");

  // (key, message, signature) triples of every attestation.
  struct Triple {
    crypto::PublicKey key;
    const std::vector<uint8_t>* msg;
    crypto::Signature sig;
  };
  std::vector<std::vector<uint8_t>> signed_bytes;
  signed_bytes.reserve(in.vals.size());
  for (const auto& val : in.vals) signed_bytes.push_back(val.SignedBytes());
  std::vector<Triple> triples;
  for (size_t v = 0; v < in.vals.size(); ++v) {
    for (const auto& att : in.vals[v].attestations) {
      triples.push_back(Triple{att.cert.subject, &signed_bytes[v], att.sig});
    }
  }
  std::vector<crypto::PrivateKey> privs;
  for (uint32_t s : in.signers) privs.push_back(dir.priv(s));

  uint64_t bad = 0;
  uint64_t sink = 0;
  // Records a failure of the probe just run and resets the tally.
  auto check = [&](const char* what) {
    out->Check(bad == 0, what);
    bad = 0;
  };
  TimeCalls(triples.size(), kSamples, kBudget, [&](size_t i) {
    const Triple& tr = triples[i];
    if (!provider.Verify(tr.key, *tr.msg, tr.sig)) ++bad;
  }, &t.verify_us);
  check("replayed attestation signature failed to verify");
  TimeCalls(privs.size(), kSamples, kBudget, [&](size_t i) {
    auto sig = provider.Sign(privs[i], signed_bytes[i % signed_bytes.size()]);
    if (!sig.ok()) ++bad;
  }, &t.sign_us);
  check("replayed signing failed");
  TimeCalls(signed_bytes.size(), kSamples, kBudget, [&](size_t i) {
    sink += crypto::Sha256Hash(signed_bytes[i])[0];
  }, &t.sha256_us);
  TimeCalls(triples.size(), kSamples, kBudget, [&](size_t i) {
    const Triple& tr = triples[i];
    sink += crypto::HmacSha256(tr.key.data(), tr.key.size(), tr.msg->data(),
                               tr.msg->size())[0];
  }, &t.hmac_us);

  TimeCalls(in.routes.size(), kSamples, kBudget, [&](size_t i) {
    auto route = world.chord().Route(in.routes[i].first, in.routes[i].second);
    if (!route.ok()) {
      ++bad;
      return;
    }
    sink += route->dest_index;
  }, &t.route_us);
  for (const auto& [from, pos] : in.routes) {
    auto route = world.chord().Route(from, pos);
    if (route.ok()) t.route_hops.Add(route->hops);
  }
  check("replayed route failed");
  TimeCalls(in.regions.size(), kSamples, kBudget, [&](size_t i) {
    sink += dir.NodesInRegion(in.regions[i]).size();
  }, &t.region_us);
  TimeCalls(in.routes.size(), kSamples, kBudget, [&](size_t i) {
    sink += dir.SuccessorIndex(in.routes[i].second).value_or(0);
  }, &t.successor_us);
  std::vector<uint32_t> toggles;
  for (uint32_t s : in.signers) {
    if (dir.alive(s) && !dir.crashed(s)) toggles.push_back(s);
  }
  const size_t alive_before = dir.alive_count();
  TimeCalls(toggles.size(), kSamples, kBudget, [&](size_t i) {
    dir.SetAlive(toggles[i], false);
    dir.SetAlive(toggles[i], true);
  }, &t.set_alive_us);
  out->Check(dir.alive_count() == alive_before,
             "set_alive toggle did not restore the population");

  TimeCalls(in.vals.size(), kSamples, kBudget, [&](size_t i) {
    if (!core::VerifyActorList(ctx, in.vals[i]).ok()) ++bad;
  }, &t.verify_val_us);
  check("replayed VAL failed to verify");
  // BuildActorList over each VAL's R3 candidate list, as k SLs report it.
  struct AlInput {
    std::vector<std::vector<crypto::PublicKey>> lists;
    crypto::Hash256 rnd_s;
    int actors;
  };
  std::vector<AlInput> al_inputs;
  for (size_t v = 0; v < in.vals.size() && al_inputs.size() < 32; ++v) {
    std::vector<crypto::PublicKey> keys;
    for (uint32_t n : dir.NodesInRegion(in.regions[2 * v + 1])) {
      keys.push_back(dir.pub(n));
    }
    al_inputs.push_back(AlInput{
        std::vector<std::vector<crypto::PublicKey>>(
            static_cast<size_t>(in.vals[v].k()), keys),
        in.vals[v].rnd_t.Rehash(), in.vals[v].actor_count()});
  }
  TimeCalls(al_inputs.size(), kSamples, kBudget, [&](size_t i) {
    sink += core::BuildActorList(al_inputs[i].lists, al_inputs[i].rnd_s,
                                 al_inputs[i].actors)
                .size();
  }, &t.build_al_us);
  TimeCalls(in.vals.size(), kSamples, kBudget, [&](size_t i) {
    sink += core::wire::EncodeActorList(in.vals[i]).size();
  }, &t.encode_us);
  TimeCalls(in.val_bytes.size(), kSamples, kBudget, [&](size_t i) {
    if (!core::wire::DecodeActorList(in.val_bytes[i]).ok()) ++bad;
  }, &t.decode_us);
  check("replayed VAL bytes failed to decode");

  // net/frame: encode each VAL's bytes as a request frame and parse it.
  TimeCalls(in.val_bytes.size(), kSamples, kBudget, [&](size_t i) {
    net::Frame frame;
    frame.rpc_id = i + 1;
    frame.src = client;
    frame.dst = server;
    frame.payload = in.val_bytes[i];
    const std::vector<uint8_t> wire = net::EncodeFrame(frame);
    net::FrameParser parser;
    std::vector<net::Frame> frames;
    if (!parser.Feed(wire.data(), wire.size(), &frames).ok() ||
        frames.size() != 1 || frames[0].payload != in.val_bytes[i]) {
      ++bad;
    }
  }, &t.frame_us);
  check("frame round trip changed the payload");

  if (rpc != nullptr) {
    for (net::Transport* host : echo_hosts) {
      host->Register(kEchoTag, [](uint32_t, const std::vector<uint8_t>& req) {
        return std::optional<std::vector<uint8_t>>(req);
      });
    }
    const std::vector<uint8_t> request = EchoRequest();
    TimeCalls(1, kSamples, kBudget, [&](size_t) {
      const net::Transport::RpcResult r = rpc->Call(client, server, request);
      if (!r.ok || r.reply != request) ++bad;
    }, &t.rpc_us);
    check("echo rpc failed");
  }

  // The k-table refresh rebuilds for the population the world has now.
  const uint64_t alive = dir.alive_count();
  TimeCalls(1, 20, kBudget, [&](size_t) { world.RefreshKTable(alive); },
            &t.ktable_us);
  g_sink = sink;
  return t;
}

void ProbeSelections(sim::Network& world,
                     const std::vector<uint32_t>& triggers, uint64_t seed,
                     Samples* select_us, Captured* captured,
                     WorkloadOutput* out) {
  net::SimNetwork simnet(static_cast<uint32_t>(world.directory().size()),
                         IdealLink(), net::RetryPolicy{}, seed);
  node::AppRuntime runtime(&simnet);
  const core::ProtocolContext ctx = world.context();
  for (size_t i = 0; i < triggers.size(); ++i) {
    util::Rng rng(sim::StreamSeed(seed, i));
    int restarts = 0;
    const int64_t t0 = NowNs();
    auto outcome = runtime.RunSelection(ctx, triggers[i], rng, 8, &restarts);
    select_us->Add(static_cast<double>(NowNs() - t0) / 1e3);
    if (!outcome.ok()) {
      out->errors.push_back("probe selection failed: " +
                            outcome.status().ToString());
      continue;
    }
    out->Check(core::VerifyActorList(ctx, outcome->val).ok(),
               "probe selection's VAL failed to verify");
    captured->Add(ctx, triggers[i], *outcome,
                  core::wire::EncodeActorList(outcome->val));
  }
}

void ReportPerLayer(const Tracer& tracer, const ProbeTimes& p,
                    const LayerCounts& c, double build_s,
                    WorkloadOutput* out) {
  const double ops = static_cast<double>(std::max<uint64_t>(c.ops, 1));
  const double op_us = c.plain_s * 1e6 / ops;
  auto per_op = [&](uint64_t n) { return static_cast<double>(n) / ops; };
  auto med = [](const Samples& s) { return s.Median(); };

  // crypto
  const double verifies = per_op(c.verifies);
  const double signs = per_op(c.signs);
  out->Add("crypto.verify_us", med(p.verify_us), "us", p.verify_us.size());
  out->Add("crypto.sign_us", med(p.sign_us), "us", p.sign_us.size());
  out->Add("crypto.sha256_us", med(p.sha256_us), "us", p.sha256_us.size());
  out->Add("crypto.hmac_us", med(p.hmac_us), "us", p.hmac_us.size());
  out->Add("crypto.verifies_per_op", verifies, "count", c.ops);
  out->Add("crypto.signs_per_op", signs, "count", c.ops);
  const double saved =
      c.verify_requests > 0
          ? 1.0 - static_cast<double>(c.verifies) /
                      static_cast<double>(c.verify_requests)
          : 0.0;
  out->Add("crypto.verifies_saved_frac", saved, "frac", c.ops);
  out->Add("crypto.est_share",
           (verifies * med(p.verify_us) + signs * med(p.sign_us)) / op_us,
           "frac", c.ops);

  // dht: the share estimate covers routing; region queries expose no
  // counter to multiply their replayed time by.
  const double hops_per_route = p.route_hops.Mean();
  double routes = per_op(c.routes);
  if (c.routes == 0 && hops_per_route > 0) {
    routes = per_op(c.route_hops) / hops_per_route;
  }
  out->Add("dht.route_us", med(p.route_us), "us", p.route_us.size());
  out->Add("dht.route_hops", hops_per_route, "count", p.route_hops.size());
  out->Add("dht.region_us", med(p.region_us), "us", p.region_us.size());
  out->Add("dht.successor_us", med(p.successor_us), "us",
           p.successor_us.size());
  out->Add("dht.set_alive_us", med(p.set_alive_us), "us",
           p.set_alive_us.size());
  out->Add("dht.est_share", routes * med(p.route_us) / op_us, "frac", c.ops);

  // core
  out->Add("core.select_us", med(p.select_us), "us", p.select_us.size());
  out->Add("core.verify_val_us", med(p.verify_val_us), "us",
           p.verify_val_us.size());
  out->Add("core.build_al_us", med(p.build_al_us), "us",
           p.build_al_us.size());
  out->Add("core.relocations_per_op", per_op(c.relocations), "count", c.ops);
  out->Add("core.restarts_per_op", per_op(c.restarts), "count", c.ops);

  // codec
  out->Add("codec.val_encode_us", med(p.encode_us), "us", p.encode_us.size());
  out->Add("codec.val_decode_us", med(p.decode_us), "us", p.decode_us.size());

  // net
  out->Add("net.rpc_rtt_us", med(p.rpc_us), "us", p.rpc_us.size());
  out->Add("net.frame_us", med(p.frame_us), "us", p.frame_us.size());
  out->Add("net.retries_per_op", per_op(c.retries), "count", c.ops);
  out->Add("net.timeouts_per_op", per_op(c.timeouts), "count", c.ops);
  out->Add("net.msgs_per_op", per_op(c.msgs), "count", c.ops);
  out->Add("net.bytes_per_op", per_op(c.bytes), "B", c.ops);

  // sim
  out->Add("sim.build_s", build_s, "s", 1);
  out->Add("sim.ktable_refresh_us", med(p.ktable_us), "us",
           p.ktable_us.size());

  // Span self time by layer, as a share of the traced wall time. The
  // layers listed are the ones the workloads open spans for.
  static const char* const kSpanLayers[] = {"core", "codec", "apps",
                                            "engine", "sim", "unattributed"};
  const std::map<std::string, double> self = tracer.LayerSelfSeconds();
  double self_sum = 0;
  for (const auto& [layer, secs] : self) {
    self_sum += secs;
    out->Check(std::find_if(std::begin(kSpanLayers), std::end(kSpanLayers),
                            [&](const char* l) { return layer == l; }) !=
                   std::end(kSpanLayers),
               "span of unexpected layer " + layer);
  }
  for (const char* layer : kSpanLayers) {
    const auto it = self.find(layer);
    const double secs = it == self.end() ? 0.0 : it->second;
    out->Add(std::string(layer) + ".self_share", secs / c.traced_s, "frac",
             tracer.spans().size());
    out->Detail(std::string(layer) + ".self_s", secs, "s");
  }
  // The self-time gate: self times partition the root spans exactly, and
  // the root spans cover the traced wall time up to the clock reads
  // around them (1% tolerance).
  const double root_s = tracer.RootSeconds();
  out->Check(std::fabs(self_sum - root_s) <= 1e-6 * root_s + 1e-9,
             "layer self times do not sum to the root spans");
  out->Check(std::fabs(root_s - c.traced_s) <= 0.01 * c.traced_s,
             "root spans do not cover the traced wall time");
  out->Detail("trace.root_s", root_s, "s");
  out->Detail("trace.wall_s", c.traced_s, "s");

  out->Add("proc.cpu_util", c.cpu_s / c.traced_s, "frac");
  out->Add("obs.trace_overhead_frac", c.traced_s / c.plain_s - 1.0, "frac");
}

void WriteSpans(const Tracer& tracer, const RunConfig& config,
                WorkloadOutput* out) {
  if (config.trace_out.empty()) return;
  out->Check(tracer.WriteJsonl(config.trace_out),
             "could not write spans to " + config.trace_out);
}

}  // namespace perfbench
