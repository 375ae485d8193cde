// live_2p: two TcpTransport "processes" over loopback inside this
// process, each with its own replica of the world, a resident
// ProtocolService, the apps and SimProvider — the deployment
// `sep2p_cli serve` runs, minus the fork. One driver thread runs a
// closed loop: a selection plus VerifyActorList, then a QueryApp query.
// The only workload where net/tcp_transport and net/frame carry the
// traffic.

#include <cmath>

#include "apps/concept_index.h"
#include "apps/diffusion.h"
#include "apps/proxy.h"
#include "apps/query.h"
#include "core/protocol_service.h"
#include "core/wire.h"
#include "net/tcp_transport.h"
#include "node/app_runtime.h"
#include "node/pdms_node.h"
#include "sim/trial_runner.h"
#include "workloads.h"

namespace perfbench {

using namespace sep2p;

namespace {

constexpr uint32_t kNodes = 120;
constexpr double kMaxValue = 39;  // km_per_day is i % 40

// One "process": a world replica and everything a serve daemon hosts.
// Members are declared in dependency order; Cluster stops the
// transports before any of them is destroyed.
struct Process {
  std::unique_ptr<sim::Network> net;
  core::ProtocolContext ctx;
  std::unique_ptr<net::TcpTransport> transport;
  std::unique_ptr<core::ProtocolService> service;
  std::vector<node::PdmsNode> pdms;
  std::unique_ptr<node::AppRuntime> runtime;
  std::unique_ptr<apps::ConceptIndex> index;
  std::unique_ptr<apps::DiffusionApp> diffusion;
  std::unique_ptr<apps::QueryApp> query;
};

class Cluster {
 public:
  Cluster() = default;
  ~Cluster() {
    for (Process& p : procs) {
      if (p.transport != nullptr) p.transport->Stop();
    }
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Process procs[2];
  double publish_s = 0;
  uint64_t expected_contributors = 0;
  double expected_value = 0;
};

std::unique_ptr<Cluster> Build(uint64_t seed, WorkloadOutput* out) {
  auto c = std::make_unique<Cluster>();
  sim::Parameters params;
  params.n = kNodes;
  params.cache_size = 128;
  params.actor_count = 4;
  params.seed = seed;
  params.threads = 1;
  for (uint32_t i = 0; i < 2; ++i) {
    Process& p = c->procs[i];
    p.net = BuildWorld(params, out);
    if (p.net == nullptr) return nullptr;
    p.ctx = p.net->context();
    net::TcpTransport::Options topt;
    topt.node_count = kNodes;
    topt.process_count = 2;
    topt.process_index = i;
    topt.seed = seed ^ (0x7c1ULL + i);
    p.transport = std::make_unique<net::TcpTransport>(topt);
    core::ProtocolService::Options popt;
    popt.rng_seed = seed ^ (0x5e21ULL + i * 0x9e37ULL);
    p.service =
        std::make_unique<core::ProtocolService>(p.ctx, *p.transport, popt);
    for (uint32_t n = 0; n < kNodes; ++n) {
      p.pdms.emplace_back(n);
      if (n % 3 == 0) p.pdms.back().AddConcept("commuter");
      p.pdms.back().SetAttribute("km_per_day", static_cast<double>(n % 40));
    }
    p.runtime = std::make_unique<node::AppRuntime>(p.transport.get());
    apps::EnsureProxyHandlers(*p.runtime);
    p.index = std::make_unique<apps::ConceptIndex>(p.net.get(),
                                                   p.runtime.get());
    p.diffusion = std::make_unique<apps::DiffusionApp>(
        p.net.get(), &p.pdms, p.index.get(), p.runtime.get());
    p.query = std::make_unique<apps::QueryApp>(p.net.get(), &p.pdms,
                                               p.index.get(), p.runtime.get());
    const Status started = p.transport->Start();
    if (!started.ok()) {
      out->errors.push_back("transport start: " + started.ToString());
      return nullptr;
    }
  }
  for (uint32_t i = 0; i < 2; ++i) {
    c->procs[i].transport->SetPeer(1 - i, "127.0.0.1",
                                   c->procs[1 - i].transport->listen_port());
  }
  for (Process& p : c->procs) {
    const Status peers = p.transport->WaitForPeers(10'000);
    if (!peers.ok()) {
      out->errors.push_back("peers: " + peers.ToString());
      return nullptr;
    }
  }
  util::Rng rng(sim::StreamSeed(seed, 0x707562));  // "pub"
  const int64_t t0 = NowNs();
  auto published = c->procs[0].diffusion->PublishAllProfiles(rng);
  c->publish_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (!published.ok()) {
    out->errors.push_back("profile publish failed: " +
                          published.status().ToString());
    return nullptr;
  }
  double sum = 0;
  for (uint32_t n = 0; n < kNodes; n += 3) {
    ++c->expected_contributors;
    sum += n % 40;
  }
  c->expected_value = sum / static_cast<double>(c->expected_contributors);
  return c;
}

struct Totals {
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t digest = kFnvBasis;
  uint64_t relocations = 0;
  uint64_t restarts = 0;
  Samples op_ms;
  Samples select_us, query_us;
};

void Op(Cluster& c, uint64_t seed, uint64_t i, Tracer* tracer,
        Captured* captured, Totals* t, WorkloadOutput* out) {
  Process& p = c.procs[0];
  const int64_t t0 = NowNs();
  util::Rng pick(sim::StreamSeed(seed ^ 0x74726967, i));
  const uint32_t trigger = static_cast<uint32_t>(pick.NextUint64(kNodes));
  const uint32_t querier = static_cast<uint32_t>(pick.NextUint64(kNodes));
  util::Rng rng(sim::StreamSeed(seed ^ 0x6f70, i));
  int restarts = 0;
  Result<core::SelectionProtocol::Outcome> outcome =
      Status::Unavailable("not run");
  int64_t s0 = NowNs();
  {
    Tracer::Scope s(tracer, "core.select");
    outcome = p.runtime->RunSelection(p.ctx, trigger, rng, 8, &restarts);
  }
  t->select_us.Add(static_cast<double>(NowNs() - s0) / 1e3);
  if (!outcome.ok()) {
    ++t->failed;
    out->errors.push_back("selection failed: " + outcome.status().ToString());
    return;
  }
  bool verified = false;
  {
    Tracer::Scope s(tracer, "core.verify_val");
    verified = core::VerifyActorList(p.ctx, outcome->val).ok();
  }
  out->Check(verified, "VAL failed to verify");
  apps::QuerySpec spec;
  spec.profile_expression = "commuter";
  spec.attribute = "km_per_day";
  spec.aggregate = apps::Aggregate::kAvg;
  Result<apps::QueryApp::QueryResult> result = Status::Unavailable("not run");
  const int64_t q0 = NowNs();
  {
    Tracer::Scope s(tracer, "apps.query");
    result = p.query->Execute(querier, spec, rng);
  }
  t->query_us.Add(static_cast<double>(NowNs() - q0) / 1e3);
  if (!result.ok()) {
    ++t->failed;
    out->errors.push_back("query failed: " + result.status().ToString());
    return;
  }
  const bool delivered = result->answer_delivered &&
                         result->lost_contributions == 0 &&
                         result->value >= 0 && result->value <= kMaxValue;
  const bool exact = result->contributors == c.expected_contributors &&
                     std::fabs(result->value - c.expected_value) < 1e-9;
  out->Check(delivered, "query answer lost, incomplete or out of range");
  out->Check(exact, "query answer differs from the true average");
  if (!verified || !delivered || !exact) {
    ++t->failed;
    return;
  }
  ++t->ok;
  t->relocations += static_cast<uint64_t>(outcome->relocations);
  t->restarts += static_cast<uint64_t>(restarts + result->selection_restarts +
                                       result->target_finding_restarts);
  for (const crypto::PublicKey& key : outcome->val.actor_keys) {
    t->digest = Fold(t->digest, key[0] | (uint64_t{key[1]} << 8));
  }
  t->digest = Fold(t->digest, result->contributors);
  if (captured != nullptr) {
    captured->Add(p.ctx, trigger, *outcome,
                  core::wire::EncodeActorList(outcome->val));
  }
  t->op_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
}

net::Transport::Stats SumStats(const Cluster& c) {
  net::Transport::Stats sum;
  for (const Process& p : c.procs) {
    const net::Transport::Stats& s = p.transport->stats();
    sum.messages_sent += s.messages_sent;
    sum.bytes_sent += s.bytes_sent;
    sum.retries += s.retries;
    sum.timeouts += s.timeouts;
  }
  return sum;
}

void ReportDetail(const Totals& t, const Cluster& c, WorkloadOutput* out) {
  out->Detail("apps.query_us", t.query_us.Median(), "us", t.query_us.size());
  out->Detail("apps.publish_s", c.publish_s, "s", 1);
  out->Detail("failed_frac",
              static_cast<double>(t.failed) /
                  static_cast<double>(std::max<uint64_t>(t.ok + t.failed, 1)),
              "frac");
}

}  // namespace

WorkloadOutput RunLive(const RunConfig& config) {
  WorkloadOutput out;
  const uint64_t seed = config.seed;
  std::unique_ptr<Cluster> c;

  if (!config.trace) {
    bool ok = true;
    EndToEnd e2e;
    // Earlier clusters are stopped after the timed set-ups: stopping
    // waits for the transport's threads, which is not set-up work.
    std::vector<std::unique_ptr<Cluster>> earlier;
    e2e.setup_s = MedianSetup(kSetups, [&] {
      if (c != nullptr) earlier.push_back(std::move(c));
      c = Build(seed, &out);
      return c != nullptr;
    }, &ok);
    earlier.clear();
    if (!ok) return out;
    const crypto::CryptoMeter& meter0 = c->procs[0].net->provider().meter();
    const crypto::CryptoMeter& meter1 = c->procs[1].net->provider().meter();
    Totals warm;
    for (uint64_t i = 0; i < 10; ++i) {
      Op(*c, seed, i, nullptr, nullptr, &warm, &out);
    }
    Totals t;
    const uint64_t asym0 = meter0.asym_ops() + meter1.asym_ops();
    e2e.loop.Start();
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(config.seconds * 1e9);
    for (uint64_t i = 10; NowNs() < deadline; ++i) {
      Op(*c, seed, i, nullptr, nullptr, &t, &out);
      e2e.RssCheckpoint(t.ok, 1000);
    }
    e2e.loop.Stop();
    e2e.ok_ops = t.ok;
    e2e.op_ms = t.op_ms;
    e2e.asym_ops =
        static_cast<double>(meter0.asym_ops() + meter1.asym_ops() - asym0);
    out.attempted = t.ok + t.failed + warm.ok + warm.failed;
    out.failed = t.failed + warm.failed;
    ReportEndToEnd(e2e, &out);
    ReportDetail(t, *c, &out);
    return out;
  }

  c = Build(seed, &out);
  if (c == nullptr) return out;
  Totals plain;
  const int64_t p0 = NowNs();
  const int64_t deadline = p0 + static_cast<int64_t>(config.seconds / 2 * 1e9);
  uint64_t ops = 0;
  for (; NowNs() < deadline; ++ops) {
    Op(*c, seed, ops, nullptr, nullptr, &plain, &out);
  }
  LayerCounts lc;
  lc.ops = ops;
  lc.plain_s = static_cast<double>(NowNs() - p0) / 1e9;

  c.reset();
  const int64_t b0 = NowNs();
  c = Build(seed, &out);
  if (c == nullptr) return out;
  const double build_s =
      static_cast<double>(NowNs() - b0) / 1e9 - c->publish_s;
  const crypto::CryptoMeter& meter0 = c->procs[0].net->provider().meter();
  const crypto::CryptoMeter& meter1 = c->procs[1].net->provider().meter();
  const uint64_t verifies0 = meter0.verifies() + meter1.verifies();
  const uint64_t signs0 = meter0.signs() + meter1.signs();
  const net::Transport::Stats st0 = SumStats(*c);
  Tracer tracer;
  Captured captured;
  Totals traced;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  const int root = tracer.Open("run");
  for (uint64_t i = 0; i < ops; ++i) {
    tracer.SetOp(i + 1);
    Tracer::Scope op(&tracer, "op");
    Op(*c, seed, i, &tracer, &captured, &traced, &out);
  }
  tracer.Close(root);
  lc.traced_s = static_cast<double>(NowNs() - t0) / 1e9;
  lc.cpu_s = ProcessCpuSeconds() - cpu0;
  out.Digests("query", plain.digest, traced.digest);

  lc.verifies = meter0.verifies() + meter1.verifies() - verifies0;
  lc.signs = meter0.signs() + meter1.signs() - signs0;
  lc.verify_requests = lc.verifies;
  lc.relocations = traced.relocations;
  lc.restarts = traced.restarts;
  // The op's own selection: one route per attempt and relocation.
  lc.routes = traced.ok + traced.relocations + traced.restarts;
  const net::Transport::Stats st = SumStats(*c);
  lc.msgs = st.messages_sent - st0.messages_sent;
  lc.bytes = st.bytes_sent - st0.bytes_sent;
  lc.retries = st.retries - st0.retries;
  lc.timeouts = st.timeouts - st0.timeouts;

  // The echo crosses the socket: node 0 lives in process 0, node 1 in
  // process 1.
  Process& p = c->procs[0];
  ProbeTimes probes =
      RunProbes(*p.net, captured, p.transport.get(),
                {c->procs[0].transport.get(), c->procs[1].transport.get()}, 0,
                1, &out);
  probes.select_us = traced.select_us;
  out.attempted = plain.ok + plain.failed + traced.ok + traced.failed;
  out.failed = plain.failed + traced.failed;
  ReportPerLayer(tracer, probes, lc, build_s, &out);
  ReportDetail(traced, *c, &out);
  WriteSpans(tracer, config, &out);
  return out;
}

}  // namespace perfbench
