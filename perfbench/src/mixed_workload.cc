// mixed_ed25519: the ThroughputEngine with real Ed25519 runs the
// selection/query/selection/diffusion mix at N = 800. Arrivals are
// scheduled on the virtual clock at a gap past the saturation knee (an
// open loop in virtual time); the workload runs engine batches until
// --seconds of wall time are spent and measures wall time over each
// whole batch. Asymmetric verification, verdict reuse across the
// parties a VAL is disclosed to, and the apps do most of the work;
// routing is negligible. Only workload options are set (tasks, mix,
// gap, window, seed): verification stays at the engine's default.

#include "apps/concept_index.h"
#include "apps/diffusion.h"
#include "apps/query.h"
#include "engine/throughput.h"
#include "net/sim_network.h"
#include "node/app_runtime.h"
#include "node/pdms_node.h"
#include "obs/metrics.h"
#include "sim/trial_runner.h"
#include "workloads.h"

namespace perfbench {

using namespace sep2p;

namespace {

constexpr int kTasksPerBatch = 192;  // three admission windows, 6 ops
// The task mix: selection, query, selection, diffusion.
const std::vector<engine::TaskKind> kMix = {
    engine::TaskKind::kSelection, engine::TaskKind::kQuery,
    engine::TaskKind::kSelection, engine::TaskKind::kDiffusion};
// An op is 32 consecutive tasks (8 cycles of the mix). Single tasks
// would put the median on the boundary between the selection and
// diffusion modes, and with deferred verification the verdicts of a
// stretch of tasks are paid for at the next drain point, so short ops
// measure where the drains fell rather than the work.
constexpr size_t kTasksPerOp = 32;
constexpr int kWindow = 64;
constexpr uint64_t kGapUs = 200;     // past the knee: the window fills

// The engine drives the virtual clock through this transport and never
// calls it for messages (the apps' runtime holds the SimNetwork), so
// each SetVirtualTime marks the wall instant a task starts executing.
class ClockTap : public net::Transport {
 public:
  explicit ClockTap(net::SimNetwork* inner) : inner_(inner) {}
  bool remote_dispatch() const override { return false; }
  uint64_t now_us() const override { return inner_->now_us(); }
  uint32_t node_count() const override { return inner_->node_count(); }
  bool SetVirtualTime(uint64_t at_us) override {
    starts_.push_back(NowNs());
    return inner_->SetVirtualTime(at_us);
  }
  RpcResult Call(uint32_t client, uint32_t server,
                 const std::vector<uint8_t>& request,
                 const Handler& handler) override {
    return inner_->Call(client, server, request, handler);
  }
  const std::vector<int64_t>& starts() const { return starts_; }

 private:
  net::SimNetwork* inner_;
  std::vector<int64_t> starts_;
};

struct World {
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<net::SimNetwork> simnet;
  std::unique_ptr<node::AppRuntime> runtime;
  std::vector<node::PdmsNode> pdms;
  std::unique_ptr<apps::ConceptIndex> index;
  std::unique_ptr<apps::DiffusionApp> diffusion;
  std::unique_ptr<apps::QueryApp> query;
  double publish_s = 0;
};

bool Build(uint64_t seed, World* w, WorkloadOutput* out) {
  *w = World();
  sim::Parameters params;
  params.n = 800;
  params.cache_size = 128;
  params.actor_count = 8;
  params.seed = seed;
  params.threads = 1;
  params.provider = sim::Parameters::ProviderKind::kEd25519;
  w->net = BuildWorld(params, out);
  if (w->net == nullptr) return false;
  const uint32_t n = static_cast<uint32_t>(params.n);
  w->simnet = std::make_unique<net::SimNetwork>(n, IdealLink(),
                                                net::RetryPolicy{}, seed);
  w->runtime = std::make_unique<node::AppRuntime>(w->simnet.get());
  w->pdms.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    w->pdms.emplace_back(i);
    if (i % 4 == 0) w->pdms.back().AddConcept("pilot");
    w->pdms.back().SetAttribute("hours", i % 50);
  }
  w->index = std::make_unique<apps::ConceptIndex>(w->net.get(),
                                                  w->runtime.get());
  w->diffusion = std::make_unique<apps::DiffusionApp>(
      w->net.get(), &w->pdms, w->index.get(), w->runtime.get());
  w->query = std::make_unique<apps::QueryApp>(w->net.get(), &w->pdms,
                                              w->index.get(),
                                              w->runtime.get());
  util::Rng rng(sim::StreamSeed(seed, 0x707562));  // "pub"
  const int64_t t0 = NowNs();
  const Status published = w->diffusion->PublishAllProfiles(rng).status();
  w->publish_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (!published.ok()) {
    out->errors.push_back("profile publish failed: " + published.ToString());
    return false;
  }
  return true;
}

struct Totals {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t digest = kFnvBasis;
  uint64_t coalesced = 0;
  double engine_s = 0;  // wall seconds inside ThroughputEngine::Run
  Samples op_ms;        // wall time per op (kTasksPerOp tasks)
  Samples query_us, diffuse_us, run_s, queue_p99_ms;
  Samples vlat_ms;      // virtual latency per completed task
  std::vector<uint32_t> selection_triggers;
};

// Runs engine batch `b` (a fresh engine over the world's transport).
// With a tracer, the batch is an engine.run span whose tasks become
// engine.task spans carrying their op's global index as op id.
void Batch(World& w, uint64_t seed, uint64_t b, Tracer* tracer,
           Totals* t, WorkloadOutput* out) {
  engine::ThroughputEngine::Options options;
  options.arrival_gap_us = kGapUs;
  options.window = kWindow;
  options.seed = sim::StreamSeed(seed, b);
  ClockTap tap(w.simnet.get());
  engine::ThroughputEngine eng(w.net.get(), &tap, w.runtime.get(), options);
  eng.set_diffusion(w.diffusion.get(), "pilot", "notice");
  apps::QuerySpec spec;
  spec.profile_expression = "pilot";
  spec.attribute = "hours";
  spec.aggregate = apps::Aggregate::kAvg;
  eng.set_query(w.query.get(), spec);
  eng.SubmitWorkload(kTasksPerBatch, kMix);
  int run_span = -1;
  if (tracer != nullptr) run_span = tracer->Open("engine.run");
  const int64_t t0 = NowNs();
  auto report = eng.Run();
  const int64_t t1 = NowNs();
  if (tracer != nullptr) tracer->Close(run_span);
  t->engine_s += static_cast<double>(t1 - t0) / 1e9;
  t->run_s.Add(static_cast<double>(t1 - t0) / 1e9);
  if (!report.ok()) {
    out->errors.push_back("engine run failed: " + report.status().ToString());
    t->failed += kTasksPerBatch;
    t->submitted += kTasksPerBatch;
    return;
  }
  t->submitted += report->submitted;
  t->completed += report->completed;
  t->failed += report->failed;
  t->coalesced += report->verify_stats.coalesced;
  t->digest = Fold(t->digest, report->results_digest);
  t->queue_p99_ms.Add(static_cast<double>(report->p99_queue_delay_us) / 1e3);
  out->Check(report->failed == 0 && report->completed == report->submitted,
             "engine batch had failed tasks");

  const std::vector<int64_t>& starts = tap.starts();
  const auto& tasks = eng.mempool().tasks();
  out->Check(starts.size() == tasks.size(),
             "engine did not start every task once");
  const uint64_t first_op = (t->submitted - tasks.size()) / kTasksPerOp;
  for (size_t i = 0; i < tasks.size() && i < starts.size(); ++i) {
    const int64_t end = i + 1 < starts.size() ? starts[i + 1] : t1;
    const double ms = static_cast<double>(end - starts[i]) / 1e6;
    if (i % kTasksPerOp == 0) {
      const size_t next = i + kTasksPerOp;
      const int64_t op_end = next < starts.size() ? starts[next] : t1;
      t->op_ms.Add(static_cast<double>(op_end - starts[i]) / 1e6);
    }
    if (tasks[i].kind == engine::TaskKind::kQuery) t->query_us.Add(ms * 1e3);
    if (tasks[i].kind == engine::TaskKind::kDiffusion) {
      t->diffuse_us.Add(ms * 1e3);
    }
    if (tasks[i].kind == engine::TaskKind::kSelection &&
        t->selection_triggers.size() < 64) {
      t->selection_triggers.push_back(tasks[i].trigger);
    }
    if (tasks[i].state == engine::TaskState::kCompleted) {
      t->vlat_ms.Add(static_cast<double>(tasks[i].latency_us()) / 1e3);
    }
    if (tracer != nullptr) {
      tracer->Add("engine.task", run_span, starts[i], end,
                  first_op + i / kTasksPerOp + 1);
    }
  }
}

void ReportDetail(const Totals& t, const World& w, WorkloadOutput* out) {
  out->Detail("engine.tasks_per_s",
              static_cast<double>(t.completed) / t.engine_s, "1/s",
              t.completed);
  out->Detail("engine.run_s", t.run_s.Median(), "s", t.run_s.size());
  out->Detail("engine.p99_queue_delay_ms", t.queue_p99_ms.Median(), "ms",
              t.queue_p99_ms.size(), "virtual");
  out->Detail("apps.query_us", t.query_us.Median(), "us", t.query_us.size());
  out->Detail("apps.diffuse_us", t.diffuse_us.Median(), "us",
              t.diffuse_us.size());
  out->Detail("apps.publish_s", w.publish_s, "s", 1);
  out->Detail("vlat_p50_ms", t.vlat_ms.Median(), "ms", t.vlat_ms.size(),
              "virtual");
  out->Detail("vlat_p99_ms", t.vlat_ms.TailAt(99).value, "ms",
              t.vlat_ms.size(), "virtual");
  out->Detail("failed_frac",
              static_cast<double>(t.failed) /
                  static_cast<double>(std::max<uint64_t>(t.submitted, 1)),
              "frac");
}

}  // namespace

WorkloadOutput RunMixed(const RunConfig& config) {
  WorkloadOutput out;
  World w;
  const uint64_t seed = config.seed;

  if (!config.trace) {
    bool ok = true;
    EndToEnd e2e;
    e2e.setup_s = MedianSetup(kSetups, [&] { return Build(seed, &w, &out); }, &ok);
    if (!ok) return out;
    const crypto::CryptoMeter& meter = w.net->provider().meter();
    Totals warm;
    Batch(w, seed, 0, nullptr, &warm, &out);
    Totals t;
    const uint64_t asym0 = meter.asym_ops();
    e2e.loop.Start();
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(config.seconds * 1e9);
    for (uint64_t b = 1; NowNs() < deadline; ++b) {
      Batch(w, seed, b, nullptr, &t, &out);
      e2e.RssCheckpoint(b, 2);
    }
    e2e.loop.Stop();
    e2e.ok_ops = t.completed / kTasksPerOp;
    e2e.op_ms = t.op_ms;
    e2e.asym_ops = static_cast<double>(meter.asym_ops() - asym0);
    out.attempted = t.submitted + warm.submitted;
    out.failed = t.failed + warm.failed;
    ReportEndToEnd(e2e, &out);
    ReportDetail(t, w, &out);
    return out;
  }

  if (!Build(seed, &w, &out)) return out;
  Totals plain;
  const int64_t p0 = NowNs();
  const int64_t deadline = p0 + static_cast<int64_t>(config.seconds / 2 * 1e9);
  uint64_t batches = 0;
  for (; NowNs() < deadline; ++batches) {
    Batch(w, seed, batches, nullptr, &plain, &out);
  }
  LayerCounts c;
  c.ops = plain.submitted / kTasksPerOp;
  c.plain_s = static_cast<double>(NowNs() - p0) / 1e9;

  const int64_t b0 = NowNs();
  if (!Build(seed, &w, &out)) return out;
  const double build_s =
      static_cast<double>(NowNs() - b0) / 1e9 - w.publish_s;
  obs::MetricsRegistry registry;
  w.simnet->set_metrics(&registry);
  const crypto::CryptoMeter& meter = w.net->provider().meter();
  const uint64_t verifies0 = meter.verifies();
  const uint64_t signs0 = meter.signs();
  const net::Transport::Stats st0 = w.simnet->stats();
  Tracer tracer;
  Totals traced;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  const int root = tracer.Open("run");
  for (uint64_t b = 0; b < batches; ++b) {
    Batch(w, seed, b, &tracer, &traced, &out);
  }
  tracer.Close(root);
  c.traced_s = static_cast<double>(NowNs() - t0) / 1e9;
  c.cpu_s = ProcessCpuSeconds() - cpu0;
  w.simnet->set_metrics(nullptr);
  out.Digests("engine results", plain.digest, traced.digest);

  c.verifies = meter.verifies() - verifies0;
  c.signs = meter.signs() - signs0;
  // Protocol verify requests: those verified plus those the engine's
  // verifier answered from an earlier verdict.
  c.verify_requests = c.verifies + traced.coalesced;
  c.relocations = registry.counter(obs::Counter::kRelocations);
  c.restarts = registry.counter(obs::Counter::kRestarts);
  c.route_hops = registry.counter(obs::Counter::kRouteHops);
  const net::Transport::Stats& st = w.simnet->stats();
  c.msgs = st.messages_sent - st0.messages_sent;
  c.bytes = st.bytes_sent - st0.bytes_sent;
  c.retries = st.retries - st0.retries;
  c.timeouts = st.timeouts - st0.timeouts;

  Captured captured;
  Samples select_us;
  ProbeSelections(*w.net, traced.selection_triggers, seed, &select_us,
                  &captured, &out);
  ProbeTimes probes = RunProbes(*w.net, captured, w.simnet.get(),
                                {w.simnet.get()}, 0, 1, &out);
  probes.select_us = select_us;
  out.attempted = plain.submitted + traced.submitted;
  out.failed = plain.failed + traced.failed;
  ReportPerLayer(tracer, probes, c, build_s, &out);
  ReportDetail(traced, w, &out);
  WriteSpans(tracer, config, &out);
  return out;
}

}  // namespace perfbench
