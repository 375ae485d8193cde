// churn_100k: N = 10^5 plus a churn pool. ChurnDriver runs Poisson
// join/leave/crash with attested joins, stepped one event at a time so
// each event is timed and classified by its stats() delta. The write
// side of the directory the read path uses: Fenwick updates, CA
// issuance, the §3.6 signatures and verifications, k-table refresh.

#include "net/sim_network.h"
#include "sim/churn_driver.h"
#include "workloads.h"

namespace perfbench {

using namespace sep2p;

namespace {

struct World {
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<sim::ChurnDriver> driver;
  std::vector<uint32_t> pool;  // handles provisioned dead
};

bool Build(uint64_t seed, World* w, WorkloadOutput* out) {
  *w = World();
  sim::Parameters params;
  params.seed = seed;
  params.threads = 1;
  params.churn_pool = 5'000;
  w->net = BuildWorld(params, out);
  if (w->net == nullptr) return false;
  sim::ChurnDriver::Options options;  // 1 join : 0.5 leave : 0.5 crash
  w->driver = std::make_unique<sim::ChurnDriver>(w->net.get(), nullptr,
                                                 options);
  const dht::Directory& dir = w->net->directory();
  for (uint32_t i = 0; i < dir.size(); ++i) {
    if (!dir.alive(i)) w->pool.push_back(i);
  }
  return true;
}

// An op is a round of events. Joins take milliseconds and leaves and
// crashes microseconds, and half the events are joins, so the median
// of single events would sit on the boundary between the two modes.
constexpr int kEventsPerRound = 8;

struct Totals {
  uint64_t rounds = 0;
  uint64_t events = 0;
  uint64_t failed = 0;
  Samples round_ms;
  Samples join_us, leave_us, crash_us;
};

// Runs one event; with a tracer, a sim.churn.<kind> span timed around
// the driver call, under the round's op span `op_span`.
void Event(World& w, Tracer* tracer, int op_span, Totals* t,
           WorkloadOutput* out) {
  const sim::ChurnDriver::Stats before = w.driver->stats();
  const int64_t t0 = NowNs();
  w.driver->Run(1);
  const int64_t t1 = NowNs();
  const sim::ChurnDriver::Stats& after = w.driver->stats();
  ++t->events;
  const double us = static_cast<double>(t1 - t0) / 1e3;
  const char* kind = nullptr;
  if (after.joins_rejected != before.joins_rejected) {
    out->errors.push_back("an honest attested join was rejected");
    ++t->failed;
  } else if (after.joins != before.joins) {
    kind = "sim.churn.join";
    t->join_us.Add(us);
  } else if (after.leaves != before.leaves) {
    kind = "sim.churn.leave";
    t->leave_us.Add(us);
  } else if (after.crashes != before.crashes) {
    kind = "sim.churn.crash";
    t->crash_us.Add(us);
  } else {
    out->errors.push_back("churn event was skipped");
    ++t->failed;
  }
  if (tracer != nullptr && kind != nullptr) {
    tracer->Add(kind, op_span, t0, t1, t->rounds + 1);
  }
}

void Round(World& w, Tracer* tracer, Totals* t, WorkloadOutput* out) {
  int op_span = -1;
  if (tracer != nullptr) {
    tracer->SetOp(t->rounds + 1);
    op_span = tracer->Open("op");
  }
  const int64_t t0 = NowNs();
  for (int i = 0; i < kEventsPerRound; ++i) Event(w, tracer, op_span, t, out);
  t->round_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
  if (tracer != nullptr) tracer->Close(op_span);
  ++t->rounds;
}

void ReportDetail(const Totals& t, const World& w, WorkloadOutput* out) {
  out->Detail("churn.events", static_cast<double>(t.events), "count");
  out->Detail("churn.join_us", t.join_us.Median(), "us", t.join_us.size());
  out->Detail("churn.leave_us", t.leave_us.Median(), "us", t.leave_us.size());
  out->Detail("churn.crash_us", t.crash_us.Median(), "us", t.crash_us.size());
  const sim::ChurnDriver::Stats& s = w.driver->stats();
  out->Detail("churn.ktable_refreshes", static_cast<double>(s.ktable_refreshes),
              "count");
  out->Detail("churn.certs_issued", static_cast<double>(s.certs_issued),
              "count");
  out->Detail("failed_frac",
              static_cast<double>(t.failed) /
                  static_cast<double>(std::max<uint64_t>(t.events, 1)),
              "frac");
}

}  // namespace

WorkloadOutput RunChurn(const RunConfig& config) {
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
    for (int i = 0; i < 8; ++i) Round(w, nullptr, &warm, &out);
    Totals t;
    const uint64_t asym0 = meter.asym_ops();
    e2e.loop.Start();
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(config.seconds * 1e9);
    while (NowNs() < deadline) {
      Round(w, nullptr, &t, &out);
      e2e.RssCheckpoint(t.rounds, 300);
    }
    e2e.loop.Stop();
    e2e.ok_ops = t.failed == 0 ? t.rounds : 0;
    e2e.op_ms = t.round_ms;
    e2e.asym_ops = static_cast<double>(meter.asym_ops() - asym0);
    out.attempted = t.events + warm.events;
    out.failed = t.failed + warm.failed;
    ReportEndToEnd(e2e, &out);
    ReportDetail(t, w, &out);
    return out;
  }

  if (!Build(seed, &w, &out)) return out;
  Totals plain;
  const int64_t p0 = NowNs();
  const int64_t deadline = p0 + static_cast<int64_t>(config.seconds / 2 * 1e9);
  while (NowNs() < deadline) Round(w, nullptr, &plain, &out);
  LayerCounts c;
  c.ops = plain.rounds;
  c.plain_s = static_cast<double>(NowNs() - p0) / 1e9;
  const uint64_t plain_digest = w.driver->stats().digest;

  const int64_t b0 = NowNs();
  if (!Build(seed, &w, &out)) return out;
  const double build_s = static_cast<double>(NowNs() - b0) / 1e9;
  const crypto::CryptoMeter& meter = w.net->provider().meter();
  const uint64_t verifies0 = meter.verifies();
  const uint64_t signs0 = meter.signs();
  Tracer tracer;
  Totals traced;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  const int root = tracer.Open("run");
  for (uint64_t i = 0; i < c.ops; ++i) Round(w, &tracer, &traced, &out);
  tracer.Close(root);
  c.traced_s = static_cast<double>(NowNs() - t0) / 1e9;
  c.cpu_s = ProcessCpuSeconds() - cpu0;
  out.Digests("churn", plain_digest, w.driver->stats().digest);
  c.verifies = meter.verifies() - verifies0;
  c.signs = meter.signs() - signs0;
  c.verify_requests = c.verifies;  // joins verify synchronously

  // Probe selections start from pool nodes the workload brought in.
  std::vector<uint32_t> joined;
  for (uint32_t i : w.pool) {
    if (w.net->directory().alive(i) && joined.size() < 64) joined.push_back(i);
  }
  out.Check(!joined.empty(), "no pool node joined");
  if (joined.empty()) return out;
  Captured captured;
  Samples select_us;
  ProbeSelections(*w.net, joined, seed, &select_us, &captured, &out);
  net::SimNetwork simnet(static_cast<uint32_t>(w.net->directory().size()),
                         IdealLink(), net::RetryPolicy{}, seed);
  ProbeTimes probes =
      RunProbes(*w.net, captured, &simnet, {&simnet}, joined[0],
                joined[joined.size() - 1], &out);
  probes.select_us = select_us;
  out.attempted = plain.events + traced.events;
  out.failed = plain.failed + traced.failed;
  ReportPerLayer(tracer, probes, c, build_s, &out);
  ReportDetail(traced, w, &out);
  WriteSpans(tracer, config, &out);
  return out;
}

}  // namespace perfbench
