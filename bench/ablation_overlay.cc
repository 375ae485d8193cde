// Ablation (Table 3, "DHT overlay"): the same SEP2P selection over Chord
// vs CAN. Routing is the only difference, so verification cost and
// effectiveness are unchanged while message costs show Chord's O(log N)
// against CAN's O(sqrt N) paths.

#include "bench/bench_common.h"
#include "dht/kademlia.h"
#include "sim/experiment.h"
#include "strategies/strategy.h"

using namespace sep2p;

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  bench::Observers obs(argc, argv);
  const int trials = quick ? 50 : 200;

  sim::Parameters base;
  base.threads = bench::ThreadsArg(argc, argv);
  base.n = quick ? 5000 : 20000;
  base.colluding_fraction = 0.01;
  base.actor_count = 32;
  base.cache_size = 512;

  bench::PrintHeader(
      "Ablation — Chord vs CAN overlay under the SEP2P selection",
      "the protocol is overlay-agnostic: only routed message counts "
      "change (Chord/Kademlia log N vs CAN sqrt N hops)",
      base);

  sim::TablePrinter table({"overlay", "setup latency (msgs)",
                           "setup total work (msgs)",
                           "setup total work (ops)", "verif cost",
                           "effectiveness"});
  for (auto overlay : {sim::Parameters::OverlayKind::kChord,
                       sim::Parameters::OverlayKind::kCan}) {
    sim::Parameters params = base;
    params.overlay = overlay;
    // Observe the Chord run only (the second call would clobber the
    // first call's trace slots).
    auto points = sim::RunStrategyComparison(
        params, {0.01}, {"SEP2P"}, trials,
        overlay == sim::Parameters::OverlayKind::kChord ? obs.get()
                                                        : nullptr);
    if (!points.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   points.status().ToString().c_str());
      return 1;
    }
    const sim::StrategyPoint& p = (*points)[0];
    table.AddRow({overlay == sim::Parameters::OverlayKind::kChord ? "Chord"
                                                                  : "CAN",
                  bench::Num(p.setup_msg_latency, 1),
                  bench::Num(p.setup_msg_work, 1),
                  bench::Num(p.setup_crypto_work, 1),
                  bench::Num(p.verification_cost, 1),
                  bench::Num(p.effectiveness, 3)});
  }
  // Kademlia is not a sim::Parameters overlay (the paper's simulator
  // implements Chord and CAN); run it through the same harness manually.
  {
    sim::Parameters params = base;
    auto network = sim::Network::Build(params);
    if (!network.ok()) return 1;
    dht::KademliaOverlay kad(&(*network)->directory());
    core::ProtocolContext ctx = (*network)->context();
    ctx.overlay = &kad;
    strategies::Sep2pStrategy strategy(
        ctx, strategies::AdversaryConfig::Passive(), (*network)->coalition());
    util::Rng rng(params.seed ^ 0x6ad);
    sim::OnlineStats msg_lat, msg_work, ops, verif, corrupted;
    for (int t = 0; t < trials; ++t) {
      uint32_t trigger = static_cast<uint32_t>(
          rng.NextUint64((*network)->directory().size()));
      auto run = strategy.Run(trigger, rng);
      if (!run.ok()) return 1;
      msg_lat.Add(run->setup_cost.msg_latency);
      msg_work.Add(run->setup_cost.msg_work);
      ops.Add(run->setup_cost.crypto_work);
      verif.Add(run->verification_cost);
      corrupted.Add(run->corrupted_actors);
    }
    double ideal = static_cast<double>(params.actor_count) * params.c() /
                   params.n;
    double eff = corrupted.mean() <= ideal ? 1.0 : ideal / corrupted.mean();
    table.AddRow({"Kademlia", bench::Num(msg_lat.mean(), 1),
                  bench::Num(msg_work.mean(), 1), bench::Num(ops.mean(), 1),
                  bench::Num(verif.mean(), 1), bench::Num(eff, 3)});
  }
  table.Print();
  if (!obs.Write()) return 1;
  return 0;
}
