// Actor-selection strategy interface (paper §4.1, Table 3).
//
// Four strategies are evaluated head-to-head: SEP2P itself and three
// references derived from the baseline protocols of §3.1 but upgraded
// with the k-participant verifiable random (so the comparison isolates
// the *actor selection* design): ES.NAV, ES.AV and M.Hash.

#ifndef SEP2P_STRATEGIES_STRATEGY_H_
#define SEP2P_STRATEGIES_STRATEGY_H_

#include <memory>
#include <vector>

#include "core/context.h"
#include "core/selection.h"
#include "net/cost.h"
#include "net/sim_network.h"
#include "strategies/adversary.h"
#include "util/rng.h"

namespace sep2p::strategies {

struct StrategyOutcome {
  // Directory indices of the selected actors. Empty (with
  // attacker_controlled = true and corrupted_actors = A) when the
  // attacker substitutes fabricated identities, which only ES.NAV
  // permits.
  std::vector<uint32_t> actors;
  int corrupted_actors = 0;
  bool attacker_controlled = false;
  int relocations = 0;
  net::Cost setup_cost;
  // Per-verifier cost in asymmetric crypto operations (Definition 3):
  // SEP2P/ES.NAV: 2k; ES.AV: 2k+A+1; M.Hash: 2k+A.
  double verification_cost = 0;
};

class Strategy {
 public:
  // `coalition` is the epoch's colluders; like `ctx`, it must outlive
  // the strategy.
  Strategy(const core::ProtocolContext& ctx, const AdversaryConfig& adversary,
           const Coalition& coalition)
      : ctx_(ctx),
        adversary_(adversary),
        coalition_(coalition),
        network_(static_cast<uint32_t>(ctx.directory->size()),
                 net::kIdealLink, net::RetryPolicy{}, /*seed=*/0) {}
  virtual ~Strategy() = default;

  virtual const char* name() const = 0;
  virtual Result<StrategyOutcome> Run(uint32_t trigger_index,
                                      util::Rng& rng) = 0;

  // Attaches passive observability sinks to the strategy's transport
  // for subsequent Run calls (nullptr detaches). The protocol phases
  // that run over it (selection, vrand) are recorded and metered.
  void set_observers(obs::TraceRecorder* trace,
                     obs::MetricsRegistry* metrics) {
    network_.set_trace(trace);
    network_.set_metrics(metrics);
  }

 protected:
  const core::ProtocolContext& ctx_;
  AdversaryConfig adversary_;
  const Coalition& coalition_;
  // The zero-fault transport the protocols run over (net::kIdealLink):
  // every RPC succeeds on its first attempt, so each Run is a pure
  // function of its Rng. Owned per strategy, never shared across
  // threads.
  net::SimNetwork network_;
};

// SEP2P itself (wraps core::SelectionProtocol).
class Sep2pStrategy : public Strategy {
 public:
  using Strategy::Strategy;
  const char* name() const override { return "SEP2P"; }
  Result<StrategyOutcome> Run(uint32_t trigger_index,
                              util::Rng& rng) override;
};

std::unique_ptr<Strategy> MakeStrategy(const std::string& name,
                                       const core::ProtocolContext& ctx,
                                       const AdversaryConfig& adversary,
                                       const Coalition& coalition);

}  // namespace sep2p::strategies

#endif  // SEP2P_STRATEGIES_STRATEGY_H_
