// Live adversary scenarios (ROADMAP item 4).
//
// Each Scenario runs ONE attacked protocol execution end to end —
// restart loop included — with the coalition's malicious behaviour
// plugged into the core protocols through core::AttackHooks (consulted
// between message rounds, acted out by the participants' handlers on a
// zero-fault transport) or staged at the node layer
// (poisoned join caches, equivocating distribution). The scenario then
// reports what an omniscient observer saw: whether the coalition had an
// opportunity and deviated, whether any honest-observable signal fired,
// what the verifiers accepted, and what the attack cost.
//
// Detection model (covert adversary, paper §2.3-§2.4): a deviation is
// DETECTED when an honest participant could attribute it — a
// cryptographic verification rejects (VerifyVrand / VerifyActorList /
// VerifyAttestedCache return kSecurityViolation), a participant that
// committed goes silent (an attributable strike: attack runs inject no
// benign failures, so every abort names its defector), or the obs
// checker invariants fail on the trial trace (attack/oracle.h folds
// that in). Covert deviations — candidate-list bias, omissions outside
// any attestor's coverage — fire no signal; what they achieve is the
// residual selection bias the sweep reconciles against the paper's
// security-effectiveness bound.
//
// Determinism: scenarios draw exclusively from the per-trial RNG stream
// they are handed and read immutable shared state (the directory and
// the epoch's strategies::Coalition), so attacked sweeps are
// bit-identical for any --threads value (sim/trial_runner.h contract).

#ifndef SEP2P_ATTACK_SCENARIO_H_
#define SEP2P_ATTACK_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "core/context.h"
#include "net/cost.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "strategies/adversary.h"
#include "util/rng.h"
#include "util/status.h"

namespace sep2p::attack {

// One attacked execution, as seen by an omniscient observer.
struct AttackOutcome {
  bool attempted = false;  // the coalition had an opportunity and deviated
  bool detected = false;   // >=1 honest-observable signal fired
  bool accepted = false;   // verifiers accepted an actor list / cache
  bool succeeded = false;  // the scenario's attack goal was reached
  int corrupted_actors = 0;  // colluders among the ACCEPTED entries
  int actor_count = 0;       // accepted entries (actors or cache slots)
  int strikes = 0;   // attributable aborts charged to the coalition
  int attempts = 0;  // grind iterations (engagements, key generations)
  int restarts = 0;  // fresh-RND_T restarts the attack caused
  int relocations = 0;
  net::Cost cost;  // total setup cost actually paid, restarts included
  double verification_cost = 0;  // asymmetric ops per verifier
  std::string detection_signal;  // first signal; empty when undetected
};

class Scenario {
 public:
  // `coalition` is the trial's epoch coalition (drawn by
  // strategies::SampleColluders); like `ctx`, it must outlive the
  // scenario. It is the only place a scenario learns who colludes.
  Scenario(const core::ProtocolContext& ctx,
           const strategies::Coalition& coalition)
      : ctx_(ctx), coalition_(coalition) {}
  virtual ~Scenario() = default;

  virtual const char* name() const = 0;

  // Runs one attacked execution triggered by `trigger`. `trace` may be
  // null; when set, protocol phases and the attack's attribution marks
  // are recorded into it so attack/oracle.h can replay the checker
  // invariants. `metrics` is passive as everywhere.
  virtual Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                                    obs::TraceRecorder* trace,
                                    obs::MetricsRegistry* metrics) = 0;

 protected:
  const core::ProtocolContext& ctx_;
  const strategies::Coalition& coalition_;
};

// Scenario registry. "none" is the honest baseline every cost-overhead
// figure is measured against; the attacks are:
//   csar-grind  — colluding TLs withhold reveals until hash(RND_T)
//                 lands a colluding execution setter (selective abort
//                 against the commit-reveal, strike-budgeted).
//   sl-bias     — colluding SLs report only colluders in CL_j (covert).
//   sl-withhold — colluding SLs refuse to attest actor lists with
//                 below-par colluder counts (selective abort).
//   sl-forge    — colluding SLs sign actor lists stuffed with
//                 colluders; full capture only when every SL and the
//                 setter collude.
//   sybil-join  — identity grinding against imposed node location plus
//                 spoofed-location and certless join announces.
//   eclipse     — a colluding join neighbor serves the victim a
//                 poisoned attested cache (forged quorum + covert
//                 omission variants).
//   equivocate  — a colluding distributor hands doctored VAL copies to
//                 some verifiers and genuine ones to the rest.
std::unique_ptr<Scenario> MakeScenario(
    const std::string& name, const core::ProtocolContext& ctx,
    const strategies::Coalition& coalition);

// All registry names, baseline first — the order the ablation table
// prints and the CI smoke iterates.
const std::vector<std::string>& ScenarioNames();

}  // namespace sep2p::attack

#endif  // SEP2P_ATTACK_SCENARIO_H_
