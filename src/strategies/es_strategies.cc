#include "strategies/es_strategies.h"

#include <algorithm>

#include "core/vrand.h"
#include "crypto/sha256.h"
#include "dht/region.h"

namespace sep2p::strategies {

Result<StrategyOutcome> EsStrategyBase::Run(uint32_t trigger_index,
                                            util::Rng& rng) {
  const dht::Directory& dir = *ctx_.directory;

  // Shared stage: verifiable random around T.
  core::VrandProtocol vrand(ctx_);
  Result<core::VrandProtocol::Outcome> vr =
      vrand.Generate(trigger_index, rng, network_);
  if (!vr.ok()) return vr.status();

  StrategyOutcome outcome;
  outcome.setup_cost = vr->cost;
  const int k = vr->vrnd.k();
  outcome.verification_cost =
      verifies_actors() ? 2.0 * k + ctx_.actor_count + 1 : 2.0 * k;

  const crypto::Hash256 rnd_t = vr->vrnd.Value();
  const crypto::Hash256 p_hash =
      crypto::Hash256::Of(rnd_t.bytes().data(), rnd_t.bytes().size());
  const dht::RingPos p = p_hash.ring_pos();

  // Route to the legitimate Setter (messages are spent either way).
  Result<dht::RouteResult> route =
      ctx_.overlay->RouteKey(trigger_index, p_hash);
  if (!route.ok()) return route.status();
  outcome.setup_cost.Then(net::Cost::Step(0, route->hops));

  // Covert attack: a colluder inside the verifier tolerance claims to be
  // the Setter. The rightful Setter being itself corrupted has the same
  // effect.
  std::optional<uint32_t> setter;
  if (adversary_.claim_execution_setter) {
    setter = FindClaimingColluder(dir, coalition_, p, ctx_.tolerance_rs);
  }
  if (!setter.has_value()) setter = route->dest_index;
  const bool setter_corrupted = coalition_.contains(*setter);

  if (setter_corrupted && adversary_.stuff_actor_list) {
    outcome.attacker_controlled = true;
    if (!verifies_actors()) {
      // ES.NAV: actors are never certified, so the attacker presents A
      // fabricated identities it fully controls.
      outcome.corrupted_actors = ctx_.actor_count;
      outcome.setup_cost.Then(net::Cost::Step(1, 1));  // sign + publish
      return outcome;
    }
    // ES.AV: actors must be genuine PDMSs, so the attacker stuffs real
    // colluders (all of them if C < A, topping up with honest nodes).
    dht::Region r3 = dht::Region::Centered(p, ctx_.rs3);
    std::vector<uint32_t> colluders, honest;
    for (uint32_t idx : dir.NodesInRegion(r3)) {
      (coalition_.contains(idx) ? colluders : honest).push_back(idx);
    }
    // Colluders anywhere in the network can be enrolled by the corrupted
    // Setter — it freely chooses the list.
    for (uint32_t idx : coalition_.indices()) {
      if (static_cast<int>(colluders.size()) >= ctx_.actor_count) break;
      if (std::find(colluders.begin(), colluders.end(), idx) ==
          colluders.end()) {
        colluders.push_back(idx);
      }
    }
    for (uint32_t idx : colluders) {
      if (static_cast<int>(outcome.actors.size()) >= ctx_.actor_count) break;
      outcome.actors.push_back(idx);
    }
    for (uint32_t idx : honest) {
      if (static_cast<int>(outcome.actors.size()) >= ctx_.actor_count) break;
      outcome.actors.push_back(idx);
    }
    outcome.corrupted_actors = coalition_.CountIn(outcome.actors);
    outcome.setup_cost.Then(net::Cost::Step(1, 1));
    return outcome;
  }

  // Honest Setter: uniformly samples A actors from its node cache.
  dht::Region cache =
      dht::Region::Centered(dir.pos(*setter), ctx_.rs3);
  std::vector<uint32_t> pool = dir.NodesInRegion(cache);
  if (pool.size() < static_cast<size_t>(ctx_.actor_count)) {
    return Status::ResourceExhausted("es: cache smaller than actor count");
  }
  rng.Shuffle(pool);
  pool.resize(ctx_.actor_count);
  outcome.actors = std::move(pool);
  outcome.corrupted_actors = coalition_.CountIn(outcome.actors);
  // Setter signs the list, then pings the actors in parallel.
  outcome.setup_cost.Then(net::Cost::Step(1, 1));
  outcome.setup_cost.Then(
      net::Cost::ParIdentical(net::Cost::Step(0, 2), ctx_.actor_count));
  return outcome;
}

}  // namespace sep2p::strategies
