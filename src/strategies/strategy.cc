#include "strategies/strategy.h"

#include "strategies/baselines.h"
#include "strategies/es_strategies.h"
#include "strategies/mhash.h"

namespace sep2p::strategies {

Result<StrategyOutcome> Sep2pStrategy::Run(uint32_t trigger_index,
                                           util::Rng& rng) {
  core::SelectionProtocol protocol(ctx_);
  HideHonestEntries hide(coalition_);
  core::SelectionOptions options;
  if (adversary_.hide_honest_cache_entries) options.attack = &hide;
  Result<core::SelectionProtocol::Outcome> run =
      protocol.Run(trigger_index, rng, network_, options);
  if (!run.ok()) return run.status();

  StrategyOutcome outcome;
  outcome.actors = run->actor_indices;
  outcome.corrupted_actors = coalition_.CountIn(outcome.actors);
  outcome.relocations = run->relocations;
  outcome.setup_cost = run->cost;
  outcome.verification_cost = 2.0 * run->val.k();
  return outcome;
}

namespace {

template <typename S>
std::unique_ptr<Strategy> New(const core::ProtocolContext& ctx,
                              const AdversaryConfig& adversary,
                              const Coalition& coalition) {
  return std::make_unique<S>(ctx, adversary, coalition);
}

}  // namespace

std::unique_ptr<Strategy> MakeStrategy(const std::string& name,
                                       const core::ProtocolContext& ctx,
                                       const AdversaryConfig& adversary,
                                       const Coalition& coalition) {
  if (name == "SEP2P") return New<Sep2pStrategy>(ctx, adversary, coalition);
  if (name == "ES.NAV") return New<EsNavStrategy>(ctx, adversary, coalition);
  if (name == "ES.AV") return New<EsAvStrategy>(ctx, adversary, coalition);
  if (name == "M.Hash") return New<MHashStrategy>(ctx, adversary, coalition);
  if (name == "Ideal") return New<IdealStrategy>(ctx, adversary, coalition);
  if (name == "CSAR") return New<CsarStrategy>(ctx, adversary, coalition);
  return nullptr;
}

}  // namespace sep2p::strategies
