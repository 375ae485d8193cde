#include "strategies/baselines.h"

#include "core/csar.h"

namespace sep2p::strategies {

Result<StrategyOutcome> IdealStrategy::Run(uint32_t trigger_index,
                                           util::Rng& rng) {
  (void)trigger_index;
  const dht::Directory& dir = *ctx_.directory;
  if (dir.alive_count() < static_cast<size_t>(ctx_.actor_count)) {
    return Status::ResourceExhausted("ideal: not enough nodes");
  }

  StrategyOutcome outcome;
  // The trusted server samples uniformly over all alive nodes — by
  // definition unbiasable even by the full coalition.
  std::vector<size_t> sample =
      rng.SampleIndices(dir.size(), ctx_.actor_count);
  for (size_t idx : sample) {
    outcome.actors.push_back(static_cast<uint32_t>(idx));
  }
  outcome.corrupted_actors = coalition_.CountIn(outcome.actors);
  // Server signs once; the querier fetches the list.
  outcome.setup_cost = net::Cost::Step(1, 2);
  outcome.verification_cost = 1;  // one signature check
  return outcome;
}

Result<StrategyOutcome> CsarStrategy::Run(uint32_t trigger_index,
                                          util::Rng& rng) {
  const uint64_t c = ctx_.ktable->c();
  core::CsarProtocol protocol(ctx_);
  Result<core::CsarProtocol::Outcome> run = protocol.Generate(
      trigger_index, static_cast<int>(c) + 1, rng);
  if (!run.ok()) return run.status();

  StrategyOutcome outcome;
  outcome.setup_cost = run->cost;
  // Rank-map the verified random onto the pubkey-sorted node list. The
  // commit-reveal makes the value uniform, so the selection is ideal.
  outcome.actors = core::CsarActorsFromRandom(
      *ctx_.directory, run->random.Value(), ctx_.actor_count);
  outcome.corrupted_actors = coalition_.CountIn(outcome.actors);
  // DHT variant of the baseline (§3.1): verifiers check each participant
  // (cert + signature) and each actor's genuineness: 2(C+1) + A.
  outcome.verification_cost =
      2.0 * (static_cast<double>(c) + 1) + ctx_.actor_count;
  return outcome;
}

}  // namespace sep2p::strategies
