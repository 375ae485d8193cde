#include "attack/scenario.h"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "core/attack_hooks.h"
#include "core/selection.h"
#include "core/vrand.h"
#include "dht/node_id.h"
#include "dht/region.h"
#include "net/sim_network.h"
#include "node/join.h"
#include "node/node_cache.h"
#include "strategies/adversary.h"

namespace sep2p::attack {

namespace {

// Fresh-RND_T restart budget, as in the failure sweeps: the honest
// remedy for any mid-protocol abort (§3.6).
constexpr int kMaxAttempts = 25;
// Attributable aborts the coalition is willing to risk per execution —
// a covert adversary cannot strike forever, every strike names the
// defector (it committed, then went silent).
constexpr int kStrikeBudget = 8;
// Key generations the Sybil campaign spends trying to land an identity
// inside the target region (expected need: 1/rs draws).
constexpr int kSybilKeyBudget = 64;
// Parties a VAL is disclosed to in the equivocation scenario.
constexpr int kEquivocateVerifiers = 8;

// The coalition's stuffing recipe, shared by sl-forge and equivocate so
// every colluding participant fabricates the IDENTICAL list without
// coordination messages: coalition keys in ascending directory order,
// truncated to `count`.
std::vector<crypto::PublicKey> CoalitionList(
    const dht::Directory& dir, const strategies::Coalition& coalition,
    size_t count) {
  std::vector<crypto::PublicKey> keys;
  keys.reserve(std::min(count, coalition.size()));
  for (uint32_t idx : coalition.indices()) {
    if (keys.size() == count) break;
    keys.push_back(dir.pub(idx));
  }
  return keys;
}

// Restart loop shared by the selection-based scenarios: kUnavailable
// aborts restart with a fresh engagement, anything else is a real
// error. The execution runs over a zero-fault transport (net::kIdealLink)
// observed by `trace`/`metrics`, so no benign failure is ever injected:
// every abort is a coalition strike — a participant's handler refusing
// to answer — or its collateral.
Result<core::SelectionProtocol::Outcome> RunWithRestarts(
    const core::ProtocolContext& ctx, uint32_t trigger, util::Rng& rng,
    obs::TraceRecorder* trace, obs::MetricsRegistry* metrics,
    core::AttackHooks* hooks, int* restarts) {
  net::SimNetwork network(static_cast<uint32_t>(ctx.directory->size()),
                          net::kIdealLink, net::RetryPolicy{}, /*seed=*/0);
  network.set_trace(trace);
  network.set_metrics(metrics);
  core::SelectionProtocol protocol(ctx);
  core::SelectionOptions options;
  options.attack = hooks;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    Result<core::SelectionProtocol::Outcome> run =
        protocol.Run(trigger, rng, network, options);
    if (run.ok()) return run;
    if (run.status().code() != StatusCode::kUnavailable) {
      return run.status();
    }
    ++*restarts;
  }
  return Status::ResourceExhausted("attack: restart budget exhausted");
}

// Hands the completed selection to a verifier (the data source's 2k-op
// check) and fills the acceptance-side fields. Never clears an earlier
// detection signal — a strike stays detected even if the final list
// verifies.
void FinishSelection(const core::ProtocolContext& ctx,
                     const strategies::Coalition& coalition,
                     const core::SelectionProtocol::Outcome& run,
                     obs::MetricsRegistry* metrics, AttackOutcome& out) {
  out.cost = run.cost;
  out.relocations = run.relocations;
  out.verification_cost += 2.0 * run.val.k();
  Result<net::Cost> verdict = core::VerifyActorList(ctx, run.val, metrics);
  if (!verdict.ok()) {
    out.detected = true;
    if (out.detection_signal.empty()) {
      out.detection_signal = verdict.status().message();
    }
    return;
  }
  out.accepted = true;
  out.actor_count = static_cast<int>(run.actor_indices.size());
  out.corrupted_actors = coalition.CountIn(run.actor_indices);
}

// ------------------------------------------------------------- baseline

class NoneScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "none"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    AttackOutcome out;
    Result<core::SelectionProtocol::Outcome> run =
        RunWithRestarts(ctx_, trigger, rng, trace, metrics, nullptr,
                        &out.restarts);
    if (!run.ok()) return run.status();
    out.attempts = out.restarts + 1;
    FinishSelection(ctx_, coalition_, *run, metrics, out);
    return out;
  }
};

// ----------------------------------------------------------- csar-grind

// Colluding TLs grind the commit-reveal: after the commitments fix the
// would-be RND_T, the coalition withholds a reveal whenever the
// resulting execution setter (successor of hash(RND_T)) is not one of
// theirs, forcing a re-roll. Bounded by the strike budget; CSAR's
// guarantee is exactly that this can only RE-ROLL, never steer.
class GrindHooks final : public core::AttackHooks {
 public:
  GrindHooks(const core::ProtocolContext& ctx,
             const strategies::Coalition& coalition)
      : ctx_(ctx), coalition_(coalition) {}

  void OnTlQuorum(const std::vector<uint32_t>& tls) override {
    for (uint32_t tl : tls) {
      if (coalition_.contains(tl)) {
        opportunity = true;
        return;
      }
    }
  }

  bool TlWithholdsReveal(uint32_t tl,
                         const crypto::Hash256& rnd_t) override {
    if (strikes >= kStrikeBudget) return false;
    if (!coalition_.contains(tl)) return false;
    const crypto::Hash256 p =
        crypto::Hash256::Of(rnd_t.bytes().data(), rnd_t.bytes().size());
    std::optional<uint32_t> setter =
        ctx_.directory->SuccessorIndex(p.ring_pos());
    if (setter.has_value() && coalition_.contains(*setter)) {
      return false;  // favourable outcome: reveal honestly
    }
    ++strikes;
    return true;
  }

  const core::ProtocolContext& ctx_;
  const strategies::Coalition& coalition_;
  bool opportunity = false;
  int strikes = 0;
};

class CsarGrindScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "csar-grind"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    GrindHooks hooks(ctx_, coalition_);
    AttackOutcome out;
    Result<core::SelectionProtocol::Outcome> run =
        RunWithRestarts(ctx_, trigger, rng, trace, metrics, &hooks,
                        &out.restarts);
    if (!run.ok()) return run.status();
    out.attempted = hooks.opportunity || hooks.strikes > 0;
    out.strikes = hooks.strikes;
    out.attempts = out.restarts + 1;
    if (hooks.strikes > 0) {
      out.detected = true;
      out.detection_signal = "TL withheld its reveal after committing";
    }
    FinishSelection(ctx_, coalition_, *run, metrics, out);
    out.succeeded = out.accepted && coalition_.contains(run->setter_index);
    return out;
  }
};

// -------------------------------------------------------------- sl-bias

// The §3.5 covert deviation: colluding SLs report only colluders in
// CL_j. Perfectly covert — and perfectly futile unless EVERY engaged SL
// colludes, because the union with one honest candidate list restores
// the full pool before the RND_S sort.
class BiasHooks final : public strategies::HideHonestEntries {
 public:
  using HideHonestEntries::HideHonestEntries;

  void OnSlQuorum(const std::vector<uint32_t>& sls) override {
    const int colluding = coalition_.CountIn(sls);
    opportunity |= colluding > 0;
    all_colluding = colluding == static_cast<int>(sls.size());
  }

  bool opportunity = false;
  bool all_colluding = false;  // of the most recent (= final) quorum
};

class SlBiasScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "sl-bias"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    BiasHooks hooks(coalition_);
    AttackOutcome out;
    Result<core::SelectionProtocol::Outcome> run =
        RunWithRestarts(ctx_, trigger, rng, trace, metrics, &hooks,
                        &out.restarts);
    if (!run.ok()) return run.status();
    out.attempted = hooks.opportunity;
    out.attempts = out.restarts + 1;
    FinishSelection(ctx_, coalition_, *run, metrics, out);
    // Full capture requires an all-colluding quorum (probability bounded
    // by alpha): then the union holds colluders only.
    out.succeeded = out.accepted && hooks.all_colluding &&
                    out.corrupted_actors == out.actor_count;
    return out;
  }
};

// ---------------------------------------------------------- sl-withhold

// Selective abort at the attestation step: a colluding SL knows the
// actor list it is about to attest (it computed the identical list in
// step 8) and refuses to sign when the coalition's share is not above
// par, censoring the distribution upward. Every refusal is a strike.
class WithholdHooks final : public core::AttackHooks {
 public:
  WithholdHooks(const core::ProtocolContext& ctx,
                const strategies::Coalition& coalition,
                double colluding_fraction)
      : ctx_(ctx),
        coalition_(coalition),
        colluding_fraction_(colluding_fraction) {}

  bool SlWithholdsAttest(
      uint32_t sl, const std::vector<crypto::PublicKey>& actors) override {
    if (!coalition_.contains(sl)) return false;
    opportunity = true;
    if (strikes >= kStrikeBudget) return false;
    int corrupted = 0;
    for (const crypto::PublicKey& key : actors) {
      std::optional<uint32_t> idx =
          ctx_.directory->IndexOf(dht::NodeIdForKey(key));
      if (idx.has_value() && coalition_.contains(*idx)) ++corrupted;
    }
    const double ideal =
        static_cast<double>(actors.size()) * colluding_fraction_;
    if (static_cast<double>(corrupted) > ideal) return false;  // above par
    ++strikes;
    return true;
  }

  const core::ProtocolContext& ctx_;
  const strategies::Coalition& coalition_;
  double colluding_fraction_;
  bool opportunity = false;
  int strikes = 0;
};

class SlWithholdScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "sl-withhold"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    const double fraction =
        static_cast<double>(coalition_.size()) /
        static_cast<double>(ctx_.directory->alive_count());
    WithholdHooks hooks(ctx_, coalition_, fraction);
    AttackOutcome out;
    Result<core::SelectionProtocol::Outcome> run =
        RunWithRestarts(ctx_, trigger, rng, trace, metrics, &hooks,
                        &out.restarts);
    if (!run.ok()) return run.status();
    out.attempted = hooks.opportunity;
    out.strikes = hooks.strikes;
    out.attempts = out.restarts + 1;
    if (hooks.strikes > 0) {
      out.detected = true;
      out.detection_signal =
          "SL refused to attest the list it helped build";
    }
    FinishSelection(ctx_, coalition_, *run, metrics, out);
    // Success = the censoring worked: the coalition had its SL in place
    // and the surviving (accepted) list is above the unbiased par.
    const double ideal = static_cast<double>(out.actor_count) * fraction;
    out.succeeded = out.attempted && out.accepted &&
                    static_cast<double>(out.corrupted_actors) > ideal;
    return out;
  }
};

// ------------------------------------------------------------- sl-forge

// Colluding SLs sign a coalition-stuffed actor list instead of the one
// the reveals determined. The assembled VAL carries the honest keys, so
// the first verifier's signature check exposes every forged attestation
// — full capture needs ALL k attestations AND the assembling setter in
// the coalition, the event alpha bounds.
class ForgeHooks final : public core::AttackHooks {
 public:
  ForgeHooks(const core::ProtocolContext& ctx,
             const strategies::Coalition& coalition)
      : ctx_(ctx), coalition_(coalition) {}

  void OnSlQuorum(const std::vector<uint32_t>& sls) override {
    for (uint32_t sl : sls) {
      if (coalition_.contains(sl)) {
        opportunity = true;
        return;
      }
    }
  }

  bool SlForgesAttest(
      uint32_t sl, const std::vector<crypto::PublicKey>& actors,
      std::vector<crypto::PublicKey>* forged_actors) override {
    if (!coalition_.contains(sl)) return false;
    ++forged;
    *forged_actors =
        CoalitionList(*ctx_.directory, coalition_, actors.size());
    return true;
  }

  const core::ProtocolContext& ctx_;
  const strategies::Coalition& coalition_;
  bool opportunity = false;
  int forged = 0;  // attestations forged in the final attempt
};

class SlForgeScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "sl-forge"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    ForgeHooks hooks(ctx_, coalition_);
    AttackOutcome out;
    Result<core::SelectionProtocol::Outcome> run =
        RunWithRestarts(ctx_, trigger, rng, trace, metrics, &hooks,
                        &out.restarts);
    if (!run.ok()) return run.status();
    out.attempted = hooks.opportunity;
    out.attempts = out.restarts + 1;
    // Full capture: every attestation is forged over the SAME stuffed
    // list and the setter (who assembles the VAL) is a colluder, so the
    // coalition ships the stuffed list with k matching signatures — the
    // sub-alpha event the k-table sizing is chosen against.
    if (hooks.forged == run->val.k() && hooks.forged > 0 &&
        coalition_.contains(run->setter_index)) {
      core::VerifiableActorList captured = run->val;
      captured.actor_keys = CoalitionList(*ctx_.directory, coalition_,
                                          run->val.actor_keys.size());
      out.cost = run->cost;
      out.relocations = run->relocations;
      out.verification_cost += 2.0 * captured.k();
      Result<net::Cost> verdict =
          core::VerifyActorList(ctx_, captured, metrics);
      if (verdict.ok()) {
        out.accepted = true;
        out.succeeded = true;
        out.actor_count = static_cast<int>(captured.actor_keys.size());
        out.corrupted_actors = out.actor_count;
        return out;
      }
      // Fall through: even the coordinated VAL failed (e.g. a stuffed
      // key outside every legitimacy assumption) — treat as detected.
    }
    FinishSelection(ctx_, coalition_, *run, metrics, out);
    if (!out.accepted && hooks.forged > 0 &&
        out.detection_signal.empty()) {
      out.detection_signal = "val: bad SL signature";
    }
    return out;
  }
};

// ----------------------------------------------------------- sybil-join

// Campaign against imposed node location (§3.2): identities are
// id = hash(kpub), so position is not choosable — the attacker can only
// GRIND key pairs hoping to land inside the target region (expected
// 1/rs generations), and even a landed key fails the join announce:
// every honest receiver recomputes hash(kpub) against the claimed
// position and demands a CA certificate the offline authority never
// issued for a fabricated identity.
class SybilJoinScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "sybil-join"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    (void)trigger;
    AttackOutcome out;
    out.attempted = true;
    const dht::Directory& dir = *ctx_.directory;

    // Target: a tolerance-sized region around a random ring point (the
    // smallest region the protocols ever treat as a neighborhood).
    const std::array<uint8_t, 32> point_bytes = rng.NextBytes32();
    const crypto::Hash256 point =
        crypto::Hash256::Of(point_bytes.data(), point_bytes.size());
    const dht::Region target =
        dht::Region::Centered(point.ring_pos(), ctx_.tolerance_rs);

    // (a) Identity grinding: each generation costs one asymmetric op.
    bool landed = false;
    crypto::KeyPair ground;
    for (int i = 0; i < kSybilKeyBudget && !landed; ++i) {
      ++out.attempts;
      Result<crypto::KeyPair> kp = ctx_.provider->GenerateKeyPair(rng);
      if (!kp.ok()) return kp.status();
      out.cost.Then(net::Cost::Step(1, 0));
      if (target.Contains(dht::NodeIdForKey(kp->pub))) {
        landed = true;
        ground = std::move(kp.value());
      }
    }
    if (trace != nullptr) {
      trace->Mark(obs::kNoNode, "attack-sybil-grind",
                  static_cast<uint64_t>(out.attempts));
    }

    // (b) The landed identity has no CA certificate; the best the
    // attacker can do is staple a colluder's CA signature onto the new
    // subject — the receiver's one-op certificate check rejects it.
    bool forged_cert_passed = false;
    if (landed) {
      crypto::Certificate forged;
      forged.subject = ground.pub;
      if (!coalition_.empty()) {
        const crypto::Certificate donor = dir.cert(coalition_.indices()[0]);
        forged.serial = donor.serial;
        forged.ca_signature = donor.ca_signature;
      }
      out.verification_cost += 1;
      forged_cert_passed = ctx_.ca->Check(forged);
      if (metrics != nullptr) metrics->Inc(obs::Counter::kCryptoVerify);
    }

    // (c) Location spoofing with a GENUINE certificate: a certified
    // colluder announces the target point as its position. The receiver
    // recomputes hash(kpub) — locations are imposed exactly, there is
    // no tolerance in the announce check — so the spoof is rejected
    // unless the colluder's true identity already lies in the target.
    bool spoof_passed = false;
    if (!coalition_.empty()) {
      const crypto::Certificate cert = dir.cert(coalition_.indices()[0]);
      out.verification_cost += 1;
      if (metrics != nullptr) metrics->Inc(obs::Counter::kCryptoVerify);
      spoof_passed = target.Contains(cert.NodeIdFromSubject());
    }

    out.succeeded = forged_cert_passed || spoof_passed;
    if (!out.succeeded) {
      out.detected = true;
      out.detection_signal =
          landed ? "join announce rejected: no genuine CA certificate"
                 : "join announce rejected: position != hash(kpub)";
    }
    return out;
  }
};

// -------------------------------------------------------------- eclipse

// A colluding Chord neighbor poisons the attested cache it serves to a
// (re)joining victim. The forged-quorum variant (attestations from
// coalition members instead of k legitimate R1 nodes) is caught by
// VerifyAttestedCache; the covert variant only OMITS honest entries no
// legitimate attestor's coverage can vouch for, which verifies clean —
// the residual cache bias is the measurable damage.
class EclipseScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "eclipse"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    (void)trigger;
    (void)metrics;
    AttackOutcome out;
    const dht::Directory& dir = *ctx_.directory;
    if (coalition_.empty()) return out;

    // Victim: the honest successor of a random colluder — the node that
    // would ask that colluder for an attested cache on join.
    const uint32_t poisoner = coalition_.indices()[static_cast<size_t>(
        rng.NextUint64(coalition_.size()))];
    std::optional<uint32_t> vic = dir.SuccessorIndex(dir.pos(poisoner) + 1);
    if (!vic.has_value() || *vic == poisoner || coalition_.contains(*vic)) {
      return out;
    }
    const uint32_t victim = *vic;
    out.attempted = true;

    core::KTable::Choice choice =
        ctx_.ktable->ChooseForPoint(dir, dir.pos(poisoner), ctx_.rs3);
    if (!choice.found) return out;
    const int k = choice.entry.k;

    // Variant A — forged attestor quorum: the poisoner vouches for a
    // colluders-only snapshot with attestations from coalition members.
    // They are genuine certified nodes, but not legitimate w.r.t. R1
    // around the owner, which is exactly what the verifier checks.
    {
      node::AttestedCache forged;
      forged.owner_cert = dir.cert(poisoner);
      forged.timestamp = ctx_.now;
      forged.rs1 = choice.entry.rs;
      for (uint32_t idx : coalition_.indices()) {
        if (idx != poisoner) forged.entries.push_back(dir.pub(idx));
      }
      const std::vector<uint8_t> bytes = forged.SignedBytes();
      int signed_count = 0;
      for (uint32_t idx : coalition_.indices()) {
        if (idx == poisoner) continue;
        if (signed_count == k) break;
        Result<crypto::Signature> sig = ctx_.SignAs(idx, bytes);
        if (!sig.ok()) return sig.status();
        forged.attestations.push_back({dir.cert(idx), *sig});
        ++signed_count;
      }
      out.cost.Then(net::Cost::ParIdentical(net::Cost::Step(1, 2),
                                            signed_count));
      out.verification_cost += 2.0 * signed_count + 1;
      Result<net::Cost> verdict = node::VerifyAttestedCache(ctx_, forged);
      if (!verdict.ok()) {
        out.detected = true;
        out.detection_signal = verdict.status().message();
        if (trace != nullptr) {
          trace->Mark(victim, "attack-eclipse-rejected", 0);
        }
      } else {
        // Every forged attestor happened to be R1-legitimate — the
        // coalition owns the victim's whole neighborhood.
        out.succeeded = true;
      }
    }

    // Variant B — covert omission: honest attestors cross-check the
    // entries against their own caches, so the poisoner only drops
    // honest entries OUTSIDE every attestor's coverage. This snapshot
    // verifies clean; what remains is the bias it leaves in the
    // victim's final cache.
    dht::Region r1 =
        dht::Region::Centered(dir.pos(poisoner), choice.entry.rs);
    std::vector<uint32_t> attestors = dir.NodesInRegion(r1);
    std::erase(attestors, poisoner);
    if (attestors.size() < static_cast<size_t>(k)) return out;
    rng.Shuffle(attestors);
    attestors.resize(static_cast<size_t>(k));

    node::NodeCache view(&dir, poisoner, ctx_.rs3);
    const std::vector<uint32_t> full = view.Entries();
    std::vector<uint32_t> kept;
    int hidden = 0;
    for (uint32_t idx : full) {
      bool vouched = false;
      for (uint32_t attestor : attestors) {
        dht::Region coverage =
            dht::Region::Centered(dir.pos(attestor), ctx_.rs3);
        if (coverage.Contains(dir.pos(idx))) {
          vouched = true;
          break;
        }
      }
      if (!coalition_.contains(idx) && !vouched) {
        ++hidden;  // covertly omitted: nobody can disprove the omission
        continue;
      }
      kept.push_back(idx);
    }

    node::AttestedCache covert;
    covert.owner_cert = dir.cert(poisoner);
    covert.timestamp = ctx_.now;
    covert.rs1 = choice.entry.rs;
    for (uint32_t idx : kept) covert.entries.push_back(dir.pub(idx));
    const std::vector<uint8_t> covert_bytes = covert.SignedBytes();
    for (uint32_t attestor : attestors) {
      Result<crypto::Signature> sig = ctx_.SignAs(attestor, covert_bytes);
      if (!sig.ok()) return sig.status();
      covert.attestations.push_back({dir.cert(attestor), *sig});
    }
    out.cost.Then(net::Cost::ParIdentical(net::Cost::Step(1, 2), k));
    out.verification_cost += 2.0 * k + 1;
    Result<net::Cost> verdict = node::VerifyAttestedCache(ctx_, covert);
    if (!verdict.ok()) {
      // Should not happen: the covert snapshot is well-formed.
      out.detected = true;
      if (out.detection_signal.empty()) {
        out.detection_signal = verdict.status().message();
      }
      return out;
    }

    // The victim unions the poisoned snapshot with its OTHER neighbor's
    // honest cache and keeps what its own coverage admits (§3.6).
    dht::Region coverage =
        dht::Region::Centered(dir.pos(victim), ctx_.rs3);
    std::vector<uint32_t> final_cache;
    for (uint32_t idx : kept) {
      if (idx != victim && coverage.Contains(dir.pos(idx))) {
        final_cache.push_back(idx);
      }
    }
    std::optional<uint32_t> pred = dir.PredecessorIndex(dir.pos(victim));
    if (pred.has_value() && *pred != victim) {
      node::NodeCache honest(&dir, *pred, ctx_.rs3);
      for (uint32_t idx : honest.Entries()) {
        if (idx != victim && coverage.Contains(dir.pos(idx))) {
          final_cache.push_back(idx);
        }
      }
    }
    std::sort(final_cache.begin(), final_cache.end());
    final_cache.erase(std::unique(final_cache.begin(), final_cache.end()),
                      final_cache.end());

    out.accepted = true;
    out.actor_count = static_cast<int>(final_cache.size());
    out.corrupted_actors = coalition_.CountIn(final_cache);
    out.succeeded = out.succeeded || hidden > 0;
    out.strikes = hidden;  // covertly suppressed honest entries
    return out;
  }
};

// ----------------------------------------------------------- equivocate

// Verification-time equivocation: a colluding distributor (the setter
// or any colluding SL) discloses a doctored VAL — coalition-stuffed
// actors under the ORIGINAL attestations — to half the verifiers and
// the genuine one to the rest. Verification is deterministic over the
// signed bytes, so every doctored recipient rejects; equivocation
// cannot split the verifiers' view.
class EquivocateScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "equivocate"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    AttackOutcome out;
    Result<core::SelectionProtocol::Outcome> run =
        RunWithRestarts(ctx_, trigger, rng, trace, metrics, nullptr,
                        &out.restarts);
    if (!run.ok()) return run.status();
    out.attempts = out.restarts + 1;

    const dht::Directory& dir = *ctx_.directory;
    bool distributor = coalition_.contains(run->setter_index);
    for (uint32_t sl : run->sl_indices) {
      distributor |= coalition_.contains(sl);
    }
    FinishSelection(ctx_, coalition_, *run, metrics, out);
    if (!distributor || !out.accepted) return out;

    out.attempted = true;
    core::VerifiableActorList doctored = run->val;
    doctored.actor_keys = CoalitionList(dir, coalition_,
                                        run->val.actor_keys.size());
    int caught = 0;
    for (int v = 0; v < kEquivocateVerifiers; ++v) {
      const bool gets_doctored = (v % 2) == 0;
      out.verification_cost += 2.0 * run->val.k();
      Result<net::Cost> verdict = core::VerifyActorList(
          ctx_, gets_doctored ? doctored : run->val, metrics);
      if (gets_doctored && !verdict.ok()) ++caught;
      if (gets_doctored && verdict.ok()) out.succeeded = true;
    }
    if (caught > 0) {
      out.detected = true;
      out.detection_signal =
          "equivocated VAL rejected by recipient verifier";
    }
    (void)rng;
    return out;
  }
};

}  // namespace

std::unique_ptr<Scenario> MakeScenario(
    const std::string& name, const core::ProtocolContext& ctx,
    const strategies::Coalition& coalition) {
  if (name == "none") return std::make_unique<NoneScenario>(ctx, coalition);
  if (name == "csar-grind") {
    return std::make_unique<CsarGrindScenario>(ctx, coalition);
  }
  if (name == "sl-bias") {
    return std::make_unique<SlBiasScenario>(ctx, coalition);
  }
  if (name == "sl-withhold") {
    return std::make_unique<SlWithholdScenario>(ctx, coalition);
  }
  if (name == "sl-forge") {
    return std::make_unique<SlForgeScenario>(ctx, coalition);
  }
  if (name == "sybil-join") {
    return std::make_unique<SybilJoinScenario>(ctx, coalition);
  }
  if (name == "eclipse") {
    return std::make_unique<EclipseScenario>(ctx, coalition);
  }
  if (name == "equivocate") {
    return std::make_unique<EquivocateScenario>(ctx, coalition);
  }
  return nullptr;
}

const std::vector<std::string>& ScenarioNames() {
  static const std::vector<std::string> kNames = {
      "none",       "csar-grind", "sl-bias",  "sl-withhold",
      "sl-forge",   "sybil-join", "eclipse",  "equivocate"};
  return kNames;
}

}  // namespace sep2p::attack
