// Malicious-behaviour injection seams.
//
// A benign failure (a dropped message, a crashed node — net::SimNetwork
// injects both) strikes at random; an ACTIVE adversary deviates
// *selectively* — a colluding TL withholds its reveal only when the
// committed RND_T does not favour the coalition, a colluding SL biases
// or refuses exactly the attestations worth biasing. AttackHooks
// exposes those decision points to the protocol drivers, which consult
// them between message rounds and act the decisions out in the
// participants' message handlers:
//
//   * TlWithholdsReveal — consulted per TL after every commitment is
//     fixed and the would-be RND_T is determined. This is the strongest
//     (rushing) adversary for CSAR grinding: the coalition sees the
//     outcome it would get and may abort the run by withholding one
//     reveal — that TL's reveal handler refuses, the RPC fails. It can
//     force a re-roll but never steer the value (the honest
//     participant's contribution keeps the XOR uniform).
//   * SlBiasesCandidates — the SL reports only colluding entries in its
//     candidate list CL_j (the covert cache-hiding deviation of §3.5).
//   * SlWithholdsAttest — the SL sees the actor list it is about to
//     attest (it computed the list itself in step 8) and its
//     attestation handler refuses to sign: a selective abort that
//     censors unfavourable selections.
//   * SlForgesAttest — the SL's attestation handler signs a DIFFERENT
//     actor list than the one the setter assembles, e.g. one stuffed
//     with colluders.
//
// The handlers are the per-call closures a transport with in-process
// dispatch (net::SimNetwork) runs; a resident core::ProtocolService
// behind a real socket answers honestly. The protocols consult a hook
// only when one is installed; with no hooks (the default everywhere) the
// executed instruction sequence — RNG draws, messages, trace events,
// costs — is byte-identical to hook-free builds. Implementations live in
// src/attack/ (core cannot depend on them); they must be deterministic
// functions of the per-trial RNG stream so attacked sweeps stay
// bit-identical for any thread count.

#ifndef SEP2P_CORE_ATTACK_HOOKS_H_
#define SEP2P_CORE_ATTACK_HOOKS_H_

#include <cstdint>
#include <vector>

#include "crypto/hash256.h"
#include "crypto/signature_provider.h"

namespace sep2p::core {

class AttackHooks {
 public:
  virtual ~AttackHooks() = default;

  // Called once per engagement with the final TL set (after the
  // commitments arrive, before any reveal); lets a coalition coordinate
  // across its members.
  virtual void OnTlQuorum(const std::vector<uint32_t>& /*tls*/) {}

  // Consulted per TL in commitment order, after all commitments are
  // fixed, until the first withholder. `rnd_t` is the XOR the reveal
  // round would produce. Returning true withholds this TL's reveal (its
  // reveal handler refuses): the run aborts (kUnavailable) and
  // the trigger restarts with a fresh engagement — an attributable
  // strike, since the TL visibly defected after committing.
  virtual bool TlWithholdsReveal(uint32_t /*tl_index*/,
                                 const crypto::Hash256& /*rnd_t*/) {
    return false;
  }

  // Called once per attempt with the engaged SL set (after the
  // commitments arrive).
  virtual void OnSlQuorum(const std::vector<uint32_t>& /*sls*/) {}

  // Consulted once per engaged SL when its candidate list is built.
  // True = a colluding SL `sl_index` reports only colluding entries in
  // its candidate list (covert: the union with one honest CL restores
  // the full pool, so nothing observable changes).
  virtual bool SlBiasesCandidates(uint32_t /*sl_index*/) { return false; }

  // Consulted per SL, in member order, before the attestation round (the
  // SL legitimately knows `actors`: it computed the identical list in
  // step 8); consultation stops at the first withholder. Returning true
  // withholds the attestation — the selection aborts and restarts,
  // another attributable strike.
  virtual bool SlWithholdsAttest(
      uint32_t /*sl_index*/, const std::vector<crypto::PublicKey>& /*actors*/) {
    return false;
  }

  // Consulted per SL before the attestation round, right after
  // SlWithholdsAttest declined. Returning true makes the SL sign a
  // VAL whose actor keys are `*forged_actors` instead of `actors`; the
  // assembled VAL still carries the honest list, so any verifier's
  // signature check exposes the forgery — unless EVERY attestation (and
  // the assembling setter) belongs to the coalition.
  virtual bool SlForgesAttest(
      uint32_t /*sl_index*/, const std::vector<crypto::PublicKey>& /*actors*/,
      std::vector<crypto::PublicKey>* /*forged_actors*/) {
    return false;
  }
};

}  // namespace sep2p::core

#endif  // SEP2P_CORE_ATTACK_HOOKS_H_
