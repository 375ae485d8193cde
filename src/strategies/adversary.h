// Covert-adversary model (paper §2.3-§2.4, Assumption 3).
//
// Colluding nodes deviate from a protocol only when the deviation cannot
// be detected. Against the baseline strategies the profitable covert
// deviations are:
//
//  * Execution-Setter claiming: verifiers can only check that the party
//    presenting the actor list is "sufficiently near" hash(RND_T) — the
//    tolerance must admit a region that always holds at least one node,
//    or honest executions would stall. Any colluder inside the tolerance
//    region can therefore claim to be S undetected (ES.NAV/ES.AV; per
//    hashed destination for M.Hash).
//  * Actor-list stuffing: a corrupted list builder fills the list with
//    colluders (and, without actor verification, with fabricated ids).
//  * Cache-entry hiding: a corrupted SL under SEP2P reports only
//    colluders in its candidate list — defeated by the union with an
//    honest SL's list (§3.5 discussion); kept here so tests can prove it.
//
// Who colludes is a Coalition value, not directory state: one is drawn
// per simulation epoch (SampleColluders) and handed to the strategies,
// scenarios and attack hooks that act for it. Protocol code in core/
// sees the coalition only through those hooks.

#ifndef SEP2P_STRATEGIES_ADVERSARY_H_
#define SEP2P_STRATEGIES_ADVERSARY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/attack_hooks.h"
#include "dht/directory.h"
#include "dht/region.h"
#include "util/rng.h"

namespace sep2p::strategies {

struct AdversaryConfig {
  bool claim_execution_setter = true;
  bool stuff_actor_list = true;
  bool hide_honest_cache_entries = false;

  static AdversaryConfig Passive() { return {false, false, false}; }
};

// The colluding nodes of one simulation epoch. Immutable, so concurrent
// trials share it without synchronization.
class Coalition {
 public:
  Coalition() = default;
  // `indices` must be ascending and below `directory_size`.
  Coalition(std::vector<uint32_t> indices, size_t directory_size);

  // Directory indices of the members, ascending.
  const std::vector<uint32_t>& indices() const { return indices_; }
  size_t size() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }
  // O(1); false for handles added to the directory after the draw.
  bool contains(uint32_t index) const {
    return index < member_.size() && member_[index];
  }
  // Members among `indices` (e.g. the colluders in an actor list).
  int CountIn(const std::vector<uint32_t>& indices) const {
    int count = 0;
    for (uint32_t idx : indices) count += contains(idx) ? 1 : 0;
    return count;
  }

 private:
  std::vector<uint32_t> indices_;
  std::vector<bool> member_;  // indexed by directory handle
};

// Cache-entry hiding as an attack hook: every colluding SL leaves the
// honest entries out of its candidate list.
class HideHonestEntries : public core::AttackHooks {
 public:
  explicit HideHonestEntries(const Coalition& coalition)
      : coalition_(coalition) {}
  bool SlHidesCandidate(uint32_t sl_index, uint32_t candidate) override {
    return coalition_.contains(sl_index) && !coalition_.contains(candidate);
  }

 protected:
  const Coalition& coalition_;
};

// Returns a member of `coalition` inside the tolerance region around `p`
// able to impersonate the node responsible for `p`, if any.
std::optional<uint32_t> FindClaimingColluder(const dht::Directory& directory,
                                             const Coalition& coalition,
                                             dht::RingPos p,
                                             double tolerance_rs);

// The ONE colluder-placement rule, shared by the live simulator
// (sim::Network::Build and the per-epoch draws of the harnesses) and
// the closed-form adversary model: sample min(count, alive) distinct
// nodes uniformly from the alive population (standby/departed nodes
// never collude). The draw sequence is exactly Rng::SampleIndices over
// the alive ranks, so both consumers given the same seed get the
// identical coalition — the parity the attack sweep and the analytic
// effectiveness figures rely on.
Coalition SampleColluders(const dht::Directory& directory, uint64_t count,
                          util::Rng& rng);

}  // namespace sep2p::strategies

#endif  // SEP2P_STRATEGIES_ADVERSARY_H_
