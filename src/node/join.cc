#include "node/join.h"

#include <algorithm>
#include <set>

#include "core/messages.h"
#include "core/protocol_service.h"
#include "crypto/hash256.h"
#include "dht/region.h"
#include "node/node_cache.h"

namespace sep2p::node {

std::vector<uint8_t> AttestedCache::SignedBytes() const {
  std::vector<uint8_t> out;
  out.reserve(32 + 8 + entries.size() * 32);
  out.insert(out.end(), owner_cert.subject.begin(),
             owner_cert.subject.end());
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<uint8_t>(timestamp >> (8 * i)));
  }
  for (const crypto::PublicKey& key : entries) {
    out.insert(out.end(), key.begin(), key.end());
  }
  return out;
}

Result<AttestedCache> JoinProtocol::AttestCache(uint32_t owner_index,
                                                util::Rng& rng) const {
  const dht::Directory& dir = *ctx_.directory;
  AttestedCache cache;
  cache.owner_cert = dir.cert(owner_index);
  cache.timestamp = ctx_.now;

  NodeCache view(&dir, owner_index, ctx_.rs3);
  for (uint32_t idx : view.Entries()) {
    cache.entries.push_back(dir.pub(idx));
  }

  // k legitimate attestors around the owner (R1 capped at the cache
  // coverage, as everywhere).
  core::KTable::Choice choice =
      ctx_.ktable->ChooseForPoint(dir, dir.pos(owner_index), ctx_.rs3);
  if (!choice.found) {
    return Status::ResourceExhausted("attest: owner's region too sparse");
  }
  cache.rs1 = choice.entry.rs;
  dht::Region r1 = dht::Region::Centered(dir.pos(owner_index), cache.rs1);
  std::vector<uint32_t> attestors = dir.NodesInRegion(r1);
  std::erase(attestors, owner_index);
  if (attestors.size() < static_cast<size_t>(choice.entry.k)) {
    return Status::ResourceExhausted("attest: fewer than k attestors");
  }
  rng.Shuffle(attestors);

  // Each attestor cross-checks the entries against its own cache (its
  // coverage overlaps the owner's, so lies about shared ground would be
  // detected — covert adversaries therefore sign honestly) and signs:
  // AttestRequest out, attestations back. Only a resident attestor
  // reads the digest and preimage (it checks one against the other
  // before signing); the in-process handler signs `signed_bytes`, so
  // the ~16 KB snapshot is not hashed for it.
  const std::vector<uint8_t> signed_bytes = cache.SignedBytes();
  core::msg::AttestRequest request;
  if (transport_.remote_dispatch()) {
    request.digest =
        crypto::Hash256::Of(signed_bytes.data(), signed_bytes.size());
    request.preimage = signed_bytes;
  }
  const std::vector<uint8_t> request_bytes = core::msg::Encode(request);
  obs::MetricsRegistry* met = transport_.metrics();
  net::Transport::QuorumResult quorum = transport_.EngageQuorum(
      owner_index, attestors, choice.entry.k,
      [&](uint32_t) { return request_bytes; },
      [&](uint32_t server, const std::vector<uint8_t>& req)
          -> std::optional<std::vector<uint8_t>> {
        if (!core::msg::DecodeAttestRequest(req).ok()) return std::nullopt;
        return core::AttestReply(ctx_, met, server, signed_bytes);
      });
  if (!quorum.ok) {
    return Status::Unavailable("attest: attestor quorum unreachable");
  }
  for (int j = 0; j < choice.entry.k; ++j) {
    Result<core::msg::Attestation> att =
        core::msg::DecodeAttestation(quorum.replies[j]);
    if (!att.ok()) return att.status();
    cache.attestations.push_back({std::move(att->cert), std::move(att->sig)});
  }
  return cache;
}

Result<JoinProtocol::Outcome> JoinProtocol::Join(uint32_t newcomer_index,
                                                 util::Rng& rng) const {
  const dht::Directory& dir = *ctx_.directory;
  const dht::RingPos newcomer_pos = dir.pos(newcomer_index);

  // Chord neighbors of the newcomer (skipping itself).
  std::optional<uint32_t> successor = dir.SuccessorIndex(newcomer_pos + 1);
  if (!successor.has_value() || *successor == newcomer_index) {
    return Status::Unavailable("join: no successor");
  }
  std::optional<uint32_t> predecessor = dir.PredecessorIndex(newcomer_pos);
  if (!predecessor.has_value() || *predecessor == newcomer_index) {
    return Status::Unavailable("join: no predecessor");
  }

  Outcome outcome;
  outcome.successor = *successor;
  outcome.predecessor = *predecessor;

  // Request + receive the two attested caches.
  std::set<crypto::PublicKey> pool;
  for (uint32_t neighbor : {*successor, *predecessor}) {
    Result<AttestedCache> attested = AttestCache(neighbor, rng);
    if (!attested.ok()) return attested.status();
    // k signatures + the request/response and attestation messages.
    outcome.cost.Then(net::Cost::Step(0, 2));
    outcome.cost.Then(net::Cost::ParIdentical(net::Cost::Step(1, 2),
                                              attested->k()));
    // The newcomer verifies before trusting anything (2k+1 ops).
    Result<net::Cost> verified = VerifyAttestedCache(ctx_, *attested);
    if (!verified.ok()) return verified.status();
    outcome.cost.Then(*verified);
    pool.insert(attested->entries.begin(), attested->entries.end());
    pool.insert(dir.pub(neighbor));  // the neighbor itself is known
  }

  // Keep the union's entries legitimate w.r.t. rs3 centered on self.
  dht::Region coverage = dht::Region::Centered(newcomer_pos, ctx_.rs3);
  for (const crypto::PublicKey& key : pool) {
    dht::NodeId id = dht::NodeIdForKey(key);
    if (!coverage.Contains(id)) continue;
    std::optional<uint32_t> idx = dir.IndexOf(id);
    if (!idx.has_value() || *idx == newcomer_index) continue;
    outcome.cache.push_back(*idx);
  }
  std::sort(outcome.cache.begin(), outcome.cache.end());

  // Announce to the nodes whose caches must now include the newcomer;
  // each checks the newcomer's certificate before insertion. Modelled
  // only: charged to the cost, never sent (see Outcome::cost).
  const size_t covering = dir.CountInRegion(coverage);
  outcome.cost.Then(net::Cost::ParIdentical(net::Cost::Step(1, 1),
                                            covering));
  return outcome;
}

Result<net::Cost> VerifyAttestedCache(const core::ProtocolContext& ctx,
                                      const AttestedCache& cache) {
  net::Cost cost;
  cost.Then(net::Cost::Step(1, 0));
  if (!ctx.CheckCertificate(cache.owner_cert)) {
    return Status::SecurityViolation("attested cache: bad owner cert");
  }
  if (cache.timestamp + ctx.max_timestamp_age < ctx.now) {
    return Status::SecurityViolation("attested cache: stale");
  }
  if (cache.attestations.empty()) {
    return Status::SecurityViolation("attested cache: no attestations");
  }
  Result<double> max_rs = ctx.ktable->RegionSizeForK(cache.k());
  if (!max_rs.ok() || cache.rs1 > *max_rs * (1 + 1e-9)) {
    return Status::SecurityViolation(
        "attested cache: region exceeds alpha bound");
  }

  dht::Region r1 = dht::Region::Centered(
      cache.owner_cert.NodeIdFromSubject().ring_pos(), cache.rs1);
  const std::vector<uint8_t> signed_bytes = cache.SignedBytes();
  for (const AttestedCache::Attestation& att : cache.attestations) {
    cost.Then(net::Cost::Step(1, 0));
    if (!ctx.CheckCertificate(att.cert)) {
      return Status::SecurityViolation("attested cache: bad attestor cert");
    }
    if (!r1.Contains(att.cert.NodeIdFromSubject())) {
      return Status::SecurityViolation(
          "attested cache: attestor not legitimate");
    }
    cost.Then(net::Cost::Step(1, 0));
    if (!ctx.CheckSignature(att.cert.subject, signed_bytes, att.sig)) {
      return Status::SecurityViolation("attested cache: bad signature");
    }
  }
  return cost;
}

}  // namespace sep2p::node
