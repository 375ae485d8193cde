#include "core/protocol_service.h"

#include <algorithm>

#include "core/vrand.h"
#include "core/wire.h"
#include "crypto/sha256.h"
#include "dht/region.h"

namespace sep2p::core {

std::vector<uint8_t> SignedBytesFromList(const msg::CommitList& list) {
  std::vector<uint8_t> out;
  out.reserve(list.commitments.size() * 32 + 8);
  for (const crypto::Hash256& c : list.commitments) {
    out.insert(out.end(), c.bytes().begin(), c.bytes().end());
  }
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<uint8_t>(list.timestamp >> (8 * i)));
  }
  return out;
}

std::vector<uint8_t> TlCommitReply(const crypto::Hash256& rnd) {
  crypto::Hash256 commitment =
      crypto::Hash256::Of(rnd.bytes().data(), rnd.bytes().size());
  return msg::Encode(msg::CommitReply{commitment});
}

std::optional<std::vector<uint8_t>> TlRevealReply(
    const ProtocolContext& ctx, obs::MetricsRegistry* met, uint32_t server,
    const crypto::Hash256& rnd, const msg::CommitList& list) {
  crypto::Hash256 own =
      crypto::Hash256::Of(rnd.bytes().data(), rnd.bytes().size());
  if (std::find(list.commitments.begin(), list.commitments.end(), own) ==
      list.commitments.end()) {
    return std::nullopt;  // own commitment missing: refuse to reveal
  }
  Result<crypto::Signature> sig =
      ctx.SignAs(server, SignedBytesFromList(list));
  if (!sig.ok()) return std::nullopt;
  if (met != nullptr) {
    met->Inc(obs::Counter::kCryptoSign);
    met->IncNode(server, obs::NodeCounter::kCrypto);
  }
  return msg::Encode(msg::VrandReveal{rnd, std::move(sig.value())});
}

SlState BuildSlState(const ProtocolContext& ctx, uint32_t sl_index,
                     const std::vector<uint32_t>& r3_nodes,
                     AttackHooks* attack, util::Rng& rng) {
  const dht::Directory& dir = *ctx.directory;
  SlState state;
  dht::Region coverage = dht::Region::Centered(dir.pos(sl_index), ctx.rs3);
  // Candidate lists top out at the R3 scan size; reserving up front
  // keeps the per-SL loop free of regrowth copies.
  state.cl_indices.reserve(r3_nodes.size());
  state.cl_keys.reserve(r3_nodes.size());
  for (uint32_t idx : r3_nodes) {
    if (!coverage.Contains(dir.pos(idx))) continue;
    if (attack != nullptr && attack->SlHidesCandidate(sl_index, idx)) {
      continue;  // covert deviation
    }
    state.cl_indices.push_back(idx);
    state.cl_keys.push_back(dir.pub(idx));
  }
  state.rnd = crypto::Hash256(crypto::Digest(rng.NextBytes32()));
  // The commitment binds RND_j AND CL_j, so neither can change after
  // the commitment list is broadcast.
  std::vector<uint8_t> bound(state.rnd.bytes().begin(),
                             state.rnd.bytes().end());
  for (const crypto::PublicKey& key : state.cl_keys) {
    bound.insert(bound.end(), key.begin(), key.end());
  }
  state.commitment = crypto::Hash256::Of(bound.data(), bound.size());
  return state;
}

std::optional<std::vector<uint8_t>> SlRevealReply(const SlState& state,
                                                  const msg::CommitList& list) {
  if (std::find(list.commitments.begin(), list.commitments.end(),
                state.commitment) == list.commitments.end()) {
    return std::nullopt;  // own commitment missing: refuse to reveal
  }
  return msg::Encode(msg::SlReveal{state.rnd, state.cl_keys});
}

std::optional<std::vector<uint8_t>> AttestReply(
    const ProtocolContext& ctx, obs::MetricsRegistry* met, uint32_t server,
    const std::vector<uint8_t>& payload) {
  Result<crypto::Signature> sig = ctx.SignAs(server, payload);
  if (!sig.ok()) return std::nullopt;
  if (met != nullptr) {
    met->Inc(obs::Counter::kCryptoSign);
    met->IncNode(server, obs::NodeCounter::kCrypto);
  }
  return msg::Encode(
      msg::Attestation{ctx.directory->cert(server), std::move(sig.value())});
}

ProtocolService::ProtocolService(const ProtocolContext& ctx,
                                 net::Transport& transport,
                                 const Options& options)
    : ctx_(ctx),
      transport_(transport),
      rng_(options.rng_seed) {
  auto bind = [this, &transport](
                  uint8_t tag,
                  std::optional<std::vector<uint8_t>> (ProtocolService::*fn)(
                      uint32_t, const std::vector<uint8_t>&)) {
    transport.Register(tag,
                       [this, fn](uint32_t server,
                                  const std::vector<uint8_t>& request) {
                         return (this->*fn)(server, request);
                       });
  };
  bind(msg::kTagVrandInvite, &ProtocolService::OnVrandInvite);
  bind(msg::kTagCommitList, &ProtocolService::OnCommitList);
  bind(msg::kTagSlEngage, &ProtocolService::OnSlEngage);
  bind(msg::kTagAttestRequest, &ProtocolService::OnAttestRequest);
}

std::optional<std::vector<uint8_t>> ProtocolService::OnVrandInvite(
    uint32_t server, const std::vector<uint8_t>& request) {
  Result<msg::VrandInvite> invite = msg::DecodeVrandInvite(request);
  // A resident TL keys its contribution by the engagement nonce; a
  // nonce-less (v1) invite has no session to attach to and is refused.
  if (!invite.ok() || invite->nonce == 0) return std::nullopt;
  auto key = std::make_pair(invite->nonce, server);
  auto it = tl_rnd_.find(key);
  if (it == tl_rnd_.end()) {
    it = tl_rnd_
             .emplace(key,
                      crypto::Hash256(crypto::Digest(rng_.NextBytes32())))
             .first;
  }
  return TlCommitReply(it->second);
}

std::optional<std::vector<uint8_t>> ProtocolService::OnCommitList(
    uint32_t server, const std::vector<uint8_t>& request) {
  Result<msg::CommitList> list = msg::DecodeCommitList(request);
  if (!list.ok() || list->nonce == 0) return std::nullopt;
  auto key = std::make_pair(list->nonce, server);
  // The tag is shared by the TL-reveal and SL-reveal phases; which one
  // this is follows from where the nonce opened a session.
  if (auto tl = tl_rnd_.find(key); tl != tl_rnd_.end()) {
    return TlRevealReply(ctx_, transport_.metrics(), server, tl->second,
                         *list);
  }
  if (auto sl = sl_state_.find(key); sl != sl_state_.end()) {
    return SlRevealReply(sl->second, *list);
  }
  return std::nullopt;  // unknown engagement: refuse to reveal
}

std::optional<std::vector<uint8_t>> ProtocolService::OnSlEngage(
    uint32_t server, const std::vector<uint8_t>& request) {
  Result<msg::SlEngage> engage = msg::DecodeSlEngage(request);
  if (!engage.ok() || engage->nonce == 0) return std::nullopt;
  auto key = std::make_pair(engage->nonce, server);
  auto it = sl_state_.find(key);
  if (it == sl_state_.end()) {
    // §3.5 step 8.a: the SL verifies RND_T before participating — the
    // point it is asked to be legitimate around must derive from a
    // genuine k-participant random.
    Result<VerifiableRandom> vrnd = wire::DecodeVerifiableRandom(engage->vrnd);
    if (!vrnd.ok()) return std::nullopt;
    if (!VerifyVrand(ctx_, *vrnd, transport_.metrics()).ok()) {
      return std::nullopt;
    }
    const std::vector<uint32_t> r3_nodes = ctx_.directory->NodesInRegion(
        dht::Region::Centered(engage->point.ring_pos(), ctx_.rs3));
    it = sl_state_
             .emplace(key,
                      BuildSlState(ctx_, server, r3_nodes,
                                   /*attack=*/nullptr, rng_))
             .first;
  }
  return msg::Encode(msg::CommitReply{it->second.commitment});
}

std::optional<std::vector<uint8_t>> ProtocolService::OnAttestRequest(
    uint32_t server, const std::vector<uint8_t>& request) {
  Result<msg::AttestRequest> req = msg::DecodeAttestRequest(request);
  if (!req.ok()) return std::nullopt;
  // A resident SL never signs a bare digest: it must see the preimage
  // and check the digest actually binds it.
  if (req->preimage.empty()) return std::nullopt;
  if (!(crypto::Hash256::Of(req->preimage.data(), req->preimage.size()) ==
        req->digest)) {
    return std::nullopt;
  }
  return AttestReply(ctx_, transport_.metrics(), server, req->preimage);
}

}  // namespace sep2p::core
