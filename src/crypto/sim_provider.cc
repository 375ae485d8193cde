#include "crypto/sim_provider.h"

#include <cstring>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sep2p::crypto {

namespace {

constexpr char kTag[] = "sep2p-sim-tag";

// The forgeable "signing key" associated with a public key.
Digest MacKey(const PublicKey& pub) {
  Sha256 ctx;
  ctx.Update(reinterpret_cast<const uint8_t*>(kTag), sizeof(kTag) - 1);
  ctx.Update(pub.data(), pub.size());
  return ctx.Finish();
}

}  // namespace

Result<KeyPair> SimProvider::DoGenerateKeyPair(util::Rng& rng) {
  KeyPair pair;
  auto seed = rng.NextBytes32();
  pair.priv.data.assign(seed.begin(), seed.end());
  // pub = SHA256(priv): unique, unforgeable-by-accident, cheap.
  Digest pub = Sha256Hash(pair.priv.data);
  std::memcpy(pair.pub.data(), pub.data(), pub.size());
  return pair;
}

Result<PublicKey> SimProvider::DerivePublicKey(const PrivateKey& key) {
  if (key.data.size() != 32) {
    return Status::InvalidArgument("sim: bad private key");
  }
  Digest pub_digest = Sha256Hash(key.data);
  PublicKey pub;
  std::memcpy(pub.data(), pub_digest.data(), pub_digest.size());
  return pub;
}

Result<Signature> SimProvider::DoSign(const PrivateKey& key,
                                      const uint8_t* msg, size_t len) {
  if (key.data.size() != 32) {
    return Status::InvalidArgument("sim: bad private key");
  }
  // Recompute pub from priv, then MAC under the pub-derived key so Verify
  // (which only has the public key) can recompute it.
  Digest pub_digest = Sha256Hash(key.data);
  PublicKey pub;
  std::memcpy(pub.data(), pub_digest.data(), pub_digest.size());
  Digest mac_key = MacKey(pub);
  Digest mac = HmacSha256(mac_key.data(), mac_key.size(), msg, len);
  return Signature(mac.begin(), mac.end());
}

bool SimProvider::DoVerify(const PublicKey& key, const uint8_t* msg,
                           size_t len, const Signature& sig) {
  if (sig.size() != 32) return false;
  Digest mac_key = MacKey(key);
  Digest expected = HmacSha256(mac_key.data(), mac_key.size(), msg, len);
  return std::memcmp(expected.data(), sig.data(), expected.size()) == 0;
}

}  // namespace sep2p::crypto
