#include "crypto/ed25519_provider.h"

#include <openssl/evp.h>

#include <memory>

namespace sep2p::crypto {

namespace {

struct PkeyDeleter {
  void operator()(EVP_PKEY* p) const { EVP_PKEY_free(p); }
};
struct MdCtxDeleter {
  void operator()(EVP_MD_CTX* p) const { EVP_MD_CTX_free(p); }
};

using PkeyPtr = std::unique_ptr<EVP_PKEY, PkeyDeleter>;
using MdCtxPtr = std::unique_ptr<EVP_MD_CTX, MdCtxDeleter>;

PkeyPtr LoadPrivate(const PrivateKey& key) {
  if (key.data.size() != 32) return nullptr;
  return PkeyPtr(EVP_PKEY_new_raw_private_key(EVP_PKEY_ED25519, nullptr,
                                              key.data.data(),
                                              key.data.size()));
}

PkeyPtr LoadPublic(const PublicKey& key) {
  return PkeyPtr(EVP_PKEY_new_raw_public_key(EVP_PKEY_ED25519, nullptr,
                                             key.data(), key.size()));
}

}  // namespace

Result<KeyPair> Ed25519Provider::DoGenerateKeyPair(util::Rng& rng) {
  KeyPair pair;
  auto seed = rng.NextBytes32();
  pair.priv.data.assign(seed.begin(), seed.end());

  PkeyPtr pkey = LoadPrivate(pair.priv);
  if (!pkey) return Status::Internal("ed25519: failed to load private key");

  size_t pub_len = pair.pub.size();
  if (EVP_PKEY_get_raw_public_key(pkey.get(), pair.pub.data(), &pub_len) !=
          1 ||
      pub_len != pair.pub.size()) {
    return Status::Internal("ed25519: failed to derive public key");
  }
  return pair;
}

Result<PublicKey> Ed25519Provider::DerivePublicKey(const PrivateKey& key) {
  PkeyPtr pkey = LoadPrivate(key);
  if (!pkey) return Status::InvalidArgument("ed25519: bad private key");
  PublicKey pub;
  size_t pub_len = pub.size();
  if (EVP_PKEY_get_raw_public_key(pkey.get(), pub.data(), &pub_len) != 1 ||
      pub_len != pub.size()) {
    return Status::Internal("ed25519: failed to derive public key");
  }
  return pub;
}

Result<Signature> Ed25519Provider::DoSign(const PrivateKey& key,
                                          const uint8_t* msg, size_t len) {
  PkeyPtr pkey = LoadPrivate(key);
  if (!pkey) return Status::InvalidArgument("ed25519: bad private key");

  MdCtxPtr ctx(EVP_MD_CTX_new());
  if (!ctx) return Status::Internal("ed25519: EVP_MD_CTX_new failed");

  if (EVP_DigestSignInit(ctx.get(), nullptr, nullptr, nullptr, pkey.get()) !=
      1) {
    return Status::Internal("ed25519: DigestSignInit failed");
  }

  size_t sig_len = 0;
  if (EVP_DigestSign(ctx.get(), nullptr, &sig_len, msg, len) != 1) {
    return Status::Internal("ed25519: DigestSign (size) failed");
  }
  Signature sig(sig_len);
  if (EVP_DigestSign(ctx.get(), sig.data(), &sig_len, msg, len) != 1) {
    return Status::Internal("ed25519: DigestSign failed");
  }
  sig.resize(sig_len);
  return sig;
}

bool Ed25519Provider::DoVerify(const PublicKey& key, const uint8_t* msg,
                               size_t len, const Signature& sig) {
  PkeyPtr pkey = LoadPublic(key);
  if (!pkey) return false;

  MdCtxPtr ctx(EVP_MD_CTX_new());
  if (!ctx) return false;

  if (EVP_DigestVerifyInit(ctx.get(), nullptr, nullptr, nullptr,
                           pkey.get()) != 1) {
    return false;
  }
  return EVP_DigestVerify(ctx.get(), sig.data(), sig.size(), msg, len) == 1;
}

}  // namespace sep2p::crypto
