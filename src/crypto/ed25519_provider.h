// Real Ed25519 signatures via OpenSSL's EVP interface.
//
// Private keys are derived deterministically from the caller's Rng (an
// Ed25519 private key is 32 uniform bytes), so experiments remain
// reproducible even with real cryptography.

#ifndef SEP2P_CRYPTO_ED25519_PROVIDER_H_
#define SEP2P_CRYPTO_ED25519_PROVIDER_H_

#include "crypto/signature_provider.h"

namespace sep2p::crypto {

class Ed25519Provider : public SignatureProvider {
 public:
  const char* name() const override { return "ed25519"; }

  Result<PublicKey> DerivePublicKey(const PrivateKey& key) override;

 protected:
  Result<KeyPair> DoGenerateKeyPair(util::Rng& rng) override;
  Result<Signature> DoSign(const PrivateKey& key, const uint8_t* msg,
                           size_t len) override;
  bool DoVerify(const PublicKey& key, const uint8_t* msg, size_t len,
                const Signature& sig) override;
};

}  // namespace sep2p::crypto

#endif  // SEP2P_CRYPTO_ED25519_PROVIDER_H_
