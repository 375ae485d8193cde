#include "crypto/signature_provider.h"

namespace sep2p::crypto {

Result<KeyPair> SignatureProvider::GenerateKeyPair(util::Rng& rng) {
  meter_.CountKeyGen();
  return DoGenerateKeyPair(rng);
}

Result<Signature> SignatureProvider::Sign(const PrivateKey& key,
                                          const uint8_t* msg, size_t len) {
  meter_.CountSign();
  return DoSign(key, msg, len);
}

bool SignatureProvider::Verify(const PublicKey& key, const uint8_t* msg,
                               size_t len, const Signature& sig) {
  meter_.CountVerify();
  return DoVerify(key, msg, len, sig);
}

}  // namespace sep2p::crypto
