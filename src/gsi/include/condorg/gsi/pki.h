// Toy public-key infrastructure.
//
// GSI's role in Condor-G is *structural*: single sign-on via certificates,
// limited-lifetime proxy credentials, delegation, and per-site authorization.
// None of that depends on RSA internals, so keys here are 64-bit tokens and
// signatures are keyed hashes. The asymmetric property (verify with the
// public key, sign only with the private key) is simulated by a key registry
// held by the Pki object — the "mathematics" of the simulated world. Code
// under test never sees private keys it should not have.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "condorg/util/rng.h"

namespace condorg::gsi {

struct KeyPair {
  std::uint64_t public_key = 0;
  std::uint64_t private_key = 0;
};

class Pki {
 public:
  explicit Pki(util::Rng rng) : rng_(rng) {}

  /// Generate and register a fresh keypair.
  KeyPair generate_keypair();

  /// Sign content with a private key.
  static std::uint64_t sign(const std::string& content,
                            std::uint64_t private_key);

  /// Verify a signature against the *public* key. Only succeeds if the
  /// signature was produced with the matching private key.
  bool verify(const std::string& content, std::uint64_t signature,
              std::uint64_t public_key) const;

 private:
  util::Rng rng_;
  std::unordered_map<std::uint64_t, std::uint64_t> pub_to_priv_;
};

}  // namespace condorg::gsi
