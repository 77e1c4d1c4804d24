// Certificates, credentials, and proxy chains (GSI §3.1 of the paper).
//
// A user holds a long-lived end-entity certificate (EEC) issued by a CA.
// Rather than exposing the EEC's private key to agents, GSI derives a
// short-lived *proxy credential*: a fresh keypair whose certificate is
// signed by the EEC (or by a parent proxy, for multi-level delegation).
// Condor-G authenticates every GRAM/GASS/MDS request with such a proxy and
// must cope with its expiry (§4.3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "condorg/gsi/pki.h"
#include "condorg/sim/types.h"

namespace condorg::gsi {

struct Certificate {
  std::string subject;     // distinguished name
  std::string issuer;      // CA name (EEC) or parent subject (proxy)
  sim::Time not_before = 0;
  sim::Time not_after = 0;
  std::uint64_t public_key = 0;
  std::uint64_t signature = 0;
  bool is_proxy = false;

  /// Canonical byte string covered by the signature.
  std::string signing_content() const;

  bool valid_at(sim::Time now) const {
    return now >= not_before && now <= not_after;
  }

  /// Flat serialization (for network payloads / stable storage).
  std::string serialize() const;
  static std::optional<Certificate> deserialize(const std::string& text);
};

/// A credential = a certificate chain plus the leaf private key. For an EEC
/// the chain has one element; each delegation appends a proxy certificate.
class Credential {
 public:
  Credential() = default;
  Credential(std::vector<Certificate> chain, std::uint64_t private_key)
      : chain_(std::move(chain)), private_key_(private_key) {}

  bool empty() const { return chain_.empty(); }
  const std::vector<Certificate>& chain() const { return chain_; }
  const Certificate& leaf() const { return chain_.back(); }
  const Certificate& eec() const { return chain_.front(); }

  /// The identity this credential speaks for: the EEC subject.
  const std::string& identity() const { return chain_.front().subject; }

  int delegation_depth() const { return static_cast<int>(chain_.size()) - 1; }

  /// Effective expiry: the earliest not_after along the chain.
  sim::Time expires_at() const;
  bool valid_at(sim::Time now) const;

  /// Sign a request with the leaf private key.
  std::uint64_t sign(const std::string& content) const {
    return Pki::sign(content, private_key_);
  }

  /// Create a child proxy valid for `lifetime` seconds from `now` (clamped
  /// to this credential's own expiry). Used both for the initial proxy
  /// (grid-proxy-init) and for delegation to remote services.
  Credential delegate(Pki& pki, sim::Time now, double lifetime) const;

  /// Serialize chain + private key (the toy delegation wire format).
  std::string serialize() const;
  static std::optional<Credential> deserialize(const std::string& text);

 private:
  std::vector<Certificate> chain_;
  std::uint64_t private_key_ = 0;
};

/// A certificate authority: issues EECs, anchors trust.
class CertificateAuthority {
 public:
  CertificateAuthority(Pki& pki, std::string name);

  const std::string& name() const { return name_; }
  std::uint64_t public_key() const { return keys_.public_key; }

  /// Issue an end-entity credential for `subject_dn`.
  Credential issue(Pki& pki, const std::string& subject_dn, sim::Time now,
                   double lifetime_seconds) const;

 private:
  Pki& pki_;
  std::string name_;
  KeyPair keys_;
};

/// Trust anchors: CA name -> CA public key.
using TrustAnchors = std::map<std::string, std::uint64_t>;

/// Validate a credential chain at time `now` against the trust anchors.
/// Returns the authenticated identity (EEC subject) on success. Checks:
/// EEC signed by a trusted CA, every proxy signed by its parent, subjects
/// extend the parent subject, every certificate within its validity window.
std::optional<std::string> verify_chain(const Pki& pki,
                                        const std::vector<Certificate>& chain,
                                        const TrustAnchors& anchors,
                                        sim::Time now);

/// Convenience overload.
std::optional<std::string> verify_credential(const Pki& pki,
                                             const Credential& credential,
                                             const TrustAnchors& anchors,
                                             sim::Time now);

}  // namespace condorg::gsi
