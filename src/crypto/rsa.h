// RSA with PKCS#1 v1.5 signatures, as used by the root zone's DNSSEC chain
// (RRSIG algorithm 8 = RSASHA256, algorithm 10 = RSASHA512, RFC 5702).
//
// Key generation uses our own Miller–Rabin over deterministic randomness, so
// a simulated root zone's keys — and therefore every signature and every
// validation failure in the Table 2 reproduction — are reproducible from the
// experiment seed. generate_rsa_key defaults to 1024 bits; the simulated
// root zone's KSK and ZSK are 768-bit (rss::ZoneAuthorityConfig::
// rsa_modulus_bits). Both are cryptographically obsolete but structurally
// identical to the real root's 2048-bit keys, and a 768-bit CRT signature
// costs about a fifteenth of a 2048-bit one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/bignum.h"
#include "util/rng.h"

namespace rootsim::crypto {

/// Hash algorithm selector for PKCS#1 v1.5 DigestInfo.
enum class RsaHash : uint8_t { Sha256, Sha512 };

struct RsaPublicKey {
  BigNum n;  ///< modulus
  BigNum e;  ///< public exponent (65537)

  size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }

  /// DNSKEY RDATA public-key field per RFC 3110: exponent length, exponent,
  /// modulus.
  std::vector<uint8_t> to_dnskey_wire() const;
  static RsaPublicKey from_dnskey_wire(std::span<const uint8_t> wire);
};

struct RsaPrivateKey {
  RsaPublicKey public_key;
  BigNum d;  ///< private exponent
  BigNum p;
  BigNum q;
  /// CRT precomputation (RFC 8017 §3.2): d mod (p-1), d mod (q-1), q^-1 mod p.
  /// Filled by generate_rsa_key; rsa_sign derives them on the fly when a
  /// hand-built key leaves them zero. Signing via two half-size Montgomery
  /// exponentiations takes about a third of the full-size path's time at
  /// 512 to 1024 bits and about a fifth at 1536 and 2048 bits.
  BigNum dp;
  BigNum dq;
  BigNum qinv;
};

/// Generates a keypair with the given modulus size. Deterministic in `rng`.
RsaPrivateKey generate_rsa_key(util::Rng& rng, size_t modulus_bits = 1024);

/// Miller–Rabin primality test with `rounds` random bases.
bool is_probable_prime(const BigNum& candidate, util::Rng& rng, int rounds = 24);

/// Per-key precomputation for the CRT signing path: Montgomery contexts for
/// p, q (and n as fallback) plus fixed-window schedules for dp/dq. Everything
/// a signature needs except the message is derived once here, so a key that
/// signs a whole zone (the ZSK signs ~1500 RRsets per serial) pays the
/// R^2-mod-n divisions and exponent window scans exactly once. Immutable
/// after construction — safe to share across threads.
class RsaSignContext {
 public:
  explicit RsaSignContext(const RsaPrivateKey& key);

  const RsaPrivateKey& key() const { return key_; }

  /// PKCS#1 v1.5 signature over `message`; same bytes as rsa_sign().
  std::vector<uint8_t> sign(RsaHash hash,
                            std::span<const uint8_t> message) const;

 private:
  BigNum private_op(const BigNum& m) const;

  RsaPrivateKey key_;
  bool crt_ok_ = false;
  BigNum dp_, dq_, qinv_;
  MontgomeryContext ctx_p_, ctx_q_, ctx_n_;
  FixedWindowSchedule dp_schedule_, dq_schedule_, d_schedule_;
};

/// Per-key precomputation for the verify path. DNSSEC validation re-verifies
/// against the same two zone keys hundreds of times per probe; caching the
/// modulus Montgomery context (and letting the small public exponent take the
/// tableless square-and-multiply path) removes the per-call setup division.
/// Immutable after construction — safe to share across threads.
class RsaVerifyContext {
 public:
  explicit RsaVerifyContext(const RsaPublicKey& key);

  const RsaPublicKey& key() const { return key_; }

  /// Same result as rsa_verify(); false on any mismatch or malformed input.
  bool verify(RsaHash hash, std::span<const uint8_t> message,
              std::span<const uint8_t> signature) const;

 private:
  RsaPublicKey key_;
  size_t modulus_bytes_ = 0;
  MontgomeryContext ctx_;
};

/// PKCS#1 v1.5 signature over `message` (hashes internally). One-shot
/// convenience over RsaSignContext — hold a context to amortize the per-key
/// precomputation across many signatures.
std::vector<uint8_t> rsa_sign(const RsaPrivateKey& key, RsaHash hash,
                              std::span<const uint8_t> message);

/// Verifies a PKCS#1 v1.5 signature; false on any mismatch or malformed input.
/// One-shot convenience over RsaVerifyContext.
bool rsa_verify(const RsaPublicKey& key, RsaHash hash,
                std::span<const uint8_t> message,
                std::span<const uint8_t> signature);

}  // namespace rootsim::crypto
