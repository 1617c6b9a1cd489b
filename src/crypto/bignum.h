// Arbitrary-precision unsigned integers, sized for RSA (512–2048 bit moduli).
//
// The root zone's DNSSEC chain uses RSA (algorithm 8, RSASHA256, for the KSK
// and ZSK), so signing and validating our simulated root zone needs modular
// arithmetic on big integers. This is a deliberately small, well-tested
// implementation: 64-bit limbs (little-endian), schoolbook multiplication,
// Knuth Algorithm D division, binary extended GCD, and two modexp paths —
// the square-and-multiply reference (`mod_pow_basic`) and a fixed-width
// Montgomery kernel (`MontgomeryContext`) that `mod_pow` selects for odd
// moduli of up to 2048 bits. RSA signing is most of a cold zone build and
// RSA verification a large part of zone validation, so that kernel is the
// audit path's hot loop.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace rootsim::crypto {

/// Unsigned big integer. Value semantics, normalized (no high zero limbs).
class BigNum {
 public:
  BigNum() = default;
  explicit BigNum(uint64_t value);

  /// Big-endian byte import/export (the DNS wire convention for key material).
  static BigNum from_bytes(std::span<const uint8_t> big_endian);
  std::vector<uint8_t> to_bytes() const;
  /// Fixed-width export, left-padded with zeros; used to emit signatures of
  /// exactly modulus size. Returns empty vector if the value does not fit.
  std::vector<uint8_t> to_bytes_padded(size_t width) const;

  static BigNum from_hex(std::string_view hex);
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  size_t bit_length() const;
  bool bit(size_t index) const;
  uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  int compare(const BigNum& other) const;
  bool operator==(const BigNum& other) const { return compare(other) == 0; }
  bool operator<(const BigNum& other) const { return compare(other) < 0; }
  bool operator<=(const BigNum& other) const { return compare(other) <= 0; }
  bool operator>(const BigNum& other) const { return compare(other) > 0; }
  bool operator>=(const BigNum& other) const { return compare(other) >= 0; }

  BigNum operator+(const BigNum& other) const;
  /// Subtraction requires *this >= other (unsigned type).
  BigNum operator-(const BigNum& other) const;
  BigNum operator*(const BigNum& other) const;
  BigNum operator<<(size_t bits) const;
  BigNum operator>>(size_t bits) const;

  /// Quotient and remainder in one pass (Knuth Algorithm D).
  struct DivMod;
  DivMod divmod(const BigNum& divisor) const;
  BigNum operator/(const BigNum& d) const;
  BigNum operator%(const BigNum& d) const;

  /// (this ^ exponent) mod modulus; modulus must be nonzero. Dispatches to
  /// the Montgomery kernel for odd moduli (every RSA modulus and Miller–Rabin
  /// candidate), else falls back to mod_pow_basic.
  BigNum mod_pow(const BigNum& exponent, const BigNum& modulus) const;

  /// Reference square-and-multiply modexp (one full multiply + Knuth division
  /// per exponent bit). Kept as the property-test oracle for the Montgomery
  /// kernel and as the fallback for even moduli.
  BigNum mod_pow_basic(const BigNum& exponent, const BigNum& modulus) const;

  /// Modular inverse; returns zero BigNum if gcd(this, modulus) != 1.
  BigNum mod_inverse(const BigNum& modulus) const;

  static BigNum gcd(BigNum a, BigNum b);

 private:
  friend class MontgomeryContext;
  void normalize();
  std::vector<uint64_t> limbs_;  // little-endian
};

struct BigNum::DivMod {
  BigNum quotient;
  BigNum remainder;
};

/// Precomputed left-to-right 4-bit window decomposition of an exponent.
/// Modulus-independent: compute once per fixed exponent (an RSA key's d,
/// dp, dq) and reuse it across every exponentiation with that exponent —
/// the per-call bit scans disappear from the signing hot loop.
struct FixedWindowSchedule {
  /// Window digits, most significant first. digits.front() is nonzero for
  /// any nonzero exponent.
  std::vector<uint8_t> digits;
  size_t bit_length = 0;

  bool empty() const { return digits.empty(); }
  static FixedWindowSchedule from_exponent(const BigNum& exponent);
};

/// Montgomery-form modular exponentiation for a fixed odd modulus.
///
/// Precomputes -n^{-1} mod 2^64 and R^2 mod n once, so no division runs on
/// the exponentiation path. The kernel is compiled for fixed limb counts
/// K ∈ {4, 6, 8, 12, 16, 24, 32}: the CRT halves and full moduli of 512- to
/// 2048-bit keys. A k-limb modulus runs at the smallest K >= k, zero-padded,
/// with R = 2^(64K); padding changes the Montgomery representation, never a
/// result. Residues are K-limb arrays on the stack, so an exponentiation
/// allocates nothing. The portable kernel, used at every width, sweeps the
/// 2K output columns of a product once (finely integrated product
/// scanning): a column's operand products and its reduction products
/// accumulate together in 192 bits, and the column yields the next
/// reduction word. Squarings take each cross product once, doubled. The
/// final conditional subtraction is a mask select.
///
/// At K = 6 and 12 (the CRT halves and full modulus of a 768-bit key, the
/// simulated root's) an x86-64 host with BMI2 and ADX runs asm kernels
/// instead, written with mulx and two carry chains (adcx, adox): a CIOS
/// product, and a squaring that takes each cross product once; the host is
/// checked once per process. Both kernels compute the exact fully reduced
/// product, so the choice never changes a result.
///
/// exp() uses a 4-bit fixed window (16-entry table, 4 squarings + one table
/// multiply per window). Small exponents (RSA's e = 65537) skip the window
/// table entirely — plain square-and-multiply is cheaper than building 16
/// table entries. Reusing one context across many operations with the same
/// modulus (RSA sign/verify) amortizes the setup division; that reuse is
/// what crypto::RsaSignContext / RsaVerifyContext package for the DNSSEC
/// paths.
class MontgomeryContext {
 public:
  /// `modulus` must be odd, > 1 and at most 32 limbs (2048 bits); valid()
  /// is false otherwise and BigNum::mod_pow falls back to mod_pow_basic.
  explicit MontgomeryContext(const BigNum& modulus);

  bool valid() const { return width_ != 0; }
  const BigNum& modulus() const { return modulus_; }

  /// (base ^ exponent) mod modulus.
  BigNum exp(const BigNum& base, const BigNum& exponent) const;

  /// Same, driven by a precomputed window schedule of the exponent (must be
  /// the schedule of a nonzero exponent; pairs with a per-key cache).
  BigNum exp(const BigNum& base, const FixedWindowSchedule& schedule) const;

  /// (a * b) mod modulus through the Montgomery domain — one conversion
  /// round-trip, no Knuth division. Used by the CRT recombination.
  BigNum mul_mod(const BigNum& a, const BigNum& b) const;

 private:
  /// Widest kernel, in 64-bit limbs.
  static constexpr size_t kMaxLimbs = 32;
  using Padded = std::array<uint64_t, kMaxLimbs>;
  /// value mod n, zero-padded to the kernel width.
  Padded load(const BigNum& value) const;
  /// The kernel-width value in `limbs` as a normalized BigNum.
  BigNum store(const Padded& limbs) const;
  /// Calls fn(field) with this modulus' Montgomery field at its width.
  template <typename Fn>
  void at_width(Fn&& fn) const;

  BigNum modulus_;
  size_t width_ = 0;     // kernel width K in limbs; 0 when invalid
  uint64_t n0_inv_ = 0;  // -n^{-1} mod 2^64
  Padded n_{};           // modulus limbs, zero-padded
  Padded r2_{};          // R^2 mod n
};

}  // namespace rootsim::crypto
