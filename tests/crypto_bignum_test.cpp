#include "crypto/bignum.h"

#include <gtest/gtest.h>

#include <iostream>

#include "crypto/montgomery_kernels.h"
#include "util/rng.h"

namespace rootsim::crypto {
namespace {

BigNum random_bignum(util::Rng& rng, size_t max_limbs) {
  size_t nbytes = (rng.uniform(max_limbs * 8)) + 1;
  std::vector<uint8_t> bytes(nbytes);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.next());
  return BigNum::from_bytes(bytes);
}

// Uniform over [0, 2^(64 * limbs)).
BigNum random_limbs(util::Rng& rng, size_t limbs) {
  std::vector<uint8_t> bytes(limbs * 8);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.next());
  return BigNum::from_bytes(bytes);
}

TEST(BigNum, BasicConstruction) {
  EXPECT_TRUE(BigNum().is_zero());
  EXPECT_TRUE(BigNum(0).is_zero());
  EXPECT_FALSE(BigNum(1).is_zero());
  EXPECT_EQ(BigNum(0xdeadbeef).low_u64(), 0xdeadbeefu);
  EXPECT_TRUE(BigNum(3).is_odd());
  EXPECT_FALSE(BigNum(4).is_odd());
}

TEST(BigNum, BytesRoundTrip) {
  std::vector<uint8_t> bytes = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                                0x08, 0x09, 0x0a, 0x0b};
  BigNum n = BigNum::from_bytes(bytes);
  EXPECT_EQ(n.to_bytes(), bytes);
  // Leading zeros stripped on import.
  std::vector<uint8_t> padded = {0x00, 0x00, 0x01, 0x02};
  EXPECT_EQ(BigNum::from_bytes(padded).to_bytes(),
            (std::vector<uint8_t>{0x01, 0x02}));
}

TEST(BigNum, PaddedExport) {
  BigNum n(0x1234);
  auto padded = n.to_bytes_padded(4);
  EXPECT_EQ(padded, (std::vector<uint8_t>{0x00, 0x00, 0x12, 0x34}));
  EXPECT_TRUE(n.to_bytes_padded(1).empty());  // does not fit
  EXPECT_EQ(BigNum().to_bytes_padded(2), (std::vector<uint8_t>{0, 0}));
}

TEST(BigNum, HexRoundTrip) {
  EXPECT_EQ(BigNum::from_hex("deadbeefcafebabe1234567890abcdef").to_hex(),
            "deadbeefcafebabe1234567890abcdef");
  EXPECT_EQ(BigNum().to_hex(), "0");
  EXPECT_EQ(BigNum::from_hex("0").to_hex(), "0");
  EXPECT_EQ(BigNum::from_hex("00ff").to_hex(), "ff");
}

TEST(BigNum, BitLength) {
  EXPECT_EQ(BigNum().bit_length(), 0u);
  EXPECT_EQ(BigNum(1).bit_length(), 1u);
  EXPECT_EQ(BigNum(255).bit_length(), 8u);
  EXPECT_EQ(BigNum(256).bit_length(), 9u);
  EXPECT_EQ((BigNum(1) << 100).bit_length(), 101u);
}

TEST(BigNum, AddSubInverse) {
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    BigNum a = random_bignum(rng, 6);
    BigNum b = random_bignum(rng, 6);
    BigNum sum = a + b;
    EXPECT_EQ(sum - b, a);
    EXPECT_EQ(sum - a, b);
    EXPECT_TRUE(sum >= a);
  }
}

TEST(BigNum, MulDistributes) {
  util::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    BigNum a = random_bignum(rng, 4);
    BigNum b = random_bignum(rng, 4);
    BigNum c = random_bignum(rng, 4);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * b, b * a);
  }
}

TEST(BigNum, ShiftsAreMulDivByPowersOfTwo) {
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    BigNum a = random_bignum(rng, 4);
    size_t s = rng.uniform(130);
    EXPECT_EQ(a << s, a * (BigNum(1) << s));
    EXPECT_EQ((a << s) >> s, a);
  }
}

TEST(BigNum, DivModIdentity) {
  util::Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    BigNum a = random_bignum(rng, 8);
    BigNum b = random_bignum(rng, 1 + rng.uniform(7));
    if (b.is_zero()) continue;
    auto [q, r] = a.divmod(b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_TRUE(r < b);
  }
}

TEST(BigNum, DivModEdgeCases) {
  BigNum a = BigNum::from_hex("ffffffffffffffffffffffffffffffff");
  EXPECT_EQ(a / BigNum(1), a);
  EXPECT_TRUE((a % a).is_zero());
  EXPECT_EQ(a / a, BigNum(1));
  EXPECT_EQ(BigNum(5) / BigNum(10), BigNum());
  EXPECT_EQ(BigNum(5) % BigNum(10), BigNum(5));
  // Divisor with top limb requiring full normalization shift.
  BigNum d = BigNum::from_hex("10000000000000001");
  auto [q, r] = a.divmod(d);
  EXPECT_EQ(q * d + r, a);
}

TEST(BigNum, KnuthDAddBackCase) {
  // Crafted so the qhat estimate overshoots and the D6 add-back path runs:
  // classic trigger is dividend limbs near b-1 with divisor slightly above b/2.
  BigNum u = BigNum::from_hex("7fffffffffffffff8000000000000000"
                              "00000000000000000000000000000000");
  BigNum v = BigNum::from_hex("80000000000000000000000000000001");
  auto [q, r] = u.divmod(v);
  EXPECT_EQ(q * v + r, u);
  EXPECT_TRUE(r < v);
}

TEST(BigNum, ModPowSmallKnownValues) {
  EXPECT_EQ(BigNum(4).mod_pow(BigNum(13), BigNum(497)), BigNum(445));
  EXPECT_EQ(BigNum(2).mod_pow(BigNum(10), BigNum(1000)), BigNum(24));
  EXPECT_EQ(BigNum(7).mod_pow(BigNum(0), BigNum(13)), BigNum(1));
  EXPECT_TRUE(BigNum(7).mod_pow(BigNum(5), BigNum(1)).is_zero());
}

TEST(BigNum, ModPowFermat) {
  // Fermat's little theorem: a^(p-1) = 1 mod p for prime p, gcd(a,p)=1.
  BigNum p = BigNum::from_hex("ffffffffffffffc5");  // large 64-bit prime
  util::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    BigNum a = random_bignum(rng, 2) % p;
    if (a.is_zero()) continue;
    EXPECT_EQ(a.mod_pow(p - BigNum(1), p), BigNum(1));
  }
}

// A random `limbs`-limb odd modulus whose top limb is `top` (0: random,
// nonzero).
BigNum odd_modulus(util::Rng& rng, size_t limbs, uint64_t top) {
  BigNum n = random_limbs(rng, limbs - 1);
  if (top == 0) top = rng.next() | 1;
  n = n + (BigNum(top) << (64 * (limbs - 1)));
  return n.is_odd() ? n : n + BigNum(1);
}

TEST(BigNum, MontgomeryMatchesBasicModPow) {
  // Property test: the fixed-width Montgomery kernel must agree with the
  // square-and-multiply oracle at every limb count it serves, including
  // the counts that run zero-padded at the next wider kernel (5, 7, 9-11,
  // 13-15, 17-23, 25-31 limbs). On a host with BMI2 and ADX the counts 5-6
  // and 9-12 run the ADX kernel and the rest the portable one, so the test
  // crosses both paths.
  util::Rng rng(7);
  const size_t kMaxLimbs = 32;  // the widest kernel: 2048-bit moduli
  for (int i = 0; i < 150; ++i) {
    size_t mod_limbs = 1 + rng.uniform(17);  // up to 1088 bits
    BigNum modulus = random_bignum(rng, mod_limbs);
    if (!modulus.is_odd()) modulus = modulus + BigNum(1);
    if (modulus <= BigNum(1)) continue;
    BigNum base = random_bignum(rng, mod_limbs + 2);  // may exceed modulus
    BigNum exponent = random_bignum(rng, 1 + rng.uniform(4));
    EXPECT_EQ(base.mod_pow(exponent, modulus),
              base.mod_pow_basic(exponent, modulus))
        << "modulus=" << modulus.to_hex() << " base=" << base.to_hex()
        << " exp=" << exponent.to_hex();
  }
  const uint64_t kTopAllOnes = ~uint64_t{0};
  for (size_t limbs = 1; limbs <= kMaxLimbs; ++limbs) {
    // Top limb 2^64-1 keeps n near R at the exact widths, so the final
    // subtraction often fires (with and without a carry out of the top
    // limb); top limb 1 leaves n far below R, so it mostly does not.
    for (uint64_t top : {uint64_t{0}, kTopAllOnes, uint64_t{1}}) {
      if (limbs == 1 && top == 1) continue;  // n = 1
      const BigNum n = odd_modulus(rng, limbs, top);
      SCOPED_TRACE("limbs=" + std::to_string(limbs) + " n=" + n.to_hex());
      const MontgomeryContext ctx(n);
      ASSERT_TRUE(ctx.valid());
      // Full-width exponent, through both exp overloads and mod_pow.
      const BigNum e = random_limbs(rng, limbs);
      const BigNum base = random_limbs(rng, limbs + 1);  // usually >= n
      const BigNum want = base.mod_pow_basic(e, n);
      EXPECT_EQ(ctx.exp(base, e), want);
      EXPECT_EQ(ctx.exp(base, FixedWindowSchedule::from_exponent(e)), want);
      EXPECT_EQ(base.mod_pow(e, n), want);
      // The tableless path for exponents of at most 24 bits.
      for (uint64_t small : {3u, 17u, 65537u, (1u << 24) - 1})
        EXPECT_EQ(ctx.exp(base, BigNum(small)),
                  base.mod_pow_basic(BigNum(small), n))
            << "e=" << small;
      // Bases at and around the modulus.
      const BigNum k = random_limbs(rng, 1) + BigNum(2);
      for (const BigNum& b : {BigNum(), BigNum(1), n - BigNum(1), n, k * n,
                              k * n + BigNum(1), k * n - BigNum(1)}) {
        EXPECT_EQ(ctx.exp(b, BigNum(65537)),
                  b.mod_pow_basic(BigNum(65537), n))
            << "base=" << b.to_hex();
        EXPECT_EQ(ctx.mul_mod(b, base), (b * base) % n)
            << "base=" << b.to_hex();
      }
      // mul_mod on random operands, reduced and not.
      for (int i = 0; i < 4; ++i) {
        const BigNum a = random_limbs(rng, limbs + i % 2);
        const BigNum b = random_limbs(rng, limbs);
        EXPECT_EQ(ctx.mul_mod(a, b), (a * b) % n);
      }
    }
  }
  // Past the widest kernel the context is invalid and mod_pow falls back to
  // the basic path.
  const BigNum wide = odd_modulus(rng, kMaxLimbs + 1, 0);
  EXPECT_FALSE(MontgomeryContext(wide).valid());
  const BigNum base = random_limbs(rng, kMaxLimbs);
  const BigNum e = random_limbs(rng, 2);
  EXPECT_EQ(base.mod_pow(e, wide), base.mod_pow_basic(e, wide));
}

// The two Montgomery kernels at the widths that have both. Each product is
// also held to BigNum arithmetic, a * b * R^-1 mod n.
template <size_t K>
montgomery::Limbs<K> to_limbs(const BigNum& x) {
  const std::vector<uint8_t> bytes = x.to_bytes_padded(8 * K);
  montgomery::Limbs<K> out{};
  for (size_t i = 0; i < 8 * K; ++i)
    out[(8 * K - 1 - i) / 8] |= uint64_t{bytes[i]} << (8 * ((8 * K - 1 - i) % 8));
  return out;
}

template <size_t K>
BigNum from_limbs(const montgomery::Limbs<K>& limbs) {
  std::vector<uint8_t> bytes(8 * K);
  for (size_t i = 0; i < 8 * K; ++i)
    bytes[i] = static_cast<uint8_t>(limbs[(8 * K - 1 - i) / 8] >>
                                    (8 * ((8 * K - 1 - i) % 8)));
  return BigNum::from_bytes(bytes);
}

template <size_t K>
void expect_kernels_agree(const BigNum& n, const BigNum& a, const BigNum& b,
                          const BigNum& r_inv) {
  using montgomery::Kernel;
  const auto nl = to_limbs<K>(n), al = to_limbs<K>(a), bl = to_limbs<K>(b);
  const BigNum want_mul = (a * b * r_inv) % n;
  const BigNum want_sqr = (a * a * r_inv) % n;
  for (Kernel kernel : {Kernel::portable, Kernel::adx}) {
    SCOPED_TRACE(kernel == Kernel::adx ? "adx" : "portable");
    SCOPED_TRACE("a=" + a.to_hex() + " b=" + b.to_hex());
    montgomery::Limbs<K> out{};
    montgomery::mul<K>(kernel, out, al, bl, nl);
    EXPECT_EQ(from_limbs<K>(out), want_mul);
    montgomery::sqr<K>(kernel, out, al, nl);
    EXPECT_EQ(from_limbs<K>(out), want_sqr);
    // out aliasing a, then b, then both operands one object.
    auto x = al;
    montgomery::mul<K>(kernel, x, x, bl, nl);
    EXPECT_EQ(from_limbs<K>(x), want_mul);
    x = bl;
    montgomery::mul<K>(kernel, x, al, x, nl);
    EXPECT_EQ(from_limbs<K>(x), want_mul);
    x = al;
    montgomery::mul<K>(kernel, out, x, x, nl);
    EXPECT_EQ(from_limbs<K>(out), want_sqr);
    montgomery::sqr<K>(kernel, x, x, nl);
    EXPECT_EQ(from_limbs<K>(x), want_sqr);
  }
}

// A chain of products fed back into the kernels, as an exponentiation does:
// both kernels must walk the same residues step by step.
template <size_t K>
void expect_chains_agree(const BigNum& n, const BigNum& start,
                         const BigNum& other) {
  using montgomery::Kernel;
  const auto nl = to_limbs<K>(n), y = to_limbs<K>(other);
  auto p = to_limbs<K>(start), q = p;
  for (int step = 0; step < 64; ++step) {
    if (step % 5 == 4) {
      montgomery::mul<K>(Kernel::portable, p, p, y, nl);
      montgomery::mul<K>(Kernel::adx, q, q, y, nl);
    } else {
      montgomery::sqr<K>(Kernel::portable, p, p, nl);
      montgomery::sqr<K>(Kernel::adx, q, q, nl);
    }
    ASSERT_EQ(p, q) << "step " << step << " n=" << n.to_hex();
  }
}

template <size_t K>
void cross_check_modulus(util::Rng& rng, const BigNum& n) {
  const size_t limbs = (n.bit_length() + 63) / 64;
  SCOPED_TRACE("K=" + std::to_string(K) + " limbs=" + std::to_string(limbs) +
               " n=" + n.to_hex());
  const BigNum r_inv = ((BigNum(1) << (64 * K)) % n).mod_inverse(n);
  ASSERT_FALSE(r_inv.is_zero());
  const BigNum n1 = n - BigNum(1);
  for (const BigNum& a : {BigNum(), BigNum(1), n1})
    for (const BigNum& b : {BigNum(), BigNum(1), n1})
      expect_kernels_agree<K>(n, a, b, r_inv);
  for (int i = 0; i < 24; ++i) {
    const BigNum a = random_limbs(rng, limbs) % n;
    const BigNum b = random_limbs(rng, limbs) % n;
    expect_kernels_agree<K>(n, a, b, r_inv);
    expect_kernels_agree<K>(n, a, n1, r_inv);
  }
  expect_chains_agree<K>(n, random_limbs(rng, limbs) % n, n1);
  expect_chains_agree<K>(n, n1, random_limbs(rng, limbs) % n);
}

TEST(BigNum, AdxKernelMatchesPortableKernel) {
  if (!montgomery::adx_kernel_available())
    GTEST_SKIP() << "no ADX kernel here (not x86-64 ELF, or the host lacks "
                    "BMI2/ADX): every width runs the portable kernel";
  std::cout << "[ kernel   ] ADX at 6 and 12 limbs, portable elsewhere\n";
  util::Rng rng(11);
  const uint64_t kAllOnes = ~uint64_t{0};
  const uint64_t kTopBit = uint64_t{1} << 63;
  // Top limb 2^64-1 puts n just below R, where the row's top word and the
  // final subtraction are busiest; a top limb with only its top bit set,
  // random top limbs and top limb 1 spread n down to R / 2^63. The 5- and
  // 9-to-11-limb moduli run zero-padded at widths 6 and 12.
  for (int round = 0; round < 4; ++round) {
    for (uint64_t top : {kAllOnes, kTopBit, kTopBit | 1, uint64_t{0}, uint64_t{1}}) {
      cross_check_modulus<6>(rng, odd_modulus(rng, 6, top));
      cross_check_modulus<6>(rng, odd_modulus(rng, 5, top));
      for (size_t limbs : {12, 11, 10, 9})
        cross_check_modulus<12>(rng, odd_modulus(rng, limbs, top));
    }
  }
  // n = R - 1, the largest odd modulus at each width.
  cross_check_modulus<6>(rng, (BigNum(1) << 384) - BigNum(1));
  cross_check_modulus<12>(rng, (BigNum(1) << 768) - BigNum(1));
}

TEST(BigNum, MontgomeryEdgeCases) {
  MontgomeryContext ctx(BigNum(497));
  ASSERT_TRUE(ctx.valid());
  EXPECT_EQ(ctx.exp(BigNum(4), BigNum(13)), BigNum(445));
  EXPECT_EQ(ctx.exp(BigNum(0), BigNum(5)), BigNum(0));
  EXPECT_EQ(ctx.exp(BigNum(7), BigNum(0)), BigNum(1));
  EXPECT_EQ(ctx.exp(BigNum(497 * 3 + 2), BigNum(1)), BigNum(2));
  // Even / trivial moduli are rejected and handled by the basic path.
  EXPECT_FALSE(MontgomeryContext(BigNum(496)).valid());
  EXPECT_FALSE(MontgomeryContext(BigNum(1)).valid());
  EXPECT_FALSE(MontgomeryContext(BigNum(0)).valid());
  // mod_pow on an even modulus still works via the fallback.
  EXPECT_EQ(BigNum(2).mod_pow(BigNum(10), BigNum(1000)), BigNum(24));
}

TEST(BigNum, ModInverse) {
  util::Rng rng(6);
  BigNum m = BigNum::from_hex("ffffffffffffffc5");  // prime modulus
  for (int i = 0; i < 50; ++i) {
    BigNum a = random_bignum(rng, 2) % m;
    if (a.is_zero()) continue;
    BigNum inv = a.mod_inverse(m);
    ASSERT_FALSE(inv.is_zero());
    EXPECT_EQ((a * inv) % m, BigNum(1));
  }
  // Non-invertible: gcd(6, 12) != 1.
  EXPECT_TRUE(BigNum(6).mod_inverse(BigNum(12)).is_zero());
}

TEST(BigNum, Gcd) {
  EXPECT_EQ(BigNum::gcd(BigNum(48), BigNum(36)), BigNum(12));
  EXPECT_EQ(BigNum::gcd(BigNum(17), BigNum(13)), BigNum(1));
  EXPECT_EQ(BigNum::gcd(BigNum(0), BigNum(5)), BigNum(5));
  EXPECT_EQ(BigNum::gcd(BigNum(5), BigNum(0)), BigNum(5));
}

TEST(BigNum, CompareTotalOrder) {
  BigNum small(1), mid = BigNum(1) << 64, large = BigNum(1) << 128;
  EXPECT_LT(small.compare(mid), 0);
  EXPECT_LT(mid.compare(large), 0);
  EXPECT_EQ(mid.compare(BigNum(1) << 64), 0);
  EXPECT_GT(large.compare(small), 0);
}

}  // namespace
}  // namespace rootsim::crypto
