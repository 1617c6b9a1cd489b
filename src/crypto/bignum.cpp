#include "crypto/bignum.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "crypto/montgomery_kernels.h"

#if defined(__x86_64__) && defined(__ELF__)
#include <cpuid.h>
#define ROOTSIM_ADX_KERNEL 1
#endif

namespace rootsim::crypto {

namespace {
using U128 = unsigned __int128;
}

BigNum::BigNum(uint64_t value) {
  if (value) limbs_.push_back(value);
}

void BigNum::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigNum BigNum::from_bytes(std::span<const uint8_t> big_endian) {
  BigNum n;
  size_t nbytes = big_endian.size();
  size_t nlimbs = (nbytes + 7) / 8;
  n.limbs_.assign(nlimbs, 0);
  for (size_t i = 0; i < nbytes; ++i) {
    // big_endian[0] is the most significant byte.
    size_t bit_pos = (nbytes - 1 - i);
    n.limbs_[bit_pos / 8] |= static_cast<uint64_t>(big_endian[i]) << (8 * (bit_pos % 8));
  }
  n.normalize();
  return n;
}

std::vector<uint8_t> BigNum::to_bytes() const {
  if (limbs_.empty()) return {0};
  size_t bits = bit_length();
  size_t nbytes = (bits + 7) / 8;
  std::vector<uint8_t> out(nbytes);
  for (size_t i = 0; i < nbytes; ++i) {
    size_t pos = nbytes - 1 - i;  // position from least significant
    out[i] = static_cast<uint8_t>(limbs_[pos / 8] >> (8 * (pos % 8)));
  }
  return out;
}

std::vector<uint8_t> BigNum::to_bytes_padded(size_t width) const {
  std::vector<uint8_t> raw = to_bytes();
  if (raw.size() == 1 && raw[0] == 0) raw.clear();
  if (raw.size() > width) return {};
  std::vector<uint8_t> out(width, 0);
  std::copy(raw.begin(), raw.end(), out.begin() + static_cast<long>(width - raw.size()));
  return out;
}

BigNum BigNum::from_hex(std::string_view hex) {
  BigNum n;
  for (char c : hex) {
    int v;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
    else continue;
    n = (n << 4) + BigNum(static_cast<uint64_t>(v));
  }
  return n;
}

std::string BigNum::to_hex() const {
  if (limbs_.empty()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  bool leading = true;
  for (size_t i = limbs_.size(); i > 0; --i) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      unsigned nibble = static_cast<unsigned>(limbs_[i - 1] >> shift) & 0xF;
      if (leading && nibble == 0) continue;
      leading = false;
      out += digits[nibble];
    }
  }
  return out.empty() ? "0" : out;
}

size_t BigNum::bit_length() const {
  if (limbs_.empty()) return 0;
  uint64_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 64;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigNum::bit(size_t index) const {
  size_t limb = index / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (index % 64)) & 1;
}

int BigNum::compare(const BigNum& other) const {
  if (limbs_.size() != other.limbs_.size())
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  for (size_t i = limbs_.size(); i > 0; --i) {
    if (limbs_[i - 1] != other.limbs_[i - 1])
      return limbs_[i - 1] < other.limbs_[i - 1] ? -1 : 1;
  }
  return 0;
}

BigNum BigNum::operator+(const BigNum& other) const {
  BigNum out;
  size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.assign(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    U128 sum = static_cast<U128>(i < limbs_.size() ? limbs_[i] : 0) +
               (i < other.limbs_.size() ? other.limbs_[i] : 0) + carry;
    out.limbs_[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  out.limbs_[n] = carry;
  out.normalize();
  return out;
}

BigNum BigNum::operator-(const BigNum& other) const {
  assert(*this >= other && "BigNum subtraction underflow");
  BigNum out;
  out.limbs_.assign(limbs_.size(), 0);
  uint64_t borrow = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t rhs = i < other.limbs_.size() ? other.limbs_[i] : 0;
    U128 lhs = limbs_[i];
    U128 sub = static_cast<U128>(rhs) + borrow;
    if (lhs >= sub) {
      out.limbs_[i] = static_cast<uint64_t>(lhs - sub);
      borrow = 0;
    } else {
      out.limbs_[i] = static_cast<uint64_t>((static_cast<U128>(1) << 64) + lhs - sub);
      borrow = 1;
    }
  }
  out.normalize();
  return out;
}

BigNum BigNum::operator*(const BigNum& other) const {
  if (limbs_.empty() || other.limbs_.empty()) return BigNum();
  BigNum out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < other.limbs_.size(); ++j) {
      U128 cur = static_cast<U128>(limbs_[i]) * other.limbs_[j] +
                 out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    size_t k = i + other.limbs_.size();
    while (carry) {
      U128 cur = static_cast<U128>(out.limbs_[k]) + carry;
      out.limbs_[k] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
      ++k;
    }
  }
  out.normalize();
  return out;
}

BigNum BigNum::operator<<(size_t bits) const {
  if (limbs_.empty()) return BigNum();
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  BigNum out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift ? (limbs_[i] << bit_shift) : limbs_[i];
    if (bit_shift)
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
  }
  out.normalize();
  return out;
}

BigNum BigNum::operator>>(size_t bits) const {
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigNum();
  BigNum out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = bit_shift ? (limbs_[i + limb_shift] >> bit_shift)
                              : limbs_[i + limb_shift];
    if (bit_shift && i + limb_shift + 1 < limbs_.size())
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
  }
  out.normalize();
  return out;
}

BigNum::DivMod BigNum::divmod(const BigNum& divisor) const {
  assert(!divisor.is_zero() && "BigNum division by zero");
  DivMod result;
  if (*this < divisor) {
    result.remainder = *this;
    return result;
  }
  const size_t n = divisor.limbs_.size();
  // Single-limb divisor: one pass with 128-bit division.
  if (n == 1) {
    uint64_t d = divisor.limbs_[0];
    BigNum quot;
    quot.limbs_.assign(limbs_.size(), 0);
    U128 rem = 0;
    for (size_t i = limbs_.size(); i > 0; --i) {
      U128 cur = (rem << 64) | limbs_[i - 1];
      quot.limbs_[i - 1] = static_cast<uint64_t>(cur / d);
      rem = cur % d;
    }
    quot.normalize();
    result.quotient = std::move(quot);
    result.remainder = BigNum(static_cast<uint64_t>(rem));
    return result;
  }
  // Knuth TAOCP vol. 2, Algorithm D, base 2^64.
  const size_t m = limbs_.size() - n;
  int shift = 63;
  {
    uint64_t top = divisor.limbs_.back();
    shift = 0;
    while (!(top & (1ULL << 63))) {
      top <<= 1;
      ++shift;
    }
  }
  // D1: normalize so the divisor's top limb has its high bit set.
  std::vector<uint64_t> u(limbs_.size() + 1, 0);
  std::vector<uint64_t> v(n, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    u[i] |= shift ? (limbs_[i] << shift) : limbs_[i];
    if (shift && i + 1 <= limbs_.size()) u[i + 1] = limbs_[i] >> (64 - shift);
  }
  for (size_t i = 0; i < n; ++i) {
    v[i] = shift ? (divisor.limbs_[i] << shift) : divisor.limbs_[i];
    if (shift && i > 0) v[i] |= divisor.limbs_[i - 1] >> (64 - shift);
  }
  std::vector<uint64_t> q(m + 1, 0);
  // D2..D7: main loop.
  for (size_t j = m + 1; j > 0; --j) {
    size_t jj = j - 1;
    // D3: estimate qhat from the top two limbs of the current window.
    U128 numerator = (static_cast<U128>(u[jj + n]) << 64) | u[jj + n - 1];
    U128 qhat = numerator / v[n - 1];
    U128 rhat = numerator % v[n - 1];
    while (qhat >= (static_cast<U128>(1) << 64) ||
           qhat * v[n - 2] > ((rhat << 64) | u[jj + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= (static_cast<U128>(1) << 64)) break;
    }
    // D4: multiply and subtract qhat * v from the window.
    U128 borrow = 0;
    U128 carry = 0;
    for (size_t i = 0; i < n; ++i) {
      U128 product = qhat * v[i] + carry;
      carry = product >> 64;
      uint64_t plo = static_cast<uint64_t>(product);
      U128 sub = static_cast<U128>(u[jj + i]) - plo - borrow;
      u[jj + i] = static_cast<uint64_t>(sub);
      borrow = (sub >> 64) ? 1 : 0;
    }
    U128 sub = static_cast<U128>(u[jj + n]) - carry - borrow;
    u[jj + n] = static_cast<uint64_t>(sub);
    bool negative = (sub >> 64) != 0;
    // D5/D6: if we overshot, add the divisor back and decrement qhat.
    if (negative) {
      --qhat;
      U128 c = 0;
      for (size_t i = 0; i < n; ++i) {
        U128 sum = static_cast<U128>(u[jj + i]) + v[i] + c;
        u[jj + i] = static_cast<uint64_t>(sum);
        c = sum >> 64;
      }
      u[jj + n] = static_cast<uint64_t>(u[jj + n] + static_cast<uint64_t>(c));
    }
    q[jj] = static_cast<uint64_t>(qhat);
  }
  BigNum quot;
  quot.limbs_ = std::move(q);
  quot.normalize();
  // D8: denormalize the remainder.
  BigNum rem;
  rem.limbs_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    rem.limbs_[i] = shift ? (u[i] >> shift) : u[i];
    if (shift && i + 1 < n + 1) rem.limbs_[i] |= u[i + 1] << (64 - shift);
  }
  rem.normalize();
  result.quotient = std::move(quot);
  result.remainder = std::move(rem);
  return result;
}

BigNum BigNum::operator/(const BigNum& d) const { return divmod(d).quotient; }
BigNum BigNum::operator%(const BigNum& d) const { return divmod(d).remainder; }

BigNum BigNum::mod_pow_basic(const BigNum& exponent, const BigNum& modulus) const {
  assert(!modulus.is_zero());
  BigNum base = *this % modulus;
  BigNum result(1);
  if (modulus == BigNum(1)) return BigNum();
  size_t bits = exponent.bit_length();
  // Left-to-right square and multiply.
  for (size_t i = bits; i > 0; --i) {
    result = (result * result) % modulus;
    if (exponent.bit(i - 1)) result = (result * base) % modulus;
  }
  return result;
}

BigNum BigNum::mod_pow(const BigNum& exponent, const BigNum& modulus) const {
  assert(!modulus.is_zero());
  if (modulus.is_odd() && !(modulus == BigNum(1))) {
    MontgomeryContext ctx(modulus);
    if (ctx.valid()) return ctx.exp(*this, exponent);
  }
  return mod_pow_basic(exponent, modulus);
}

#ifdef ROOTSIM_ADX_KERNEL
// The ADX kernels: one CIOS Montgomery multiplication,
//   out = a * b * R^-1 mod n,  R = 2^(64K),  a, b < n odd,
// and one squaring (below), each assembled by one macro at the two widths
// the audit path runs: K = 6 (the CRT halves of a 768-bit signature, key
// generation's 384-bit candidates) and K = 12 (768-bit verification).
//
// Row i adds a * b[i] to the running row T (K + 1 words) and then m * n,
// with m = T[0] * n0_inv chosen so the low word clears, and drops that
// word. Each limb product is four instructions: mulx, adox of the row
// word (the OF chain), adcx of the previous product's high word (the CF
// chain), and the store. The reduction pass stores limb j at j - 1, which
// is the division by 2^64. T < 2n after every row, so T[K] is 0 or 1 and
// one subtraction of n, selected by cmov, reduces it. mulx sets no flags,
// so m is computed after the multiply pass while OF still holds its carry
// out. Each pass starts by zeroing r8, which clears CF and OF without
// reading them: a pass's chains wait only for the row words they read, so
// consecutive passes overlap. (Carrying the flags from pass to pass made
// every add wait on the one before it: 57 against 48 ns per 6-limb product
// on a 4-vCPU Intel Xeon VM.)
//
// Arguments (SysV): rdi = out, rsi = a, rdx = b, rcx = n, r8 = n0_inv.
// The kernel uses only caller-saved registers and keeps T[1..K], b, out and
// n0_inv in the red zone below rsp (at most 16 words), so it never moves
// rsp and its call frame is the caller's return address alone. Registers:
// rsi = a, rcx = n, rdx = the multiplier (b[i], then m), r8 = 0, r9 = T[0]
// (never stored), r10/r11 = the high words of consecutive products, rax =
// the low word, rdi = the carry word above T[K]. Out is written only after
// the last row, so it may alias a or b.
//
// The squaring, out = a * a * R^-1 mod n, runs the passes one after the
// other instead (separated operand scanning): it adds each cross product
// a[i] * a[j], i < j, once into a 2K-word t, doubles t while adding the
// squares a[i]^2 (the doubling on CF, the squares on OF), and then runs K
// reduction rows, row i adding m * n at t[i] with m = t[i] * n0_inv. The
// carry out of row i's top word t[i + K] is held in r9 and added at row
// i + 1's; after the last row it is T[K] of T = t / R < 2n, and the same
// cmov select reduces T. At 6 limbs that is 57 limb products against the
// multiplication's 72: a chained 6-limb squaring takes 44 against 48 ns, a
// 12-limb one 131 against 157 ns. Arguments: rdi = out, rsi = a, rdx = n,
// rcx = n0_inv. t and n0_inv (2K + 1 words) outgrow the red zone at K = 12,
// so the squaring moves rsp by that frame. Out is written only by the
// select, so it may alias a.
extern "C" {
void rootsim_mont_mul_adx6(uint64_t* out, const uint64_t* a, const uint64_t* b,
                           const uint64_t* n, uint64_t n0_inv);
void rootsim_mont_mul_adx12(uint64_t* out, const uint64_t* a,
                            const uint64_t* b, const uint64_t* n,
                            uint64_t n0_inv);
void rootsim_mont_sqr_adx6(uint64_t* out, const uint64_t* a,
                           const uint64_t* n, uint64_t n0_inv);
void rootsim_mont_sqr_adx12(uint64_t* out, const uint64_t* a,
                            const uint64_t* n, uint64_t n0_inv);
}

asm(R"(
  .pushsection .text
  # One limb of a pass: rax = low(rdx * src[j]) + T[j] (OF chain) + prev,
  # the last limb's high word (CF chain), stored at T[j - shift]; the high
  # word goes to hi.
  .macro rootsim_mont_limb src, hi, prev, shift
  mulxq 8*.Lj(\src), %rax, \hi
  adoxq .Lrow+8*.Lj(%rsp), %rax
  adcxq \prev, %rax
  movq %rax, .Lrow+8*.Lj-8*\shift(%rsp)
  .set .Lj, .Lj+1
  .endm

  # Limbs 2 to K-1 of a pass, two at a time.
  .macro rootsim_mont_limbs K, src, shift
  .set .Lj, 2
  .rept (\K-2)/2
  rootsim_mont_limb \src, %r10, %r11, \shift
  rootsim_mont_limb \src, %r11, %r10, \shift
  .endr
  .endm

  # out = T - n, or T where that borrows and T[K] is 0. T[0] is in t0,
  # T[1..K-1] at base + 8j(%rsp), T[K] in top; n in rcx.
  .macro rootsim_mont_select K, t0, top, out, base
  movq \t0, %r10
  subq (%rcx), %r10
  .set .Lj, 1
  .rept \K-1
  movq \base+8*.Lj(%rsp), %rax
  sbbq 8*.Lj(%rcx), %rax
  movq %rax, 8*.Lj(\out)
  .set .Lj, .Lj+1
  .endr
  sbbq $0, \top
  cmovcq \t0, %r10
  movq %r10, (\out)
  .set .Lj, 1
  .rept \K-1
  movq 8*.Lj(\out), %rax
  cmovcq \base+8*.Lj(%rsp), %rax
  movq %rax, 8*.Lj(\out)
  .set .Lj, .Lj+1
  .endr
  .endm

  .macro rootsim_mont_mul_adx name, K
  .p2align 5
  .globl \name
  .hidden \name
  .type \name, @function
\name:
  .cfi_startproc
  .set .Lrow, -8*(\K+4)
  movq %rdx, -24(%rsp)
  movq %rdi, -16(%rsp)
  movq %r8, -8(%rsp)
  xorl %r8d, %r8d
  xorl %r9d, %r9d
  .set .Lj, 1
  .rept \K
  movq %r8, .Lrow+8*.Lj(%rsp)
  .set .Lj, .Lj+1
  .endr
  .set .Li, 0
  .rept \K
  # X = T + a * b[i].
  movq -24(%rsp), %rdx
  movq 8*.Li(%rdx), %rdx
  xorl %r8d, %r8d
  mulxq (%rsi), %rax, %r10
  adoxq %rax, %r9
  .set .Lj, 1
  rootsim_mont_limb %rsi, %r11, %r10, 0
  rootsim_mont_limbs \K, %rsi, 0
  adcxq %r8, %r11
  adoxq .Lrow+8*\K(%rsp), %r11
  movq %r11, .Lrow+8*\K(%rsp)
  # m = X[0] * n0_inv. OF, the carry out of X[K], survives mulx.
  movq -8(%rsp), %rdx
  mulxq %r9, %rdx, %rax
  movl $0, %edi
  adoxq %r8, %rdi
  # T = (X + m * n) / 2^64: the low word clears, limb j goes to j - 1.
  xorl %r8d, %r8d
  mulxq (%rcx), %rax, %r10
  adoxq %r9, %rax
  mulxq 8(%rcx), %r9, %r11
  adoxq .Lrow+8(%rsp), %r9
  adcxq %r10, %r9
  .set .Lj, 2
  rootsim_mont_limbs \K, %rcx, 1
  adcxq %r8, %r11
  adoxq .Lrow+8*\K(%rsp), %r11
  movq %r11, .Lrow+8*\K-8(%rsp)
  adoxq %r8, %rdi
  movq %rdi, .Lrow+8*\K(%rsp)
  .set .Li, .Li+1
  .endr
  movq -16(%rsp), %rsi
  rootsim_mont_select \K, %r9, %rdi, %rsi, .Lrow
  ret
  .cfi_endproc
  .size \name, .-\name
  .endm

  # One limb of a cross-product row: the high word goes to r10 for even j
  # and r11 for odd j, as in rootsim_mont_limbs.
  .macro rootsim_sqr_limb
  .if .Lj & 1
  rootsim_mont_limb %rsi, %r11, %r10, 0
  .else
  rootsim_mont_limb %rsi, %r10, %r11, 0
  .endif
  .endm

  .macro rootsim_mont_sqr_adx name, K
  .p2align 5
  .globl \name
  .hidden \name
  .type \name, @function
\name:
  .cfi_startproc
  subq $8*(2*\K+1), %rsp
  .cfi_adjust_cfa_offset 8*(2*\K+1)
  movq %rcx, 8*2*\K(%rsp)
  movq %rdx, %rcx
  xorl %r8d, %r8d
  .set .Lj, 1
  .rept \K
  movq %r8, 8*.Lj(%rsp)
  .set .Lj, .Lj+1
  .endr
  # t = the cross products: row i adds a[i] * a[j], j > i, at t[i + j].
  .set .Li, 0
  .rept \K-1
  .set .Lrow, 8*.Li
  movq 8*.Li(%rsi), %rdx
  xorl %r8d, %r8d
  .set .Lj, .Li+1
  .if .Lj & 1
  mulxq 8*.Lj(%rsi), %rax, %r11
  .else
  mulxq 8*.Lj(%rsi), %rax, %r10
  .endif
  adoxq .Lrow+8*.Lj(%rsp), %rax
  movq %rax, .Lrow+8*.Lj(%rsp)
  .set .Lj, .Lj+1
  .rept \K-2-.Li
  rootsim_sqr_limb
  .endr
  adcxq %r8, %r11
  adoxq %r8, %r11
  movq %r11, .Lrow+8*\K(%rsp)
  .set .Li, .Li+1
  .endr
  # t = 2t + the squares, a[i]^2 at t[2i]: the doubling on CF, the squares
  # on OF.
  xorl %r8d, %r8d
  movq (%rsi), %rdx
  mulxq %rdx, %rax, %r10
  movq %rax, (%rsp)
  movq 8(%rsp), %r11
  adcxq %r11, %r11
  adoxq %r10, %r11
  movq %r11, 8(%rsp)
  .set .Li, 1
  .rept \K-2
  movq 8*.Li(%rsi), %rdx
  mulxq %rdx, %rax, %r10
  movq 16*.Li(%rsp), %r11
  adcxq %r11, %r11
  adoxq %rax, %r11
  movq %r11, 16*.Li(%rsp)
  movq 16*.Li+8(%rsp), %r11
  adcxq %r11, %r11
  adoxq %r10, %r11
  movq %r11, 16*.Li+8(%rsp)
  .set .Li, .Li+1
  .endr
  movq 8*(\K-1)(%rsi), %rdx
  mulxq %rdx, %rax, %r10
  movq 16*(\K-1)(%rsp), %r11
  adcxq %r11, %r11
  adoxq %rax, %r11
  movq %r11, 16*(\K-1)(%rsp)
  adcxq %r8, %r10
  adoxq %r8, %r10
  movq %r10, 8*(2*\K-1)(%rsp)
  # Row i adds m * n at t[i], m = t[i] * n0_inv, clearing t[i]. rsi holds
  # t[i]; r9 holds the carry out of the last row's top word, which this
  # row adds at its own, t[i + K].
  movq (%rsp), %rsi
  xorl %r9d, %r9d
  .set .Li, 0
  .rept \K
  .set .Lrow, 8*.Li
  movq %rsi, %rdx
  mulxq 8*2*\K(%rsp), %rdx, %rax
  xorl %r8d, %r8d
  mulxq (%rcx), %rax, %r10
  adoxq %rsi, %rax
  mulxq 8(%rcx), %rsi, %r11
  adoxq .Lrow+8(%rsp), %rsi
  adcxq %r10, %rsi
  rootsim_mont_limbs \K, %rcx, 0
  adcxq %r8, %r11
  adoxq .Lrow+8*\K(%rsp), %r11
  adcxq %r9, %r11
  movq %r11, .Lrow+8*\K(%rsp)
  movl $0, %r9d
  adoxq %r8, %r9
  adcxq %r8, %r9
  .set .Li, .Li+1
  .endr
  # T = t / R: T[0] in rsi, T[1..K-1] at t[K + 1..2K - 1], T[K] in r9.
  rootsim_mont_select \K, %rsi, %r9, %rdi, 8*\K
  addq $8*(2*\K+1), %rsp
  .cfi_adjust_cfa_offset -8*(2*\K+1)
  ret
  .cfi_endproc
  .size \name, .-\name
  .endm

  rootsim_mont_mul_adx rootsim_mont_mul_adx6, 6
  rootsim_mont_mul_adx rootsim_mont_mul_adx12, 12
  rootsim_mont_sqr_adx rootsim_mont_sqr_adx6, 6
  rootsim_mont_sqr_adx rootsim_mont_sqr_adx12, 12
  .purgem rootsim_mont_mul_adx
  .purgem rootsim_mont_sqr_adx
  .purgem rootsim_sqr_limb
  .purgem rootsim_mont_select
  .purgem rootsim_mont_limbs
  .purgem rootsim_mont_limb
  .popsection
)");
#endif

namespace montgomery {

bool adx_kernel_available() {
#ifdef ROOTSIM_ADX_KERNEL
  static const bool available = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
           (ebx & bit_BMI2) != 0 && (ebx & bit_ADX) != 0;
  }();
  return available;
#else
  return false;
#endif
}

}  // namespace montgomery

namespace {

using montgomery::Kernel;

// The kernel widths, in limbs: every CRT half and full modulus of the
// 512/768/1024/1536/2048-bit keys the repository generates.
constexpr size_t kWidths[] = {4, 6, 8, 12, 16, 24, 32};

#ifdef ROOTSIM_ADX_KERNEL
constexpr bool kAdxBuild = true;
#else
constexpr bool kAdxBuild = false;
#endif

// The widths this build has an ADX kernel for.
constexpr bool adx_width(size_t k) { return kAdxBuild && (k == 6 || k == 12); }

// -n0^-1 mod 2^64 for odd n0, by Newton iteration: x_{k+1} = x_k * (2 - n0 *
// x_k) doubles the number of correct low bits each step. x_0 = n0 is
// correct to 3 bits (n0 * n0 = 1 mod 8), so five steps reach 64; six are
// taken.
uint64_t neg_inverse(uint64_t n0) {
  uint64_t inv = n0;
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;
  return ~inv + 1;
}

template <size_t K>
using Residue = std::array<uint64_t, K>;

// One 192-bit column accumulator: the low 128 bits and the carry word above
// them. A column adds at most 2K products of two limbs to the carry of the
// column before, which for K <= 32 stays below 2^136.
struct Column {
  U128 low = 0;
  uint64_t carry = 0;

  void add(U128 value) { carry += __builtin_add_overflow(low, value, &low); }
  void mac(uint64_t a, uint64_t b) { add(static_cast<U128>(a) * b); }
  // Emits the low word and moves the accumulator down one column.
  uint64_t shift() {
    const uint64_t word = static_cast<uint64_t>(low);
    low = (low >> 64) | (static_cast<U128>(carry) << 64);
    carry = 0;
    return word;
  }
};

// Calls column(i) for each of the 2K output columns of a K-limb product.
// Up to 16 limbs the sweep is fully unrolled, so every index range inside a
// column is a constant. The 24- and 32-limb kernels unroll only the loops
// inside a column: unrolled whole, their products alone took 31 and 55 KB
// of code, and the partly unrolled ones measured no slower.
template <size_t K, typename Fn>
[[gnu::always_inline]] inline void sweep_columns(Fn&& column) {
  if constexpr (K <= 16) {
#pragma GCC unroll 32
    for (size_t i = 0; i < 2 * K; ++i) column(i);
  } else {
    for (size_t i = 0; i < 2 * K; ++i) column(i);
  }
}

// The kernel Field<K> runs on this host: the ADX one where it exists.
template <size_t K>
Kernel host_kernel() {
  if constexpr (adx_width(K)) {
    if (montgomery::adx_kernel_available()) return Kernel::adx;
  }
  return Kernel::portable;
}

// Montgomery arithmetic modulo an odd n < R = 2^(64K).
template <size_t K>
class Field {
 public:
  Field(const uint64_t* n, const uint64_t* r2, uint64_t n0_inv,
        Kernel kernel = host_kernel<K>())
      : n0_inv_(n0_inv), kernel_(kernel) {
    std::copy(n, n + K, n_.begin());
    std::copy(r2, r2 + K, r2_.begin());
  }

  // out = a * b * R^-1 mod n, for a, b < n; out may alias either input.
  // Finely integrated product scanning: output column i collects its a*b
  // products and its m*n reduction products in one accumulator.
  void mul(Residue<K>& out, const Residue<K>& a, const Residue<K>& b) const {
    if constexpr (adx_width(K)) {
      if (kernel_ == Kernel::adx) return adx_mul(out, a, b);
    }
    Residue<K> m{}, t{};
    Column acc;
    sweep_columns<K>([&](size_t i) __attribute__((always_inline)) {
      const size_t first = i < K ? 0 : i - K + 1;
      const size_t end = i < K ? i + 1 : K;
#pragma GCC unroll 32
      for (size_t j = first; j < end; ++j) acc.mac(a[j], b[i - j]);
      reduce_step(acc, m, t, first, i);
    });
    subtract_if_ge(out, t, static_cast<uint64_t>(acc.low));
  }

  // out = a * a * R^-1 mod n; out may alias a. The same column sweep as
  // mul, but each cross product a[j] * a[i - j] (j < i - j) is added once
  // and the column's cross sum doubled before the square term joins it.
  void sqr(Residue<K>& out, const Residue<K>& a) const {
    if constexpr (adx_width(K)) {
      if (kernel_ == Kernel::adx) return adx_sqr(out, a);
    }
    Residue<K> m{}, t{};
    Column acc;
    sweep_columns<K>([&](size_t i) __attribute__((always_inline)) {
      const size_t first = i < K ? 0 : i - K + 1;
      Column cross;
#pragma GCC unroll 32
      for (size_t j = first; 2 * j < i; ++j) cross.mac(a[j], a[i - j]);
      acc.carry += (cross.carry << 1) + static_cast<uint64_t>(cross.low >> 127);
      acc.add(cross.low << 1);
      if (i % 2 == 0) acc.mac(a[i / 2], a[i / 2]);
      reduce_step(acc, m, t, first, i);
    });
    subtract_if_ge(out, t, static_cast<uint64_t>(acc.low));
  }

  Residue<K> to_mont(const Residue<K>& x) const {
    Residue<K> out{};
    mul(out, x, r2_);
    return out;
  }

  Residue<K> from_mont(const Residue<K>& x) const {
    Residue<K> one{};
    one[0] = 1;
    Residue<K> out{};
    mul(out, x, one);
    return out;
  }

 private:
  void adx_mul(Residue<K>& out, const Residue<K>& a,
               const Residue<K>& b) const {
#ifdef ROOTSIM_ADX_KERNEL
    (K == 6 ? rootsim_mont_mul_adx6 : rootsim_mont_mul_adx12)(
        out.data(), a.data(), b.data(), n_.data(), n0_inv_);
#endif
  }

  void adx_sqr(Residue<K>& out, const Residue<K>& a) const {
#ifdef ROOTSIM_ADX_KERNEL
    (K == 6 ? rootsim_mont_sqr_adx6 : rootsim_mont_sqr_adx12)(
        out.data(), a.data(), n_.data(), n0_inv_);
#endif
  }

  // Adds column i's reduction products m[j] * n[i - j] (for j >= first and
  // every m[j] already known), then moves down one column. Below column K
  // the column's low word fixes m[i], the reduction word that clears it;
  // from column K on, the low word is result limb t[i - K].
  [[gnu::always_inline]] void reduce_step(Column& acc, Residue<K>& m,
                                          Residue<K>& t, size_t first,
                                          size_t i) const {
    const size_t end = i < K ? i : K;
#pragma GCC unroll 32
    for (size_t j = first; j < end; ++j) acc.mac(m[j], n_[i - j]);
    if (i < K) {
      m[i] = static_cast<uint64_t>(acc.low) * n0_inv_;
      acc.mac(m[i], n_[0]);
      acc.shift();
    } else {
      t[i - K] = acc.shift();
    }
  }

  // out = t + top * R reduced once by n, given t + top * R < 2n. Computes
  // t - n and selects it with a mask, without a data-dependent branch.
  void subtract_if_ge(Residue<K>& out, const Residue<K>& t,
                      uint64_t top) const {
    Residue<K> d{};
    uint64_t borrow = 0;
#pragma GCC unroll 32
    for (size_t i = 0; i < K; ++i) {
      const U128 diff = static_cast<U128>(t[i]) - n_[i] - borrow;
      d[i] = static_cast<uint64_t>(diff);
      borrow = static_cast<uint64_t>(diff >> 64) & 1;
    }
    // t + top * R < n exactly when the subtraction borrowed and top is 0.
    const uint64_t keep_t = 0 - (borrow & ~top);
#pragma GCC unroll 32
    for (size_t i = 0; i < K; ++i) out[i] = (t[i] & keep_t) | (d[i] & ~keep_t);
  }

  Residue<K> n_;
  Residue<K> r2_;
  uint64_t n0_inv_;
  Kernel kernel_;
};

template <size_t K>
Residue<K> read(const uint64_t* limbs) {
  Residue<K> out{};
  std::copy(limbs, limbs + K, out.begin());
  return out;
}

// x = x^e mod n by left-to-right square-and-multiply over the `bits` bits of
// e (the top one set). x holds K limbs, < n on entry. Kept out of line, one
// function per width: inlined, every width's loop joined one function under
// at_width, and adding the ADX calls there slowed the 16-limb loop
// (BM_RsaVerify/1024 12 against 9 us on a 4-vCPU Intel Xeon VM).
template <size_t K>
[[gnu::noinline]] void exp_bits(const Field<K>& field, uint64_t* x,
                                const BigNum& e, size_t bits) {
  const Residue<K> base = field.to_mont(read<K>(x));
  Residue<K> acc = base;
  for (size_t i = bits - 1; i > 0; --i) {
    field.sqr(acc, acc);
    if (e.bit(i - 1)) field.mul(acc, acc, base);
  }
  acc = field.from_mont(acc);
  std::copy(acc.begin(), acc.end(), x);
}

// x = x^e mod n with e given by its 4-bit window digits, most significant
// first (the first nonzero). x holds K limbs, < n on entry.
template <size_t K>
void exp_windows(const Field<K>& field, uint64_t* x, const uint8_t* digits,
                 size_t digit_count) {
  // table[i] = x^i in Montgomery form; table[0] is R mod n.
  std::array<Residue<K>, 16> table{};
  Residue<K> one{};
  one[0] = 1;
  table[0] = field.to_mont(one);
  table[1] = field.to_mont(read<K>(x));
  for (size_t i = 2; i < 16; ++i) field.mul(table[i], table[i - 1], table[1]);
  Residue<K> acc = table[digits[0]];
  for (size_t d = 1; d < digit_count; ++d) {
    for (int s = 0; s < 4; ++s) field.sqr(acc, acc);
    if (digits[d]) field.mul(acc, acc, table[digits[d]]);
  }
  acc = field.from_mont(acc);
  std::copy(acc.begin(), acc.end(), x);
}

// x = x * y mod n: (x * R^2 * R^-1) * y * R^-1. x and y hold K limbs, < n.
template <size_t K>
void mul_residues(const Field<K>& field, uint64_t* x, const uint64_t* y) {
  Residue<K> product = field.to_mont(read<K>(x));
  field.mul(product, product, read<K>(y));
  std::copy(product.begin(), product.end(), x);
}

}  // namespace

namespace montgomery {

// Fields built for mul and sqr alone: they read no R^2.
template <size_t K>
void mul(Kernel kernel, Limbs<K>& out, const Limbs<K>& a, const Limbs<K>& b,
         const Limbs<K>& n) {
  assert(kernel == Kernel::portable || adx_kernel_available());
  const Limbs<K> no_r2{};
  Field<K>(n.data(), no_r2.data(), neg_inverse(n[0]), kernel).mul(out, a, b);
}

template <size_t K>
void sqr(Kernel kernel, Limbs<K>& out, const Limbs<K>& a, const Limbs<K>& n) {
  assert(kernel == Kernel::portable || adx_kernel_available());
  const Limbs<K> no_r2{};
  Field<K>(n.data(), no_r2.data(), neg_inverse(n[0]), kernel).sqr(out, a);
}

template void mul<6>(Kernel, Limbs<6>&, const Limbs<6>&, const Limbs<6>&,
                     const Limbs<6>&);
template void mul<12>(Kernel, Limbs<12>&, const Limbs<12>&, const Limbs<12>&,
                      const Limbs<12>&);
template void sqr<6>(Kernel, Limbs<6>&, const Limbs<6>&, const Limbs<6>&);
template void sqr<12>(Kernel, Limbs<12>&, const Limbs<12>&, const Limbs<12>&);

}  // namespace montgomery

MontgomeryContext::MontgomeryContext(const BigNum& modulus) : modulus_(modulus) {
  if (!modulus.is_odd() || modulus <= BigNum(1)) return;
  const size_t k = modulus.limbs_.size();
  if (k > kMaxLimbs) return;
  width_ = *std::find_if(std::begin(kWidths), std::end(kWidths),
                         [k](size_t w) { return w >= k; });
  std::copy(modulus.limbs_.begin(), modulus.limbs_.end(), n_.begin());
  n0_inv_ = neg_inverse(n_[0]);
  // R^2 mod n with one division at setup.
  const BigNum r2 = (BigNum(1) << (2 * 64 * width_)) % modulus;
  std::copy(r2.limbs_.begin(), r2.limbs_.end(), r2_.begin());
}

MontgomeryContext::Padded MontgomeryContext::load(const BigNum& value) const {
  const BigNum reduced = value % modulus_;
  Padded out{};
  std::copy(reduced.limbs_.begin(), reduced.limbs_.end(), out.begin());
  return out;
}

BigNum MontgomeryContext::store(const Padded& limbs) const {
  BigNum out;
  out.limbs_.assign(limbs.begin(), limbs.begin() + static_cast<long>(width_));
  out.normalize();
  return out;
}

template <typename Fn>
void MontgomeryContext::at_width(Fn&& fn) const {
  const uint64_t* n = n_.data();
  const uint64_t* r2 = r2_.data();
  switch (width_) {
    case 4: return fn(Field<4>(n, r2, n0_inv_));
    case 6: return fn(Field<6>(n, r2, n0_inv_));
    case 8: return fn(Field<8>(n, r2, n0_inv_));
    case 12: return fn(Field<12>(n, r2, n0_inv_));
    case 16: return fn(Field<16>(n, r2, n0_inv_));
    case 24: return fn(Field<24>(n, r2, n0_inv_));
    case 32: return fn(Field<32>(n, r2, n0_inv_));
  }
  assert(false && "MontgomeryContext: no kernel for this width");
}

FixedWindowSchedule FixedWindowSchedule::from_exponent(const BigNum& exponent) {
  FixedWindowSchedule s;
  s.bit_length = exponent.bit_length();
  if (s.bit_length == 0) return s;
  const size_t windows = (s.bit_length + 3) / 4;
  s.digits.resize(windows);
  for (size_t w = 0; w < windows; ++w) {
    unsigned digit = 0;
    for (size_t b = 0; b < 4; ++b) {
      size_t bit_index = (windows - 1 - w) * 4 + (3 - b);
      digit = (digit << 1) | (exponent.bit(bit_index) ? 1u : 0u);
    }
    s.digits[w] = static_cast<uint8_t>(digit);
  }
  return s;
}

BigNum MontgomeryContext::exp(const BigNum& base, const BigNum& exponent) const {
  assert(valid());
  const size_t bits = exponent.bit_length();
  if (bits == 0) return BigNum(1) % modulus_;
  // Small exponents (RSA's public e = 65537 on the verify path) do at most
  // ~2 multiplies beyond the squarings — building the 16-entry window table
  // (15 multiplies) would dominate. Plain left-to-right square-and-multiply.
  if (bits > 24)
    return exp(base, FixedWindowSchedule::from_exponent(exponent));
  Padded x = load(base);
  at_width([&](const auto& field) { exp_bits(field, x.data(), exponent, bits); });
  return store(x);
}

BigNum MontgomeryContext::exp(const BigNum& base,
                              const FixedWindowSchedule& schedule) const {
  assert(valid());
  if (schedule.empty()) return BigNum(1) % modulus_;
  Padded x = load(base);
  at_width([&](const auto& field) {
    exp_windows(field, x.data(), schedule.digits.data(), schedule.digits.size());
  });
  return store(x);
}

BigNum MontgomeryContext::mul_mod(const BigNum& a, const BigNum& b) const {
  assert(valid());
  Padded x = load(a);
  const Padded y = load(b);
  at_width([&](const auto& field) { mul_residues(field, x.data(), y.data()); });
  return store(x);
}

BigNum BigNum::gcd(BigNum a, BigNum b) {
  while (!b.is_zero()) {
    BigNum r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigNum BigNum::mod_inverse(const BigNum& modulus) const {
  // Extended Euclid on non-negative values, tracking coefficients with an
  // explicit sign since BigNum is unsigned.
  if (modulus.is_zero()) return BigNum();
  BigNum r0 = modulus, r1 = *this % modulus;
  BigNum t0, t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.is_zero()) {
    DivMod qr = r0.divmod(r1);
    // t2 = t0 - q * t1, with sign handling.
    BigNum q_t1 = qr.quotient * t1;
    BigNum t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // Same sign: t0 - q*t1 flips sign if q*t1 > t0 in magnitude.
      if (t0 >= q_t1) {
        t2 = t0 - q_t1;
        t2_neg = t0_neg;
      } else {
        t2 = q_t1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + q_t1;
      t2_neg = t0_neg;
    }
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
    r0 = std::move(r1);
    r1 = std::move(qr.remainder);
  }
  if (!(r0 == BigNum(1))) return BigNum();  // not invertible
  if (t0_neg) return modulus - (t0 % modulus);
  return t0 % modulus;
}

}  // namespace rootsim::crypto
