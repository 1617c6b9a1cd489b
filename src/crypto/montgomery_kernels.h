// The two Montgomery multiplication kernels behind MontgomeryContext, at the
// widths that have both. Internal to the crypto library: bignum.cpp picks a
// kernel by itself (the ADX one when the host has it, at 6 and 12 limbs), and
// only crypto_bignum_test includes this header, to hold the two kernels to
// each other. Nothing here selects the kernel the program runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace rootsim::crypto::montgomery {

enum class Kernel {
  portable,  // fixed-width product scanning in C++, every width and host
  adx,       // x86-64 asm with mulx/adcx/adox, 6 and 12 limbs
};

/// True when this build carries the ADX kernel (x86-64 ELF) and the host
/// reports BMI2 and ADX. Checked once per process.
bool adx_kernel_available();

template <size_t K>
using Limbs = std::array<uint64_t, K>;

/// out = a * b * R^-1 mod n through `kernel`, with R = 2^(64K), K 6 or 12.
/// n is odd and a, b < n; n may have zero high limbs. out may alias a or b.
/// Kernel::adx requires adx_kernel_available().
template <size_t K>
void mul(Kernel kernel, Limbs<K>& out, const Limbs<K>& a, const Limbs<K>& b,
         const Limbs<K>& n);

/// out = a * a * R^-1 mod n, likewise; out may alias a.
template <size_t K>
void sqr(Kernel kernel, Limbs<K>& out, const Limbs<K>& a, const Limbs<K>& n);

extern template void mul<6>(Kernel, Limbs<6>&, const Limbs<6>&,
                            const Limbs<6>&, const Limbs<6>&);
extern template void mul<12>(Kernel, Limbs<12>&, const Limbs<12>&,
                             const Limbs<12>&, const Limbs<12>&);
extern template void sqr<6>(Kernel, Limbs<6>&, const Limbs<6>&,
                            const Limbs<6>&);
extern template void sqr<12>(Kernel, Limbs<12>&, const Limbs<12>&,
                             const Limbs<12>&);

}  // namespace rootsim::crypto::montgomery
