#include "crypto/rsa.h"

#include <gtest/gtest.h>

#include "crypto/encoding.h"
#include "crypto/sha2.h"
#include "util/rng.h"

namespace rootsim::crypto {
namespace {

std::span<const uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(MillerRabin, KnownPrimesAndComposites) {
  util::Rng rng(1);
  EXPECT_TRUE(is_probable_prime(BigNum(2), rng));
  EXPECT_TRUE(is_probable_prime(BigNum(3), rng));
  EXPECT_TRUE(is_probable_prime(BigNum(65537), rng));
  EXPECT_TRUE(is_probable_prime(BigNum::from_hex("ffffffffffffffc5"), rng));
  EXPECT_FALSE(is_probable_prime(BigNum(1), rng));
  EXPECT_FALSE(is_probable_prime(BigNum(0), rng));
  EXPECT_FALSE(is_probable_prime(BigNum(4), rng));
  EXPECT_FALSE(is_probable_prime(BigNum(65536), rng));
  // Carmichael number 561 = 3*11*17 fools Fermat but not Miller–Rabin.
  EXPECT_FALSE(is_probable_prime(BigNum(561), rng));
  EXPECT_FALSE(is_probable_prime(BigNum(41041), rng));
}

class RsaKeySizes : public ::testing::TestWithParam<size_t> {};

TEST_P(RsaKeySizes, SignVerifyRoundTrip) {
  util::Rng rng(42);
  RsaPrivateKey key = generate_rsa_key(rng, GetParam());
  EXPECT_EQ(key.public_key.n.bit_length(), GetParam());
  std::string msg = "the root zone, serial 2023120600";
  auto sig = rsa_sign(key, RsaHash::Sha256, bytes_of(msg));
  EXPECT_EQ(sig.size(), key.public_key.modulus_bytes());
  EXPECT_TRUE(rsa_verify(key.public_key, RsaHash::Sha256, bytes_of(msg), sig));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RsaKeySizes, ::testing::Values(512, 768, 1024));

TEST(Rsa, VerifyRejectsTamperedMessage) {
  util::Rng rng(7);
  RsaPrivateKey key = generate_rsa_key(rng, 512);
  std::string msg = "world. 86400 IN RRSIG NSEC 8 1 ...";
  auto sig = rsa_sign(key, RsaHash::Sha256, bytes_of(msg));
  std::string flipped = msg;
  flipped[3] ^= 0x20;  // single-bit flip, as in the paper's Fig. 10
  EXPECT_FALSE(rsa_verify(key.public_key, RsaHash::Sha256, bytes_of(flipped), sig));
}

TEST(Rsa, VerifyRejectsTamperedSignature) {
  util::Rng rng(8);
  RsaPrivateKey key = generate_rsa_key(rng, 512);
  std::string msg = "message";
  auto sig = rsa_sign(key, RsaHash::Sha256, bytes_of(msg));
  for (size_t i = 0; i < sig.size(); i += 13) {
    auto bad = sig;
    bad[i] ^= 0x01;
    EXPECT_FALSE(rsa_verify(key.public_key, RsaHash::Sha256, bytes_of(msg), bad));
  }
}

TEST(Rsa, VerifyRejectsWrongKey) {
  util::Rng rng(9);
  RsaPrivateKey key1 = generate_rsa_key(rng, 512);
  RsaPrivateKey key2 = generate_rsa_key(rng, 512);
  std::string msg = "message";
  auto sig = rsa_sign(key1, RsaHash::Sha256, bytes_of(msg));
  EXPECT_FALSE(rsa_verify(key2.public_key, RsaHash::Sha256, bytes_of(msg), sig));
}

TEST(Rsa, VerifyRejectsWrongHashAlgorithm) {
  util::Rng rng(10);
  RsaPrivateKey key = generate_rsa_key(rng, 768);
  std::string msg = "message";
  auto sig = rsa_sign(key, RsaHash::Sha256, bytes_of(msg));
  EXPECT_FALSE(rsa_verify(key.public_key, RsaHash::Sha512, bytes_of(msg), sig));
}

TEST(Rsa, VerifyRejectsWrongLengthSignature) {
  util::Rng rng(11);
  RsaPrivateKey key = generate_rsa_key(rng, 512);
  std::string msg = "message";
  auto sig = rsa_sign(key, RsaHash::Sha256, bytes_of(msg));
  auto short_sig = sig;
  short_sig.pop_back();
  EXPECT_FALSE(rsa_verify(key.public_key, RsaHash::Sha256, bytes_of(msg), short_sig));
  auto long_sig = sig;
  long_sig.push_back(0);
  EXPECT_FALSE(rsa_verify(key.public_key, RsaHash::Sha256, bytes_of(msg), long_sig));
}

TEST(Rsa, Sha512SignatureScheme) {
  util::Rng rng(12);
  RsaPrivateKey key = generate_rsa_key(rng, 1024);
  std::string msg = "RSASHA512 is DNSSEC algorithm 10";
  auto sig = rsa_sign(key, RsaHash::Sha512, bytes_of(msg));
  EXPECT_TRUE(rsa_verify(key.public_key, RsaHash::Sha512, bytes_of(msg), sig));
  EXPECT_FALSE(rsa_verify(key.public_key, RsaHash::Sha256, bytes_of(msg), sig));
}

TEST(Rsa, DnskeyWireRoundTrip) {
  util::Rng rng(13);
  RsaPrivateKey key = generate_rsa_key(rng, 512);
  auto wire = key.public_key.to_dnskey_wire();
  RsaPublicKey parsed = RsaPublicKey::from_dnskey_wire(wire);
  EXPECT_EQ(parsed.n, key.public_key.n);
  EXPECT_EQ(parsed.e, key.public_key.e);
  // RFC 3110 layout: exponent length 3 (65537 = 0x010001).
  ASSERT_GE(wire.size(), 4u);
  EXPECT_EQ(wire[0], 3);
  EXPECT_EQ(wire[1], 0x01);
  EXPECT_EQ(wire[2], 0x00);
  EXPECT_EQ(wire[3], 0x01);
}

TEST(Rsa, DeterministicKeygen) {
  util::Rng rng1(42), rng2(42);
  RsaPrivateKey a = generate_rsa_key(rng1, 512);
  RsaPrivateKey b = generate_rsa_key(rng2, 512);
  EXPECT_EQ(a.public_key.n, b.public_key.n);
  EXPECT_EQ(a.d, b.d);
}

TEST(Rsa, SignatureDeterministicPkcs1) {
  // PKCS#1 v1.5 is deterministic: same key + message -> same signature.
  util::Rng rng(14);
  RsaPrivateKey key = generate_rsa_key(rng, 512);
  std::string msg = "deterministic";
  EXPECT_EQ(rsa_sign(key, RsaHash::Sha256, bytes_of(msg)),
            rsa_sign(key, RsaHash::Sha256, bytes_of(msg)));
}

TEST(Rsa, SignaturesMatchRecordedDigests) {
  // Known answers: a fixed message list signed through RsaSignContext with
  // deterministic keys at every modulus size the repository uses. Key
  // generation (Miller–Rabin), both CRT halves, the Garner recombination and
  // verification all run through the Montgomery kernel, so any change to its
  // arithmetic moves these digests. They were recorded from the vector-limb
  // CIOS kernel that preceded the fixed-width one.
  struct Case {
    size_t bits;
    uint64_t seed;
    const char* signatures_sha256;
  };
  const Case cases[] = {
      {512, 512,
       "6553a2e849ec360d7b78e3ee0963ca2344b2a29bac74238ea6f8f7723d915e84"},
      {768, 768,
       "23f466070e96f56402c05cb54785aad5e3c05d68ff084a1b8f3dcaddd74e7e7f"},
      {1024, 1024,
       "72b3c1270ecf1925cbe103db4ac0f16d445a730c237952ba2ceb1ff79675ec5f"},
      {1536, 1536,
       "e980aeddb3bb77621405d5dac42feb3a9bc20b56c19d6b84469bc608ff1cbb1a"},
      {2048, 2048,
       "8232e1740be5cbc9da6ecf9bca5c0b8d6f51a84ad4e298cd3c01346fe21984d9"},
  };
  for (const Case& c : cases) {
    util::Rng rng(c.seed);
    RsaPrivateKey key = generate_rsa_key(rng, c.bits);
    ASSERT_EQ(key.public_key.n.bit_length(), c.bits);
    RsaSignContext signer(key);
    RsaVerifyContext verifier(key.public_key);
    std::vector<uint8_t> concatenated;
    for (int i = 0; i < 24; ++i) {
      std::string msg = "rrset " + std::to_string(i) + " " +
                        std::string(static_cast<size_t>(i) * 37 % 300, 'x');
      // A SHA-512 DigestInfo needs a modulus of at least 94 bytes.
      RsaHash hash =
          i % 4 == 3 && c.bits >= 1024 ? RsaHash::Sha512 : RsaHash::Sha256;
      auto sig = signer.sign(hash, bytes_of(msg));
      ASSERT_EQ(sig.size(), key.public_key.modulus_bytes());
      EXPECT_TRUE(verifier.verify(hash, bytes_of(msg), sig)) << c.bits << " " << i;
      concatenated.insert(concatenated.end(), sig.begin(), sig.end());
    }
    EXPECT_EQ(to_hex(sha256(concatenated)), c.signatures_sha256)
        << c.bits << "-bit key";
  }
}

}  // namespace
}  // namespace rootsim::crypto
