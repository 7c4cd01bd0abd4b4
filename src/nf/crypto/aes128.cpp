#include "src/nf/crypto/aes128.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LEMUR_AES_NI 1
#endif

namespace lemur::nf::crypto {

namespace {

// FIPS-197 S-box.
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

std::uint8_t inv_sbox(std::uint8_t y) {
  // Built once at startup from kSbox.
  static const auto table = [] {
    std::array<std::uint8_t, 256> t{};
    for (int i = 0; i < 256; ++i) t[kSbox[i]] = static_cast<std::uint8_t>(i);
    return t;
  }();
  return table[y];
}

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

constexpr std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t result = 0;
  while (b != 0) {
    if (b & 1) result ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return result;
}

constexpr std::uint32_t rotr32(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// T-tables for the word-oriented fast path: Te0[x] is the MixColumns
// output column for an input column (S[x],0,0,0) packed big-endian
// (row 0 in the most significant byte); Te1..Te3 are byte rotations of
// it, matching the other input rows. Td* is the same construction with
// the inverse S-box and InvMixColumns.
struct AesTables {
  std::uint32_t te0[256], te1[256], te2[256], te3[256];
  std::uint32_t td0[256], td1[256], td2[256], td3[256];
  std::uint8_t inv_sbox[256];
};

constexpr AesTables make_tables() {
  AesTables t{};
  for (int i = 0; i < 256; ++i) {
    t.inv_sbox[kSbox[i]] = static_cast<std::uint8_t>(i);
  }
  for (int i = 0; i < 256; ++i) {
    const std::uint8_t s = kSbox[i];
    const std::uint32_t e =
        (static_cast<std::uint32_t>(gmul(s, 2)) << 24) |
        (static_cast<std::uint32_t>(s) << 16) |
        (static_cast<std::uint32_t>(s) << 8) |
        static_cast<std::uint32_t>(gmul(s, 3));
    t.te0[i] = e;
    t.te1[i] = rotr32(e, 8);
    t.te2[i] = rotr32(e, 16);
    t.te3[i] = rotr32(e, 24);
    const std::uint8_t is = t.inv_sbox[i];
    const std::uint32_t d =
        (static_cast<std::uint32_t>(gmul(is, 0x0e)) << 24) |
        (static_cast<std::uint32_t>(gmul(is, 0x09)) << 16) |
        (static_cast<std::uint32_t>(gmul(is, 0x0d)) << 8) |
        static_cast<std::uint32_t>(gmul(is, 0x0b));
    t.td0[i] = d;
    t.td1[i] = rotr32(d, 8);
    t.td2[i] = rotr32(d, 16);
    t.td3[i] = rotr32(d, 24);
  }
  return t;
}

constexpr AesTables kTables = make_tables();

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t w) {
  p[0] = static_cast<std::uint8_t>(w >> 24);
  p[1] = static_cast<std::uint8_t>(w >> 16);
  p[2] = static_cast<std::uint8_t>(w >> 8);
  p[3] = static_cast<std::uint8_t>(w);
}

// InvMixColumns over one 16-byte round key, column-major — the transform
// the equivalent inverse cipher applies to the middle round keys (and what
// the aesimc instruction computes).
std::array<std::uint8_t, 16> inv_mix_key(
    const std::array<std::uint8_t, 16>& k) {
  std::array<std::uint8_t, 16> out{};
  for (int col = 0; col < 4; ++col) {
    const std::uint8_t a0 = k[static_cast<std::size_t>(4 * col)];
    const std::uint8_t a1 = k[static_cast<std::size_t>(4 * col + 1)];
    const std::uint8_t a2 = k[static_cast<std::size_t>(4 * col + 2)];
    const std::uint8_t a3 = k[static_cast<std::size_t>(4 * col + 3)];
    out[static_cast<std::size_t>(4 * col)] =
        gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d) ^ gmul(a3, 0x09);
    out[static_cast<std::size_t>(4 * col + 1)] =
        gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b) ^ gmul(a3, 0x0d);
    out[static_cast<std::size_t>(4 * col + 2)] =
        gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e) ^ gmul(a3, 0x0b);
    out[static_cast<std::size_t>(4 * col + 3)] =
        gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09) ^ gmul(a3, 0x0e);
  }
  return out;
}

#ifdef LEMUR_AES_NI
bool cpu_has_aesni() { return __builtin_cpu_supports("aes") != 0; }

__attribute__((target("aes,sse2"))) void encrypt_block_aesni(
    const std::array<std::array<std::uint8_t, 16>, 11>& rk,
    std::uint8_t* block) {
  __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block));
  s = _mm_xor_si128(
      s, _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk[0].data())));
  for (int r = 1; r < 10; ++r) {
    s = _mm_aesenc_si128(
        s, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
               rk[static_cast<std::size_t>(r)].data())));
  }
  s = _mm_aesenclast_si128(
      s, _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk[10].data())));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(block), s);
}

__attribute__((target("aes,sse2"))) void decrypt_block_aesni(
    const std::array<std::array<std::uint8_t, 16>, 11>& dk,
    std::uint8_t* block) {
  __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block));
  s = _mm_xor_si128(
      s, _mm_loadu_si128(reinterpret_cast<const __m128i*>(dk[0].data())));
  for (int r = 1; r < 10; ++r) {
    s = _mm_aesdec_si128(
        s, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
               dk[static_cast<std::size_t>(r)].data())));
  }
  s = _mm_aesdeclast_si128(
      s, _mm_loadu_si128(reinterpret_cast<const __m128i*>(dk[10].data())));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(block), s);
}
#else
bool cpu_has_aesni() { return false; }
#endif

using State = std::array<std::uint8_t, 16>;  // Column-major, as FIPS-197.

void add_round_key(State& s, const std::array<std::uint8_t, 16>& rk) {
  for (std::size_t i = 0; i < 16; ++i) s[i] ^= rk[i];
}

void sub_bytes(State& s) {
  for (auto& b : s) b = kSbox[b];
}

void inv_sub_bytes(State& s) {
  for (auto& b : s) b = inv_sbox(b);
}

// State layout: s[4*col + row].
void shift_rows(State& s) {
  State t = s;
  for (int row = 1; row < 4; ++row) {
    for (int col = 0; col < 4; ++col) {
      s[static_cast<std::size_t>(4 * col + row)] =
          t[static_cast<std::size_t>(4 * ((col + row) % 4) + row)];
    }
  }
}

void inv_shift_rows(State& s) {
  State t = s;
  for (int row = 1; row < 4; ++row) {
    for (int col = 0; col < 4; ++col) {
      s[static_cast<std::size_t>(4 * ((col + row) % 4) + row)] =
          t[static_cast<std::size_t>(4 * col + row)];
    }
  }
}

void mix_columns(State& s) {
  for (int col = 0; col < 4; ++col) {
    auto* c = &s[static_cast<std::size_t>(4 * col)];
    const std::uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
    c[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    c[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    c[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    c[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

void inv_mix_columns(State& s) {
  for (int col = 0; col < 4; ++col) {
    auto* c = &s[static_cast<std::size_t>(4 * col)];
    const std::uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
    c[0] = gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d) ^ gmul(a3, 0x09);
    c[1] = gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b) ^ gmul(a3, 0x0d);
    c[2] = gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e) ^ gmul(a3, 0x0b);
    c[3] = gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09) ^ gmul(a3, 0x0e);
  }
}

}  // namespace

Aes128::Aes128(std::span<const std::uint8_t, kKeySize> key) {
  std::copy(key.begin(), key.end(), round_keys_[0].begin());
  for (int round = 1; round <= 10; ++round) {
    const auto& prev = round_keys_[static_cast<std::size_t>(round - 1)];
    auto& rk = round_keys_[static_cast<std::size_t>(round)];
    // First word: RotWord + SubWord + Rcon.
    rk[0] = prev[0] ^ kSbox[prev[13]] ^ kRcon[round - 1];
    rk[1] = prev[1] ^ kSbox[prev[14]];
    rk[2] = prev[2] ^ kSbox[prev[15]];
    rk[3] = prev[3] ^ kSbox[prev[12]];
    for (std::size_t i = 4; i < 16; ++i) rk[i] = prev[i] ^ rk[i - 4];
  }

  // Derive the fast-path schedules. Encrypt: the same keys as big-endian
  // column words. Decrypt (equivalent inverse cipher): reversed key order
  // with InvMixColumns applied to rounds 1..9.
  for (std::size_t r = 0; r < 11; ++r) {
    for (std::size_t j = 0; j < 4; ++j) {
      enc_words_[4 * r + j] = load_be32(&round_keys_[r][4 * j]);
    }
  }
  dec_keys_bytes_[0] = round_keys_[10];
  for (std::size_t r = 1; r < 10; ++r) {
    dec_keys_bytes_[r] = inv_mix_key(round_keys_[10 - r]);
  }
  dec_keys_bytes_[10] = round_keys_[0];
  for (std::size_t r = 0; r < 11; ++r) {
    for (std::size_t j = 0; j < 4; ++j) {
      dec_words_[4 * r + j] = load_be32(&dec_keys_bytes_[r][4 * j]);
    }
  }
  aesni_ = cpu_has_aesni();
}

void Aes128::encrypt_block(std::span<std::uint8_t, kBlockSize> block) const {
#ifdef LEMUR_AES_NI
  if (aesni_) {
    encrypt_block_aesni(round_keys_, block.data());
    return;
  }
#endif
  encrypt_tables(block);
}

void Aes128::decrypt_block(std::span<std::uint8_t, kBlockSize> block) const {
#ifdef LEMUR_AES_NI
  if (aesni_) {
    decrypt_block_aesni(dec_keys_bytes_, block.data());
    return;
  }
#endif
  decrypt_tables(block);
}

void Aes128::encrypt_tables(std::span<std::uint8_t, kBlockSize> block) const {
  const std::uint32_t* rk = enc_words_.data();
  std::uint32_t w0 = load_be32(&block[0]) ^ rk[0];
  std::uint32_t w1 = load_be32(&block[4]) ^ rk[1];
  std::uint32_t w2 = load_be32(&block[8]) ^ rk[2];
  std::uint32_t w3 = load_be32(&block[12]) ^ rk[3];
  const AesTables& t = kTables;
  for (int r = 1; r < 10; ++r) {
    rk += 4;
    const std::uint32_t t0 = t.te0[w0 >> 24] ^ t.te1[(w1 >> 16) & 0xff] ^
                             t.te2[(w2 >> 8) & 0xff] ^ t.te3[w3 & 0xff] ^
                             rk[0];
    const std::uint32_t t1 = t.te0[w1 >> 24] ^ t.te1[(w2 >> 16) & 0xff] ^
                             t.te2[(w3 >> 8) & 0xff] ^ t.te3[w0 & 0xff] ^
                             rk[1];
    const std::uint32_t t2 = t.te0[w2 >> 24] ^ t.te1[(w3 >> 16) & 0xff] ^
                             t.te2[(w0 >> 8) & 0xff] ^ t.te3[w1 & 0xff] ^
                             rk[2];
    const std::uint32_t t3 = t.te0[w3 >> 24] ^ t.te1[(w0 >> 16) & 0xff] ^
                             t.te2[(w1 >> 8) & 0xff] ^ t.te3[w2 & 0xff] ^
                             rk[3];
    w0 = t0;
    w1 = t1;
    w2 = t2;
    w3 = t3;
  }
  rk += 4;
  const auto last = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                       std::uint32_t d) {
    return (static_cast<std::uint32_t>(kSbox[a >> 24]) << 24) |
           (static_cast<std::uint32_t>(kSbox[(b >> 16) & 0xff]) << 16) |
           (static_cast<std::uint32_t>(kSbox[(c >> 8) & 0xff]) << 8) |
           static_cast<std::uint32_t>(kSbox[d & 0xff]);
  };
  store_be32(&block[0], last(w0, w1, w2, w3) ^ rk[0]);
  store_be32(&block[4], last(w1, w2, w3, w0) ^ rk[1]);
  store_be32(&block[8], last(w2, w3, w0, w1) ^ rk[2]);
  store_be32(&block[12], last(w3, w0, w1, w2) ^ rk[3]);
}

void Aes128::decrypt_tables(std::span<std::uint8_t, kBlockSize> block) const {
  const std::uint32_t* rk = dec_words_.data();
  std::uint32_t w0 = load_be32(&block[0]) ^ rk[0];
  std::uint32_t w1 = load_be32(&block[4]) ^ rk[1];
  std::uint32_t w2 = load_be32(&block[8]) ^ rk[2];
  std::uint32_t w3 = load_be32(&block[12]) ^ rk[3];
  const AesTables& t = kTables;
  for (int r = 1; r < 10; ++r) {
    rk += 4;
    const std::uint32_t t0 = t.td0[w0 >> 24] ^ t.td1[(w3 >> 16) & 0xff] ^
                             t.td2[(w2 >> 8) & 0xff] ^ t.td3[w1 & 0xff] ^
                             rk[0];
    const std::uint32_t t1 = t.td0[w1 >> 24] ^ t.td1[(w0 >> 16) & 0xff] ^
                             t.td2[(w3 >> 8) & 0xff] ^ t.td3[w2 & 0xff] ^
                             rk[1];
    const std::uint32_t t2 = t.td0[w2 >> 24] ^ t.td1[(w1 >> 16) & 0xff] ^
                             t.td2[(w0 >> 8) & 0xff] ^ t.td3[w3 & 0xff] ^
                             rk[2];
    const std::uint32_t t3 = t.td0[w3 >> 24] ^ t.td1[(w2 >> 16) & 0xff] ^
                             t.td2[(w1 >> 8) & 0xff] ^ t.td3[w0 & 0xff] ^
                             rk[3];
    w0 = t0;
    w1 = t1;
    w2 = t2;
    w3 = t3;
  }
  rk += 4;
  const auto& inv = kTables.inv_sbox;
  const auto last = [&inv](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                           std::uint32_t d) {
    return (static_cast<std::uint32_t>(inv[a >> 24]) << 24) |
           (static_cast<std::uint32_t>(inv[(b >> 16) & 0xff]) << 16) |
           (static_cast<std::uint32_t>(inv[(c >> 8) & 0xff]) << 8) |
           static_cast<std::uint32_t>(inv[d & 0xff]);
  };
  store_be32(&block[0], last(w0, w3, w2, w1) ^ rk[0]);
  store_be32(&block[4], last(w1, w0, w3, w2) ^ rk[1]);
  store_be32(&block[8], last(w2, w1, w0, w3) ^ rk[2]);
  store_be32(&block[12], last(w3, w2, w1, w0) ^ rk[3]);
}

void Aes128::encrypt_reference(
    std::span<std::uint8_t, kBlockSize> block) const {
  State s;
  std::copy(block.begin(), block.end(), s.begin());
  add_round_key(s, round_keys_[0]);
  for (int round = 1; round < 10; ++round) {
    sub_bytes(s);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, round_keys_[static_cast<std::size_t>(round)]);
  }
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, round_keys_[10]);
  std::copy(s.begin(), s.end(), block.begin());
}

void Aes128::decrypt_reference(
    std::span<std::uint8_t, kBlockSize> block) const {
  State s;
  std::copy(block.begin(), block.end(), s.begin());
  add_round_key(s, round_keys_[10]);
  for (int round = 9; round >= 1; --round) {
    inv_shift_rows(s);
    inv_sub_bytes(s);
    add_round_key(s, round_keys_[static_cast<std::size_t>(round)]);
    inv_mix_columns(s);
  }
  inv_shift_rows(s);
  inv_sub_bytes(s);
  add_round_key(s, round_keys_[0]);
  std::copy(s.begin(), s.end(), block.begin());
}

namespace {

// Keystream block for the length-preserving tail: encrypt of the previous
// ciphertext (or IV) with the column pattern inverted so it differs from
// a regular CBC block.
void tail_mask(const Aes128& cipher, const std::uint8_t* prev,
               std::uint8_t* mask) {
  std::array<std::uint8_t, 16> block;
  for (std::size_t i = 0; i < 16; ++i) {
    block[i] = static_cast<std::uint8_t>(prev[i] ^ 0xa5);
  }
  cipher.encrypt_block(std::span<std::uint8_t, 16>(block));
  std::memcpy(mask, block.data(), 16);
}

}  // namespace

void aes128_cbc_encrypt(const Aes128& cipher,
                        std::span<const std::uint8_t, 16> iv,
                        std::span<std::uint8_t> data) {
  std::array<std::uint8_t, 16> prev;
  std::copy(iv.begin(), iv.end(), prev.begin());
  std::size_t off = 0;
  for (; off + 16 <= data.size(); off += 16) {
    for (std::size_t i = 0; i < 16; ++i) data[off + i] ^= prev[i];
    std::span<std::uint8_t, 16> block(data.data() + off, 16);
    cipher.encrypt_block(block);
    std::copy(block.begin(), block.end(), prev.begin());
  }
  if (off < data.size()) {
    std::array<std::uint8_t, 16> mask;
    tail_mask(cipher, prev.data(), mask.data());
    for (std::size_t i = 0; off + i < data.size(); ++i) {
      data[off + i] ^= mask[i];
    }
  }
}

void aes128_cbc_decrypt(const Aes128& cipher,
                        std::span<const std::uint8_t, 16> iv,
                        std::span<std::uint8_t> data) {
  std::array<std::uint8_t, 16> prev;
  std::copy(iv.begin(), iv.end(), prev.begin());
  std::size_t off = 0;
  for (; off + 16 <= data.size(); off += 16) {
    std::array<std::uint8_t, 16> ciphertext;
    std::memcpy(ciphertext.data(), data.data() + off, 16);
    std::span<std::uint8_t, 16> block(data.data() + off, 16);
    cipher.decrypt_block(block);
    for (std::size_t i = 0; i < 16; ++i) data[off + i] ^= prev[i];
    prev = ciphertext;
  }
  if (off < data.size()) {
    std::array<std::uint8_t, 16> mask;
    tail_mask(cipher, prev.data(), mask.data());
    for (std::size_t i = 0; off + i < data.size(); ++i) {
      data[off + i] ^= mask[i];
    }
  }
}

}  // namespace lemur::nf::crypto
