#include "src/nf/crypto/chacha20.h"

#include <bit>
#include <cstring>

namespace lemur::nf::crypto {
namespace {

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void store_le32(std::uint32_t v, std::uint8_t* p) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                   std::uint32_t& d) {
  a += b;
  d = std::rotl(d ^ a, 16);
  c += d;
  b = std::rotl(b ^ c, 12);
  a += b;
  d = std::rotl(d ^ a, 8);
  c += d;
  b = std::rotl(b ^ c, 7);
}

}  // namespace

ChaCha20::ChaCha20(std::span<const std::uint8_t, kKeySize> key,
                   std::span<const std::uint8_t, kNonceSize> nonce,
                   std::uint32_t initial_counter)
    : counter_(initial_counter) {
  state_[0] = 0x61707865;  // "expa"
  state_[1] = 0x3320646e;  // "nd 3"
  state_[2] = 0x79622d32;  // "2-by"
  state_[3] = 0x6b206574;  // "te k"
  for (int i = 0; i < 8; ++i) {
    state_[static_cast<std::size_t>(4 + i)] = load_le32(&key[4 * i]);
  }
  state_[12] = 0;  // Counter slot, set per block.
  for (int i = 0; i < 3; ++i) {
    state_[static_cast<std::size_t>(13 + i)] = load_le32(&nonce[4 * i]);
  }
}

void ChaCha20::block(std::uint32_t counter,
                     std::span<std::uint8_t, 64> out) const {
  std::array<std::uint32_t, 16> working = state_;
  working[12] = counter;
  std::array<std::uint32_t, 16> x = working;
  for (int i = 0; i < 10; ++i) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (std::size_t i = 0; i < 16; ++i) {
    store_le32(x[i] + working[i], &out[4 * i]);
  }
}

void ChaCha20::apply(std::span<std::uint8_t> data) {
  std::array<std::uint8_t, 64> keystream;
  std::size_t off = 0;
  while (off < data.size()) {
    block(counter_++, keystream);
    const std::size_t n = std::min<std::size_t>(64, data.size() - off);
    for (std::size_t i = 0; i < n; ++i) data[off + i] ^= keystream[i];
    off += n;
  }
}

ChaCha20Keystream::ChaCha20Keystream(
    std::span<const std::uint8_t, ChaCha20::kKeySize> key,
    std::span<const std::uint8_t, ChaCha20::kNonceSize> nonce)
    : cipher_(key, nonce) {}

void ChaCha20Keystream::xor_into(std::span<std::uint8_t> data) {
  const std::size_t n = data.size();
  while (stream_.size() < n) {
    const std::size_t at = stream_.size();
    stream_.resize(at + 64);
    cipher_.block(static_cast<std::uint32_t>(at / 64),
                  std::span<std::uint8_t, 64>(stream_.data() + at, 64));
  }
  std::uint8_t* out = data.data();
  const std::uint8_t* key = stream_.data();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t d;
    std::uint64_t k;
    std::memcpy(&d, out + i, 8);
    std::memcpy(&k, key + i, 8);
    d ^= k;
    std::memcpy(out + i, &d, 8);
  }
  for (; i < n; ++i) out[i] ^= key[i];
}

}  // namespace lemur::nf::crypto
