// ChaCha20 stream cipher (RFC 8439), the paper's "Fast Encrypt" NF.
// Stream ciphers are length-preserving, which is why the paper offloads
// exactly this NF to the eBPF SmartNIC.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace lemur::nf::crypto {

class ChaCha20 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;

  ChaCha20(std::span<const std::uint8_t, kKeySize> key,
           std::span<const std::uint8_t, kNonceSize> nonce,
           std::uint32_t initial_counter = 0);

  /// XORs data with the keystream (encrypt == decrypt).
  void apply(std::span<std::uint8_t> data);

  /// Computes the raw 64-byte block for a given counter (exposed for
  /// test-vector verification).
  void block(std::uint32_t counter, std::span<std::uint8_t, 64> out) const;

 private:
  std::array<std::uint32_t, 16> state_{};
  std::uint32_t counter_ = 0;
};

/// The keystream of one (key, nonce) from block counter 0, for callers
/// that restart the counter on every message: xor_into(data) equals a
/// fresh ChaCha20(key, nonce, 0).apply(data), but each block is computed
/// once. The stream grows lazily, in whole 64-byte blocks, to the longest
/// message seen.
class ChaCha20Keystream {
 public:
  ChaCha20Keystream(std::span<const std::uint8_t, ChaCha20::kKeySize> key,
                    std::span<const std::uint8_t, ChaCha20::kNonceSize> nonce);

  /// XORs data with the stream's first data.size() bytes.
  void xor_into(std::span<std::uint8_t> data);

 private:
  ChaCha20 cipher_;
  std::vector<std::uint8_t> stream_;
};

}  // namespace lemur::nf::crypto
