// AES-128 block cipher and CBC mode, as used by the paper's Encrypt and
// Decrypt NFs ("128-bit AES-CBC", Table 3).
//
// encrypt_block/decrypt_block use AES-NI when the CPU has it and 32-bit
// T-tables otherwise: AES dominates the simulator's wall clock on
// crypto-heavy chains. The byte-wise FIPS-197 reference shares the key
// schedule and is kept as the oracle both fast paths are tested against.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace lemur::nf::crypto {

class Aes128 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;

  explicit Aes128(std::span<const std::uint8_t, kKeySize> key);

  /// Encrypts/decrypts one 16-byte block in place.
  void encrypt_block(std::span<std::uint8_t, kBlockSize> block) const;
  void decrypt_block(std::span<std::uint8_t, kBlockSize> block) const;

  /// The individual implementations, for tests: the byte-wise FIPS-197
  /// reference (the oracle) and the T-table path, which encrypt_block and
  /// decrypt_block bypass on AES-NI hosts. All produce identical output.
  void encrypt_reference(std::span<std::uint8_t, kBlockSize> block) const;
  void decrypt_reference(std::span<std::uint8_t, kBlockSize> block) const;
  void encrypt_tables(std::span<std::uint8_t, kBlockSize> block) const;
  void decrypt_tables(std::span<std::uint8_t, kBlockSize> block) const;

 private:
  // 11 round keys of 16 bytes.
  std::array<std::array<std::uint8_t, kBlockSize>, 11> round_keys_{};
  // Derived schedules for the fast paths, filled by the constructor:
  // big-endian column words of round_keys_, the equivalent-inverse-cipher
  // key words (InvMixColumns applied to the middle rounds), and the same
  // inverse keys as bytes for the AES-NI aesdec sequence.
  std::array<std::uint32_t, 44> enc_words_{};
  std::array<std::uint32_t, 44> dec_words_{};
  std::array<std::array<std::uint8_t, kBlockSize>, 11> dec_keys_bytes_{};
  bool aesni_ = false;
};

/// CBC over the whole-block prefix of `data`; any trailing partial block
/// is XOR-masked with a keystream derived from the last ciphertext block,
/// so the transformation is length-preserving (required for in-place
/// packet payload encryption).
void aes128_cbc_encrypt(const Aes128& cipher,
                        std::span<const std::uint8_t, 16> iv,
                        std::span<std::uint8_t> data);

/// Inverse of aes128_cbc_encrypt.
void aes128_cbc_decrypt(const Aes128& cipher,
                        std::span<const std::uint8_t, 16> iv,
                        std::span<std::uint8_t> data);

}  // namespace lemur::nf::crypto
