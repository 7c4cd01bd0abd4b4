// Payload-encryption NFs: Encrypt/Decrypt (AES-128-CBC) and FastEncrypt
// (ChaCha20). These operate on the L4 payload in place and are
// length-preserving, so headers and chain routing stay intact.
//
// Keys/IVs are deployment configuration; the simulator derives them from
// the NfConfig "key" string (any length, hashed to key material) so that
// an Encrypt->...->Decrypt chain with matching config round-trips.
#pragma once

#include "src/nf/crypto/aes128.h"
#include "src/nf/crypto/chacha20.h"
#include "src/nf/software/software_nf.h"

namespace lemur::nf {

class EncryptNf : public SoftwareNf {
 public:
  explicit EncryptNf(NfConfig config, bool decrypt = false);

  int process(net::Packet& pkt) override;

 private:
  crypto::Aes128 cipher_;
  std::array<std::uint8_t, 16> iv_{};
  bool decrypt_;
};

class FastEncryptNf : public SoftwareNf {
 public:
  explicit FastEncryptNf(NfConfig config);

  int process(net::Packet& pkt) override;

 private:
  crypto::ChaCha20Keystream keystream_;
};

/// Derives deterministic key material from a passphrase (FNV-1a expansion;
/// simulation-grade, not a production KDF).
void derive_key_material(const std::string& passphrase,
                         std::span<std::uint8_t> out);

/// FastEncrypt's keystream, keyed from the NF's "key" and "nonce"
/// config. The software NF and a SmartNIC running the NF's program each
/// hold one, so both platforms encrypt with the same stream.
crypto::ChaCha20Keystream make_keystream(const NfConfig& config);

/// The L4 payload span of a packet (empty if no L4 layer parsed).
std::span<std::uint8_t> l4_payload(net::Packet& pkt);

}  // namespace lemur::nf
