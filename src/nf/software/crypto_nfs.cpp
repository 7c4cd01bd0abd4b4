#include "src/nf/software/crypto_nfs.h"

#include "src/net/packet.h"

namespace lemur::nf {

void derive_key_material(const std::string& passphrase,
                         std::span<std::uint8_t> out) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : passphrase) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    h ^= i + 0x9e3779b97f4a7c15ull;
    h *= 1099511628211ull;
    out[i] = static_cast<std::uint8_t>(h >> 32);
  }
}

std::span<std::uint8_t> l4_payload(net::Packet& pkt) {
  // Payload-only mutations leave every header offset intact, so the
  // parse cache stays valid across the returned span's writes.
  const auto* layers = pkt.layers();
  if (layers == nullptr || (!layers->tcp && !layers->udp)) return {};
  if (layers->payload_offset >= pkt.data.size()) return {};
  return {pkt.data.data() + layers->payload_offset,
          pkt.data.size() - layers->payload_offset};
}

namespace {

crypto::Aes128 make_cipher(const NfConfig& config) {
  std::array<std::uint8_t, 16> key;
  derive_key_material(config.string_or("key", "lemur-default-key"), key);
  return crypto::Aes128(key);
}

}  // namespace

crypto::ChaCha20Keystream make_keystream(const NfConfig& config) {
  std::array<std::uint8_t, crypto::ChaCha20::kKeySize> key;
  std::array<std::uint8_t, crypto::ChaCha20::kNonceSize> nonce;
  derive_key_material(config.string_or("key", "lemur-chacha-key"), key);
  derive_key_material(config.string_or("nonce", "lemur-nonce"), nonce);
  return {key, nonce};
}

EncryptNf::EncryptNf(NfConfig config, bool decrypt)
    : SoftwareNf(decrypt ? NfType::kDecrypt : NfType::kEncrypt,
                 std::move(config)),
      cipher_(make_cipher(this->config())),
      decrypt_(decrypt) {
  derive_key_material(this->config().string_or("iv", "lemur-iv"), iv_);
}

int EncryptNf::process(net::Packet& pkt) {
  auto payload = l4_payload(pkt);
  if (payload.empty()) return 0;  // Nothing to encrypt; pass through.
  if (decrypt_) {
    crypto::aes128_cbc_decrypt(cipher_, iv_, payload);
  } else {
    crypto::aes128_cbc_encrypt(cipher_, iv_, payload);
  }
  return 0;
}

FastEncryptNf::FastEncryptNf(NfConfig config)
    : SoftwareNf(NfType::kFastEncrypt, std::move(config)),
      keystream_(make_keystream(this->config())) {}

int FastEncryptNf::process(net::Packet& pkt) {
  auto payload = l4_payload(pkt);
  if (payload.empty()) return 0;
  // The counter restarts per packet, so every packet XORs the same
  // stream (encrypt == decrypt).
  keystream_.xor_into(payload);
  return 0;
}

}  // namespace lemur::nf
