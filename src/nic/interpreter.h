// Executes a verified eBPF program over a packet. Memory accesses are
// bounds-checked at runtime against the packet and stack regions;
// violations abort the program with XdpAction::kAborted (as the kernel
// would have prevented the load, the packet is treated as dropped).
#pragma once

#include <array>

#include "src/net/packet.h"
#include "src/nf/crypto/chacha20.h"
#include "src/nic/ebpf_isa.h"

namespace lemur::nic {

/// Device-level configuration consumed by helpers.
struct HelperConfig {
  std::array<std::uint8_t, 32> chacha_key{};
  std::array<std::uint8_t, 12> chacha_nonce{};
};

struct ExecResult {
  XdpAction action = XdpAction::kAborted;
  std::uint64_t instructions_executed = 0;
  std::string error;  ///< Set when action == kAborted.
};

/// Runs the program against the packet (mutating it in place); the
/// kChaCha20 helper XORs `chacha`, the device's keystream, which a device
/// keeps across packets. The program should have passed verify(); running
/// an unverified program is safe (runtime checks still apply) but
/// unsupported.
ExecResult execute(const Program& program, net::Packet& pkt,
                   nf::crypto::ChaCha20Keystream& chacha);

/// The same for one run, keyed from `config`.
ExecResult execute(const Program& program, net::Packet& pkt,
                   const HelperConfig& config);

}  // namespace lemur::nic
