// The SmartNIC device model: loads one XDP program (per Lemur chain
// segment), verifies it with the eBPF verifier, executes it on ingress
// packets, and accounts virtual processing time.
//
// Performance model: the paper measured the Agilio running ChaCha >10x
// faster than one server core. We model the NIC's datapath as a single
// engine whose effective clock is `speedup_vs_core` times the server
// clock, charged with the same per-NF cycle profile — so relative rates
// (and the Figure 3b crossovers) reproduce.
#pragma once

#include <optional>

#include "src/net/batch.h"
#include "src/nic/interpreter.h"
#include "src/nic/verifier.h"
#include "src/topo/topology.h"

namespace lemur::nic {

class SmartNic {
 public:
  explicit SmartNic(topo::SmartNicSpec spec) : spec_(std::move(spec)) {}

  /// Verifies and installs the program; returns the verifier verdict.
  VerifyResult load(Program program, HelperConfig config = {});

  [[nodiscard]] bool loaded() const { return program_.has_value(); }

  struct ProcessResult {
    XdpAction action = XdpAction::kPass;
    std::uint64_t instructions = 0;
  };

  /// Runs the loaded program on one packet, charging virtual time.
  /// Without a loaded program the NIC passes packets through untouched.
  ProcessResult process(net::Packet& pkt,
                        std::uint64_t server_cycle_cost = 0);

  /// Virtual time consumed by the NIC engine so far, nanoseconds, given
  /// the attached server's clock.
  [[nodiscard]] double busy_ns(double server_clock_ghz) const {
    return static_cast<double>(engine_cycles_) /
           (server_clock_ghz * spec_.speedup_vs_core);
  }

  [[nodiscard]] const topo::SmartNicSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }

 private:
  topo::SmartNicSpec spec_;
  std::optional<Program> program_;
  /// The loaded config's ChaCha20 keystream, kept across packets.
  std::optional<nf::crypto::ChaCha20Keystream> chacha_;
  std::uint64_t engine_cycles_ = 0;
  std::uint64_t packets_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace lemur::nic
