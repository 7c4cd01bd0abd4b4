// Base class for server (BESS/C++) NF implementations, plus the BESS
// module wrapper that charges cycle costs.
//
// Cost model: the registry's cycle_cost is the *mean* cycles/packet
// (paper Table 4 reports means); per-packet actual cost is sampled
// uniformly within +/- kCostJitter of the mean, so measured max/min land
// ~2.5% around the mean exactly as Table 4 shows. The Placer profiles
// worst-case (mean x (1 + kCostJitter)), which makes its throughput
// predictions slightly conservative — reproducing the paper's
// "predictions are conservative" observation.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "src/bess/module.h"
#include "src/nf/nf_spec.h"

namespace lemur::nf {

/// Little-endian byte-stream writer for NF state snapshots. The format is
/// deliberately trivial (fixed-width LE fields, length-prefixed records)
/// so a replacement instance on another server — or a test — can parse it
/// without the producing object.
class StateWriter {
 public:
  explicit StateWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    // The simulator only targets little-endian hosts (x86/aarch64); the
    // snapshot never crosses machines, only simulated servers.
    out_.insert(out_.end(), bytes, bytes + n);
  }

  std::vector<std::uint8_t>& out_;
};

/// Companion reader; all reads return 0 past the end rather than faulting,
/// so a truncated snapshot degrades to an empty import.
class StateReader {
 public:
  StateReader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}

  [[nodiscard]] std::uint8_t u8() { std::uint8_t v = 0; raw(&v, 1); return v; }
  [[nodiscard]] std::uint16_t u16() {
    std::uint16_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  [[nodiscard]] bool exhausted() const { return pos_ >= len_; }

 private:
  void raw(void* p, std::size_t n) {
    if (pos_ + n > len_) {
      pos_ = len_;
      return;
    }
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

class SoftwareNf {
 public:
  static constexpr int kDrop = -1;

  SoftwareNf(NfType type, NfConfig config)
      : type_(type), config_(std::move(config)) {}
  virtual ~SoftwareNf() = default;

  SoftwareNf(const SoftwareNf&) = delete;
  SoftwareNf& operator=(const SoftwareNf&) = delete;

  /// Processes one packet in place; returns the output gate (0 = the
  /// default next hop; branching NFs use higher gates) or kDrop.
  virtual int process(net::Packet& pkt) = 0;

  /// Batch-level state prefetch: when wants_prefetch() is true, the host
  /// module calls this for every packet in a batch before processing any,
  /// so flow-table cache misses overlap instead of serializing.
  virtual void prefetch_state(const net::Packet& pkt) { (void)pkt; }
  [[nodiscard]] virtual bool wants_prefetch() const { return false; }

  /// Stateful NFs serialize their flow tables here so the recovery
  /// controller can migrate state to a replacement instance (modeling the
  /// state replication a production NFV controller maintains). Stateless
  /// NFs export nothing.
  virtual void export_state(std::vector<std::uint8_t>& out) const {
    (void)out;
  }

  /// Installs a snapshot produced by export_state() on another instance of
  /// the same NF type. Instances that only own part of the keyspace (NAT
  /// replicas partition the external port range) import just their share.
  virtual void import_state(const std::uint8_t* data, std::size_t len) {
    (void)data;
    (void)len;
  }

  [[nodiscard]] virtual bool has_state() const { return false; }

  [[nodiscard]] NfType type() const { return type_; }
  [[nodiscard]] const NfConfig& config() const { return config_; }

  /// Mean cycles/packet for this instance (size-dependent NFs included).
  [[nodiscard]] std::uint64_t mean_cycles() const {
    return effective_cycle_cost(type_, config_);
  }

 private:
  NfType type_;
  NfConfig config_;
};

/// Relative half-width of the per-packet cost distribution.
inline constexpr double kCostJitter = 0.025;

/// Worst-case cycles/packet the Placer should budget for this NF type and
/// configuration (mean plus jitter headroom).
std::uint64_t worst_case_cycles(NfType type, const NfConfig& config);

/// BESS module hosting a software NF: charges the sampled per-packet cost
/// (scaled by the core's NUMA factor) and routes packets by the NF's gate
/// decision.
class NfModule : public bess::Module {
 public:
  explicit NfModule(std::unique_ptr<SoftwareNf> nf);

  void process(bess::Context& ctx, net::PacketBatch&& batch) override;

  [[nodiscard]] SoftwareNf& nf() { return *nf_; }
  [[nodiscard]] const SoftwareNf& nf() const { return *nf_; }

  /// Total cycles actually charged (jitter sampled, NUMA factor applied);
  /// divided by packets_in() this is the measured cycles/packet profile.
  [[nodiscard]] std::uint64_t cycles_charged() const {
    return cycles_charged_;
  }

 private:
  std::unique_ptr<SoftwareNf> nf_;
  std::uint64_t cycles_charged_ = 0;
};

}  // namespace lemur::nf
