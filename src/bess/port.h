// NIC port abstractions. PortInc pulls packets from an external
// PacketSource (the simulated ToR link / traffic source) in poll mode;
// PortOut hands packets to a PacketSink (the link back to the ToR) and
// records throughput and latency statistics.
#pragma once

#include <cstdint>
#include <memory>

#include "src/bess/module.h"

namespace lemur::bess {

/// Supplies ingress packets. Implementations: the runtime's rate-shaped
/// traffic source, or a queue fed by the simulated switch.
class PacketSource {
 public:
  virtual ~PacketSource() = default;
  /// Fills `out` with up to `max` packets available at virtual time
  /// `now_ns`; returns the number supplied.
  virtual std::size_t pull(net::PacketBatch& out, std::size_t max,
                           std::uint64_t now_ns) = 0;
  /// True only if pull() at `now_ns` would supply nothing. The scheduler
  /// then skips the poll's work, so `false` is always a safe answer.
  [[nodiscard]] virtual bool idle(std::uint64_t /*now_ns*/) const {
    return false;
  }
};

/// Consumes egress packets.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void push(net::PacketBatch&& batch, std::uint64_t now_ns) = 0;
};

/// Poll-mode receive port: a scheduler task drives it; each invocation
/// pulls one batch from the source and pushes it downstream on gate 0.
/// Charges the per-batch DPDK poll cost.
class PortInc : public Module {
 public:
  /// Per-batch cost of the poll-mode driver (rx descriptor handling).
  static constexpr std::uint64_t kPollCyclesPerBatch = 50;

  explicit PortInc(PacketSource* source) : source_(source) {}

  void process(Context& ctx, net::PacketBatch&& batch) override;

  /// Scheduler entry point: pulls and processes one batch; returns the
  /// number of packets moved (0 = idle).
  std::size_t run_once(Context& ctx);

  /// True only if run_once at `now_ns` would move nothing.
  [[nodiscard]] bool idle(std::uint64_t now_ns) const {
    return source_ == nullptr || source_->idle(now_ns);
  }

 private:
  PacketSource* source_;
};

/// Transmit port: counts delivered packets/bytes and forwards them to the
/// sink. Terminal module of every server pipeline.
class PortOut : public Module {
 public:
  /// Per-packet tx descriptor cost.
  static constexpr std::uint64_t kTxCyclesPerPacket = 20;

  explicit PortOut(PacketSink* sink = nullptr) : sink_(sink) {}

  void process(Context& ctx, net::PacketBatch&& batch) override;

  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  /// Mean residence time of delivered packets (now - arrival), ns.
  [[nodiscard]] double mean_latency_ns() const;

 private:
  PacketSink* sink_;
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t latency_sum_ns_ = 0;
};

}  // namespace lemur::bess
