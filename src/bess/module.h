// The BESS-style software dataplane: a graph of packet-processing modules
// executed run-to-completion over packet batches, with per-core virtual
// cycle accounting.
//
// Execution model (paper section 4.2 / appendix A.1): a scheduler task
// pulls a batch from a source (NIC port or inter-subgroup queue) and pushes
// it through a chain of modules on one core; every module charges its
// per-packet cycle cost to that core's virtual clock. Throughput emerges
// from cycles/packet x clock rate, which is exactly the paper's NF profile
// model.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "src/net/batch.h"
#include "src/net/packet_pool.h"

namespace lemur::bess {

/// Per-task execution context: the virtual clock of the core the task runs
/// on, a deterministic RNG for cost-jitter models, and (optionally) the
/// rack's packet pool so modules recycle the packets they discard.
class Context {
 public:
  Context(std::uint64_t* core_cycles, double clock_ghz, std::mt19937_64* rng,
          double cost_factor = 1.0, net::PacketPool* pool = nullptr)
      : core_cycles_(core_cycles),
        clock_ghz_(clock_ghz),
        rng_(rng),
        cost_factor_(cost_factor),
        pool_(pool) {}

  /// Adds processing cost to the core's virtual clock.
  void charge(std::uint64_t cycles) { *core_cycles_ += cycles; }

  /// Adds an NF processing cost scaled by the core's NUMA factor.
  void charge_scaled(std::uint64_t cycles) {
    *core_cycles_ += static_cast<std::uint64_t>(
        static_cast<double>(cycles) * cost_factor_);
  }

  [[nodiscard]] double cost_factor() const { return cost_factor_; }

  [[nodiscard]] std::uint64_t cycles() const { return *core_cycles_; }

  /// Current virtual time on this core, in nanoseconds.
  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        static_cast<double>(*core_cycles_) / clock_ghz_);
  }

  [[nodiscard]] double clock_ghz() const { return clock_ghz_; }
  [[nodiscard]] std::mt19937_64& rng() { return *rng_; }

  /// Returns a dead packet's buffers to the rack pool (no-op without one).
  void recycle(net::Packet&& pkt) {
    if (pool_ != nullptr) pool_->release(std::move(pkt));
  }
  void recycle_all(net::PacketBatch&& batch) {
    if (pool_ != nullptr) pool_->release_all(std::move(batch));
  }

 private:
  std::uint64_t* core_cycles_;
  double clock_ghz_;
  std::mt19937_64* rng_;
  double cost_factor_;
  net::PacketPool* pool_;
};

/// A dataflow module. Modules form a DAG via output gates; process()
/// consumes the batch and pushes packets downstream with emit().
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Processes a batch. The batch is consumed (moved downstream or
  /// dropped); callers must not reuse it.
  virtual void process(Context& ctx, net::PacketBatch&& batch) = 0;

  /// Wires output gate `ogate` to `next`. Gates must be connected in
  /// ascending order starting from 0.
  void connect(int ogate, Module* next);

  [[nodiscard]] std::uint64_t packets_in() const { return packets_in_; }

  /// Packets this module discarded (unconnected gates, tail drops, NF
  /// verdicts, ...) by the packets' aggregate_id — the runtime's drop
  /// ledger sweeps these per chain.
  [[nodiscard]] const std::map<std::uint32_t, std::uint64_t>&
  drops_by_aggregate() const {
    return drops_by_aggregate_;
  }

 protected:
  /// Sends a batch out of `ogate`; drops (and counts) if unconnected (the
  /// module graph's terminal edges end in PortOut or Sink modules).
  void emit(Context& ctx, int ogate, net::PacketBatch&& batch);

  void count_in(const net::PacketBatch& batch) {
    packets_in_ += batch.size();
  }

  void count_drop(const net::Packet& pkt) {
    ++drops_by_aggregate_[pkt.aggregate_id];
  }

  void count_drops(const net::PacketBatch& batch) {
    for (const auto& pkt : batch.packets()) count_drop(pkt);
  }

 private:
  std::vector<Module*> ogates_;
  std::uint64_t packets_in_ = 0;
  std::map<std::uint32_t, std::uint64_t> drops_by_aggregate_;
};

/// Terminal module that counts and discards everything it receives.
class Sink : public Module {
 public:
  void process(Context& ctx, net::PacketBatch&& batch) override;
  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace lemur::bess
