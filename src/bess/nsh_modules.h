// NSH coordination modules auto-instantiated by the metacompiler in every
// server pipeline (paper appendix A.1.2):
//  - NshDecap: the shared demultiplexer; classifies on (SPI, SI), strips
//    the NSH header (BESS NFs are NSH-unaware), and steers the packet to
//    the owning subgroup's gate.
//  - NshEncap: re-tags packets with the next hop's (SPI, SI) before PortOut.
//  - LoadBalanceSteer: fans packets across a replicated subgroup's
//    instances, costing the paper's measured ~180 cycles/packet.
#pragma once

#include "src/bess/module.h"
#include "src/net/flat_table.h"

namespace lemur::bess {

class NshDecap : public Module {
 public:
  /// Half of the paper's ~220-cycle encap+decap overhead.
  static constexpr std::uint64_t kDecapCyclesPerPacket = 110;

  /// Routes packets carrying (spi, si) to `ogate`. Unmapped packets are
  /// dropped and counted.
  void map(std::uint32_t spi, std::uint8_t si, int ogate);

  void process(Context& ctx, net::PacketBatch&& batch) override;

  [[nodiscard]] std::uint64_t unmapped_drops() const {
    return unmapped_drops_;
  }

 private:
  static std::uint64_t key(std::uint32_t spi, std::uint8_t si) {
    return (static_cast<std::uint64_t>(spi) << 8) | si;
  }

  net::FlatFlowTable<std::uint64_t, int> gates_;
  std::uint64_t unmapped_drops_ = 0;
};

class NshEncap : public Module {
 public:
  static constexpr std::uint64_t kEncapCyclesPerPacket = 110;

  NshEncap(std::uint32_t spi, std::uint8_t si) : spi_(spi), si_(si) {}

  void process(Context& ctx, net::PacketBatch&& batch) override;

  [[nodiscard]] std::uint32_t spi() const { return spi_; }
  [[nodiscard]] std::uint8_t si() const { return si_; }

 private:
  std::uint32_t spi_;
  std::uint8_t si_;
};

/// Round-robin packet steering across a replicated subgroup's instances.
class LoadBalanceSteer : public Module {
 public:
  /// The paper's measured per-packet steering cost when a subgroup is
  /// allocated multiple cores.
  static constexpr std::uint64_t kSteerCyclesPerPacket = 180;

  explicit LoadBalanceSteer(int replicas) : replicas_(replicas) {}

  void process(Context& ctx, net::PacketBatch&& batch) override;

 private:
  int replicas_;
  int next_ = 0;
};

}  // namespace lemur::bess
