// Workload generation (paper section 5.1 / footnote 6): per-chain traffic
// that matches the chain's aggregate (src in 10.<aggregate>.0.0/16) and
// exercises every branch according to the operator-declared fractions —
// each packet is built for one sampled linear path, with header fields
// set to satisfy exactly that path's branch conditions.
//
// Two flow modes reproduce the paper's worst-case profiling traffic:
// kLongLived (30-50 uniformly distributed long-lived flows) and
// kShortLived (high flow churn, new flows continuously).
#pragma once

#include <random>
#include <span>
#include <vector>

#include "src/chain/canonical.h"
#include "src/net/packet_builder.h"
#include "src/net/packet_pool.h"

namespace lemur::runtime {

enum class FlowMode { kLongLived, kShortLived };

class ChainTrafficModel {
 public:
  ChainTrafficModel(const chain::ChainSpec& spec, std::uint64_t seed,
                    FlowMode mode = FlowMode::kLongLived,
                    std::size_t frame_bytes = 1500);

  /// Builds the next packet, stamped with `now_ns`.
  net::Packet make_packet(std::uint64_t now_ns);

  /// Builds the next packet into `pkt` (e.g. a buffer recycled from a
  /// PacketPool), reusing its frame/hop capacity. Consumes exactly the
  /// same RNG draws as make_packet, so pooled and unpooled runs see
  /// identical traffic.
  void make_packet_into(std::uint64_t now_ns, net::Packet& pkt);

  /// Builds the next pkts.size() packets into `pkts`, in order: the same
  /// packets and RNG draws as that many make_packet_into calls, with the
  /// payloads filled together in interleaved lanes.
  void make_packets_into(std::uint64_t now_ns, std::span<net::Packet> pkts);

  [[nodiscard]] std::size_t frame_bytes() const { return frame_bytes_; }

 private:
  struct PathTemplate {
    double cumulative = 0;  ///< For sampling by fraction.
    std::optional<std::uint16_t> dst_port;
    std::optional<std::uint16_t> src_port;
    std::optional<std::uint8_t> dscp;
    std::optional<std::uint16_t> vlan;
  };

  /// Where one packet's payload goes and the xorshift state it starts
  /// from.
  struct PayloadLane {
    std::uint8_t* dst = nullptr;
    std::uint64_t state = 0;
  };

  const PathTemplate& sample_path();
  /// Builds the next packet's headers (VLAN and DSCP included) around a
  /// zeroed payload; the payload itself is left to the lane it returns.
  PayloadLane make_headers_into(std::uint64_t now_ns, net::Packet& pkt);

  std::uint32_t aggregate_id_;
  std::size_t frame_bytes_;
  std::size_t payload_bytes_;
  FlowMode mode_;
  std::vector<PathTemplate> paths_;
  std::vector<net::FiveTuple> long_lived_flows_;
  std::mt19937_64 rng_;
  std::uint64_t packet_counter_ = 0;
  /// Reused across packets so per-packet construction allocates nothing
  /// once the lanes reach steady-state capacity.
  net::PacketBuilder builder_;
  std::vector<PayloadLane> lanes_;
};

/// A rate-shaped PacketSource: supplies chain traffic at `gbps` of wire
/// rate in virtual time, accumulating fractional credit between pulls.
class RateShapedSource {
 public:
  RateShapedSource(ChainTrafficModel model, double gbps);

  /// Packets that should have been emitted by `now_ns`, at most `max`.
  std::vector<net::Packet> emit_until(std::uint64_t now_ns,
                                      std::size_t max = 4096);

  /// Same, but appends to `out` and (when `pool` is non-null) draws the
  /// packet buffers from the pool instead of fresh allocations. Returns
  /// the number of packets appended.
  std::size_t emit_until(std::uint64_t now_ns, std::vector<net::Packet>& out,
                         net::PacketPool* pool, std::size_t max = 4096);

  [[nodiscard]] double offered_gbps() const { return gbps_; }

 private:
  ChainTrafficModel model_;
  double gbps_;
  double credit_bytes_ = 0;
  std::uint64_t last_ns_ = 0;
};

}  // namespace lemur::runtime
