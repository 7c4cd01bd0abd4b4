// NSH-correlated per-hop trace aggregation. The runtime appends
// net::PacketHop records as a packet crosses platforms; at delivery the
// aggregator folds the trace into per-(chain, hop) latency statistics —
// the per-segment attribution the SLO monitor uses to name the hop
// responsible for a d_max violation — and validates hop continuity
// (consecutive hops must tile the packet's residency with no gap or
// overlap; a discontinuity means an uninstrumented hand-off).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "src/net/packet.h"
#include "src/telemetry/metrics.h"

namespace lemur::telemetry {

/// Identity of one hop class: platform instance + NSH entry coordinates.
struct HopKey {
  net::HopPlatform platform = net::HopPlatform::kWire;
  std::uint16_t id = 0;
  std::uint32_t spi = 0;
  std::uint8_t si = 0;

  auto operator<=>(const HopKey&) const = default;
};

/// "server0[spi1/si60]", "wire0", "tor", ...
[[nodiscard]] std::string to_string(const HopKey& key);

/// Empty string when the trace tiles [pkt.arrival_ns, egress_ns] exactly
/// (hop i+1 enters precisely where hop i exited); otherwise a diagnostic.
/// The final hop may exit at or after `egress_ns` (clock-skew clamping
/// never shortens a hop), but never before it.
[[nodiscard]] std::string check_continuity(const net::Packet& pkt,
                                           std::uint64_t egress_ns);

struct HopStats {
  std::uint64_t packets = 0;
  std::uint64_t total_ns = 0;
  LatencyHistogram residency_ns;  ///< Per-hop (exit - enter) distribution.

  [[nodiscard]] double mean_ns() const {
    return packets > 0
               ? static_cast<double>(total_ns) / static_cast<double>(packets)
               : 0;
  }
};

class TraceAggregator {
 public:
  /// Folds a delivered packet's trace in; validates continuity. `chain`
  /// is the 0-based chain index the packet's aggregate belongs to.
  void observe(const net::Packet& pkt, std::uint64_t egress_ns, int chain);

  [[nodiscard]] const std::map<std::pair<int, HopKey>, HopStats>& hops()
      const {
    return hops_;
  }

  /// The hop with the largest mean residency for `chain`; nullptr when the
  /// chain has no traced packets. `share` gets the hop's fraction of the
  /// summed per-hop means.
  [[nodiscard]] const HopKey* dominant_hop(int chain,
                                           double* mean_ns = nullptr,
                                           double* share = nullptr) const;

  [[nodiscard]] std::uint64_t traces_observed() const {
    return traces_observed_;
  }
  [[nodiscard]] std::uint64_t continuity_errors() const {
    return continuity_errors_;
  }
  [[nodiscard]] const std::string& first_continuity_error() const {
    return first_continuity_error_;
  }

 private:
  std::map<std::pair<int, HopKey>, HopStats> hops_;
  std::uint64_t traces_observed_ = 0;
  std::uint64_t continuity_errors_ = 0;
  std::string first_continuity_error_;
};

}  // namespace lemur::telemetry
