#include "src/telemetry/trace.h"

namespace lemur::telemetry {

std::string to_string(const HopKey& key) {
  std::string out = net::to_string(key.platform);
  if (key.platform != net::HopPlatform::kTor) {
    out += std::to_string(key.id);
  }
  if (key.spi != 0) {
    out += "[spi" + std::to_string(key.spi) + "/si" +
           std::to_string(key.si) + "]";
  }
  return out;
}

std::string check_continuity(const net::Packet& pkt,
                             std::uint64_t egress_ns) {
  if (pkt.hops.empty()) return "trace has no hops";
  if (pkt.hops.front().enter_ns != pkt.arrival_ns) {
    return "first hop enters at " +
           std::to_string(pkt.hops.front().enter_ns) + " but packet arrived " +
           std::to_string(pkt.arrival_ns);
  }
  for (std::size_t i = 0; i < pkt.hops.size(); ++i) {
    const auto& hop = pkt.hops[i];
    if (hop.exit_ns < hop.enter_ns) {
      return "hop " + std::to_string(i) + " (" +
             std::string(net::to_string(hop.platform)) + ") exits before it enters";
    }
    if (i > 0 && hop.enter_ns != pkt.hops[i - 1].exit_ns) {
      const bool gap = hop.enter_ns > pkt.hops[i - 1].exit_ns;
      return std::string(gap ? "gap" : "overlap") + " between hop " +
             std::to_string(i - 1) + " and hop " + std::to_string(i) + " (" +
             std::to_string(pkt.hops[i - 1].exit_ns) + " vs " +
             std::to_string(hop.enter_ns) + ")";
    }
  }
  if (pkt.hops.back().exit_ns < egress_ns) {
    return "last hop exits at " + std::to_string(pkt.hops.back().exit_ns) +
           " before egress " + std::to_string(egress_ns);
  }
  return {};
}

void TraceAggregator::observe(const net::Packet& pkt,
                              std::uint64_t egress_ns, int chain) {
  ++traces_observed_;
  auto error = check_continuity(pkt, egress_ns);
  if (!error.empty()) {
    ++continuity_errors_;
    if (first_continuity_error_.empty()) {
      first_continuity_error_ = std::move(error);
    }
  }
  for (const auto& hop : pkt.hops) {
    auto& stats =
        hops_[{chain, HopKey{hop.platform, hop.id, hop.spi, hop.si}}];
    ++stats.packets;
    const std::uint64_t residency = hop.exit_ns - hop.enter_ns;
    stats.total_ns += residency;
    stats.residency_ns.record(residency);
  }
}

const HopKey* TraceAggregator::dominant_hop(int chain, double* mean_ns,
                                            double* share) const {
  const HopKey* best = nullptr;
  double best_mean = -1;
  double mean_sum = 0;
  for (const auto& [key, stats] : hops_) {
    if (key.first != chain) continue;
    const double mean = stats.mean_ns();
    mean_sum += mean;
    if (mean > best_mean) {
      best_mean = mean;
      best = &key.second;
    }
  }
  if (best == nullptr) return nullptr;
  if (mean_ns != nullptr) *mean_ns = best_mean;
  if (share != nullptr) *share = mean_sum > 0 ? best_mean / mean_sum : 0;
  return best;
}

}  // namespace lemur::telemetry
