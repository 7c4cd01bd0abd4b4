// Fluent construction of well-formed test/workload packets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/net/flow.h"
#include "src/net/packet.h"

namespace lemur::net {

/// Builds Ethernet/IPv4/{UDP,TCP} frames. Defaults produce a valid minimal
/// UDP packet; setters override individual fields. The builder pads the
/// payload so the final frame hits frame_size() when one is requested.
class PacketBuilder {
 public:
  PacketBuilder& five_tuple(const FiveTuple& t);
  PacketBuilder& src_ip(Ipv4Addr ip);
  PacketBuilder& dst_ip(Ipv4Addr ip);
  PacketBuilder& src_port(std::uint16_t port);
  PacketBuilder& dst_port(std::uint16_t port);
  PacketBuilder& proto(IpProto p);
  PacketBuilder& ttl(std::uint8_t ttl);
  PacketBuilder& payload(std::span<const std::uint8_t> bytes);
  PacketBuilder& payload_text(std::string_view text);

  /// Pads the payload with zeros so the whole frame is exactly n bytes
  /// (>= header sizes). 0 disables padding.
  PacketBuilder& frame_size(std::size_t n);

  PacketBuilder& aggregate_id(std::uint32_t id);
  PacketBuilder& arrival_ns(std::uint64_t t);

  [[nodiscard]] Packet build() const;

  /// Encodes into an existing packet (e.g. one recycled from a
  /// PacketPool), reusing its buffer capacity. Equivalent to build().
  void build_into(Packet& pkt) const;

 private:
  FiveTuple tuple_{Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000002}, 1000, 2000,
                   static_cast<std::uint8_t>(IpProto::kUdp)};
  std::uint8_t ttl_ = 64;
  std::vector<std::uint8_t> payload_;
  std::size_t frame_size_ = 0;
  std::uint32_t aggregate_id_ = 0;
  std::uint64_t arrival_ns_ = 0;
};

}  // namespace lemur::net
