#include "src/net/packet_builder.h"

namespace lemur::net {
namespace {

// Locally administered unicast addresses.
constexpr MacAddr kSrcMac{{0x02, 0, 0, 0, 0, 0x01}};
constexpr MacAddr kDstMac{{0x02, 0, 0, 0, 0, 0x02}};

}  // namespace

PacketBuilder& PacketBuilder::five_tuple(const FiveTuple& t) {
  tuple_ = t;
  return *this;
}

PacketBuilder& PacketBuilder::src_ip(Ipv4Addr ip) {
  tuple_.src_ip = ip;
  return *this;
}

PacketBuilder& PacketBuilder::dst_ip(Ipv4Addr ip) {
  tuple_.dst_ip = ip;
  return *this;
}

PacketBuilder& PacketBuilder::src_port(std::uint16_t port) {
  tuple_.src_port = port;
  return *this;
}

PacketBuilder& PacketBuilder::dst_port(std::uint16_t port) {
  tuple_.dst_port = port;
  return *this;
}

PacketBuilder& PacketBuilder::proto(IpProto p) {
  tuple_.proto = static_cast<std::uint8_t>(p);
  return *this;
}

PacketBuilder& PacketBuilder::ttl(std::uint8_t ttl) {
  ttl_ = ttl;
  return *this;
}

PacketBuilder& PacketBuilder::payload(std::span<const std::uint8_t> bytes) {
  payload_.assign(bytes.begin(), bytes.end());
  return *this;
}

PacketBuilder& PacketBuilder::payload_text(std::string_view text) {
  payload_.assign(text.begin(), text.end());
  return *this;
}

PacketBuilder& PacketBuilder::frame_size(std::size_t n) {
  frame_size_ = n;
  return *this;
}

PacketBuilder& PacketBuilder::aggregate_id(std::uint32_t id) {
  aggregate_id_ = id;
  return *this;
}

PacketBuilder& PacketBuilder::arrival_ns(std::uint64_t t) {
  arrival_ns_ = t;
  return *this;
}

Packet PacketBuilder::build() const {
  Packet pkt;
  build_into(pkt);
  return pkt;
}

void PacketBuilder::build_into(Packet& pkt) const {
  const bool is_tcp = tuple_.proto == static_cast<std::uint8_t>(IpProto::kTcp);
  const std::size_t l4_size = is_tcp ? TcpHeader::kMinSize : UdpHeader::kSize;
  const std::size_t base_size =
      EthernetHeader::kSize + Ipv4Header::kMinSize + l4_size;

  // Zero padding appended after the payload, without materializing a
  // padded payload copy.
  const std::size_t pad = frame_size_ > base_size + payload_.size()
                              ? frame_size_ - base_size - payload_.size()
                              : 0;
  const std::size_t payload_size = payload_.size() + pad;

  pkt.aggregate_id = aggregate_id_;
  pkt.arrival_ns = arrival_ns_;
  pkt.data.clear();
  pkt.data.reserve(base_size + payload_size);
  BufWriter w(pkt.data);

  EthernetHeader eth;
  eth.dst = kDstMac;
  eth.src = kSrcMac;
  eth.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  eth.encode(w);

  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kMinSize + l4_size +
                                               payload_size);
  ip.ttl = ttl_;
  ip.protocol = tuple_.proto;
  ip.src = tuple_.src_ip;
  ip.dst = tuple_.dst_ip;
  ip.encode(w);

  if (is_tcp) {
    TcpHeader tcp;
    tcp.src_port = tuple_.src_port;
    tcp.dst_port = tuple_.dst_port;
    tcp.encode(w);
  } else {
    UdpHeader udp;
    udp.src_port = tuple_.src_port;
    udp.dst_port = tuple_.dst_port;
    udp.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload_size);
    udp.encode(w);
  }

  w.bytes(payload_);
  pkt.data.resize(pkt.data.size() + pad, 0);
  pkt.invalidate_layers();
}

}  // namespace lemur::net
