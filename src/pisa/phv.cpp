#include "src/pisa/phv.h"

#include <algorithm>
#include <array>
#include <string_view>
#include <utility>

#include "src/net/flow.h"

namespace lemur::pisa {
namespace {

constexpr std::array<std::pair<std::string_view, WireField>, 14> kWireFields{{
    {"eth.dst", WireField::kEthDst},
    {"eth.src", WireField::kEthSrc},
    {"eth.type", WireField::kEthType},
    {"vlan.vid", WireField::kVlanVid},
    {"vlan.pcp", WireField::kVlanPcp},
    {"nsh.spi", WireField::kNshSpi},
    {"nsh.si", WireField::kNshSi},
    {"ipv4.src", WireField::kIpv4Src},
    {"ipv4.dst", WireField::kIpv4Dst},
    {"ipv4.ttl", WireField::kIpv4Ttl},
    {"ipv4.proto", WireField::kIpv4Proto},
    {"ipv4.dscp", WireField::kIpv4Dscp},
    {"l4.sport", WireField::kL4Sport},
    {"l4.dport", WireField::kL4Dport},
}};

std::uint64_t mac_to_u64(const net::MacAddr& mac) {
  std::uint64_t v = 0;
  for (std::uint8_t b : mac.bytes) v = (v << 8) | b;
  return v;
}

void u64_to_mac(std::uint64_t v, net::MacAddr& mac) {
  for (int i = 5; i >= 0; --i) {
    mac.bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
}

}  // namespace

FieldResolver::FieldResolver() {
  slots_.emplace("std.drop", kDropSlot);
  slots_.emplace("std.egress_port", kEgressSlot);
}

FieldRef FieldResolver::resolve(const std::string& name) {
  if (name.starts_with("meta.") || name.starts_with("std.")) {
    const auto next = static_cast<std::uint16_t>(slots_.size());
    return FieldRef::slot(slots_.try_emplace(name, next).first->second);
  }
  for (const auto& [wire_name, field] : kWireFields) {
    if (name == wire_name) return FieldRef::wire(field);
  }
  return {};
}

PhvContext::PhvContext(net::Packet& pkt, std::span<std::uint64_t> slots)
    : pkt_(pkt), slots_(slots) {
  std::fill(slots_.begin(), slots_.end(), 0);
  reparse();
}

void PhvContext::reparse() {
  const auto* parsed = pkt_.layers();
  parsed_ok_ = parsed != nullptr;
  if (parsed_ok_) layers_ = *parsed;
  dirty_ = false;
}

std::uint64_t PhvContext::get_wire(WireField field) const {
  if (!parsed_ok_) return 0;
  const auto& l = layers_;
  switch (field) {
    case WireField::kEthDst:
      return mac_to_u64(l.eth.dst);
    case WireField::kEthSrc:
      return mac_to_u64(l.eth.src);
    case WireField::kEthType:
      return l.eth.ether_type;
    case WireField::kVlanVid:
      return l.vlan ? l.vlan->vid : 0;
    case WireField::kVlanPcp:
      return l.vlan ? l.vlan->pcp : 0;
    case WireField::kNshSpi:
      return l.nsh ? l.nsh->spi : 0;
    case WireField::kNshSi:
      return l.nsh ? l.nsh->si : 0;
    case WireField::kIpv4Src:
      return l.ipv4 ? l.ipv4->src.value : 0;
    case WireField::kIpv4Dst:
      return l.ipv4 ? l.ipv4->dst.value : 0;
    case WireField::kIpv4Ttl:
      return l.ipv4 ? l.ipv4->ttl : 0;
    case WireField::kIpv4Proto:
      return l.ipv4 ? l.ipv4->protocol : 0;
    case WireField::kIpv4Dscp:
      return l.ipv4 ? l.ipv4->dscp : 0;
    case WireField::kL4Sport:
      return l.tcp ? l.tcp->src_port : l.udp ? l.udp->src_port : 0;
    case WireField::kL4Dport:
      return l.tcp ? l.tcp->dst_port : l.udp ? l.udp->dst_port : 0;
  }
  return 0;
}

void PhvContext::set_wire(WireField field, std::uint64_t value) {
  if (!parsed_ok_) return;
  auto& l = layers_;
  switch (field) {
    case WireField::kEthDst:
      u64_to_mac(value, l.eth.dst);
      break;
    case WireField::kEthSrc:
      u64_to_mac(value, l.eth.src);
      break;
    case WireField::kVlanVid:
      if (!l.vlan) return;
      l.vlan->vid = static_cast<std::uint16_t>(value & 0xfff);
      break;
    case WireField::kVlanPcp:
      if (!l.vlan) return;
      l.vlan->pcp = static_cast<std::uint8_t>(value & 0x7);
      break;
    case WireField::kNshSpi:
      if (!l.nsh) return;
      l.nsh->spi = static_cast<std::uint32_t>(value) & net::NshHeader::kMaxSpi;
      break;
    case WireField::kNshSi:
      if (!l.nsh) return;
      l.nsh->si = static_cast<std::uint8_t>(value);
      break;
    case WireField::kIpv4Src:
      if (!l.ipv4) return;
      l.ipv4->src.value = static_cast<std::uint32_t>(value);
      break;
    case WireField::kIpv4Dst:
      if (!l.ipv4) return;
      l.ipv4->dst.value = static_cast<std::uint32_t>(value);
      break;
    case WireField::kIpv4Ttl:
      if (!l.ipv4) return;
      l.ipv4->ttl = static_cast<std::uint8_t>(value);
      break;
    case WireField::kIpv4Dscp:
      if (!l.ipv4) return;
      l.ipv4->dscp = static_cast<std::uint8_t>(value);
      break;
    case WireField::kL4Sport:
    case WireField::kL4Dport: {
      const bool is_src = field == WireField::kL4Sport;
      const auto port = static_cast<std::uint16_t>(value);
      if (l.tcp) {
        (is_src ? l.tcp->src_port : l.tcp->dst_port) = port;
      } else if (l.udp) {
        (is_src ? l.udp->src_port : l.udp->dst_port) = port;
      } else {
        return;
      }
      break;
    }
    case WireField::kEthType:
    case WireField::kIpv4Proto:
      return;  // Read-only: the parse depends on them.
  }
  dirty_ = true;
}

std::uint64_t PhvContext::flow_hash() const {
  if (!parsed_ok_) return 0;
  auto tuple = net::FiveTuple::from(layers_);
  return tuple ? tuple->hash() : 0;
}

void PhvContext::flush() {
  if (!dirty_ || !parsed_ok_) return;
  // Ethernet.
  {
    std::vector<std::uint8_t> bytes;
    bytes.reserve(net::EthernetHeader::kSize);
    net::BufWriter w(bytes);
    layers_.eth.encode(w);
    std::copy(bytes.begin(), bytes.end(), pkt_.data.begin());
  }
  if (layers_.vlan) {
    std::vector<std::uint8_t> bytes;
    net::BufWriter w(bytes);
    layers_.vlan->encode(w);
    std::copy(bytes.begin(), bytes.end(),
              pkt_.data.begin() +
                  static_cast<std::ptrdiff_t>(layers_.vlan_offset));
  }
  if (layers_.nsh) {
    std::vector<std::uint8_t> bytes;
    net::BufWriter w(bytes);
    layers_.nsh->encode(w);
    std::copy(bytes.begin(), bytes.end(),
              pkt_.data.begin() +
                  static_cast<std::ptrdiff_t>(layers_.nsh_offset));
  }
  if (layers_.ipv4) {
    net::patch_ipv4(pkt_, layers_, *layers_.ipv4);
  }
  if (layers_.tcp) {
    net::patch_l4_ports(pkt_, layers_, layers_.tcp->src_port,
                        layers_.tcp->dst_port);
  } else if (layers_.udp) {
    net::patch_l4_ports(pkt_, layers_, layers_.udp->src_port,
                        layers_.udp->dst_port);
  }
  // The raw eth/vlan/nsh writes above bypassed the packet's parse cache;
  // re-seed it with the PHV view (IPv4 checksum re-read from the bytes
  // patch_ipv4 just encoded, so the cache matches the wire exactly).
  if (layers_.ipv4) {
    const std::size_t off = layers_.ipv4_offset;
    layers_.ipv4->checksum = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(pkt_.data[off + 10]) << 8) |
        pkt_.data[off + 11]);
  }
  pkt_.store_layers(layers_);
  dirty_ = false;
}

void PhvContext::push_vlan(std::uint16_t vid) {
  flush();
  net::push_vlan(pkt_, vid);
  reparse();
}

void PhvContext::pop_vlan() {
  flush();
  net::pop_vlan(pkt_);
  reparse();
}

void PhvContext::push_nsh(std::uint32_t spi, std::uint8_t si) {
  flush();
  net::push_nsh(pkt_, spi, si);
  reparse();
}

void PhvContext::pop_nsh() {
  flush();
  net::pop_nsh(pkt_);
  reparse();
}

void PhvContext::set_nsh(std::uint32_t spi, std::uint8_t si) {
  flush();
  net::set_nsh(pkt_, spi, si);
  reparse();
}

}  // namespace lemur::pisa
