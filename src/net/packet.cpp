#include "src/net/packet.h"

#include <cassert>

namespace lemur::net {

const char* to_string(HopPlatform platform) {
  switch (platform) {
    case HopPlatform::kWire: return "wire";
    case HopPlatform::kTor: return "tor";
    case HopPlatform::kServer: return "server";
    case HopPlatform::kSmartNic: return "smartnic";
    case HopPlatform::kOpenFlow: return "openflow";
  }
  return "?";
}

namespace {

constexpr std::uint8_t kNshProtoIpv4 = 1;
constexpr std::uint8_t kNshProtoEthernet = 3;

// Offset of the EtherType field of the outermost tag-or-ethernet header:
// the field that should become kNsh/kVlan when we encapsulate.
std::size_t outer_ethertype_offset(const ParsedLayers& layers) {
  if (layers.vlan) return layers.vlan_offset + 2;  // Skip TCI, point at type.
  return 12;  // EtherType field inside the Ethernet header.
}

std::uint16_t read_u16(const Packet& pkt, std::size_t off) {
  return static_cast<std::uint16_t>(pkt.data[off] << 8 | pkt.data[off + 1]);
}

void write_u16(Packet& pkt, std::size_t off, std::uint16_t v) {
  pkt.data[off] = static_cast<std::uint8_t>(v >> 8);
  pkt.data[off + 1] = static_cast<std::uint8_t>(v);
}

ParseCacheStats g_parse_cache_stats;

}  // namespace

const ParseCacheStats& parse_cache_stats() { return g_parse_cache_stats; }
void reset_parse_cache_stats() { g_parse_cache_stats = {}; }

const ParsedLayers* Packet::layers() const {
  if (cache_gen_ == buffer_gen_) {
    ++g_parse_cache_stats.hits;
  } else {
    ++g_parse_cache_stats.misses;
    cache_ = ParsedLayers::parse(*this);
    cache_gen_ = buffer_gen_;
  }
  return cache_ ? &*cache_ : nullptr;
}

void Packet::store_layers(const ParsedLayers& layers) const {
  cache_ = layers;
  cache_gen_ = buffer_gen_;
}

void Packet::reset_for_reuse() {
  data.clear();
  hops.clear();
  arrival_ns = 0;
  ingress_port = 0;
  aggregate_id = 0;
  drop = false;
  ++buffer_gen_;
}

std::optional<ParsedLayers> ParsedLayers::parse(const Packet& pkt) {
  BufReader r(pkt.data);
  ParsedLayers out;
  auto eth = EthernetHeader::decode(r);
  if (!eth) return std::nullopt;
  out.eth = *eth;

  std::uint16_t next_type = out.eth.ether_type;
  if (next_type == static_cast<std::uint16_t>(EtherType::kVlan)) {
    out.vlan_offset = r.offset();
    auto vlan = VlanHeader::decode(r);
    if (!vlan) return out;
    out.vlan = *vlan;
    next_type = vlan->ether_type;
  }

  if (next_type == static_cast<std::uint16_t>(EtherType::kNsh)) {
    out.nsh_offset = r.offset();
    auto nsh = NshHeader::decode(r);
    if (!nsh) {
      out.payload_offset = out.nsh_offset;
      return out;
    }
    out.nsh = *nsh;
    next_type = nsh->next_proto == kNshProtoIpv4
                    ? static_cast<std::uint16_t>(EtherType::kIpv4)
                    : 0;
  }

  if (next_type == static_cast<std::uint16_t>(EtherType::kIpv4)) {
    out.ipv4_offset = r.offset();
    auto ipv4 = Ipv4Header::decode(r);
    if (!ipv4) {
      out.payload_offset = out.ipv4_offset;
      return out;
    }
    out.ipv4 = *ipv4;
    out.l4_offset = r.offset();
    if (ipv4->protocol == static_cast<std::uint8_t>(IpProto::kTcp)) {
      out.tcp = TcpHeader::decode(r);
    } else if (ipv4->protocol == static_cast<std::uint8_t>(IpProto::kUdp)) {
      out.udp = UdpHeader::decode(r);
    }
  }
  out.payload_offset = r.offset();
  return out;
}

void patch_ipv4(Packet& pkt, const ParsedLayers& layers, const Ipv4Header& h) {
  assert(layers.ipv4.has_value());
  const std::size_t off = layers.ipv4_offset;
  std::vector<std::uint8_t> tmp;
  tmp.reserve(Ipv4Header::kMinSize);
  BufWriter w(tmp);
  h.encode(w);
  assert(off + tmp.size() <= pkt.data.size());
  std::copy(tmp.begin(), tmp.end(),
            pkt.data.begin() + static_cast<std::ptrdiff_t>(off));
  // Field rewrite at a fixed offset: keep the cached parse coherent (the
  // checksum is re-read from the freshly encoded bytes).
  if (auto* cached = pkt.mutable_layers();
      cached != nullptr && cached->ipv4 && cached->ipv4_offset == off) {
    cached->ipv4 = h;
    cached->ipv4->checksum = read_u16(pkt, off + 10);
  } else {
    pkt.invalidate_layers();
  }
}

void patch_l4_ports(Packet& pkt, const ParsedLayers& layers,
                    std::uint16_t src_port, std::uint16_t dst_port) {
  if (!layers.tcp && !layers.udp) return;
  write_u16(pkt, layers.l4_offset, src_port);
  write_u16(pkt, layers.l4_offset + 2, dst_port);
  if (auto* cached = pkt.mutable_layers();
      cached != nullptr && cached->l4_offset == layers.l4_offset) {
    if (cached->tcp) {
      cached->tcp->src_port = src_port;
      cached->tcp->dst_port = dst_port;
    }
    if (cached->udp) {
      cached->udp->src_port = src_port;
      cached->udp->dst_port = dst_port;
    }
  } else {
    pkt.invalidate_layers();
  }
}

void patch_eth_dst(Packet& pkt, const MacAddr& mac) {
  if (pkt.data.size() < EthernetHeader::kSize) return;
  std::copy(mac.bytes.begin(), mac.bytes.end(), pkt.data.begin());
  if (auto* cached = pkt.mutable_layers(); cached != nullptr) {
    cached->eth.dst = mac;
  }
}

void push_vlan(Packet& pkt, std::uint16_t vid, std::uint8_t pcp) {
  if (pkt.data.size() < EthernetHeader::kSize) return;
  const std::uint16_t inner_type = read_u16(pkt, 12);
  write_u16(pkt, 12, static_cast<std::uint16_t>(EtherType::kVlan));
  VlanHeader tag;
  tag.pcp = pcp;
  tag.vid = vid;
  tag.ether_type = inner_type;
  std::vector<std::uint8_t> bytes;
  bytes.reserve(VlanHeader::kSize);
  BufWriter w(bytes);
  tag.encode(w);
  pkt.data.insert(pkt.data.begin() + EthernetHeader::kSize, bytes.begin(),
                  bytes.end());
  pkt.invalidate_layers();
}

std::optional<VlanHeader> pop_vlan(Packet& pkt) {
  const ParsedLayers* layers = pkt.layers();
  if (layers == nullptr || !layers->vlan) return std::nullopt;
  const VlanHeader tag = *layers->vlan;
  const std::size_t vlan_offset = layers->vlan_offset;
  write_u16(pkt, 12, tag.ether_type);
  const auto begin =
      pkt.data.begin() + static_cast<std::ptrdiff_t>(vlan_offset);
  pkt.data.erase(begin, begin + VlanHeader::kSize);
  pkt.invalidate_layers();
  return tag;
}

void push_nsh(Packet& pkt, std::uint32_t spi, std::uint8_t si) {
  const ParsedLayers* layers = pkt.layers();
  if (layers == nullptr || layers->nsh) return;  // Never double-encapsulate.
  const std::size_t type_off = outer_ethertype_offset(*layers);
  const std::uint16_t inner_type = read_u16(pkt, type_off);
  write_u16(pkt, type_off, static_cast<std::uint16_t>(EtherType::kNsh));
  NshHeader nsh;
  nsh.spi = spi;
  nsh.si = si;
  nsh.next_proto = inner_type == static_cast<std::uint16_t>(EtherType::kIpv4)
                       ? kNshProtoIpv4
                       : kNshProtoEthernet;
  std::vector<std::uint8_t> bytes;
  bytes.reserve(NshHeader::kSize);
  BufWriter w(bytes);
  nsh.encode(w);
  pkt.data.insert(pkt.data.begin() + static_cast<std::ptrdiff_t>(type_off + 2),
                  bytes.begin(), bytes.end());
  pkt.invalidate_layers();
}

std::optional<NshHeader> pop_nsh(Packet& pkt) {
  const ParsedLayers* layers = pkt.layers();
  if (layers == nullptr || !layers->nsh) return std::nullopt;
  const NshHeader nsh = *layers->nsh;
  const std::size_t type_off = outer_ethertype_offset(*layers);
  const std::size_t nsh_offset = layers->nsh_offset;
  const std::uint16_t inner_type =
      nsh.next_proto == kNshProtoIpv4
          ? static_cast<std::uint16_t>(EtherType::kIpv4)
          : static_cast<std::uint16_t>(EtherType::kIpv4);
  write_u16(pkt, type_off, inner_type);
  const auto begin =
      pkt.data.begin() + static_cast<std::ptrdiff_t>(nsh_offset);
  pkt.data.erase(begin, begin + NshHeader::kSize);
  pkt.invalidate_layers();
  return nsh;
}

bool set_nsh(Packet& pkt, std::uint32_t spi, std::uint8_t si) {
  const ParsedLayers* layers = pkt.layers();
  if (layers == nullptr || !layers->nsh) return false;
  NshHeader nsh = *layers->nsh;
  nsh.spi = spi;
  nsh.si = si;
  const std::size_t nsh_offset = layers->nsh_offset;
  std::vector<std::uint8_t> bytes;
  bytes.reserve(NshHeader::kSize);
  BufWriter w(bytes);
  nsh.encode(w);
  std::copy(bytes.begin(), bytes.end(),
            pkt.data.begin() + static_cast<std::ptrdiff_t>(nsh_offset));
  if (auto* cached = pkt.mutable_layers(); cached != nullptr && cached->nsh) {
    cached->nsh = nsh;
  } else {
    pkt.invalidate_layers();
  }
  return true;
}

}  // namespace lemur::net
