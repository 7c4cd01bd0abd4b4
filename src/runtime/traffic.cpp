#include "src/runtime/traffic.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "src/metacompiler/p4_compose.h"

namespace lemur::runtime {
namespace {

// Default field values chosen to dodge every branch-condition value used
// by the canonical chains, so "bypass" paths stay on the bypass.
constexpr std::uint16_t kDefaultDstPort = 9999;
constexpr std::uint16_t kDefaultSrcPortBase = 20000;

// Every generated packet is Ethernet/IPv4/UDP; the payload follows.
constexpr std::size_t kHeaderBytes = net::EthernetHeader::kSize +
                                     net::Ipv4Header::kMinSize +
                                     net::UdpHeader::kSize;

// Fills L payloads of `len` bytes, each byte the low byte of the next
// xorshift64 (13, 7, 17) step of its lane. xorshift is serial within a
// payload, so the lanes advance in lockstep to overlap their dependency
// chains; each lane's 8 bytes go out as one word. The states and
// destinations live in locals: a byte store could alias `lanes`.
template <std::size_t L, typename Lane>
void fill_lanes(const Lane* lanes, std::size_t len) {
  static_assert(std::endian::native == std::endian::little,
                "word stores put byte b of a word at dst + b");
  std::array<std::uint64_t, L> s;
  std::array<std::uint8_t*, L> dst;
  for (std::size_t k = 0; k < L; ++k) {
    s[k] = lanes[k].state;
    dst[k] = lanes[k].dst;
  }
  const auto step = [](std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  };
  std::size_t i = 0;
  // A lone lane is bound by its own chain; words would only add work.
  if constexpr (L > 1) {
    for (; i + 8 <= len; i += 8) {
      std::array<std::uint64_t, L> word{};
      for (int b = 0; b < 64; b += 8) {
        for (std::size_t k = 0; k < L; ++k) {
          step(s[k]);
          word[k] |= (s[k] & 0xff) << b;
        }
      }
      for (std::size_t k = 0; k < L; ++k) {
        std::memcpy(dst[k] + i, &word[k], 8);
      }
    }
  }
  for (; i < len; ++i) {
    for (std::size_t k = 0; k < L; ++k) {
      step(s[k]);
      dst[k][i] = static_cast<std::uint8_t>(s[k]);
    }
  }
}

// Groups of L lanes while they last, then the rest in halving groups.
template <std::size_t L = 8, typename Lane>
void fill_payloads(std::span<const Lane> lanes, std::size_t len) {
  for (; lanes.size() >= L; lanes = lanes.subspan(L)) {
    fill_lanes<L>(lanes.data(), len);
  }
  if constexpr (L > 1) fill_payloads<L / 2>(lanes, len);
}

}  // namespace

ChainTrafficModel::ChainTrafficModel(const chain::ChainSpec& spec,
                                     std::uint64_t seed, FlowMode mode,
                                     std::size_t frame_bytes)
    : aggregate_id_(spec.aggregate_id),
      frame_bytes_(frame_bytes),
      // Incompressible pseudo-random payload: worst case for Dedup,
      // exactly like the paper's profiling traffic.
      payload_bytes_(frame_bytes > 200 ? frame_bytes - 64 : 64),
      mode_(mode),
      rng_(seed) {
  // One template per linear path: fields satisfying that path's
  // conditions (edges taken) and avoiding conditions of edges not taken.
  double cumulative = 0;
  for (const auto& path : spec.graph.linear_paths()) {
    PathTemplate t;
    cumulative += path.fraction;
    t.cumulative = cumulative;
    for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
      // Find the edge taken from nodes[i] to nodes[i+1].
      for (const auto& e : spec.graph.edges()) {
        if (e.from != path.nodes[i] || e.to != path.nodes[i + 1]) continue;
        if (!e.condition) continue;
        const auto& cond = *e.condition;
        if (cond.field == "dst_port") {
          t.dst_port = static_cast<std::uint16_t>(cond.value);
        } else if (cond.field == "src_port") {
          t.src_port = static_cast<std::uint16_t>(cond.value);
        } else if (cond.field == "dscp") {
          t.dscp = static_cast<std::uint8_t>(cond.value);
        } else if (cond.field == "vlan_tag") {
          t.vlan = static_cast<std::uint16_t>(cond.value);
        }
      }
    }
    paths_.push_back(t);
  }
  if (paths_.empty()) {
    paths_.push_back(PathTemplate{1.0, {}, {}, {}, {}});
  }

  // Long-lived mode: pre-draw a pool of 40 flows (paper: 30-50).
  std::uniform_int_distribution<std::uint32_t> host(1, 0xfffe);
  for (int i = 0; i < 40; ++i) {
    net::FiveTuple flow;
    flow.src_ip.value =
        metacompiler::aggregate_prefix_value(aggregate_id_) | host(rng_);
    flow.dst_ip.value = 0x0a640000u | host(rng_);  // 10.100/16 service net.
    flow.src_port = static_cast<std::uint16_t>(kDefaultSrcPortBase + i);
    flow.proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
    long_lived_flows_.push_back(flow);
  }
}

const ChainTrafficModel::PathTemplate& ChainTrafficModel::sample_path() {
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const double u = uniform(rng_) *
                   (paths_.empty() ? 1.0 : paths_.back().cumulative);
  for (const auto& p : paths_) {
    if (u <= p.cumulative) return p;
  }
  return paths_.back();
}

net::Packet ChainTrafficModel::make_packet(std::uint64_t now_ns) {
  net::Packet pkt;
  make_packet_into(now_ns, pkt);
  return pkt;
}

void ChainTrafficModel::make_packet_into(std::uint64_t now_ns,
                                         net::Packet& pkt) {
  make_packets_into(now_ns, {&pkt, 1});
}

void ChainTrafficModel::make_packets_into(std::uint64_t now_ns,
                                          std::span<net::Packet> pkts) {
  // Headers first, in packet order (that is the RNG draw order); nothing
  // after the headers reads the payload, so the lanes fill it last.
  lanes_.clear();
  for (auto& pkt : pkts) lanes_.push_back(make_headers_into(now_ns, pkt));
  fill_payloads(std::span<const PayloadLane>(lanes_), payload_bytes_);
}

ChainTrafficModel::PayloadLane ChainTrafficModel::make_headers_into(
    std::uint64_t now_ns, net::Packet& pkt) {
  const PathTemplate& path = sample_path();
  ++packet_counter_;

  net::FiveTuple flow;
  if (mode_ == FlowMode::kLongLived) {
    flow = long_lived_flows_[packet_counter_ % long_lived_flows_.size()];
  } else {
    // High churn: a new flow every few packets.
    std::uniform_int_distribution<std::uint32_t> host(1, 0xfffe);
    flow.src_ip.value =
        metacompiler::aggregate_prefix_value(aggregate_id_) | host(rng_);
    flow.dst_ip.value = 0x0a640000u | host(rng_);
    flow.src_port = static_cast<std::uint16_t>(1024 + packet_counter_ % 50000);
    flow.proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
  }
  flow.dst_port = path.dst_port.value_or(kDefaultDstPort);
  if (path.src_port) flow.src_port = *path.src_port;

  // With no payload set, the builder zero-fills everything past the
  // headers: room for the payload, then the padding up to frame_bytes_.
  builder_.five_tuple(flow)
      .aggregate_id(aggregate_id_)
      .arrival_ns(now_ns)
      .frame_size(std::max(frame_bytes_, kHeaderBytes + payload_bytes_));
  builder_.build_into(pkt);
  // No L4 checksum covers the payload, the VLAN tag only shifts it and the
  // DSCP patch rewrites the IP header checksum alone.
  std::size_t payload_offset = kHeaderBytes;
  if (path.vlan) {
    net::push_vlan(pkt, *path.vlan);
    payload_offset += net::VlanHeader::kSize;
  }
  if (path.dscp) {
    const auto* layers = pkt.layers();
    if (layers != nullptr && layers->ipv4) {
      net::Ipv4Header ip = *layers->ipv4;
      ip.dscp = *path.dscp;
      net::patch_ipv4(pkt, *layers, ip);
    }
  }
  return {pkt.data.data() + payload_offset,
          packet_counter_ * 0x9e3779b97f4a7c15ull + 1};
}

RateShapedSource::RateShapedSource(ChainTrafficModel model, double gbps)
    : model_(std::move(model)), gbps_(gbps) {}

std::vector<net::Packet> RateShapedSource::emit_until(std::uint64_t now_ns,
                                                      std::size_t max) {
  std::vector<net::Packet> out;
  emit_until(now_ns, out, nullptr, max);
  return out;
}

std::size_t RateShapedSource::emit_until(std::uint64_t now_ns,
                                         std::vector<net::Packet>& out,
                                         net::PacketPool* pool,
                                         std::size_t max) {
  if (now_ns <= last_ns_) return 0;
  credit_bytes_ +=
      gbps_ * 1e9 / 8.0 * static_cast<double>(now_ns - last_ns_) * 1e-9;
  last_ns_ = now_ns;
  const double frame = static_cast<double>(model_.frame_bytes());
  std::size_t appended = 0;
  while (credit_bytes_ >= frame && appended < max) {
    credit_bytes_ -= frame;
    ++appended;
  }
  const std::size_t first = out.size();
  for (std::size_t i = 0; i < appended; ++i) {
    out.push_back(pool != nullptr ? pool->acquire() : net::Packet{});
  }
  model_.make_packets_into(now_ns, std::span(out).subspan(first));
  // Cap the backlog so a long idle gap cannot burst unboundedly later.
  credit_bytes_ = std::min(credit_bytes_, 64.0 * frame);
  return appended;
}

}  // namespace lemur::runtime
