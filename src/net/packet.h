// The packet representation shared by every simulated platform.
//
// A Packet owns its wire bytes plus simulation metadata (virtual arrival
// time, ingress port, drop flag). ParsedLayers is a one-pass parse of the
// layer stack with byte offsets retained so NFs can patch headers in place;
// push/pop helpers rebuild the buffer for encapsulation changes (VLAN, NSH).
//
// Parse-once cache: Packet::layers() memoizes the parse under a buffer
// generation counter. Helpers that restructure the frame (push/pop VLAN or
// NSH, payload resize) bump the generation via invalidate_layers(); helpers
// that rewrite fields in place (patch_ipv4, patch_l4_ports, set_nsh,
// patch_eth_dst) keep the cached copy coherent instead, so a chain of
// header-reading NFs parses once per platform hop. Code that writes
// Packet::data directly without going through a helper must call
// invalidate_layers() itself.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/net/headers.h"

namespace lemur::net {

/// Simulated platform class a traced packet hop executed on.
enum class HopPlatform : std::uint8_t {
  kWire,      ///< Switch<->server(-side) link traversal (bounce latency).
  kTor,       ///< The PISA ToR pipeline.
  kServer,    ///< A BESS server dataplane (rx queue through tx).
  kSmartNic,  ///< An in-line SmartNIC engine.
  kOpenFlow,  ///< The OpenFlow switch (including its wire round trip).
};

[[nodiscard]] const char* to_string(HopPlatform platform);

/// One per-hop trace record: where the packet was, under which NSH
/// segment coordinates, and its enqueue/dequeue virtual times. The
/// runtime appends these to Packet::hops when tracing is enabled;
/// consecutive hops tile the packet's rack residency without gaps.
struct PacketHop {
  HopPlatform platform = HopPlatform::kWire;
  std::uint8_t si = 0;     ///< NSH service index on entry (0 if untagged).
  std::uint16_t id = 0;    ///< Platform instance (server index etc.).
  std::uint32_t spi = 0;   ///< NSH service path on entry (0 if untagged).
  std::uint64_t enter_ns = 0;  ///< Enqueue/arrival at the platform.
  std::uint64_t exit_ns = 0;   ///< Dequeue/departure toward the next hop.
};

struct Packet;

/// Result of parsing a packet's layer stack. Offsets index into
/// Packet::data and remain valid until the buffer is resized.
struct ParsedLayers {
  EthernetHeader eth;
  std::optional<VlanHeader> vlan;
  std::optional<NshHeader> nsh;
  std::optional<Ipv4Header> ipv4;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;

  std::size_t vlan_offset = 0;  ///< Valid when vlan is set.
  std::size_t nsh_offset = 0;   ///< Valid when nsh is set.
  std::size_t ipv4_offset = 0;  ///< Valid when ipv4 is set.
  std::size_t l4_offset = 0;    ///< Valid when tcp or udp is set.
  std::size_t payload_offset = 0;

  /// Parses eth [vlan] [nsh] [ipv4 [tcp|udp]]; returns nullopt only when the
  /// Ethernet header itself is truncated. Unknown EtherTypes simply stop the
  /// parse with payload_offset at the unparsed remainder.
  static std::optional<ParsedLayers> parse(const Packet& pkt);
};

/// Cumulative layers() cache hit/miss counts (single-threaded counters).
struct ParseCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
[[nodiscard]] const ParseCacheStats& parse_cache_stats();
void reset_parse_cache_stats();

/// A packet travelling through the simulated rack.
struct Packet {
  std::vector<std::uint8_t> data;  ///< Full frame starting at Ethernet.

  std::uint64_t arrival_ns = 0;  ///< Virtual time the packet entered the rack.
  std::uint32_t ingress_port = 0;
  std::uint32_t aggregate_id = 0;  ///< Traffic aggregate (customer) id.
  bool drop = false;               ///< Set by an NF to discard the packet.

  /// Per-hop trace accumulated across platforms; empty unless the runtime
  /// enables tracing.
  std::vector<PacketHop> hops;

  [[nodiscard]] std::size_t size() const { return data.size(); }

  /// Parsed layer stack, memoized until invalidate_layers(). Returns
  /// nullptr when even the Ethernet header is truncated. The pointer stays
  /// valid until the next layers()/invalidate_layers() on this packet.
  [[nodiscard]] const ParsedLayers* layers() const;

  /// Marks the cached parse stale; the next layers() call reparses.
  void invalidate_layers() { ++buffer_gen_; }

  /// Cached parse for in-place maintenance after a field rewrite that does
  /// not move offsets; nullptr when the cache is stale.
  [[nodiscard]] ParsedLayers* mutable_layers() {
    return cache_gen_ == buffer_gen_ && cache_ ? &*cache_ : nullptr;
  }

  /// Replaces the cached parse wholesale (offsets must match the current
  /// buffer); used by writers that already hold an up-to-date parse.
  void store_layers(const ParsedLayers& layers) const;

  /// Returns the packet to a just-constructed state while keeping the
  /// capacity of the frame buffer and hop vector (the pool's whole point).
  void reset_for_reuse();

 private:
  friend class PacketPool;

  mutable std::optional<ParsedLayers> cache_;
  mutable std::uint32_t cache_gen_ = 0;  ///< Generation cache_ was taken at.
  std::uint32_t buffer_gen_ = 1;         ///< Bumped on structural change.
  /// True while the packet sits on a PacketPool free list. Survives the
  /// move release() performs (moving a Packet moves the buffers, not this
  /// flag's value on the source), which is exactly what lets the pool
  /// detect a second release of the same object.
  bool pool_released_ = false;
};

/// Re-encodes the IPv4 header (with a fresh checksum) at its parsed offset.
void patch_ipv4(Packet& pkt, const ParsedLayers& layers, const Ipv4Header& h);

/// Rewrites TCP/UDP ports at the parsed L4 offset. No-op if neither parsed.
void patch_l4_ports(Packet& pkt, const ParsedLayers& layers,
                    std::uint16_t src_port, std::uint16_t dst_port);

/// Rewrites the Ethernet destination MAC in place.
void patch_eth_dst(Packet& pkt, const MacAddr& mac);

/// Inserts an 802.1Q tag directly after the Ethernet header (outermost tag).
void push_vlan(Packet& pkt, std::uint16_t vid, std::uint8_t pcp = 0);

/// Removes the outermost 802.1Q tag; returns the removed header, or nullopt
/// if the packet carries no tag.
std::optional<VlanHeader> pop_vlan(Packet& pkt);

/// Inserts an NSH header after Ethernet (and after any VLAN tag), setting
/// the Ethernet/VLAN EtherType to NSH and recording the previous EtherType
/// as the NSH next protocol context.
void push_nsh(Packet& pkt, std::uint32_t spi, std::uint8_t si);

/// Removes the NSH header, restoring the inner EtherType. Returns the
/// removed header or nullopt if the packet has none.
std::optional<NshHeader> pop_nsh(Packet& pkt);

/// Rewrites the SPI/SI of an existing NSH header in place; returns false if
/// the packet carries no NSH header.
bool set_nsh(Packet& pkt, std::uint32_t spi, std::uint8_t si);

}  // namespace lemur::net
