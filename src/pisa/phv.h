// PhvContext: a packet header vector view over a net::Packet.
//
// The IR names fields with strings ("ipv4.dst", "meta.branch", "std.drop");
// FieldResolver turns each name into a FieldRef once, when a program is
// loaded, so per-packet access never touches a string:
//  - wire fields are a WireField enum, read and written through a switch
//    over the decoded headers;
//  - "meta.*" and "std.*" fields are indices into a uint64 slot array the
//    caller owns and the context zeroes. Slot 0 is std.drop, slot 1 is
//    std.egress_port; other names get slots in order of first resolution.
// Writes are buffered in decoded header structs and flushed back to the
// wire bytes (with fresh checksums) on flush() or before any structural
// change.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>

#include "src/net/packet.h"

namespace lemur::pisa {

/// Header fields the PHV reads straight from the decoded packet.
enum class WireField : std::uint8_t {
  kEthDst,
  kEthSrc,
  kEthType,  ///< Read-only.
  kVlanVid,
  kVlanPcp,
  kNshSpi,
  kNshSi,
  kIpv4Src,
  kIpv4Dst,
  kIpv4Ttl,
  kIpv4Proto,  ///< Read-only.
  kIpv4Dscp,
  kL4Sport,
  kL4Dport,
};

/// A resolved field: a wire header field, a metadata slot, or nothing (an
/// unknown name, which reads as 0 and ignores writes).
struct FieldRef {
  enum class Kind : std::uint8_t { kNone, kWire, kSlot };
  Kind kind = Kind::kNone;
  std::uint16_t index = 0;  ///< WireField or slot number.

  static FieldRef wire(WireField f) {
    return {Kind::kWire, static_cast<std::uint16_t>(f)};
  }
  static FieldRef slot(std::uint16_t s) { return {Kind::kSlot, s}; }
};

/// Maps field names to FieldRefs and allocates metadata slots.
class FieldResolver {
 public:
  static constexpr std::uint16_t kDropSlot = 0;
  static constexpr std::uint16_t kEgressSlot = 1;

  FieldResolver();

  [[nodiscard]] FieldRef resolve(const std::string& name);

  /// Slots handed out so far; the slot array must be at least this long.
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }

 private:
  std::unordered_map<std::string, std::uint16_t> slots_;
};

class PhvContext {
 public:
  /// Parses the packet and zeroes `slots`. Both must outlive the context.
  PhvContext(net::Packet& pkt, std::span<std::uint64_t> slots);

  /// Reads a field; unknown or absent fields read as 0.
  [[nodiscard]] std::uint64_t get(FieldRef field) const {
    if (field.kind == FieldRef::Kind::kSlot) return slots_[field.index];
    if (field.kind == FieldRef::Kind::kNone) return 0;
    return get_wire(static_cast<WireField>(field.index));
  }

  /// Writes a field. Metadata writes always succeed; writes to unknown
  /// fields, absent headers or read-only fields are ignored and leave
  /// pending header edits intact.
  void set(FieldRef field, std::uint64_t value) {
    if (field.kind == FieldRef::Kind::kSlot) {
      slots_[field.index] = value;
    } else if (field.kind == FieldRef::Kind::kWire) {
      set_wire(static_cast<WireField>(field.index), value);
    }
  }

  void push_vlan(std::uint16_t vid);
  void pop_vlan();
  void push_nsh(std::uint32_t spi, std::uint8_t si);
  void pop_nsh();
  void set_nsh(std::uint32_t spi, std::uint8_t si);

  [[nodiscard]] bool dropped() const {
    return slots_[FieldResolver::kDropSlot] != 0;
  }
  [[nodiscard]] std::uint32_t egress_port() const {
    return static_cast<std::uint32_t>(slots_[FieldResolver::kEgressSlot]);
  }

  /// 64-bit hash of the packet's flow 5-tuple (0 for non-IP packets) —
  /// the simulator's stand-in for the PISA hash engine.
  [[nodiscard]] std::uint64_t flow_hash() const;

  /// Writes buffered header edits back into the packet bytes.
  void flush();

 private:
  [[nodiscard]] std::uint64_t get_wire(WireField field) const;
  void set_wire(WireField field, std::uint64_t value);
  void reparse();

  net::Packet& pkt_;
  std::span<std::uint64_t> slots_;
  net::ParsedLayers layers_;
  bool parsed_ok_ = false;
  bool dirty_ = false;
};

}  // namespace lemur::pisa
