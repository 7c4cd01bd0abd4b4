// MAC and IPv4 address value types with parsing and formatting.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace lemur::net {

/// 48-bit Ethernet MAC address.
struct MacAddr {
  std::array<std::uint8_t, 6> bytes{};

  auto operator<=>(const MacAddr&) const = default;

  [[nodiscard]] std::string to_string() const;

  /// Parses "aa:bb:cc:dd:ee:ff"; returns nullopt on malformed input.
  static std::optional<MacAddr> parse(std::string_view text);
};

/// IPv4 address stored in host byte order for arithmetic convenience;
/// codecs convert to network order at the wire boundary.
struct Ipv4Addr {
  std::uint32_t value = 0;

  auto operator<=>(const Ipv4Addr&) const = default;

  [[nodiscard]] std::string to_string() const;

  /// Parses dotted-quad "a.b.c.d"; returns nullopt on malformed input.
  static std::optional<Ipv4Addr> parse(std::string_view text);
};

/// IPv4 prefix such as 10.0.0.0/8. Hosts bits below the prefix are ignored
/// during matching.
struct Ipv4Prefix {
  Ipv4Addr addr;
  std::uint8_t length = 32;  ///< Prefix length in bits, 0..32.

  [[nodiscard]] bool contains(Ipv4Addr ip) const;
  [[nodiscard]] std::string to_string() const;

  auto operator<=>(const Ipv4Prefix&) const = default;

  /// Parses "a.b.c.d/len" (or a bare address, meaning /32).
  static std::optional<Ipv4Prefix> parse(std::string_view text);
};

}  // namespace lemur::net
