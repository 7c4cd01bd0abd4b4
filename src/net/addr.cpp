#include "src/net/addr.h"

#include <charconv>
#include <cstdio>

namespace lemur::net {
namespace {

// Parses a decimal integer in [0, max] from text[pos...], advancing pos.
std::optional<std::uint32_t> parse_decimal(std::string_view text,
                                           std::size_t& pos,
                                           std::uint32_t max) {
  std::uint32_t value = 0;
  const std::size_t start = pos;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    value = value * 10 + static_cast<std::uint32_t>(text[pos] - '0');
    if (value > max) return std::nullopt;
    ++pos;
  }
  if (pos == start) return std::nullopt;
  return value;
}

std::optional<std::uint8_t> parse_hex_byte(std::string_view text) {
  if (text.size() != 2) return std::nullopt;
  std::uint8_t value = 0;
  for (char c : text) {
    value = static_cast<std::uint8_t>(value << 4);
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint8_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint8_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<std::uint8_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
  }
  return value;
}

}  // namespace

std::string MacAddr::to_string() const {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", bytes[0],
                bytes[1], bytes[2], bytes[3], bytes[4], bytes[5]);
  return buf;
}

std::optional<MacAddr> MacAddr::parse(std::string_view text) {
  MacAddr mac;
  std::size_t pos = 0;
  for (int i = 0; i < 6; ++i) {
    if (i > 0) {
      if (pos >= text.size() || text[pos] != ':') return std::nullopt;
      ++pos;
    }
    if (pos + 2 > text.size()) return std::nullopt;
    auto byte = parse_hex_byte(text.substr(pos, 2));
    if (!byte) return std::nullopt;
    mac.bytes[static_cast<std::size_t>(i)] = *byte;
    pos += 2;
  }
  if (pos != text.size()) return std::nullopt;
  return mac;
}

std::string Ipv4Addr::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value >> 24) & 0xff,
                (value >> 16) & 0xff, (value >> 8) & 0xff, value & 0xff);
  return buf;
}

std::optional<Ipv4Addr> Ipv4Addr::parse(std::string_view text) {
  std::uint32_t value = 0;
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (pos >= text.size() || text[pos] != '.') return std::nullopt;
      ++pos;
    }
    auto octet = parse_decimal(text, pos, 255);
    if (!octet) return std::nullopt;
    value = (value << 8) | *octet;
  }
  if (pos != text.size()) return std::nullopt;
  return Ipv4Addr{value};
}

bool Ipv4Prefix::contains(Ipv4Addr ip) const {
  if (length == 0) return true;
  const std::uint32_t mask = length >= 32 ? 0xffffffffu
                                          : ~((1u << (32 - length)) - 1);
  return (ip.value & mask) == (addr.value & mask);
}

std::string Ipv4Prefix::to_string() const {
  return addr.to_string() + "/" + std::to_string(length);
}

std::optional<Ipv4Prefix> Ipv4Prefix::parse(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    auto addr = Ipv4Addr::parse(text);
    if (!addr) return std::nullopt;
    return Ipv4Prefix{*addr, 32};
  }
  auto addr = Ipv4Addr::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  const std::string_view suffix = text.substr(slash + 1);
  std::size_t pos = 0;
  auto len = parse_decimal(suffix, pos, 32);
  if (!len || pos != suffix.size()) return std::nullopt;
  return Ipv4Prefix{*addr, static_cast<std::uint8_t>(*len)};
}

}  // namespace lemur::net
