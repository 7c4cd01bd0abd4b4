// Header-manipulating and classifying NFs: Tunnel/Detunnel (VLAN),
// IPv4Fwd (LPM forwarding), ACL, and Match (the BPF-style classifier the
// chain language uses for branch steering).
#pragma once

#include <string>
#include <vector>

#include "src/nf/lpm.h"
#include "src/nf/software/software_nf.h"

namespace lemur::nf {

/// Pushes an 802.1Q tag (config "vlan_tag", default 100).
class TunnelNf : public SoftwareNf {
 public:
  explicit TunnelNf(NfConfig config);
  int process(net::Packet& pkt) override;

 private:
  std::uint16_t vid_;
};

/// Pops the outermost 802.1Q tag (no-op on untagged packets).
class DetunnelNf : public SoftwareNf {
 public:
  explicit DetunnelNf(NfConfig config);
  int process(net::Packet& pkt) override;
};

/// LPM forwarding: rewrites the destination MAC and records the egress
/// port in the packet's metadata-equivalent (ingress_port is reused as
/// egress hint by the simulated fabric). Routes come from config `rules`
/// ({'prefix': "10.0.0.0/8", 'port': "3"}); an empty table forwards
/// everything on port 0.
class Ipv4FwdNf : public SoftwareNf {
 public:
  explicit Ipv4FwdNf(NfConfig config);
  int process(net::Packet& pkt) override;

  [[nodiscard]] const LpmTable<int>& table() const { return table_; }

 private:
  LpmTable<int> table_;
};

/// One ACL rule: all present fields must match; `drop` decides the verdict.
struct AclRule {
  std::optional<net::Ipv4Prefix> src;
  std::optional<net::Ipv4Prefix> dst;
  std::optional<std::uint16_t> src_port;
  std::optional<std::uint16_t> dst_port;
  std::optional<std::uint8_t> proto;
  bool drop = false;

  [[nodiscard]] bool matches(const net::ParsedLayers& layers) const;
};

/// First-match ACL over src/dst fields. Default verdict: permit (the
/// paper's example uses an explicit catch-all drop rule when needed).
class AclNf : public SoftwareNf {
 public:
  explicit AclNf(NfConfig config);
  int process(net::Packet& pkt) override;

 private:
  std::vector<AclRule> rules_;
};

/// Parses rule dictionaries ('src_ip', 'dst_ip', 'src_port', 'dst_port',
/// 'proto', 'drop') into AclRules. Shared with the P4/OF codegen paths.
std::vector<AclRule> parse_acl_rules(const NfConfig& config);

/// A Match predicate, BPF-style: packets matching rule i exit gate
/// `gate`; non-matching packets exit gate 0.
struct MatchRule {
  std::string field;  ///< "vlan_tag", "dst_ip", "src_ip", "dst_port",
                      ///< "src_port", "proto", "dscp".
  std::uint64_t value = 0;
  std::uint64_t mask = ~0ull;
  int gate = 1;
};

/// Flexible classification used for conditional chain branches
/// (e.g. [{'vlan_tag': 0x1, Encryption}]).
class MatchNf : public SoftwareNf {
 public:
  explicit MatchNf(NfConfig config);
  int process(net::Packet& pkt) override;

  void add_rule(MatchRule rule) { match_rules_.push_back(rule); }
  [[nodiscard]] const std::vector<MatchRule>& match_rules() const {
    return match_rules_;
  }

 private:
  std::vector<MatchRule> match_rules_;
};

/// Reads the classification field from parsed layers (shared with eBPF
/// codegen tests). Returns 0 for absent layers.
std::uint64_t match_field_value(const std::string& field,
                                const net::ParsedLayers& layers);

}  // namespace lemur::nf
