#include "src/nf/software/header_nfs.h"

#include <charconv>

#include "src/net/flow.h"

namespace lemur::nf {
namespace {

std::optional<std::uint64_t> parse_number(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  int base = 10;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    begin += 2;
  }
  auto [ptr, ec] = std::from_chars(begin, end, value, base);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<std::string> rule_value(
    const std::map<std::string, std::string>& rule, const std::string& key) {
  auto it = rule.find(key);
  if (it == rule.end()) return std::nullopt;
  return it->second;
}

}  // namespace

TunnelNf::TunnelNf(NfConfig config)
    : SoftwareNf(NfType::kTunnel, std::move(config)),
      vid_(static_cast<std::uint16_t>(
          this->config().int_or("vlan_tag", 100))) {}

int TunnelNf::process(net::Packet& pkt) {
  net::push_vlan(pkt, vid_);
  return 0;
}

DetunnelNf::DetunnelNf(NfConfig config)
    : SoftwareNf(NfType::kDetunnel, std::move(config)) {}

int DetunnelNf::process(net::Packet& pkt) {
  net::pop_vlan(pkt);
  return 0;
}

Ipv4FwdNf::Ipv4FwdNf(NfConfig config)
    : SoftwareNf(NfType::kIpv4Fwd, std::move(config)) {
  for (const auto& rule : this->config().rules) {
    auto prefix_text = rule_value(rule, "prefix");
    if (!prefix_text) continue;
    auto prefix = net::Ipv4Prefix::parse(*prefix_text);
    if (!prefix) continue;
    int port = 0;
    if (auto port_text = rule_value(rule, "port")) {
      if (auto v = parse_number(*port_text)) port = static_cast<int>(*v);
    }
    table_.insert(*prefix, port);
  }
}

int Ipv4FwdNf::process(net::Packet& pkt) {
  const auto* layers = pkt.layers();
  if (layers == nullptr || !layers->ipv4) return 0;
  const auto port = table_.lookup(layers->ipv4->dst);
  // A miss leaves the frame as it came, as the eBPF and P4 programs do.
  if (!port) return 0;
  // Rewrite the destination MAC to the next hop (derived from the port)
  // — the "MAC address-based forwarding" of the paper's example chain.
  net::MacAddr next_hop{{0x02, 0xfe, 0, 0, 0,
                         static_cast<std::uint8_t>(*port)}};
  net::patch_eth_dst(pkt, next_hop);
  pkt.ingress_port = static_cast<std::uint32_t>(*port);
  return 0;
}

bool AclRule::matches(const net::ParsedLayers& layers) const {
  if (!layers.ipv4) return false;
  if (src && !src->contains(layers.ipv4->src)) return false;
  if (dst && !dst->contains(layers.ipv4->dst)) return false;
  if (proto && layers.ipv4->protocol != *proto) return false;
  auto tuple = net::FiveTuple::from(layers);
  if (src_port && (!tuple || tuple->src_port != *src_port)) return false;
  if (dst_port && (!tuple || tuple->dst_port != *dst_port)) return false;
  return true;
}

std::vector<AclRule> parse_acl_rules(const NfConfig& config) {
  std::vector<AclRule> rules;
  for (const auto& dict : config.rules) {
    AclRule rule;
    if (auto v = rule_value(dict, "src_ip")) {
      rule.src = net::Ipv4Prefix::parse(*v);
    }
    if (auto v = rule_value(dict, "dst_ip")) {
      rule.dst = net::Ipv4Prefix::parse(*v);
    }
    if (auto v = rule_value(dict, "src_port")) {
      if (auto n = parse_number(*v)) {
        rule.src_port = static_cast<std::uint16_t>(*n);
      }
    }
    if (auto v = rule_value(dict, "dst_port")) {
      if (auto n = parse_number(*v)) {
        rule.dst_port = static_cast<std::uint16_t>(*n);
      }
    }
    if (auto v = rule_value(dict, "proto")) {
      if (auto n = parse_number(*v)) {
        rule.proto = static_cast<std::uint8_t>(*n);
      }
    }
    if (auto v = rule_value(dict, "drop")) {
      rule.drop = (*v == "True" || *v == "true" || *v == "1");
    }
    rules.push_back(rule);
  }
  return rules;
}

AclNf::AclNf(NfConfig config)
    : SoftwareNf(NfType::kAcl, std::move(config)),
      rules_(parse_acl_rules(this->config())) {}

int AclNf::process(net::Packet& pkt) {
  const auto* layers = pkt.layers();
  if (layers == nullptr) return kDrop;
  for (const auto& rule : rules_) {
    if (rule.matches(*layers)) {
      return rule.drop ? kDrop : 0;
    }
  }
  return 0;  // Default permit.
}

std::uint64_t match_field_value(const std::string& field,
                                const net::ParsedLayers& layers) {
  if (field == "vlan_tag") return layers.vlan ? layers.vlan->vid : 0;
  if (field == "dst_ip") return layers.ipv4 ? layers.ipv4->dst.value : 0;
  if (field == "src_ip") return layers.ipv4 ? layers.ipv4->src.value : 0;
  if (field == "proto") return layers.ipv4 ? layers.ipv4->protocol : 0;
  if (field == "dscp") return layers.ipv4 ? layers.ipv4->dscp : 0;
  auto tuple = net::FiveTuple::from(layers);
  if (field == "dst_port") return tuple ? tuple->dst_port : 0;
  if (field == "src_port") return tuple ? tuple->src_port : 0;
  return 0;
}

MatchNf::MatchNf(NfConfig config)
    : SoftwareNf(NfType::kMatch, std::move(config)) {
  // Rules can arrive via config: {'field': 'vlan_tag', 'value': '0x1',
  // 'gate': '1'}.
  int next_gate = 1;
  for (const auto& dict : this->config().rules) {
    MatchRule rule;
    if (auto f = rule_value(dict, "field")) rule.field = *f;
    if (auto v = rule_value(dict, "value")) {
      if (auto n = parse_number(*v)) rule.value = *n;
    }
    if (auto m = rule_value(dict, "mask")) {
      if (auto n = parse_number(*m)) rule.mask = *n;
    }
    if (auto g = rule_value(dict, "gate")) {
      if (auto n = parse_number(*g)) rule.gate = static_cast<int>(*n);
    } else {
      rule.gate = next_gate;
    }
    next_gate = rule.gate + 1;
    match_rules_.push_back(rule);
  }
}

int MatchNf::process(net::Packet& pkt) {
  const auto* layers = pkt.layers();
  if (layers == nullptr) return 0;
  for (const auto& rule : match_rules_) {
    const std::uint64_t actual = match_field_value(rule.field, *layers);
    if ((actual & rule.mask) == (rule.value & rule.mask)) return rule.gate;
  }
  return 0;
}

}  // namespace lemur::nf
