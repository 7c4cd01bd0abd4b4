// Placement equivalence: the Placer moves an NF freely between platforms
// (paper section 3, Table 3), which is sound only if every platform
// applies the same transformation. platform_parity_test.cpp checks that
// one NF at a time; these tests run whole chains through the rack with a
// fixed seed and equal offered rates, once all in software and once with
// NFs on a SmartNIC, and compare every flow's egress frames byte for
// byte. A field that may legally differ by platform would have to be
// canonicalised first and listed in DESIGN.md "Placement equivalence";
// no tested chain varies one.
//
// The SmartNicDevice cases check the NIC stage that runs each NIC NF's
// own program: its drop verdicts, its pass-through, its engine time.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "src/chain/canonical.h"
#include "src/chain/parser.h"
#include "src/metacompiler/pisa_oracle.h"
#include "src/placer/placer.h"
#include "src/runtime/testbed.h"

namespace lemur::runtime {
namespace {

using chain::canonical_chains;
using placer::Strategy;

struct Rack {
  topo::Topology topo = topo::Topology::lemur_testbed();
  std::vector<chain::ChainSpec> chains;
  placer::PlacementResult placement;
  metacompiler::CompiledArtifacts artifacts;
};

/// Places and compiles `chains`. With `smartnic`, the rack gets one
/// SmartNIC and NFs stay off the ToR (as `lemur_cli --smartnic
/// --no-pisa-nfs`), so every NF with an eBPF program may land on the NIC.
Rack place_rack(std::vector<chain::ChainSpec> chains,
                Strategy strategy, bool smartnic,
                topo::SmartNicSpec nic = {}) {
  Rack r;
  r.chains = std::move(chains);
  placer::PlacerOptions options;
  if (smartnic) {
    r.topo.smartnics.push_back(nic);
    options.disable_pisa_nfs = true;
  }
  placer::apply_delta(r.chains, 0.5, r.topo.servers.front(), options);
  metacompiler::CompilerOracle oracle(r.topo);
  r.placement = placer::place(strategy, r.chains, r.topo, options, oracle);
  EXPECT_TRUE(r.placement.feasible) << r.placement.infeasible_reason;
  r.artifacts = metacompiler::compile(r.chains, r.placement, r.topo);
  EXPECT_TRUE(r.artifacts.ok) << r.artifacts.error;
  return r;
}

std::vector<chain::ChainSpec> parsed(const std::string& source) {
  auto result = chain::parse_chain(source);
  EXPECT_TRUE(result.ok) << result.error;
  chain::ChainSpec spec;
  spec.name = "custom";
  spec.graph = std::move(result.graph);
  spec.aggregate_id = 1;
  return {std::move(spec)};
}

std::vector<nf::NfType> nic_types(const Rack& r) {
  std::vector<nf::NfType> out;
  for (const auto& a : r.artifacts.nic_programs) out.push_back(a.type);
  return out;
}

bool has(const std::vector<nf::NfType>& types, nf::NfType type) {
  return std::find(types.begin(), types.end(), type) != types.end();
}

/// (aggregate, source IP, source port): the generator's flow identity,
/// which no NF on these chains rewrites.
using FlowKey = std::tuple<std::uint32_t, std::uint32_t, std::uint16_t>;

struct Egress {
  Measurement m;
  std::map<FlowKey, std::vector<std::vector<std::uint8_t>>> flows;
};

constexpr std::uint64_t kSeed = 7;
constexpr double kRunMs = 12.0;
/// Per chain: below every placement's capacity (chain 4 all in software
/// is placed at 0.46 Gbps), so nothing is dropped or left queued.
constexpr double kOfferedGbps = 0.25;

Egress run_rack(const Rack& r) {
  Egress out;
  Testbed testbed(r.chains, r.placement, r.artifacts, r.topo, kSeed);
  EXPECT_TRUE(testbed.ok()) << testbed.error();
  testbed.set_egress_hook([&](const net::Packet& pkt) {
    const auto tuple = net::FiveTuple::from(pkt);
    ASSERT_TRUE(tuple.has_value());
    out.flows[{pkt.aggregate_id, tuple->src_ip.value, tuple->src_port}]
        .push_back(pkt.data);
  });
  out.m = testbed.run(kRunMs,
                      std::vector<double>(r.chains.size(), kOfferedGbps));
  return out;
}

/// Runs both racks and requires every flow's egress frames to be equal.
void expect_same_egress(const Rack& software, const Rack& offload) {
  const Egress want = run_rack(software);
  const Egress got = run_rack(offload);
  // The generator emits the same packets at equal offered rates, and
  // nothing is lost or left queued on either rack.
  ASSERT_EQ(got.m.chain_offered, want.m.chain_offered);
  ASSERT_EQ(got.m.chain_delivered, want.m.chain_delivered);
  EXPECT_EQ(got.m.residual_queued, 0u);
  EXPECT_EQ(want.m.residual_queued, 0u);
  EXPECT_EQ(want.m.delivered_packets, want.m.offered_packets);
  EXPECT_GE(want.m.delivered_packets, 250u * want.m.chain_offered.size());
  ASSERT_EQ(got.flows.size(), want.flows.size());
  for (const auto& [key, frames] : want.flows) {
    const auto it = got.flows.find(key);
    ASSERT_NE(it, got.flows.end()) << "flow missing at egress";
    ASSERT_EQ(it->second.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      ASSERT_EQ(it->second[i], frames[i])
          << "chain aggregate " << std::get<0>(key) << ", frame " << i
          << " of its flow (" << frames[i].size() << " B vs "
          << it->second[i].size() << " B)";
    }
  }
}

TEST(PlacementEquivalence, Chain5WithNfsOnSmartNicMatchesSoftware) {
  // ACL, FastEncrypt and IPv4Fwd on one NIC: each must run its own
  // program, so the payload leaves encrypted.
  const Rack offload = place_rack(canonical_chains({5}), Strategy::kLemur,
                                  /*smartnic=*/true);
  const auto types = nic_types(offload);
  ASSERT_TRUE(has(types, nf::NfType::kFastEncrypt));
  ASSERT_GE(types.size(), 2u);
  expect_same_egress(
      place_rack(canonical_chains({5}), Strategy::kSwPreferred, false),
      offload);
}

TEST(PlacementEquivalence, Chains4And5SharingOneSmartNicMatchSoftware) {
  // Chain 4's Tunnel shares the NIC with chain 5's NFs; its frames must
  // leave with their VLAN tag.
  const Rack offload = place_rack(canonical_chains({4, 5}),
                                  Strategy::kLemur, true);
  const auto types = nic_types(offload);
  ASSERT_TRUE(has(types, nf::NfType::kTunnel));
  ASSERT_TRUE(has(types, nf::NfType::kFastEncrypt));
  expect_same_egress(
      place_rack(canonical_chains({4, 5}), Strategy::kSwPreferred, false),
      offload);
}

TEST(PlacementEquivalence, FastEncryptWithItsOwnKeyOnSmartNicMatchesSoftware) {
  // The NIC keys FastEncrypt from the NF's own config, not a device key.
  const std::string source =
      "enc = FastEncrypt(key=\"secret\")\nACL -> enc -> IPv4Fwd";
  const Rack offload =
      place_rack(parsed(source), Strategy::kLemur, true);
  ASSERT_TRUE(has(nic_types(offload), nf::NfType::kFastEncrypt));
  expect_same_egress(
      place_rack(parsed(source), Strategy::kSwPreferred, false),
      offload);
}

// --- The NIC stage ---------------------------------------------------------

TEST(SmartNicDevice, DropActionMarksPacket) {
  // An ACL on the NIC that drops everything: each packet is charged to
  // the SmartNIC with cause nf-verdict, and none leaves.
  const Rack r = place_rack(
      parsed("ACL(rules=[{'dst_ip':'0.0.0.0/0','drop': True}]) -> IPv4Fwd"),
      Strategy::kHwPreferred, true);
  ASSERT_TRUE(has(nic_types(r), nf::NfType::kAcl));
  const Egress e = run_rack(r);
  ASSERT_GT(e.m.offered_packets, 0u);
  EXPECT_EQ(e.m.delivered_packets, 0u);
  EXPECT_EQ(e.m.drops.count(0, net::HopPlatform::kSmartNic,
                          telemetry::DropCause::kNfVerdict),
            e.m.offered_packets);
}

TEST(SmartNicDevice, PassThroughWithoutProgram) {
  // Packets whose NSH names no NF on the NIC (here, every packet of a
  // software placement) pass through the NIC untouched: the egress is
  // the same as on a rack without one.
  expect_same_egress(
      place_rack(canonical_chains({5}), Strategy::kSwPreferred, false),
      place_rack(canonical_chains({5}), Strategy::kSwPreferred, true));
}

TEST(SmartNicDevice, BusyTimeUsesSpeedup) {
  // On an idle engine a NIC hop lasts the bounce from the ToR plus the
  // NF's profiled cycles at the device's speed-up over a core of the
  // attached server.
  for (const double speedup : {10.0, 2.5}) {
    topo::SmartNicSpec nic;
    nic.speedup_vs_core = speedup;
    const Rack r = place_rack(canonical_chains({5}), Strategy::kLemur,
                              true, nic);
    Testbed testbed(r.chains, r.placement, r.artifacts, r.topo, kSeed);
    ASSERT_TRUE(testbed.ok()) << testbed.error();
    testbed.run(1.0, {0.1});
    const double clock = r.topo.servers.front().clock_ghz;
    const auto bounce_ns =
        static_cast<std::uint64_t>(r.topo.bounce_latency_us * 1000);
    for (const auto& a : r.artifacts.nic_programs) {
      const auto& node = r.chains[0].graph.node(a.node);
      const auto want = bounce_ns + static_cast<std::uint64_t>(
          static_cast<double>(nf::effective_cycle_cost(node.type,
                                                       node.config)) /
          (clock * speedup));
      const telemetry::HopKey hop{net::HopPlatform::kSmartNic, 0, a.spi_in,
                                  a.si_in};
      const auto it = testbed.traces().hops().find({0, hop});
      ASSERT_NE(it, testbed.traces().hops().end()) << to_string(hop);
      EXPECT_EQ(it->second.residency_ns.min(), want)
          << to_string(hop) << " at speed-up " << speedup;
    }
  }
}

}  // namespace
}  // namespace lemur::runtime
