// Golden pin of what the simulated rack models. Three fixed-seed runs are
// reduced to their integer Measurement fields (per-chain offered,
// delivered, dropped and residual; every drop-ledger cell; recovery
// events) plus the per-chain latency-histogram counts, and compared
// verbatim against values recorded once. The other runtime tests compare
// same-seed runs inside one binary; this one catches a refactor that
// changes stage order, timing or drop attribution across commits.
// Four more runs pin the bytes of every egress frame, which no
// Measurement field sees: a changed payload byte (generator fill, cipher
// keystream) moves only these. One more pins the placement and the printed
// P4 program of the largest input the compiler oracle sees.
//
// Re-record only for an intended model change, and say so in the change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>

#include "src/chain/canonical.h"
#include "src/metacompiler/pisa_oracle.h"
#include "src/net/pcap.h"
#include "src/pisa/p4_printer.h"
#include "src/placer/placer.h"
#include "src/runtime/recovery.h"
#include "src/runtime/testbed.h"

namespace lemur::runtime {
namespace {

struct Rack {
  topo::Topology topo;
  std::vector<chain::ChainSpec> chains;
  placer::PlacerOptions options;
  placer::PlacementResult placement;
  metacompiler::CompiledArtifacts artifacts;
};

Rack place_rack(const std::vector<int>& numbers, topo::Topology topo,
                double delta = 1.0) {
  Rack r;
  r.topo = std::move(topo);
  r.chains = chain::canonical_chains(numbers);
  placer::apply_delta(r.chains, delta, r.topo.servers.front(), r.options);
  metacompiler::CompilerOracle oracle(r.topo);
  r.placement = placer::place(placer::Strategy::kLemur, r.chains, r.topo,
                              r.options, oracle);
  EXPECT_TRUE(r.placement.feasible) << r.placement.infeasible_reason;
  r.artifacts = metacompiler::compile(r.chains, r.placement, r.topo);
  EXPECT_TRUE(r.artifacts.ok) << r.artifacts.error;
  return r;
}

/// One line per pinned fact, so a mismatch diff names the field.
std::string digest(const Testbed& testbed, const Measurement& m) {
  std::ostringstream out;
  out << "total offered " << m.offered_packets << " delivered "
      << m.delivered_packets << " dropped " << m.dropped_packets
      << " residual " << m.residual_queued << "\n";
  for (std::size_t c = 0; c < m.chain_offered.size(); ++c) {
    out << "chain" << c << " offered " << m.chain_offered[c]
        << " delivered " << m.chain_delivered[c] << " dropped "
        << m.chain_dropped[c] << " residual " << m.chain_residual[c] << "\n";
  }
  for (const auto& [key, n] : m.drops.cells()) {
    out << "drop chain" << std::get<0>(key) << " "
        << net::to_string(std::get<1>(key)) << " "
        << telemetry::to_string(std::get<2>(key)) << " " << n << "\n";
  }
  for (std::size_t c = 0; c < m.chain_offered.size(); ++c) {
    const auto& hist = testbed.metrics().histograms().at(
        "chain" + std::to_string(c) + ".latency_ns");
    out << "chain" << c << " latency n " << hist.count() << " sum "
        << hist.sum() << " min " << hist.min() << " max " << hist.max()
        << "\n";
  }
  for (const auto& ev : m.recovery) {
    out << "event " << ev.element << " " << ev.action << "\n  detected "
        << ev.detected_ns << " recovered " << ev.recovered_ns << " window "
        << ev.fault_window_drops << " flush " << ev.recovery_flush_drops
        << "\n";
  }
  return out.str();
}

TEST(ModelGolden, TorServersSmartNicOpenFlow) {
  auto topo = topo::Topology::multi_server(2, 16);
  topo.smartnics.push_back(topo::SmartNicSpec{});
  topo.openflow = topo::OpenFlowSwitchSpec{};
  const auto r = place_rack({2, 4, 5}, topo);
  Testbed testbed(r.chains, r.placement, r.artifacts, r.topo, 7);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  const auto m = testbed.run(5.0);

  // The pin only means something if every platform is on the path.
  bool nic = false, openflow = false;
  for (const auto& [key, stats] : testbed.traces().hops()) {
    nic |= key.second.platform == net::HopPlatform::kSmartNic;
    openflow |= key.second.platform == net::HopPlatform::kOpenFlow;
  }
  EXPECT_TRUE(nic);
  EXPECT_TRUE(openflow);

  EXPECT_EQ(digest(testbed, m),
            "total offered 17499 delivered 17499 dropped 0 residual 0\n"
            "chain0 offered 13322 delivered 13322 dropped 0 residual 0\n"
            "chain1 offered 551 delivered 551 dropped 0 residual 0\n"
            "chain2 offered 3626 delivered 3626 dropped 0 residual 0\n"
            "chain0 latency n 13322 sum 997262345 min 48678 max 106285\n"
            "chain1 latency n 551 sum 112119022 min 106997 max 210664\n"
            "chain2 latency n 3626 sum 122893181 min 25673 max 40769\n");
}

TEST(ModelGolden, ChaosServerDeathAndWireCorruption) {
  const auto r = place_rack({3, 5}, topo::Topology::multi_server(2, 8));
  std::string parse_error;
  const auto events =
      FaultScheduler::parse("server:1@2;corrupt:0@1+1@0.25", &parse_error);
  ASSERT_TRUE(events.has_value()) << parse_error;
  FaultScheduler faults(*events, 42);
  metacompiler::CompilerOracle oracle(r.topo);
  RecoveryController controller(r.chains, r.placement, r.topo, r.options,
                                oracle);
  Testbed testbed(r.chains, r.placement, r.artifacts, r.topo, 42);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  testbed.set_fault_scheduler(&faults);
  testbed.set_recovery_hook(&controller);
  const auto m = testbed.run(10.0);
  EXPECT_EQ(testbed.plan_generation(), 1);

  EXPECT_EQ(digest(testbed, m),
            "total offered 16324 delivered 11332 dropped 235 residual 4236\n"
            "chain0 offered 3306 delivered 1567 dropped 235 residual 1504\n"
            "chain1 offered 13018 delivered 9765 dropped 521 residual 2732\n"
            "drop chain0 wire fault 136\n"
            "drop chain0 wire recovery-flush 33\n"
            "drop chain0 tor recovery-flush 66\n"
            "drop chain1 server fault 521\n"
            "chain0 latency n 1567 sum 3586925052 min 104287 max 6439838\n"
            "chain1 latency n 9765 sum 15722353671 min 97114 max 4148858\n"
            "event wire0 impairment-ride-through\n"
            "  detected 1000000 recovered 2400000 window 136 flush 0\n"
            "event server1 replaced\n"
            "  detected 2000000 recovered 2300000 window 521 flush 99\n");
}

TEST(ModelGolden, ChaosOpenFlowNicLinkAndWireImpairments) {
  auto topo = topo::Topology::multi_server(2, 16);
  topo.smartnics.push_back(topo::SmartNicSpec{});
  topo.openflow = topo::OpenFlowSwitchSpec{};
  const auto r = place_rack({2, 4, 5}, topo);
  std::string parse_error;
  const auto events = FaultScheduler::parse(
      "of@1+1;nic:0@2;dup:0@3+1@0.5;reorder:1@3+1;link:1@4+1", &parse_error);
  ASSERT_TRUE(events.has_value()) << parse_error;
  FaultScheduler faults(*events, 7);
  metacompiler::CompilerOracle oracle(r.topo);
  RecoveryController controller(r.chains, r.placement, r.topo, r.options,
                                oracle);
  Testbed testbed(r.chains, r.placement, r.artifacts, r.topo, 7);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  testbed.set_fault_scheduler(&faults);
  testbed.set_recovery_hook(&controller);
  const auto m = testbed.run(6.0);
  EXPECT_EQ(testbed.plan_generation(), 3);

  // Every fault path is on the run: OpenFlow down, SmartNIC death and the
  // ToR link each drop packets against their element; a duplicate adds
  // offered load over the same rack without faults; a reordered packet
  // spends at least the 300 us slip on server 1.
  for (const auto& name : {"openflow", "smartnic0", "link1"}) {
    const auto it = testbed.metrics().counters().find(
        std::string("fault.") + name + ".drops");
    ASSERT_NE(it, testbed.metrics().counters().end()) << name;
    EXPECT_GT(it->second.value(), 0u) << name;
  }
  Testbed clean(r.chains, r.placement, r.artifacts, r.topo, 7);
  EXPECT_GT(m.offered_packets, clean.run(6.0).offered_packets);
  std::uint64_t slowest_server1_hop = 0;
  for (const auto& [key, stats] : testbed.traces().hops()) {
    if (key.second.platform == net::HopPlatform::kServer &&
        key.second.id == 1) {
      slowest_server1_hop =
          std::max(slowest_server1_hop, stats.residency_ns.max());
    }
  }
  EXPECT_GE(slowest_server1_hop, 300'000u);

  EXPECT_EQ(digest(testbed, m),
            "total offered 21463 delivered 18045 dropped 3279 residual 0\n"
            "chain0 offered 15986 delivered 13475 dropped 2511 residual 0\n"
            "chain1 offered 753 delivered 571 dropped 182 residual 0\n"
            "chain2 offered 4724 delivered 3999 dropped 725 residual 0\n"
            "drop chain0 wire fault 1066\n"
            "drop chain0 wire recovery-flush 534\n"
            "drop chain0 tor recovery-flush 772\n"
            "drop chain0 server recovery-flush 139\n"
            "drop chain1 wire fault 44\n"
            "drop chain1 wire recovery-flush 22\n"
            "drop chain1 tor recovery-flush 77\n"
            "drop chain1 openflow fault 39\n"
            "drop chain2 wire recovery-flush 218\n"
            "drop chain2 tor recovery-flush 217\n"
            "drop chain2 smartnic fault 290\n"
            "chain0 latency n 13475 sum 3402495439 min 27224 max 805662\n"
            "chain1 latency n 571 sum 166527472 min 203145 max 515894\n"
            "chain2 latency n 3999 sum 1227056803 min 25800 max 1649009\n"
            "event openflow replaced\n"
            "  detected 1100000 recovered 1400000 window 39 flush 700\n"
            "event smartnic0 replaced\n"
            "  detected 2200000 recovered 2500000 window 290 flush 722\n"
            "event link1 replaced\n"
            "  detected 4000000 recovered 4300000 window 1110 flush 557\n");
}

/// Runs the rack for 3 ms with seed 7 and captures its egress; returns the
/// frame count, the byte count and an order-sensitive FNV-1a hash over
/// every frame's length and bytes.
std::string egress_digest(const Rack& r, const std::string& name,
                          FlowMode mode = FlowMode::kLongLived) {
  const std::string path = testing::TempDir() + "golden_egress_" + name +
                           ".pcap";
  {
    Testbed testbed(r.chains, r.placement, r.artifacts, r.topo, 7, mode);
    EXPECT_TRUE(testbed.ok()) << testbed.error();
    EXPECT_TRUE(testbed.capture_egress_to(path)) << path;
    testbed.run(3.0);
  }  // The capture closes with the testbed.
  const auto records = net::read_pcap(path);
  std::remove(path.c_str());
  std::uint64_t hash = 14695981039346656037ull;
  std::uint64_t bytes = 0;
  const auto mix = [&](std::uint8_t b) {
    hash ^= b;
    hash *= 1099511628211ull;
  };
  for (const auto& rec : records) {
    const auto size = rec.data.size();
    for (int shift = 0; shift < 32; shift += 8) {
      mix(static_cast<std::uint8_t>(size >> shift));
    }
    for (const std::uint8_t b : rec.data) mix(b);
    bytes += size;
  }
  std::ostringstream out;
  out << "frames " << records.size() << " bytes " << bytes << " fnv 0x"
      << std::hex << hash;
  return out.str();
}

// lemur_cli --chain 3 --chain 5 --servers 2 --cores 8 --measure 3:
// Dedup and FastEncrypt on two small servers.
TEST(ModelGolden, EgressBytesFastEncryptDedupTwoServers) {
  const auto r = place_rack({3, 5}, topo::Topology::multi_server(2, 8));
  EXPECT_EQ(egress_digest(r, "chains35"),
            "frames 4896 bytes 7344000 fnv 0xc3b202dd4a3571ff");
}

// lemur_cli --chain 1 --chain 2 --chain 3 --chain 4 --delta 0.9
// --measure 3: AES Encrypt, UrlFilter, Dedup and VLAN-tagged Tunnel paths.
TEST(ModelGolden, EgressBytesFourChainsOnTestbed) {
  const auto r =
      place_rack({1, 2, 3, 4}, topo::Topology::lemur_testbed(), 0.9);
  EXPECT_EQ(egress_digest(r, "chains1234"),
            "frames 6609 bytes 9914160 fnv 0xb74ad0604f5c4631");
}

// lemur_cli --chain 4 --chain 5 --delta 0.5 --measure 3: the Tunnel and
// FastEncrypt chains at half their base rate.
TEST(ModelGolden, EgressBytesChains45OnTestbed) {
  const auto r = place_rack({4, 5}, topo::Topology::lemur_testbed(), 0.5);
  EXPECT_EQ(egress_digest(r, "chains45"),
            "frames 7954 bytes 11931572 fnv 0x6de50836dba69d1b");
}

/// FNV-1a over a string, printed in hex.
std::string fnv_hex(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char ch : text) {
    hash ^= static_cast<std::uint8_t>(ch);
    hash *= 1099511628211ull;
  }
  std::ostringstream out;
  out << std::hex << hash;
  return out.str();
}

/// Every target, subgroup and NIC assignment of a placement, one line each.
std::string placement_text(const placer::PlacementResult& p) {
  std::ostringstream out;
  out.precision(17);
  for (std::size_t c = 0; c < p.chains.size(); ++c) {
    out << "chain" << c << " " << p.chains[c].assigned_gbps << " "
        << p.chains[c].bounces << " " << p.chains[c].latency_us << ":";
    for (const auto& node : p.chains[c].nodes) {
      out << " " << placer::to_string(node.target) << "." << node.smartnic;
    }
    out << "\n";
  }
  for (const auto& g : p.subgroups) {
    out << "subgroup chain" << g.chain << " server" << g.server << " cores "
        << g.cores << " shared " << g.shared_core << " cycles " << g.cycles
        << " nodes";
    for (int n : g.nodes) out << " " << n;
    out << "\n";
  }
  for (const auto& nic : p.nic_nfs) {
    out << "nic chain" << nic.chain << " node" << nic.node << " on "
        << nic.smartnic << "\n";
  }
  return out.str();
}

// rackbench's pop-scale input: chains {2,3,4,5} x 6 on six 8-core servers
// plus a SmartNIC, delta 0.5. Set-up there is 82 compiler-oracle checks;
// a faster oracle must land on the same placement and the same program.
TEST(ModelGolden, PopScalePlacementAndP4) {
  std::vector<int> numbers;
  for (int i = 0; i < 6; ++i) numbers.insert(numbers.end(), {2, 3, 4, 5});
  auto topo = topo::Topology::multi_server(6, 8);
  topo.smartnics.push_back(topo::SmartNicSpec{});
  const auto r = place_rack(numbers, topo, 0.5);
  const std::string p4 = pisa::print_program(r.artifacts.p4.program);
  std::ostringstream out;
  out << "oracle calls " << r.placement.stats.oracle_calls << " compiled "
      << r.artifacts.p4.compiled.stats.stages_used << " cores "
      << r.placement.cores_used
      << " placement fnv 0x" << fnv_hex(placement_text(r.placement))
      << " p4 bytes " << p4.size() << " fnv 0x" << fnv_hex(p4);
  EXPECT_EQ(out.str(),
            "oracle calls 82 compiled 10 cores 48 placement fnv "
            "0x4be8c71b36f07abc p4 bytes 21729 fnv 0xba9e9617ae80ac93");
}

// Flow churn: a new flow every few packets through Dedup and Monitor.
TEST(ModelGolden, EgressBytesShortLivedFlows) {
  const auto r = place_rack({3, 4}, topo::Topology::multi_server(2, 8));
  EXPECT_EQ(egress_digest(r, "churn34", FlowMode::kShortLived),
            "frames 2148 bytes 3225964 fnv 0xdfe45595b273ee08");
}

}  // namespace
}  // namespace lemur::runtime
