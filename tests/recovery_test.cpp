// Live-recovery tests: the chaos harness + RecoveryController end to
// end. Same-seed runs must replay bit-identically (events, measurements,
// final placement), NAT state must survive migration (same 5-tuple ->
// same translation), an infeasible degraded rack must shed exactly the
// lowest-marginal chain with an explicit admission-shed ledger trail,
// and per-chain conservation must hold exactly through fault, flush,
// and swap.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/chain/canonical.h"
#include "src/chain/parser.h"
#include "src/metacompiler/pisa_oracle.h"
#include "src/nf/software/software_nf.h"
#include "src/placer/placer.h"
#include "src/placer/profile.h"
#include "src/runtime/recovery.h"
#include "src/runtime/testbed.h"

namespace lemur::runtime {
namespace {

struct Scenario {
  topo::Topology topo;
  std::vector<chain::ChainSpec> chains;
  placer::PlacerOptions options;
  placer::PlacementResult placement;
  metacompiler::CompiledArtifacts artifacts;
};

Scenario canonical_scenario(
    const std::vector<int>& numbers, double delta,
    topo::Topology topo = topo::Topology::multi_server(2, 8)) {
  Scenario s;
  s.topo = std::move(topo);
  s.chains = chain::canonical_chains(numbers);
  placer::apply_delta(s.chains, delta, s.topo.servers.front(), s.options);
  metacompiler::CompilerOracle oracle(s.topo);
  s.placement = placer::place(placer::Strategy::kLemur, s.chains, s.topo,
                              s.options, oracle);
  EXPECT_TRUE(s.placement.feasible) << s.placement.infeasible_reason;
  s.artifacts = metacompiler::compile(s.chains, s.placement, s.topo);
  EXPECT_TRUE(s.artifacts.ok) << s.artifacts.error;
  return s;
}

chain::ChainSpec parsed_chain(const std::string& source,
                              const std::string& name, chain::Slo slo,
                              std::uint32_t aggregate) {
  auto parsed = chain::parse_chain(source);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  chain::ChainSpec spec;
  spec.name = name;
  spec.graph = std::move(parsed.graph);
  spec.slo = slo;
  spec.aggregate_id = aggregate;
  return spec;
}

/// The servers a placement actually uses (subgroups only).
std::vector<int> used_servers(const placer::PlacementResult& placement) {
  std::vector<int> used;
  for (const auto& sg : placement.subgroups) {
    if (std::find(used.begin(), used.end(), sg.server) == used.end()) {
      used.push_back(sg.server);
    }
  }
  std::sort(used.begin(), used.end());
  return used;
}

void expect_conserved(const Measurement& m) {
  for (std::size_t c = 0; c < m.chain_offered.size(); ++c) {
    EXPECT_EQ(m.chain_offered[c], m.chain_delivered[c] + m.chain_dropped[c] +
                                      m.chain_residual[c])
        << "chain " << c;
  }
  EXPECT_EQ(m.offered_packets,
            m.delivered_packets + m.drops.total() + m.residual_queued);
}

struct ChaosRun {
  Measurement measurement;
  std::vector<RecoveryEvent> events;
  placer::PlacementResult final_placement;
  std::string stats_json;
  int plan_generation = 0;
};

ChaosRun run_chaos(const Scenario& s, const std::string& fault_spec,
                   double duration_ms, std::uint64_t seed = 7,
                   const std::vector<double>& offered_gbps = {}) {
  std::string parse_error;
  auto events = FaultScheduler::parse(fault_spec, &parse_error);
  EXPECT_TRUE(events.has_value()) << parse_error;
  FaultScheduler faults(*events, seed);
  metacompiler::CompilerOracle oracle(s.topo);
  RecoveryController controller(s.chains, s.placement, s.topo, s.options,
                                oracle);
  Testbed testbed(s.chains, s.placement, s.artifacts, s.topo, seed);
  EXPECT_TRUE(testbed.ok()) << testbed.error();
  testbed.set_fault_scheduler(&faults);
  testbed.set_recovery_hook(&controller);
  ChaosRun out;
  out.measurement = testbed.run(duration_ms, offered_gbps);
  out.events = controller.events();
  out.final_placement = controller.current_placement();
  out.stats_json = testbed.stats_json(out.measurement);
  out.plan_generation = testbed.plan_generation();
  return out;
}

// --- Server death: detect, re-place, swap ------------------------------------

TEST(FaultSpec, ParsesEveryField) {
  std::string error;
  const auto events =
      FaultScheduler::parse("server:1@2;corrupt:3@1.5ms+2ms@0.5;of@4", &error);
  ASSERT_TRUE(events.has_value()) << error;
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ((*events)[0].kind, FaultKind::kServerDeath);
  EXPECT_EQ((*events)[0].element, 1);
  EXPECT_EQ((*events)[0].at_ms, 2.0);
  EXPECT_EQ((*events)[1].kind, FaultKind::kLinkCorrupt);
  EXPECT_EQ((*events)[1].element, 3);
  EXPECT_EQ((*events)[1].at_ms, 1.5);
  EXPECT_EQ((*events)[1].duration_ms, 2.0);
  EXPECT_EQ((*events)[1].rate, 0.5);
  EXPECT_EQ((*events)[2].kind, FaultKind::kOpenFlowDown);
  EXPECT_EQ((*events)[2].at_ms, 4.0);
}

TEST(FaultSpec, RejectsAnythingAfterANumber) {
  for (const char* spec : {
           "server:1junk@2",          // element
           "server:@2",               // empty element
           "server:1@2\\junk",        // @time
           "server:1@2x",             // @time
           "server:1@",               // empty @time
           "link:0@2+1junk",          // +duration
           "link:0@2+",               // empty +duration
           "corrupt:0@1+1@0.25junk",  // @rate
           "corrupt:0@1+1@0.25ms",    // rates take no unit
           "corrupt:0@1+1@nan",       // out of range
       }) {
    std::string error;
    EXPECT_FALSE(FaultScheduler::parse(spec, &error).has_value()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(FaultSpec, ElementNamesSortLikeTheirCounters) {
  using Kind = Element::Kind;
  const std::vector<Element> elements = {
      {Kind::kLink, 0},   {Kind::kOpenFlow, 0}, {Kind::kServer, 1},
      {Kind::kServer, 2}, {Kind::kSmartNic, 0}, {Kind::kWire, 0},
  };
  const std::vector<std::string> names = {
      "link0", "openflow", "server1", "server2", "smartnic0", "wire0"};
  for (std::size_t i = 0; i < elements.size(); ++i) {
    EXPECT_EQ(elements[i].name(), names[i]);
    // Kinds are declared in name order: Elements sort like their names.
    if (i > 0) {
      EXPECT_LT(elements[i - 1], elements[i]) << names[i];
      EXPECT_LT(names[i - 1], names[i]);
    }
  }
  // The one exception: indices of different digit counts sort by value.
  EXPECT_LT((Element{Kind::kServer, 2}), (Element{Kind::kServer, 10}));
  EXPECT_GT(std::string("server2"), (Element{Kind::kServer, 10}.name()));
}

TEST(FaultSpec, DeathsArePermanentAndLinksFlap) {
  using Kind = Element::Kind;
  std::string error;
  const auto events = FaultScheduler::parse(
      "server:1@1+1;nic:0@1;link:2@1+1;of@1+1;corrupt:0@1+1@1", &error);
  ASSERT_TRUE(events.has_value()) << error;
  const FaultScheduler faults(*events, 7);
  for (const Element dies : {Element{Kind::kServer, 1},
                             Element{Kind::kSmartNic, 0}}) {
    EXPECT_FALSE(faults.down(dies, 999'999)) << dies.name();
    EXPECT_TRUE(faults.down(dies, 1'000'000)) << dies.name();
    EXPECT_TRUE(faults.down(dies, 50'000'000)) << dies.name();
  }
  for (const Element flaps : {Element{Kind::kLink, 2},
                              Element{Kind::kOpenFlow, 0}}) {
    EXPECT_FALSE(faults.down(flaps, 999'999)) << flaps.name();
    EXPECT_TRUE(faults.down(flaps, 1'999'999)) << flaps.name();
    EXPECT_FALSE(faults.down(flaps, 2'000'000)) << flaps.name();
  }
  // Other indices stay up; an impaired wire is judged per packet.
  EXPECT_FALSE(faults.down({Kind::kServer, 2}, 1'500'000));
  EXPECT_FALSE(faults.down({Kind::kLink, 1}, 1'500'000));
  EXPECT_FALSE(faults.down({Kind::kWire, 0}, 1'500'000));
}

TEST(Recovery, ServerDeathIsDetectedAndRecovered) {
  auto s = canonical_scenario({3, 5}, 1.0);
  const auto used = used_servers(s.placement);
  ASSERT_FALSE(used.empty());
  const int victim = used.back();
  const auto run =
      run_chaos(s, "server:" + std::to_string(victim) + "@2", 8.0);

  ASSERT_EQ(run.events.size(), 1u);
  const auto& ev = run.events.front();
  EXPECT_EQ(ev.element, "server" + std::to_string(victim));
  EXPECT_TRUE(ev.recovered) << ev.action;
  EXPECT_EQ(ev.action.rfind("replaced", 0), 0u) << ev.action;
  EXPECT_FALSE(ev.replaced_chains.empty());
  // Detection at/after onset, recovery after the control delay.
  EXPECT_GE(ev.detected_ns, 2'000'000u);
  EXPECT_GT(ev.recovered_ns, ev.detected_ns);
  EXPECT_EQ(ev.slo_violation_ns, ev.recovered_ns - ev.detected_ns);
  EXPECT_GT(ev.fault_window_drops, 0u);
  EXPECT_EQ(run.plan_generation, 1);

  // The failure window and the swap flush are both in the ledger: the
  // conservation identity holds exactly despite fault + recovery drops.
  expect_conserved(run.measurement);
  std::uint64_t fault_drops = 0, recovery_drops = 0;
  for (std::size_t c = 0; c < run.measurement.chain_offered.size(); ++c) {
    fault_drops += run.measurement.drops.cause_total(
        static_cast<int>(c), telemetry::DropCause::kFault);
    recovery_drops += run.measurement.drops.cause_total(
        static_cast<int>(c), telemetry::DropCause::kRecovery);
  }
  EXPECT_GT(fault_drops, 0u);
  EXPECT_GE(fault_drops, ev.fault_window_drops);
  EXPECT_EQ(recovery_drops, ev.recovery_flush_drops);

  // The degraded plan avoids the dead server and traffic flows again.
  for (const auto& sg : run.final_placement.subgroups) {
    EXPECT_NE(sg.server, victim);
  }
  EXPECT_GT(run.measurement.delivered_packets, 0u);
}

TEST(Recovery, ServerZeroDeathReplacesOnlyTheChainsItRan) {
  // The other server-death tests kill the last used server. Killing the
  // first (server 0) must re-place only the chains with a subgroup there,
  // not every chain with a server NF.
  auto s = canonical_scenario({3, 5}, 1.0);
  const auto used = used_servers(s.placement);
  ASSERT_EQ(used.size(), 2u);
  const int victim = used.front();
  std::set<int> on_victim;
  for (const auto& sg : s.placement.subgroups) {
    if (sg.server == victim) on_victim.insert(sg.chain);
  }
  const auto run =
      run_chaos(s, "server:" + std::to_string(victim) + "@2", 8.0);

  ASSERT_EQ(run.events.size(), 1u);
  const auto& ev = run.events.front();
  EXPECT_TRUE(ev.recovered) << ev.action;
  EXPECT_EQ(ev.replaced_chains,
            std::vector<int>(on_victim.begin(), on_victim.end()));
  for (const auto& sg : run.final_placement.subgroups) {
    EXPECT_NE(sg.server, victim);
  }
  expect_conserved(run.measurement);
}

TEST(Recovery, SwapChargesTheOldPlansModuleDrops) {
  // Offered 3x the LP rates, the servers' BESS modules drop packets
  // before server 1 dies at 6 ms. The swap destroys those modules, so the
  // drops they counted must reach the ledger first.
  auto s = canonical_scenario({3, 5}, 1.0);
  std::vector<double> offered;
  for (const auto& chain : s.placement.chains) {
    offered.push_back(3 * chain.assigned_gbps);
  }
  const auto run = run_chaos(s, "server:1@6", 10.0, 42, offered);
  ASSERT_EQ(run.plan_generation, 1);
  expect_conserved(run.measurement);
  // Chain 0's Limiter drops the excess; only the old plan's modules
  // counted those verdicts.
  EXPECT_GT(run.measurement.drops.cause_total(
                0, telemetry::DropCause::kNfVerdict),
            0u);
}

TEST(Recovery, SecondSmartNicTakesOverAfterNicFailure) {
  // Each server sits behind its own SmartNIC; chain 5's NIC NF starts on
  // NIC 0 and must move to NIC 1 when NIC 0 dies.
  auto topo = topo::Topology::multi_server(2, 8);
  topo.smartnics.resize(2);
  topo.smartnics[1].name = "agilio1";
  topo.smartnics[1].attached_server = 1;
  auto s = canonical_scenario({2, 5}, 0.5, std::move(topo));
  ASSERT_EQ(s.artifacts.nic_programs.size(), 1u);
  ASSERT_EQ(s.artifacts.nic_programs[0].smartnic, 0);
  const auto run = run_chaos(s, "nic:0@1", 10.0, 3);

  ASSERT_EQ(run.events.size(), 1u);
  const auto& ev = run.events.front();
  EXPECT_TRUE(ev.recovered) << ev.action;
  EXPECT_EQ(ev.action.rfind("replaced", 0), 0u) << ev.action;
  // Only the detection window loses packets to the dead NIC: the
  // recompiled program runs on NIC 1.
  expect_conserved(run.measurement);
  std::uint64_t fault_drops = 0;
  for (std::size_t c = 0; c < run.measurement.chain_offered.size(); ++c) {
    fault_drops += run.measurement.drops.cause_total(
        static_cast<int>(c), telemetry::DropCause::kFault);
  }
  EXPECT_GT(fault_drops, 0u);
  EXPECT_EQ(fault_drops, ev.fault_window_drops);
}

TEST(Recovery, WireCorruptionRidesThroughWithoutReplacement) {
  auto s = canonical_scenario({3}, 1.0);
  const auto used = used_servers(s.placement);
  ASSERT_FALSE(used.empty());
  const int wire = used.front();
  const auto run = run_chaos(
      s, "corrupt:" + std::to_string(wire) + "@2+1@0.5", 8.0);

  ASSERT_EQ(run.events.size(), 1u);
  const auto& ev = run.events.front();
  EXPECT_EQ(ev.element, "wire" + std::to_string(wire));
  EXPECT_EQ(ev.action, "impairment-ride-through");
  EXPECT_TRUE(ev.recovered);
  EXPECT_GT(ev.fault_window_drops, 0u);
  EXPECT_EQ(run.plan_generation, 0);  // No dataplane swap for impairments.
  expect_conserved(run.measurement);
}

// --- Determinism -------------------------------------------------------------

TEST(Recovery, SameSeedChaosRunsAreBitIdentical) {
  auto s = canonical_scenario({3, 5}, 1.0);
  const auto used = used_servers(s.placement);
  ASSERT_FALSE(used.empty());
  const std::string spec =
      "server:" + std::to_string(used.back()) + "@2;corrupt:" +
      std::to_string(used.front()) + "@1+1@0.25";
  const auto a = run_chaos(s, spec, 8.0, 42);
  const auto b = run_chaos(s, spec, 8.0, 42);

  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].element, b.events[i].element) << i;
    EXPECT_EQ(a.events[i].action, b.events[i].action) << i;
    EXPECT_EQ(a.events[i].detected_ns, b.events[i].detected_ns) << i;
    EXPECT_EQ(a.events[i].recovered_ns, b.events[i].recovered_ns) << i;
    EXPECT_EQ(a.events[i].fault_window_drops, b.events[i].fault_window_drops)
        << i;
    EXPECT_EQ(a.events[i].recovery_flush_drops,
              b.events[i].recovery_flush_drops)
        << i;
  }
  EXPECT_EQ(a.measurement.chain_offered, b.measurement.chain_offered);
  EXPECT_EQ(a.measurement.chain_delivered, b.measurement.chain_delivered);
  EXPECT_EQ(a.measurement.chain_dropped, b.measurement.chain_dropped);
  EXPECT_EQ(a.measurement.chain_residual, b.measurement.chain_residual);
  ASSERT_EQ(a.final_placement.subgroups.size(),
            b.final_placement.subgroups.size());
  for (std::size_t i = 0; i < a.final_placement.subgroups.size(); ++i) {
    EXPECT_EQ(a.final_placement.subgroups[i].server,
              b.final_placement.subgroups[i].server)
        << i;
  }
  // The full telemetry document — every counter, histogram bucket, and
  // recovery record — is byte-identical.
  EXPECT_EQ(a.stats_json, b.stats_json);
}

TEST(Recovery, SameQuantumDetectionsKeepTheirOrder) {
  // Elements first detected in the same quantum are queued, executed and
  // reported in one fixed order (element kind, then index), so event logs
  // stay comparable across commits.
  struct Expected {
    std::string element;
    std::string action;
    std::uint64_t detected_ns;
  };
  auto expect_events = [](const ChaosRun& run,
                          const std::vector<Expected>& want) {
    ASSERT_EQ(run.events.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(run.events[i].element, want[i].element) << i;
      EXPECT_EQ(run.events[i].action, want[i].action) << i;
      EXPECT_EQ(run.events[i].detected_ns, want[i].detected_ns) << i;
    }
    expect_conserved(run.measurement);
  };

  const auto two_servers = canonical_scenario(
      {3, 4, 5}, 1.0, topo::Topology::multi_server(4, 8));
  expect_events(run_chaos(two_servers, "server:3@1;server:2@1", 4.0, 11),
                {{"server2", "replaced", 1'000'000},
                 {"server3", "replaced", 1'000'000}});

  const auto mixed =
      canonical_scenario({3, 5}, 1.0, topo::Topology::multi_server(3, 8));
  expect_events(
      run_chaos(mixed, "server:1@2;link:2@2;corrupt:0@2+1", 5.0, 9),
      {{"wire0", "impairment-ride-through", 2'000'000},
       {"server1", "replaced", 2'000'000},
       {"link2", "replaced", 2'100'000}});
}

TEST(Recovery, DifferentSeedsDivergeUnderImpairments) {
  auto s = canonical_scenario({3}, 1.0);
  const auto used = used_servers(s.placement);
  ASSERT_FALSE(used.empty());
  const std::string spec =
      "corrupt:" + std::to_string(used.front()) + "@1+2@0.5";
  const auto a = run_chaos(s, spec, 6.0, 1);
  const auto b = run_chaos(s, spec, 6.0, 2);
  // Different coins -> different corruption victims. (Totals could
  // coincide; the full document should not.)
  EXPECT_NE(a.stats_json, b.stats_json);
  expect_conserved(a.measurement);
  expect_conserved(b.measurement);
}

// --- State migration ---------------------------------------------------------

TEST(Recovery, NatMappingsSurviveServerDeathMigration) {
  // A NAT-fronted chain on a two-server rack; kill whichever server the
  // NAT subgroup landed on so the swap must carry its flow table.
  Scenario s;
  s.topo = topo::Topology::multi_server(2, 8);
  // Force every NF into software so the NAT's flow table lives on the
  // dying server (on the default options NAT would sit on the ToR).
  s.options.disable_pisa_nfs = true;
  s.chains.push_back(parsed_chain("NAT -> Monitor -> IPv4Fwd", "nat-chain",
                                  chain::Slo::elastic_pipe(2, 20), 101));
  metacompiler::CompilerOracle oracle(s.topo);
  s.placement = placer::place(placer::Strategy::kLemur, s.chains, s.topo,
                              s.options, oracle);
  ASSERT_TRUE(s.placement.feasible) << s.placement.infeasible_reason;
  s.artifacts = metacompiler::compile(s.chains, s.placement, s.topo);
  ASSERT_TRUE(s.artifacts.ok) << s.artifacts.error;
  const auto used = used_servers(s.placement);
  ASSERT_FALSE(used.empty());
  const int victim = used.front();

  std::string parse_error;
  auto events = FaultScheduler::parse(
      "server:" + std::to_string(victim) + "@2", &parse_error);
  ASSERT_TRUE(events.has_value()) << parse_error;
  FaultScheduler faults(*events, 7);
  metacompiler::CompilerOracle live_oracle(s.topo);
  RecoveryController controller(s.chains, s.placement, s.topo, s.options,
                                live_oracle);
  Testbed testbed(s.chains, s.placement, s.artifacts, s.topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  testbed.set_fault_scheduler(&faults);
  testbed.set_recovery_hook(&controller);
  const auto m = testbed.run(8.0);

  ASSERT_EQ(controller.events().size(), 1u);
  ASSERT_TRUE(controller.events().front().recovered)
      << controller.events().front().action;
  expect_conserved(m);

  // Parse the snapshot swap_plan() exported from the dying plan: the
  // pre-failure tuple -> external-port map.
  std::map<net::FiveTuple, std::uint16_t> before;
  for (const auto& [key, bytes] : testbed.last_exported_state()) {
    nf::StateReader r(bytes.data(), bytes.size());
    while (!r.exhausted()) {
      const std::uint64_t count = r.u64();
      for (std::uint64_t i = 0; i < count && !r.exhausted(); ++i) {
        net::FiveTuple t;
        t.src_ip.value = r.u32();
        t.dst_ip.value = r.u32();
        t.src_port = r.u16();
        t.dst_port = r.u16();
        t.proto = r.u8();
        const std::uint16_t port = r.u16();
        (void)r.u64();  // last_seen_ns
        // Only chain node 0 (the NAT) serializes this layout; Monitor
        // blocks share the key space but a NAT tuple read of them would
        // desync — keep keys from the NAT node only.
        if (key.second == 0) before.emplace(t, port);
      }
    }
  }
  ASSERT_FALSE(before.empty()) << "NAT exported no mappings at swap";

  // Re-export from the live (post-swap) replicas: every pre-failure
  // mapping must be present with the same external port, so the same
  // 5-tuple keeps the same translation.
  std::map<net::FiveTuple, std::uint16_t> after;
  for (int srv = 0; srv < static_cast<int>(s.topo.servers.size()); ++srv) {
    const auto* dataplane = testbed.server_dataplane(srv);
    if (dataplane == nullptr) continue;
    for (const auto& module : dataplane->modules()) {
      const auto* nfm = dynamic_cast<const nf::NfModule*>(module.get());
      if (nfm == nullptr || nfm->nf().type() != nf::NfType::kNat) continue;
      std::vector<std::uint8_t> bytes;
      nfm->nf().export_state(bytes);
      nf::StateReader r(bytes.data(), bytes.size());
      while (!r.exhausted()) {
        const std::uint64_t count = r.u64();
        for (std::uint64_t i = 0; i < count && !r.exhausted(); ++i) {
          net::FiveTuple t;
          t.src_ip.value = r.u32();
          t.dst_ip.value = r.u32();
          t.src_port = r.u16();
          t.dst_port = r.u16();
          t.proto = r.u8();
          const std::uint16_t port = r.u16();
          (void)r.u64();
          after.emplace(t, port);
        }
      }
    }
  }
  ASSERT_FALSE(after.empty()) << "no live NAT replica after recovery";
  for (const auto& [tuple, port] : before) {
    auto it = after.find(tuple);
    ASSERT_NE(it, after.end()) << "mapping lost: " << tuple.to_string();
    EXPECT_EQ(it->second, port) << "translation changed: "
                                << tuple.to_string();
  }
}

// --- Degradation ladder ------------------------------------------------------

TEST(Recovery, InfeasibleDegradedRackShedsLowestMarginalChain) {
  // Two guaranteed-rate chains behind 10G server links: healthy they
  // must split across the two servers (7 + 6 > 10); after one server
  // dies the survivor's link cannot carry both t_mins, so the ladder
  // sheds the lowest-marginal chain. Both have zero marginal (t_min ==
  // t_max), so the tie-break picks the lower t_min — the 6G chain.
  Scenario s;
  s.topo = topo::Topology::multi_server(2, 8);
  for (auto& server : s.topo.servers) {
    for (auto& nic : server.nics) nic.capacity_gbps = 10;
  }
  s.chains.push_back(parsed_chain("Encrypt -> IPv4Fwd", "gold",
                                  chain::Slo::virtual_pipe(7), 201));
  s.chains.push_back(parsed_chain("Encrypt -> IPv4Fwd", "silver",
                                  chain::Slo::virtual_pipe(6), 202));
  metacompiler::CompilerOracle oracle(s.topo);
  s.placement = placer::place(placer::Strategy::kLemur, s.chains, s.topo,
                              s.options, oracle);
  ASSERT_TRUE(s.placement.feasible) << s.placement.infeasible_reason;
  s.artifacts = metacompiler::compile(s.chains, s.placement, s.topo);
  ASSERT_TRUE(s.artifacts.ok) << s.artifacts.error;
  ASSERT_EQ(used_servers(s.placement).size(), 2u)
      << "scenario needs both servers carrying traffic";

  std::string parse_error;
  auto events = FaultScheduler::parse("server:1@2", &parse_error);
  ASSERT_TRUE(events.has_value()) << parse_error;
  FaultScheduler faults(*events, 7);
  metacompiler::CompilerOracle live_oracle(s.topo);
  RecoveryController controller(s.chains, s.placement, s.topo, s.options,
                                live_oracle);
  Testbed testbed(s.chains, s.placement, s.artifacts, s.topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  testbed.set_fault_scheduler(&faults);
  testbed.set_recovery_hook(&controller);
  const auto m = testbed.run(10.0);

  const auto events_log = controller.events();
  ASSERT_EQ(events_log.size(), 1u);
  const auto& ev = events_log.front();
  EXPECT_TRUE(ev.recovered) << ev.action;
  ASSERT_EQ(ev.shed_chains.size(), 1u) << ev.action;
  EXPECT_EQ(ev.shed_chains.front(), 1);  // "silver", the 6G chain.
  EXPECT_EQ(controller.shed_chains(), std::set<int>{1});
  EXPECT_NE(ev.action.find("shed-chain-2"), std::string::npos) << ev.action;

  // The shed chain leaves an explicit admission-shed ledger trail at the
  // ToR; the survivor is never shed.
  EXPECT_GT(m.drops.count(1, net::HopPlatform::kTor,
                          telemetry::DropCause::kAdmissionShed),
            0u);
  EXPECT_EQ(m.drops.cause_total(0, telemetry::DropCause::kAdmissionShed),
            0u);
  // The survivor keeps flowing after recovery.
  EXPECT_GT(m.chain_delivered[0], 0u);
  expect_conserved(m);
}

// --- Swap refusal ------------------------------------------------------------

TEST(Recovery, SwapRefusesArtifactsThatFailVerification) {
  auto s = canonical_scenario({3, 5}, 1.0);
  Testbed testbed(s.chains, s.placement, s.artifacts, s.topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();

  // The same plan with one hand-off to a segment that does not exist.
  auto tampered = s.artifacts;
  metacompiler::SegmentExit* exit = nullptr;
  for (auto& routing : tampered.routings) {
    for (auto& seg : routing.segments) {
      for (auto& e : seg.exits) {
        if (exit == nullptr && e.next_segment >= 0) exit = &e;
      }
    }
  }
  ASSERT_NE(exit, nullptr);
  exit->next_segment = 99;

  std::string error;
  EXPECT_FALSE(
      testbed.swap_plan(s.chains, s.placement, tampered, s.topo, 0, &error));
  EXPECT_EQ(error.rfind("swap refused: [", 0), 0u) << error;
  EXPECT_TRUE(testbed.ok()) << testbed.error();
  EXPECT_EQ(testbed.plan_generation(), 0);
  EXPECT_EQ(testbed.metrics().counters().count("recovery.plan_swaps"), 0u);
  // Refused before teardown: no state was exported.
  EXPECT_TRUE(testbed.last_exported_state().empty());

  // The old plan keeps running.
  const auto m = testbed.run(2.0);
  expect_conserved(m);
  for (std::size_t c = 0; c < m.chain_delivered.size(); ++c) {
    EXPECT_GT(m.chain_delivered[c], 0u) << "chain " << c;
  }
}

// --- Oracle caching across re-placements -------------------------------------

TEST(Recovery, IncrementalReplaceHitsTheOracleCache) {
  auto s = canonical_scenario({3, 5}, 1.0);
  const auto used = used_servers(s.placement);
  ASSERT_FALSE(used.empty());
  std::string parse_error;
  auto events = FaultScheduler::parse(
      "server:" + std::to_string(used.back()) + "@2", &parse_error);
  ASSERT_TRUE(events.has_value()) << parse_error;
  FaultScheduler faults(*events, 7);
  metacompiler::CompilerOracle oracle(s.topo);
  RecoveryController controller(s.chains, s.placement, s.topo, s.options,
                                oracle);
  Testbed testbed(s.chains, s.placement, s.artifacts, s.topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  testbed.set_fault_scheduler(&faults);
  testbed.set_recovery_hook(&controller);
  (void)testbed.run(8.0);
  ASSERT_FALSE(controller.events().empty());
  EXPECT_TRUE(controller.events().front().recovered);
  // The re-placement consulted the switch oracle through the persistent
  // cache; the cache did real work (placements probe the ToR repeatedly).
  const auto& stats = controller.oracle_stats();
  EXPECT_GT(stats.oracle_calls, 0u);
  EXPECT_EQ(stats.oracle_calls, stats.oracle_hits + stats.oracle_misses);
}

}  // namespace
}  // namespace lemur::runtime
