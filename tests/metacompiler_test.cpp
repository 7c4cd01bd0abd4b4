// Tests for the metacompiler: segment/routing decomposition, unified P4
// composition, the compiler-backed oracle, BESS plans, and artifact
// generation.
#include <gtest/gtest.h>

#include "src/chain/canonical.h"
#include "src/chain/parser.h"
#include "src/metacompiler/metacompiler.h"
#include "src/metacompiler/pisa_oracle.h"
#include "src/nic/verifier.h"
#include "src/pisa/compiler.h"
#include "src/placer/caching_oracle.h"
#include "src/placer/placer.h"

namespace lemur::metacompiler {
namespace {

using chain::ChainSpec;
using placer::Pattern;
using placer::Target;

ChainSpec make_spec(const std::string& source, double t_min = 0.1,
                    std::uint32_t aggregate = 1) {
  auto parsed = chain::parse_chain(source);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  ChainSpec spec;
  spec.name = "test";
  spec.graph = std::move(parsed.graph);
  spec.slo = chain::Slo::elastic_pipe(t_min, 100);
  spec.aggregate_id = aggregate;
  return spec;
}

// --- Routing decomposition ---------------------------------------------------

TEST(Segments, LinearMixedChain) {
  // ACL(P4) -> Encrypt(server) -> NAT(P4) -> Dedup(server) -> Fwd(P4).
  auto spec = make_spec("ACL -> Encrypt -> NAT -> Dedup -> IPv4Fwd");
  Pattern pattern(5);
  pattern[0].target = Target::kPisa;
  pattern[2].target = Target::kPisa;
  pattern[4].target = Target::kPisa;
  auto routing = build_routing(spec, pattern, 0);
  // Five segments: three P4 components are disconnected (separated by
  // server NFs), plus two server segments.
  EXPECT_EQ(routing.segments.size(), 5u);
  EXPECT_EQ(routing.spi, 1u);
  EXPECT_EQ(routing.source_node, 0);
  EXPECT_EQ(routing.ingress_segment().target, Target::kPisa);
  // Every segment has exactly one entry with a distinct SI.
  std::set<int> sis;
  for (const auto& seg : routing.segments) {
    ASSERT_EQ(seg.entries.size(), 1u);
    sis.insert(seg.entries[0].si);
  }
  EXPECT_EQ(sis.size(), 5u);
}

TEST(Segments, ConnectedP4NodesShareOneRegion) {
  auto spec = make_spec("ACL -> NAT -> IPv4Fwd");
  Pattern pattern(3);
  for (auto& p : pattern) p.target = Target::kPisa;
  auto routing = build_routing(spec, pattern, 2);
  ASSERT_EQ(routing.segments.size(), 1u);
  EXPECT_EQ(routing.segments[0].nodes.size(), 3u);
  EXPECT_EQ(routing.spi, 3u);
  // Single entry (the chain source), exits to egress.
  ASSERT_EQ(routing.segments[0].entries.size(), 1u);
  ASSERT_EQ(routing.segments[0].exits.size(), 1u);
  EXPECT_EQ(routing.segments[0].exits[0].next_segment, -1);
}

TEST(Segments, ServerRunsSplitAtBranchNodes) {
  auto spec = make_spec(
      "LB -> [{'dst_port': 80, 'frac': 0.5, NAT}, "
      "{'dst_port': 443, 'frac': 0.5, NAT}] -> IPv4Fwd");
  Pattern pattern(4);  // All server except IPv4Fwd.
  pattern[3].target = Target::kPisa;
  auto routing = build_routing(spec, pattern, 0);
  // LB | NAT | NAT | IPv4Fwd: four segments.
  EXPECT_EQ(routing.segments.size(), 4u);
  // The LB segment has two conditioned exits with distinct gates.
  const auto& lb_seg = routing.segments[static_cast<std::size_t>(
      routing.segment_of(0))];
  ASSERT_EQ(lb_seg.exits.size(), 2u);
  EXPECT_NE(lb_seg.exits[0].gate, lb_seg.exits[1].gate);
  EXPECT_TRUE(lb_seg.exits[0].condition.has_value());
}

TEST(Segments, ExitChainsToNextSegmentEntries) {
  auto spec = make_spec("Encrypt -> ACL -> Dedup");
  Pattern pattern(3);
  pattern[1].target = Target::kPisa;
  auto routing = build_routing(spec, pattern, 0);
  ASSERT_EQ(routing.segments.size(), 3u);
  const auto& first = routing.ingress_segment();
  ASSERT_EQ(first.exits.size(), 1u);
  const auto& exit = first.exits[0];
  ASSERT_GE(exit.next_segment, 0);
  const auto& next =
      routing.segments[static_cast<std::size_t>(exit.next_segment)];
  EXPECT_NE(next.entry_for(exit.next_entry_node), nullptr);
}

// --- P4 composition -----------------------------------------------------------

struct ComposeFixture {
  topo::Topology topo = topo::Topology::lemur_testbed();
  PortMap ports;

  P4Artifact compose(const std::vector<ChainSpec>& chains,
                     const std::vector<Pattern>& patterns) {
    std::vector<ChainRouting> routings;
    for (std::size_t c = 0; c < chains.size(); ++c) {
      routings.push_back(
          build_routing(chains[c], patterns[c], static_cast<int>(c)));
    }
    return compose_p4(chains, routings, ports);
  }
};

TEST(Compose, AllSwitchChainCompilesAndSkipsNsh) {
  ComposeFixture fx;
  auto spec = make_spec("ACL -> NAT -> IPv4Fwd");
  Pattern pattern(3);
  for (auto& p : pattern) p.target = Target::kPisa;
  auto artifact = fx.compose({spec}, {pattern});
  ASSERT_TRUE(artifact.ok()) << artifact.error;
  // No NSH push is ever exercised: the chain never leaves the switch
  // (optimization (a)) — no steering entry forwards to a platform, and
  // no generated routing table pushes NSH.
  for (const auto& [table, entry] : artifact.entries) {
    EXPECT_NE(entry.action, "steer_push_fwd") << "table " << table;
    EXPECT_NE(entry.action, "steer_fwd") << "table " << table;
  }
  for (const auto& table : artifact.program.tables) {
    if (table.name == "lemur_steer") continue;  // Fixed action library.
    for (const auto& action : table.actions) {
      for (const auto& op : action.ops) {
        EXPECT_NE(op.kind, pisa::PrimitiveOp::Kind::kPushNshParams)
            << "table " << table.name;
      }
    }
  }
  auto compiled = pisa::compile(artifact.program, fx.topo.tor);
  EXPECT_TRUE(compiled.ok) << compiled.error;
}

TEST(Compose, MixedChainGeneratesSteeringAndRouting) {
  ComposeFixture fx;
  auto spec = make_spec("ACL -> Encrypt -> IPv4Fwd");
  Pattern pattern(3);
  pattern[0].target = Target::kPisa;
  pattern[2].target = Target::kPisa;
  auto artifact = fx.compose({spec}, {pattern});
  ASSERT_TRUE(artifact.ok()) << artifact.error;
  EXPECT_GE(artifact.program.find_table("lemur_steer"), 0);
  // Two regions (ACL; IPv4Fwd) -> at least one exit-routing table each.
  int route_tables = 0;
  for (const auto& table : artifact.program.tables) {
    if (table.name.find("_route_") != std::string::npos) ++route_tables;
  }
  EXPECT_EQ(route_tables, 2);
  EXPECT_EQ(artifact.coordination_tables.count("lemur_steer"), 1u);
  const auto loc = count_p4_loc(artifact);
  EXPECT_GT(loc.generated, 0);               // Coordination lines.
  EXPECT_GT(loc.total - loc.generated, 0);   // NF library lines.
  auto compiled = pisa::compile(artifact.program, fx.topo.tor);
  EXPECT_TRUE(compiled.ok) << compiled.error;
}

TEST(Compose, ParallelNatBranchesPackIntoSharedStages) {
  // The 11-NAT extreme configuration (section 5.2): parallel NAT branches
  // between a BPF classifier and a forwarder. With the exclusivity-aware
  // dependency analysis they pack; a naive chain would not.
  ComposeFixture fx;
  std::string source = "BPF -> [";
  for (int i = 0; i < 10; ++i) {
    source += (i > 0 ? std::string(", ") : std::string()) +
              "{'dst_port': " + std::to_string(1000 + i) +
              ", 'frac': 0.1, NAT}";
  }
  source += "] -> IPv4Fwd";
  auto spec = make_spec(source);
  Pattern pattern(spec.graph.nodes().size());
  for (auto& p : pattern) p.target = Target::kPisa;
  auto artifact = fx.compose({spec}, {pattern});
  ASSERT_TRUE(artifact.ok()) << artifact.error;
  auto compiled = pisa::compile(artifact.program, fx.topo.tor);
  EXPECT_TRUE(compiled.ok) << compiled.error;
  // Packed far below one-stage-per-table.
  EXPECT_LE(compiled.stages_required, fx.topo.tor.stages);
  EXPECT_LT(compiled.stages_required,
            pisa::estimate_stages_conservative(artifact.program) / 2);
}

TEST(Compose, StageOverflowDetectedForOversizedPrograms) {
  ComposeFixture fx;
  fx.topo.tor.stages = 3;
  auto spec = make_spec("Tunnel -> Detunnel -> Tunnel -> Detunnel");
  Pattern pattern(4);
  for (auto& p : pattern) p.target = Target::kPisa;
  auto artifact = fx.compose({spec}, {pattern});
  ASSERT_TRUE(artifact.ok());
  auto compiled = pisa::compile(artifact.program, fx.topo.tor);
  // Sequential VLAN ops depend on each other: cannot pack into 3 stages
  // alongside steering.
  EXPECT_FALSE(compiled.ok);
  EXPECT_GT(compiled.stages_required, 3);
}

TEST(Compose, MultipleChainsShareThePipeline) {
  ComposeFixture fx;
  auto a = make_spec("ACL -> IPv4Fwd", 0.1, 1);
  auto b = make_spec("NAT -> IPv4Fwd", 0.1, 2);
  Pattern pa(2), pb(2);
  for (auto& p : pa) p.target = Target::kPisa;
  for (auto& p : pb) p.target = Target::kPisa;
  auto artifact = fx.compose({a, b}, {pa, pb});
  ASSERT_TRUE(artifact.ok()) << artifact.error;
  // Name mangling keeps the two IPv4Fwd instances distinct.
  int fwd_tables = 0;
  for (const auto& table : artifact.program.tables) {
    if (table.name.find("ipv4_fwd") != std::string::npos) ++fwd_tables;
  }
  EXPECT_EQ(fwd_tables, 2);
  auto compiled = pisa::compile(artifact.program, fx.topo.tor);
  EXPECT_TRUE(compiled.ok) << compiled.error;
}

TEST(Compose, SameTypeNfsKeepTheirOwnConfigs) {
  // The composer builds one P4 bundle per distinct (type, config): two
  // Tunnels with different tags and two ACLs with different rule lists
  // must each keep their own default params and entries.
  ComposeFixture fx;
  auto spec = make_spec(
      "Tunnel(vlan_tag=10) -> Tunnel(vlan_tag=20) -> "
      "ACL(rules=[{'dst_ip': '10.1.0.0/16', 'drop': True}]) -> "
      "ACL(rules=[{'dst_ip': '10.2.0.0/16', 'drop': True}, "
      "{'dst_ip': '10.3.0.0/16', 'drop': True}])");
  Pattern pattern(spec.graph.nodes().size());
  for (auto& p : pattern) p.target = Target::kPisa;
  auto artifact = fx.compose({spec}, {pattern});
  ASSERT_TRUE(artifact.ok()) << artifact.error;

  std::vector<std::vector<std::uint64_t>> tags;
  std::vector<std::string> acls;
  for (const auto& table : artifact.program.tables) {
    if (table.name.ends_with("_tunnel")) tags.push_back(table.default_params);
    if (table.name.ends_with("_acl")) acls.push_back(table.name);
  }
  EXPECT_EQ(tags, (std::vector<std::vector<std::uint64_t>>{{10}, {20}}));
  ASSERT_EQ(acls.size(), 2u);
  const auto acl_dsts = [&](const std::string& name) {
    std::vector<std::uint64_t> dsts;
    for (const auto& [table, entry] : artifact.entries) {
      if (table == name) dsts.push_back(entry.key[1].value);
    }
    return dsts;
  };
  EXPECT_EQ(acl_dsts(acls[0]), (std::vector<std::uint64_t>{0x0a010000}));
  EXPECT_EQ(acl_dsts(acls[1]),
            (std::vector<std::uint64_t>{0x0a020000, 0x0a030000}));
}

// --- Oracle ---------------------------------------------------------------------

TEST(Oracle, CompilerOracleAcceptsAndRejects) {
  topo::Topology topo = topo::Topology::lemur_testbed();
  CompilerOracle oracle(topo);
  auto spec = make_spec("ACL -> NAT -> IPv4Fwd");
  std::vector<ChainSpec> chains = {spec};
  auto fits = oracle.check(chains, {{0, 1, 2}});
  EXPECT_TRUE(fits.fits) << fits.error;
  EXPECT_GT(fits.stages_required, 0);

  topo::Topology tiny = topo;
  tiny.tor.stages = 2;
  CompilerOracle tight(tiny);
  auto rejected = tight.check(chains, {{0, 1, 2}});
  EXPECT_FALSE(rejected.fits);
}

TEST(Oracle, CachesRepeatInvocations) {
  // The memo lives in the placer's CachingOracle; the compiler oracle
  // behind it only sees the misses.
  topo::Topology topo = topo::Topology::lemur_testbed();
  CompilerOracle compiler(topo);
  placer::CachingOracle oracle(compiler);
  auto spec = make_spec("ACL -> IPv4Fwd");
  std::vector<ChainSpec> chains = {spec};
  oracle.check(chains, {{0, 1}});
  EXPECT_EQ(compiler.compile_invocations(), 1);
  oracle.check(chains, {{0, 1}});
  EXPECT_EQ(compiler.compile_invocations(), 1);
  oracle.check(chains, {{1}});
  EXPECT_EQ(compiler.compile_invocations(), 2);
  EXPECT_EQ(oracle.stats().oracle_hits, 1u);
}

TEST(Oracle, AnswersForTheChainsItIsGiven) {
  // The same node ids of a different chain get that chain's answer, not
  // one remembered from an earlier query.
  topo::Topology topo = topo::Topology::lemur_testbed();
  CompilerOracle oracle(topo);
  const std::vector<ChainSpec> small = {make_spec("ACL -> IPv4Fwd")};
  const std::vector<ChainSpec> large = {make_spec("Monitor -> Tunnel")};
  const auto first = oracle.check(small, {{0, 1}});
  EXPECT_TRUE(first.fits) << first.error;
  const auto fresh = CompilerOracle(topo).check(large, {{0, 1}});
  EXPECT_FALSE(fresh.fits);
  const auto reused = oracle.check(large, {{0, 1}});
  EXPECT_EQ(reused.fits, fresh.fits);
  EXPECT_EQ(reused.stages_required, fresh.stages_required);
  EXPECT_EQ(reused.error, fresh.error);
}

TEST(Oracle, RealOracleBeatsConservativeEstimate) {
  // The paper: conservative analysis estimated 14 stages where the
  // compiler packed 12. Our compiler-backed oracle must accept
  // placements the estimator rejects.
  topo::Topology topo = topo::Topology::lemur_testbed();
  std::string source = "BPF -> [";
  for (int i = 0; i < 10; ++i) {
    source += (i > 0 ? std::string(", ") : std::string()) +
              "{'dst_port': " + std::to_string(1000 + i) +
              ", 'frac': 0.1, NAT}";
  }
  source += "] -> IPv4Fwd";
  auto spec = make_spec(source);
  std::vector<ChainSpec> chains = {spec};
  std::vector<int> all_nodes;
  for (const auto& n : spec.graph.nodes()) all_nodes.push_back(n.id);

  placer::EstimateOracle estimate(topo.tor);
  CompilerOracle compiler(topo);
  auto est = estimate.check(chains, {all_nodes});
  auto real = compiler.check(chains, {all_nodes});
  EXPECT_TRUE(real.fits) << real.error;
  EXPECT_LT(real.stages_required, est.stages_required);
}

// --- BESS plans ------------------------------------------------------------------

/// A placement of one chain with `pattern` and `subgroups`, for routing
/// resolution in hand-built plans.
placer::PlacementResult hand_placement(
    const Pattern& pattern, std::vector<placer::Subgroup> subgroups) {
  placer::PlacementResult placement;
  placement.chains.resize(1);
  placement.chains[0].nodes = pattern;
  placement.subgroups = std::move(subgroups);
  return placement;
}

TEST(BessPlans, SegmentsLandOnAssignedServers) {
  topo::Topology topo = topo::Topology::multi_server(2, 8);
  auto spec = make_spec("Encrypt -> ACL -> Dedup");
  Pattern pattern(3);
  pattern[1].target = Target::kPisa;
  placer::Subgroup g1;
  g1.chain = 0;
  g1.nodes = {0};
  g1.server = 0;
  g1.cores = 2;
  placer::Subgroup g2;
  g2.chain = 0;
  g2.nodes = {2};
  g2.server = 1;
  g2.cores = 1;
  const auto placement = hand_placement(pattern, {g1, g2});
  auto routing = build_routing(spec, pattern, 0);
  resolve_placement(routing, placement, topo);
  auto plans = build_bess_plans({spec}, {routing}, placement.subgroups, topo);
  ASSERT_EQ(plans.size(), 2u);
  ASSERT_EQ(plans[0].segments.size(), 1u);
  EXPECT_EQ(plans[0].segments[0].replica_cores, (std::vector<int>{1, 2}));
  ASSERT_EQ(plans[1].segments.size(), 1u);
  EXPECT_EQ(plans[1].segments[0].nodes, std::vector<int>{2});
  EXPECT_EQ(plans[1].segments[0].replica_cores, std::vector<int>{1});
}

TEST(BessPlans, ScriptAccountsCoordinationLines) {
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto spec = make_spec("Encrypt -> Dedup");
  Pattern pattern(2);
  placer::Subgroup g;
  g.chain = 0;
  g.nodes = {0, 1};
  g.server = 0;
  g.cores = 2;
  const auto placement = hand_placement(pattern, {g});
  auto routing = build_routing(spec, pattern, 0);
  resolve_placement(routing, placement, topo);
  auto plans = build_bess_plans({spec}, {routing}, placement.subgroups, topo);
  const auto script = plans[0].print_script({spec});
  EXPECT_NE(script.find("NSHdecap"), std::string::npos);
  EXPECT_NE(script.find("NSHencap"), std::string::npos);
  EXPECT_NE(script.find("Encrypt"), std::string::npos);
  const auto loc = plans[0].loc_summary({spec});
  EXPECT_GT(loc.total, 0);
  EXPECT_GT(loc.coordination, 0);
  EXPECT_LT(loc.coordination, loc.total);
}

TEST(BessPlans, ScriptSchedulesOnTheServersCores) {
  // Five chains on one 6-core server: more replicas than worker cores,
  // and the placer's shared-core group.
  topo::Topology topo = topo::Topology::multi_server(1, 6);
  placer::PlacerOptions options;
  CompilerOracle oracle(topo);
  auto specs = chain::canonical_chains({1, 2, 3, 4, 5});
  placer::apply_delta(specs, 0.2, topo.servers.front(), options);
  auto placement = placer::place(placer::Strategy::kLemur, specs, topo,
                                 options, oracle);
  ASSERT_TRUE(placement.feasible) << placement.infeasible_reason;
  auto artifacts = compile(specs, placement, topo);
  ASSERT_TRUE(artifacts.ok) << artifacts.error;
  ASSERT_EQ(artifacts.server_plans.size(), 1u);
  const auto& plan = artifacts.server_plans[0];
  std::vector<int> planned;
  for (const auto& seg : plan.segments) {
    planned.insert(planned.end(), seg.replica_cores.begin(),
                   seg.replica_cores.end());
  }
  std::vector<int> scheduled;
  const std::string script = plan.print_script(specs);
  const std::string marker = "wid=";
  for (auto at = script.find(marker); at != std::string::npos;
       at = script.find(marker, at + 1)) {
    scheduled.push_back(std::stoi(script.substr(at + marker.size())));
  }
  EXPECT_EQ(scheduled, planned);
  EXPECT_GT(scheduled.size(), 5u);
  for (int wid : scheduled) {
    EXPECT_GE(wid, 1);
    EXPECT_LT(wid, topo.servers[0].total_cores());
  }
}

// --- Full artifact generation ------------------------------------------------------

TEST(Artifacts, EndToEndCompileForPlacedChains) {
  topo::Topology topo = topo::Topology::lemur_testbed();
  placer::PlacerOptions options;
  CompilerOracle oracle(topo);
  auto specs = chain::canonical_chains({2, 3});
  placer::apply_delta(specs, 1.0, topo.servers.front(), options);
  auto placement = placer::place(placer::Strategy::kLemur, specs, topo,
                                 options, oracle);
  ASSERT_TRUE(placement.feasible) << placement.infeasible_reason;
  auto artifacts = compile(specs, placement, topo);
  ASSERT_TRUE(artifacts.ok) << artifacts.error;
  EXPECT_EQ(artifacts.routings.size(), 2u);
  EXPECT_FALSE(artifacts.p4.program.tables.empty());
  EXPECT_GT(artifacts.loc.total, 0);
  EXPECT_GT(artifacts.loc.generated_fraction(), 0.1);
  // The placement's stage usage is what the compiler reported.
  auto compiled = pisa::compile(artifacts.p4.program, topo.tor);
  ASSERT_TRUE(compiled.ok) << compiled.error;
  EXPECT_LE(compiled.stages_required, topo.tor.stages);
}

TEST(Artifacts, InfeasiblePlacementRefused) {
  topo::Topology topo = topo::Topology::lemur_testbed();
  placer::PlacementResult bogus;
  bogus.feasible = false;
  auto artifacts = compile({}, bogus, topo);
  EXPECT_FALSE(artifacts.ok);
}

TEST(Artifacts, SmartNicProgramEmitted) {
  topo::Topology topo = topo::Topology::lemur_testbed_with_smartnic();
  placer::PlacerOptions options;
  CompilerOracle oracle(topo);
  auto specs = chain::canonical_chains({5});
  placer::apply_delta(specs, 1.0, topo.servers.front(), options);
  auto placement = placer::place(placer::Strategy::kLemur, specs, topo,
                                 options, oracle);
  ASSERT_TRUE(placement.feasible) << placement.infeasible_reason;
  ASSERT_FALSE(placement.nic_nfs.empty());
  auto artifacts = compile(specs, placement, topo);
  ASSERT_TRUE(artifacts.ok) << artifacts.error;
  ASSERT_FALSE(artifacts.nic_programs.empty());
  EXPECT_EQ(artifacts.nic_programs[0].type, nf::NfType::kFastEncrypt);
  EXPECT_TRUE(nic::verify(artifacts.nic_programs[0].program).ok);
}

TEST(Artifacts, NicProgramTargetsThePlacedSmartNic) {
  // Two servers, each behind its own SmartNIC; NIC 0 has already failed,
  // so the placer puts chain 5's NIC NF on NIC 1 (server 1).
  topo::Topology topo = topo::Topology::multi_server(2, 8);
  topo.smartnics.resize(2);
  topo.smartnics[1].name = "agilio1";
  topo.smartnics[1].attached_server = 1;
  topo.smartnics[0].failed = true;
  placer::PlacerOptions options;
  CompilerOracle oracle(topo);
  auto specs = chain::canonical_chains({2, 5});
  placer::apply_delta(specs, 0.5, topo.servers.front(), options);
  auto placement = placer::place(placer::Strategy::kLemur, specs, topo,
                                 options, oracle);
  ASSERT_TRUE(placement.feasible) << placement.infeasible_reason;
  auto artifacts = compile(specs, placement, topo);
  ASSERT_TRUE(artifacts.ok) << artifacts.error;
  EXPECT_FALSE(artifacts.verification.has_errors())
      << artifacts.verification.to_string();
  ASSERT_EQ(artifacts.nic_programs.size(), 1u);
  const auto& nic = artifacts.nic_programs[0];
  EXPECT_EQ(nic.smartnic, 1);
  // The ToR steers packets entering the NIC segment to server 1's port.
  int steered = 0;
  for (const auto& [table, entry] : artifacts.p4.entries) {
    if (table != "lemur_steer" || entry.action != "steer_fwd") continue;
    if (entry.key[0].value != nic.spi_in || entry.key[1].value != nic.si_in) {
      continue;
    }
    ++steered;
    EXPECT_EQ(entry.params, (std::vector<std::uint64_t>{PortMap{}.server(1)}));
  }
  EXPECT_EQ(steered, 1);
}

}  // namespace
}  // namespace lemur::metacompiler
