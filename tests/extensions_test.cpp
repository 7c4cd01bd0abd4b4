// Tests for the future-work extensions the paper defers (section 3.2,
// footnote 2, and section 7): NAT replication by port-space partitioning,
// alternative rate-allocation objectives, and failure fallback
// re-placement.
#include <gtest/gtest.h>

#include "src/chain/parser.h"
#include "src/metacompiler/pisa_oracle.h"
#include "src/placer/placer.h"
#include "src/runtime/testbed.h"

namespace lemur::placer {
namespace {

using chain::ChainSpec;

ChainSpec nat_heavy_chain(double t_min) {
  // Encrypt keeps the chain off the all-P4 path; the NAT is the
  // replication-limited server NF under study.
  auto parsed = chain::parse_chain("Encrypt -> NAT -> Tunnel");
  ChainSpec spec;
  spec.name = "nat-heavy";
  spec.graph = std::move(parsed.graph);
  spec.slo = chain::Slo::elastic_pipe(t_min, 100);
  spec.aggregate_id = 1;
  return spec;
}

TEST(NatPartitioning, OffByDefaultNatStaysSingleCore) {
  topo::Topology topo = topo::Topology::lemur_testbed();
  PlacerOptions options;
  // Force NAT onto the server so its replicability matters.
  options.disable_pisa_nfs = true;
  std::vector<ChainSpec> chains = {nat_heavy_chain(0.5)};
  metacompiler::CompilerOracle oracle(topo);
  auto placement = place(Strategy::kLemur, chains, topo, options, oracle);
  ASSERT_TRUE(placement.feasible) << placement.infeasible_reason;
  for (const auto& g : placement.subgroups) {
    bool has_nat = false;
    for (int id : g.nodes) {
      if (chains[0].graph.node(id).type == nf::NfType::kNat) has_nat = true;
    }
    if (has_nat) {
      EXPECT_EQ(g.cores, 1) << "NAT replicated without the flag";
    }
  }
}

TEST(NatPartitioning, FlagUnlocksReplicationAndCapacity) {
  topo::Topology topo = topo::Topology::lemur_testbed();
  PlacerOptions base;
  base.disable_pisa_nfs = true;
  PlacerOptions partitioned = base;
  partitioned.replicate_nat_by_port_partition = true;

  std::vector<ChainSpec> chains = {nat_heavy_chain(0.5)};
  metacompiler::CompilerOracle oracle_a(topo);
  auto without = place(Strategy::kLemur, chains, topo, base, oracle_a);
  metacompiler::CompilerOracle oracle_b(topo);
  auto with =
      place(Strategy::kLemur, chains, topo, partitioned, oracle_b);
  ASSERT_TRUE(without.feasible);
  ASSERT_TRUE(with.feasible);
  EXPECT_GE(with.aggregate_gbps, without.aggregate_gbps - 1e-6);
}

TEST(NatPartitioning, ReplicasTranslateWithDisjointPorts) {
  // Deploy a replicated NAT end-to-end and check the translated source
  // ports at egress fall into per-replica disjoint ranges.
  topo::Topology topo = topo::Topology::lemur_testbed();
  PlacerOptions options;
  options.disable_pisa_nfs = true;
  options.replicate_nat_by_port_partition = true;
  std::vector<ChainSpec> chains = {nat_heavy_chain(3.0)};
  metacompiler::CompilerOracle oracle(topo);
  auto placement = place(Strategy::kLemur, chains, topo, options, oracle);
  ASSERT_TRUE(placement.feasible) << placement.infeasible_reason;
  int nat_cores = 0;
  for (const auto& g : placement.subgroups) {
    for (int id : g.nodes) {
      if (chains[0].graph.node(id).type == nf::NfType::kNat) {
        nat_cores = g.cores;
      }
    }
  }
  ASSERT_GE(nat_cores, 2) << "expected the NAT to replicate at this t_min";

  auto artifacts = metacompiler::compile(chains, placement, topo);
  ASSERT_TRUE(artifacts.ok) << artifacts.error;
  runtime::Testbed testbed(chains, placement, artifacts, topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  std::set<int> ranges_seen;
  testbed.set_egress_hook([&](const net::Packet& pkt) {
    auto tuple = net::FiveTuple::from(pkt);
    if (!tuple) return;
    // Replica r allocates from [base + r*span, base + (r+1)*span).
    const int base = 10000;
    const int span = (65000 - base) / nat_cores;
    if (tuple->src_port >= base) {
      ranges_seen.insert((tuple->src_port - base) / span);
    }
  });
  auto m = testbed.run(10.0);
  EXPECT_GT(m.delivered_packets, 100u);
  // Traffic spread across replicas: more than one port range in use.
  EXPECT_GE(ranges_seen.size(), 2u);
}

TEST(Objectives, WeightedFavorsHeavyChain) {
  // Two identical chains contending for the same link; the weighted
  // objective shifts marginal rate to the heavier chain.
  topo::Topology topo = topo::Topology::lemur_testbed();
  PlacerOptions options;
  options.objective = PlacerOptions::Objective::kWeighted;
  std::vector<ChainSpec> chains;
  for (int i = 0; i < 2; ++i) {
    auto parsed = chain::parse_chain("Encrypt -> IPv4Fwd");
    ChainSpec spec;
    spec.name = "w" + std::to_string(i);
    spec.graph = std::move(parsed.graph);
    spec.slo = chain::Slo::elastic_pipe(1.0, 100);
    spec.aggregate_id = static_cast<std::uint32_t>(i + 1);
    spec.weight = i == 0 ? 10.0 : 1.0;
    chains.push_back(std::move(spec));
  }
  metacompiler::CompilerOracle oracle(topo);
  auto placement = place(Strategy::kLemur, chains, topo, options, oracle);
  ASSERT_TRUE(placement.feasible) << placement.infeasible_reason;
  EXPECT_GT(placement.chains[0].assigned_gbps,
            placement.chains[1].assigned_gbps);
  EXPECT_GE(placement.chains[1].assigned_gbps, 1.0 - 1e-6);  // t_min held.
}

TEST(Objectives, MaxMinEqualizesMarginalsOnSharedLink) {
  // Two symmetric cheap chains contending for the same 40G server link:
  // the max-min objective must split the link evenly. Evaluated at the
  // rate-LP level with a fixed symmetric deployment, so core-allocation
  // asymmetry cannot mask the objective's behaviour.
  topo::Topology topo = topo::Topology::lemur_testbed();
  PlacerOptions options;
  options.objective = PlacerOptions::Objective::kMaxMin;
  std::vector<ChainSpec> chains;
  std::vector<Pattern> patterns;
  for (int i = 0; i < 2; ++i) {
    auto parsed = chain::parse_chain("Tunnel");
    ChainSpec spec;
    spec.name = "m" + std::to_string(i);
    spec.graph = std::move(parsed.graph);
    spec.slo = chain::Slo::elastic_pipe(1.0, 100);
    spec.aggregate_id = static_cast<std::uint32_t>(i + 1);
    chains.push_back(std::move(spec));
    patterns.push_back(Pattern(1));  // Tunnel on the server.
  }
  Deployment d = make_deployment(chains, patterns, topo, options);
  ASSERT_TRUE(
      allocate_cores(d, chains, topo, options, AllocMode::kNone).ok);
  auto result = evaluate(d, chains, topo, options);
  ASSERT_TRUE(result.feasible) << result.infeasible_reason;
  const double m0 = result.chains[0].assigned_gbps - 1.0;
  const double m1 = result.chains[1].assigned_gbps - 1.0;
  EXPECT_GT(std::min(m0, m1), 5.0);  // Both get a real share of 40G.
  EXPECT_NEAR(m0, m1, 0.5);
  // The sum still fills the link.
  EXPECT_NEAR(result.aggregate_gbps, 40.0, 1.0);
}

TEST(Failover, SmartNicLossFallsBackToServer) {
  // Section 7: if on-path hardware fails, Lemur falls back to
  // server-based NFs. Place chain 5 with the NIC, fail the NIC, replace.
  PlacerOptions options;
  auto with_nic = topo::Topology::lemur_testbed_with_smartnic();
  auto specs = chain::canonical_chains({5});
  apply_delta(specs, 1.0, with_nic.servers.front(), options);
  metacompiler::CompilerOracle oracle(with_nic);
  auto before = place(Strategy::kLemur, specs, with_nic, options, oracle);
  ASSERT_TRUE(before.feasible);
  ASSERT_FALSE(before.nic_nfs.empty());

  // The NIC fails: re-place on the degraded topology.
  auto degraded = with_nic;
  degraded.smartnics.clear();
  metacompiler::CompilerOracle oracle2(degraded);
  auto after = place(Strategy::kLemur, specs, degraded, options, oracle2);
  ASSERT_TRUE(after.feasible) << after.infeasible_reason;
  EXPECT_TRUE(after.nic_nfs.empty());
  // The fallback still meets t_min, at lower (or equal) throughput.
  EXPECT_GE(after.chains[0].assigned_gbps, specs[0].slo.t_min_gbps - 1e-6);
  EXPECT_LE(after.aggregate_gbps, before.aggregate_gbps + 1e-6);
}

TEST(Failover, ServerLossShrinksButSurvives) {
  PlacerOptions options;
  auto two = topo::Topology::multi_server(2, 8);
  auto specs = chain::canonical_chains({1, 2, 3});
  apply_delta(specs, 0.5, two.servers.front(), options);
  metacompiler::CompilerOracle oracle(two);
  auto before = place(Strategy::kLemur, specs, two, options, oracle);
  ASSERT_TRUE(before.feasible);

  auto degraded = topo::Topology::multi_server(1, 8);
  metacompiler::CompilerOracle oracle2(degraded);
  auto after = place(Strategy::kLemur, specs, degraded, options, oracle2);
  ASSERT_TRUE(after.feasible) << after.infeasible_reason;
  EXPECT_LE(after.aggregate_gbps, before.aggregate_gbps + 1e-6);
}

TEST(TimeVaryingSlo, PrecomputedPlacementsPerWindow) {
  // Section 7: time-varying SLOs (e.g. higher daytime minimums) would be
  // handled by precomputing a placement per window and swapping them in.
  // Only the precomputation exists: nothing swaps plans on a clock.
  topo::Topology topo = topo::Topology::lemur_testbed();
  PlacerOptions options;
  struct Window {
    const char* name;
    double delta;
  };
  const Window windows[] = {{"night", 0.5}, {"day", 1.5}};
  for (const auto& window : windows) {
    auto specs = chain::canonical_chains({2, 3});
    apply_delta(specs, window.delta, topo.servers.front(), options);
    metacompiler::CompilerOracle oracle(topo);
    auto placement = place(Strategy::kLemur, specs, topo, options, oracle);
    ASSERT_TRUE(placement.feasible)
        << window.name << ": " << placement.infeasible_reason;
    // Each precomputed placement compiles on its own.
    auto artifacts = metacompiler::compile(specs, placement, topo);
    EXPECT_TRUE(artifacts.ok) << window.name << ": " << artifacts.error;
  }
}

}  // namespace
}  // namespace lemur::placer
