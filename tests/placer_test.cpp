// Tests for the Placer: profiles, pattern utilities, subgroup formation,
// core allocation, the evaluation LP, and all placement strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/chain/parser.h"
#include "src/metacompiler/pisa_oracle.h"
#include "src/pisa/compiler.h"
#include "src/placer/caching_oracle.h"
#include "src/placer/placer.h"

namespace lemur::placer {
namespace {

using chain::ChainSpec;
using nf::NfType;

PlacerOptions default_options() { return PlacerOptions{}; }

std::vector<ChainSpec> chains_with_delta(const std::vector<int>& numbers,
                                         double delta,
                                         const topo::Topology& topo,
                                         const PlacerOptions& options) {
  auto specs = chain::canonical_chains(numbers);
  apply_delta(specs, delta, topo.servers.front(), options);
  return specs;
}

ChainSpec parse_spec(const std::string& source, double t_min = 0,
                     double t_max = 100) {
  auto parsed = chain::parse_chain(source);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  ChainSpec spec;
  spec.name = "test";
  spec.graph = std::move(parsed.graph);
  spec.slo = chain::Slo::elastic_pipe(t_min, t_max);
  return spec;
}

// --- Profiles --------------------------------------------------------------

TEST(Profile, WorstCaseExceedsRegistryMean) {
  topo::ServerSpec server;
  chain::NfNode node;
  node.type = NfType::kEncrypt;
  auto options = default_options();
  const auto cycles = profiled_cycles(node, server, options);
  EXPECT_GT(cycles, 8593u);  // Mean x jitter x NUMA.
  EXPECT_LT(nic_profiled_cycles(node, options), cycles);
}

TEST(Profile, NoProfilingIsUniform) {
  topo::ServerSpec server;
  auto options = default_options();
  options.no_profiling = true;
  chain::NfNode dedup;
  dedup.type = NfType::kDedup;
  chain::NfNode tunnel;
  tunnel.type = NfType::kTunnel;
  EXPECT_EQ(profiled_cycles(dedup, server, options),
            profiled_cycles(tunnel, server, options));
}

TEST(Profile, ProfileScaleShrinksCosts) {
  topo::ServerSpec server;
  chain::NfNode node;
  node.type = NfType::kAcl;
  auto options = default_options();
  const auto base = profiled_cycles(node, server, options);
  options.profile_scale = 0.9;
  EXPECT_LT(profiled_cycles(node, server, options), base);
}

TEST(Profile, Chain3BaseRateIsDedupBound) {
  // Chain 3's slowest software NF is Dedup (30182 cycles): base rate
  // ~1.7e9/(30182 x 1.025 x 1.04) pps x 1500B.
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  const auto graph = chain::canonical_chain(3);
  const double base =
      chain_base_rate_gbps(graph, topo.servers.front(), options);
  EXPECT_NEAR(base, 0.634, 0.03);
}

TEST(Profile, DeltaScalesTmin) {
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  auto chains = chains_with_delta({3}, 2.0, topo, options);
  const double base = chain_base_rate_gbps(chains[0].graph,
                                           topo.servers.front(), options);
  EXPECT_NEAR(chains[0].slo.t_min_gbps, 2.0 * base, 1e-9);
}

// --- Pattern utilities -------------------------------------------------------

TEST(Patterns, AllowedTargetsFollowTable3) {
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  chain::NfNode dedup;
  dedup.type = NfType::kDedup;
  auto targets = allowed_targets(dedup, topo, options);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], Target::kServer);

  chain::NfNode acl;
  acl.type = NfType::kAcl;
  targets = allowed_targets(acl, topo, options);
  EXPECT_EQ(targets.front(), Target::kPisa);
  EXPECT_EQ(targets.back(), Target::kServer);
  // No SmartNIC or OF in the base testbed.
  EXPECT_EQ(targets.size(), 2u);

  topo = topo::Topology::lemur_testbed_with_smartnic();
  targets = allowed_targets(acl, topo, options);
  EXPECT_EQ(targets.size(), 3u);
  EXPECT_EQ(targets[1], Target::kSmartNic);
}

TEST(Patterns, Ipv4FwdRestrictionHonored) {
  topo::Topology topo = topo::Topology::lemur_testbed_with_openflow();
  auto options = default_options();
  chain::NfNode fwd;
  fwd.type = NfType::kIpv4Fwd;
  auto targets = allowed_targets(fwd, topo, options);
  ASSERT_EQ(targets.size(), 1u);  // P4-only, per the paper's footnote.
  EXPECT_EQ(targets[0], Target::kPisa);
  // With the switch hosting no NFs, IPv4Fwd runs off-switch.
  options.disable_pisa_nfs = true;
  targets = allowed_targets(fwd, topo, options);
  EXPECT_GE(targets.size(), 2u);
  EXPECT_EQ(std::count(targets.begin(), targets.end(), Target::kPisa), 0);
}

TEST(Patterns, SubgroupsCoalesceConsecutiveServerNfs) {
  auto spec = parse_spec("Dedup -> ACL -> Limiter -> LB -> IPv4Fwd");
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  // All server except IPv4Fwd (P4-only).
  Pattern pattern(spec.graph.nodes().size());
  pattern[4].target = Target::kPisa;
  auto groups =
      form_subgroups(spec.graph, pattern, 0, topo.servers.front(), options);
  ASSERT_EQ(groups.size(), 1u);  // Dedup+ACL+Limiter+LB run to completion.
  EXPECT_EQ(groups[0].nodes.size(), 4u);
  EXPECT_FALSE(groups[0].replicable);  // Contains Limiter.
  // Cycles include every member plus one NSH overhead.
  EXPECT_GT(groups[0].cycles, 30182u + 3841u + 220u);
}

TEST(Patterns, SwitchNfSplitsSubgroups) {
  auto spec = parse_spec("Dedup -> ACL -> Limiter -> LB -> IPv4Fwd");
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  Pattern pattern(spec.graph.nodes().size());
  pattern[1].target = Target::kPisa;  // ACL on the switch.
  pattern[4].target = Target::kPisa;
  auto groups =
      form_subgroups(spec.graph, pattern, 0, topo.servers.front(), options);
  ASSERT_EQ(groups.size(), 2u);  // {Dedup}, {Limiter, LB}.
}

TEST(Patterns, BranchNodesAreTheirOwnSubgroup) {
  auto spec = parse_spec(
      "LB -> [{'dst_port': 80, 'frac': 0.5, NAT}, "
      "{'dst_port': 443, 'frac': 0.5, NAT}] -> IPv4Fwd");
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  Pattern pattern(spec.graph.nodes().size());  // All server.
  auto groups =
      form_subgroups(spec.graph, pattern, 0, topo.servers.front(), options);
  // LB (branch), NAT, NAT, IPv4Fwd (merge): no coalescing across branches.
  EXPECT_EQ(groups.size(), 4u);
  for (const auto& g : groups) {
    if (g.nodes.size() == 1 &&
        (spec.graph.is_branch_or_merge(g.nodes[0]))) {
      EXPECT_FALSE(g.replicable);
    }
  }
  // NAT branches carry half the traffic each.
  int half_fraction_groups = 0;
  for (const auto& g : groups) {
    if (std::abs(g.traffic_fraction - 0.5) < 1e-9) ++half_fraction_groups;
  }
  EXPECT_EQ(half_fraction_groups, 2);
}

TEST(Patterns, BounceCountingAndLinkCoefficients) {
  auto spec = parse_spec("ACL -> Encrypt -> NAT -> Dedup -> IPv4Fwd");
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  // ACL, NAT on switch; Encrypt, Dedup on server; IPv4Fwd switch:
  // SW -> SRV -> SW -> SRV -> SW = 4 bounces.
  Pattern pattern(spec.graph.nodes().size());
  pattern[0].target = Target::kPisa;
  pattern[2].target = Target::kPisa;
  pattern[4].target = Target::kPisa;
  auto groups =
      form_subgroups(spec.graph, pattern, 0, topo.servers.front(), options);
  auto analysis = analyze_paths(spec.graph, pattern, groups, topo, options);
  EXPECT_EQ(analysis.worst_bounces, 4);
  EXPECT_NEAR(analysis.link_in_coeff[0], 2.0, 1e-9);
  EXPECT_NEAR(analysis.link_out_coeff[0], 2.0, 1e-9);
}

TEST(Patterns, NoBouncesWhenAllOnSwitch) {
  auto spec = parse_spec("ACL -> IPv4Fwd");
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  Pattern pattern(spec.graph.nodes().size());
  pattern[0].target = Target::kPisa;
  pattern[1].target = Target::kPisa;
  auto analysis = analyze_paths(spec.graph, pattern, {}, topo, options);
  EXPECT_EQ(analysis.worst_bounces, 0);
  EXPECT_NEAR(analysis.link_in_coeff[0], 0.0, 1e-12);
}

// --- Evaluation -----------------------------------------------------------------

TEST(Evaluate, SingleChainCapacityMatchesCycleModel) {
  auto spec = parse_spec("Encrypt -> IPv4Fwd", /*t_min=*/0.5);
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  std::vector<ChainSpec> chains = {spec};
  std::vector<Pattern> patterns = {Pattern(spec.graph.nodes().size())};
  patterns[0][1].target = Target::kPisa;
  Deployment d = make_deployment(chains, patterns, topo, options);
  auto alloc =
      allocate_cores(d, chains, topo, options, AllocMode::kNone);
  ASSERT_TRUE(alloc.ok);
  auto result = evaluate(d, chains, topo, options);
  ASSERT_TRUE(result.feasible) << result.infeasible_reason;
  // One core on Encrypt: ~1.7e9/(8593*1.025*1.04+220) pps x 1500B x 8.
  const double expected =
      1.7e9 / (8593 * 1.025 * 1.04 + 220) * 1500 * 8 / 1e9;
  EXPECT_NEAR(result.chains[0].capacity_gbps, expected, 0.05);
  EXPECT_NEAR(result.aggregate_gbps, expected, 0.05);
}

TEST(Evaluate, InfeasibleWhenTminExceedsCapacity) {
  auto spec = parse_spec("Limiter -> IPv4Fwd", /*t_min=*/50.0);
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  std::vector<ChainSpec> chains = {spec};
  std::vector<Pattern> patterns = {Pattern(spec.graph.nodes().size())};
  patterns[0][1].target = Target::kPisa;
  Deployment d = make_deployment(chains, patterns, topo, options);
  allocate_cores(d, chains, topo, options, AllocMode::kMaximizeMarginal);
  auto result = evaluate(d, chains, topo, options);
  EXPECT_FALSE(result.feasible);  // Limiter is non-replicable; 50G >> 1 core.
  EXPECT_NE(result.infeasible_reason.find("capacity"), std::string::npos);
}

TEST(Evaluate, TmaxClampsAssignedRate) {
  auto spec = parse_spec("Tunnel -> IPv4Fwd", /*t_min=*/0.1, /*t_max=*/1.0);
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  std::vector<ChainSpec> chains = {spec};
  std::vector<Pattern> patterns = {Pattern(spec.graph.nodes().size())};
  patterns[0][1].target = Target::kPisa;
  Deployment d = make_deployment(chains, patterns, topo, options);
  allocate_cores(d, chains, topo, options, AllocMode::kMaximizeMarginal);
  auto result = evaluate(d, chains, topo, options);
  ASSERT_TRUE(result.feasible) << result.infeasible_reason;
  EXPECT_NEAR(result.chains[0].assigned_gbps, 1.0, 1e-6);
}

TEST(Evaluate, LinkCapacitySharedAcrossChains) {
  // Two cheap chains, each bouncing once through the 40G NIC: the LP must
  // cap their sum at the link.
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  std::vector<ChainSpec> chains = {
      parse_spec("Tunnel -> IPv4Fwd", 0.1),
      parse_spec("Detunnel -> IPv4Fwd", 0.1)};
  std::vector<Pattern> patterns;
  for (const auto& spec : chains) {
    Pattern p(spec.graph.nodes().size());
    p[1].target = Target::kPisa;  // Only the cheap NF on the server.
    patterns.push_back(p);
  }
  Deployment d = make_deployment(chains, patterns, topo, options);
  allocate_cores(d, chains, topo, options, AllocMode::kMaximizeMarginal);
  auto result = evaluate(d, chains, topo, options);
  ASSERT_TRUE(result.feasible) << result.infeasible_reason;
  EXPECT_LE(result.aggregate_gbps,
            topo.servers[0].nics[0].capacity_gbps + 1e-6);
  EXPECT_GT(result.aggregate_gbps, 35.0);  // Close to the 40G link.
}

TEST(Evaluate, CoreBudgetEnforced) {
  topo::Topology topo = topo::Topology::multi_server(1, 2);  // 2 cores.
  auto options = default_options();
  // Three single-NF server chains need 3 cores + demux > 2.
  std::vector<ChainSpec> chains = {parse_spec("Encrypt", 0.01),
                                   parse_spec("Dedup", 0.01),
                                   parse_spec("UrlFilter", 0.01)};
  std::vector<Pattern> patterns;
  for (const auto& spec : chains) {
    patterns.push_back(Pattern(spec.graph.nodes().size()));
  }
  Deployment d = make_deployment(chains, patterns, topo, options);
  auto alloc =
      allocate_cores(d, chains, topo, options, AllocMode::kNone);
  EXPECT_FALSE(alloc.ok);
}

TEST(Evaluate, LatencyBoundFiltersBouncyPlacements) {
  auto spec = parse_spec("ACL -> Encrypt -> NAT -> Dedup -> IPv4Fwd", 0.1);
  spec.slo = spec.slo.with_latency(5.0);  // Tight: 4 bounces x 2us won't fit.
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  std::vector<ChainSpec> chains = {spec};
  std::vector<Pattern> patterns = {Pattern(spec.graph.nodes().size())};
  patterns[0][0].target = Target::kPisa;
  patterns[0][2].target = Target::kPisa;
  patterns[0][4].target = Target::kPisa;
  Deployment d = make_deployment(chains, patterns, topo, options);
  allocate_cores(d, chains, topo, options, AllocMode::kNone);
  auto result = evaluate(d, chains, topo, options);
  EXPECT_FALSE(result.feasible);
  EXPECT_NE(result.infeasible_reason.find("latency"), std::string::npos);
}

// --- Core allocation ---------------------------------------------------------

TEST(CoreAlloc, ReplicationScalesCapacity) {
  auto spec = parse_spec("Encrypt -> IPv4Fwd", /*t_min=*/8.0);
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  std::vector<ChainSpec> chains = {spec};
  std::vector<Pattern> patterns = {Pattern(spec.graph.nodes().size())};
  patterns[0][1].target = Target::kPisa;
  Deployment d = make_deployment(chains, patterns, topo, options);
  auto alloc = allocate_cores(d, chains, topo, options,
                              AllocMode::kMaximizeMarginal);
  ASSERT_TRUE(alloc.ok);
  // ~2.1 Gbps per core -> needs >= 4 cores for 8 Gbps.
  EXPECT_GE(d.subgroups[0].cores, 4);
  auto result = evaluate(d, chains, topo, options);
  ASSERT_TRUE(result.feasible) << result.infeasible_reason;
  EXPECT_GE(result.chains[0].assigned_gbps, 8.0 - 1e-6);
}

TEST(CoreAlloc, NonReplicableStaysAtOneCore) {
  auto spec = parse_spec("Limiter -> IPv4Fwd", 0.1);
  topo::Topology topo = topo::Topology::lemur_testbed();
  auto options = default_options();
  std::vector<ChainSpec> chains = {spec};
  std::vector<Pattern> patterns = {Pattern(spec.graph.nodes().size())};
  patterns[0][1].target = Target::kPisa;
  Deployment d = make_deployment(chains, patterns, topo, options);
  allocate_cores(d, chains, topo, options, AllocMode::kMaximizeMarginal);
  EXPECT_EQ(d.subgroups[0].cores, 1);
}

TEST(CoreAlloc, DemuxCoreReserved) {
  auto spec = parse_spec("Encrypt", 0.1);
  topo::Topology topo = topo::Topology::multi_server(1, 8);
  auto options = default_options();
  std::vector<ChainSpec> chains = {spec};
  std::vector<Pattern> patterns = {Pattern(1)};
  Deployment d = make_deployment(chains, patterns, topo, options);
  allocate_cores(d, chains, topo, options, AllocMode::kMaximizeMarginal);
  const auto used = cores_used_per_server(d, topo);
  EXPECT_EQ(used[0], d.subgroups[0].cores + 1);  // +1 demux.
  EXPECT_LE(used[0], 8);
}

// --- Strategies -----------------------------------------------------------------

struct StrategyFixture {
  topo::Topology topo = topo::Topology::lemur_testbed();
  PlacerOptions options;
  EstimateOracle oracle{topo::PisaSwitchSpec{}};
};

TEST(Strategies, LemurFeasibleOnCanonicalChainsLowDelta) {
  StrategyFixture fx;
  auto chains = chains_with_delta({1, 2, 3}, 0.5, fx.topo, fx.options);
  auto result = place(Strategy::kLemur, chains, fx.topo, fx.options,
                      fx.oracle);
  ASSERT_TRUE(result.feasible) << result.infeasible_reason;
  EXPECT_GT(result.marginal_gbps(), 0.0);
  for (std::size_t c = 0; c < chains.size(); ++c) {
    EXPECT_GE(result.chains[c].assigned_gbps,
              chains[c].slo.t_min_gbps - 1e-6);
  }
}

TEST(Strategies, SwPreferredCapacityCollapses) {
  StrategyFixture fx;
  auto chains = chains_with_delta({3}, 1.0, fx.topo, fx.options);
  auto sw = place(Strategy::kSwPreferred, chains, fx.topo, fx.options,
                  fx.oracle);
  // Chain 3 in one subgroup with Limiter: ~0.4 Gbps < t_min ~0.63.
  EXPECT_FALSE(sw.feasible);
  auto lemur =
      place(Strategy::kLemur, chains, fx.topo, fx.options, fx.oracle);
  EXPECT_TRUE(lemur.feasible) << lemur.infeasible_reason;
}

TEST(Strategies, LemurAtLeastAsGoodAsBaselines) {
  StrategyFixture fx;
  for (double delta : {0.5, 1.0, 1.5}) {
    auto chains = chains_with_delta({1, 2, 3}, delta, fx.topo, fx.options);
    auto lemur =
        place(Strategy::kLemur, chains, fx.topo, fx.options, fx.oracle);
    for (auto strategy :
         {Strategy::kHwPreferred, Strategy::kSwPreferred,
          Strategy::kMinimumBounce, Strategy::kGreedy}) {
      auto other = place(strategy, chains, fx.topo, fx.options, fx.oracle);
      if (other.feasible) {
        EXPECT_TRUE(lemur.feasible)
            << to_string(strategy) << " feasible but Lemur not at delta "
            << delta;
      }
    }
  }
}

TEST(Strategies, OptimalNotWorseThanLemur) {
  StrategyFixture fx;
  for (double delta : {0.5, 1.5}) {
    auto chains = chains_with_delta({2, 3}, delta, fx.topo, fx.options);
    auto lemur =
        place(Strategy::kLemur, chains, fx.topo, fx.options, fx.oracle);
    auto optimal =
        place(Strategy::kOptimal, chains, fx.topo, fx.options, fx.oracle);
    if (lemur.feasible) {
      ASSERT_TRUE(optimal.feasible) << optimal.infeasible_reason;
      EXPECT_GE(optimal.marginal_gbps(), lemur.marginal_gbps() - 0.25)
          << "delta " << delta;
    }
  }
}

TEST(Strategies, NoCoreAllocationOnlyFeasibleAtLowDelta) {
  StrategyFixture fx;
  auto low = chains_with_delta({1, 2, 3}, 0.5, fx.topo, fx.options);
  auto result = place(Strategy::kNoCoreAllocation, low, fx.topo, fx.options,
                      fx.oracle);
  EXPECT_TRUE(result.feasible) << result.infeasible_reason;
  auto high = chains_with_delta({1, 2, 3}, 2.5, fx.topo, fx.options);
  auto result_high = place(Strategy::kNoCoreAllocation, high, fx.topo,
                           fx.options, fx.oracle);
  EXPECT_FALSE(result_high.feasible);
}

TEST(Strategies, FitToSwitchDemotesUntilOracleAccepts) {
  // A tiny 4-stage switch cannot hold everything HW-preferred wants.
  StrategyFixture fx;
  topo::PisaSwitchSpec tiny;
  tiny.stages = 4;
  EstimateOracle tight(tiny);
  auto chains = chains_with_delta({2}, 0.5, fx.topo, fx.options);
  std::vector<Pattern> patterns = {
      hw_preferred_pattern(chains[0], fx.topo, fx.options)};
  const int stages =
      fit_to_switch(patterns, {true}, chains, fx.topo, fx.options, tight);
  EXPECT_LE(stages, 4);
  auto result = place(Strategy::kLemur, chains, fx.topo, fx.options, tight);
  ASSERT_TRUE(result.feasible) << result.infeasible_reason;
  // The placement's own switch NFs fit the tiny switch.
  std::vector<int> on_switch;
  const auto& nodes = result.chains[0].nodes;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].target == Target::kPisa) {
      on_switch.push_back(static_cast<int>(n));
    }
  }
  const auto check = tight.check(chains, {on_switch});
  EXPECT_TRUE(check.fits) << check.error;
  EXPECT_LE(check.stages_required, 4);
}

/// Records the checks it forwards to the wrapped oracle. With `refuse_until`
/// set it answers "does not fit" to the first that many, so fit_to_switch
/// walks further down its demotion sequence.
class RecordingOracle final : public SwitchOracle {
 public:
  explicit RecordingOracle(SwitchOracle& inner, int refuse_until = 0)
      : inner_(inner), refuse_until_(refuse_until) {}
  Check check(const std::vector<ChainSpec>& chains,
              const std::vector<std::vector<int>>& pisa_nodes) override {
    Check out = inner_.check(chains, pisa_nodes);
    log << out.stages_required << (out.fits ? "+ " : " ");
    if (++calls <= refuse_until_) out.fits = false;
    return out;
  }
  int calls = 0;
  std::ostringstream log;  ///< Stages per check, "+" where it fits.

 private:
  SwitchOracle& inner_;
  int refuse_until_;
};

TEST(Placer, SwitchFitIsFirstFitNotBisection) {
  // With the real compiler, whether a prefix of the demotion sequence fits
  // is not monotone in the prefix length k. The linear scan stops at the
  // first fit, k = 6; a bisection over k = 0..12 can land on k = 12 and
  // demote twice as many NFs.
  auto topo = topo::Topology::multi_server(5, 8);
  topo.smartnics.push_back(topo::SmartNicSpec{});
  const PlacerOptions options;
  auto chains =
      chains_with_delta({2, 4, 1, 5, 3, 4, 2, 2}, 0.3, topo, options);
  metacompiler::CompilerOracle compiler(topo);
  const std::vector<bool> movable(chains.size(), true);
  const auto hw_patterns = [&] {
    std::vector<Pattern> out;
    for (const auto& spec : chains) {
      out.push_back(hw_preferred_pattern(spec, topo, options));
    }
    return out;
  };
  const auto on_switch = [](const std::vector<Pattern>& patterns) {
    int n = 0;
    for (const auto& pattern : patterns) {
      for (const auto& node : pattern) n += node.target == Target::kPisa;
    }
    return n;
  };

  auto patterns = hw_patterns();
  RecordingOracle oracle(compiler);
  EXPECT_EQ(fit_to_switch(patterns, movable, chains, topo, options, oracle),
            12);
  EXPECT_EQ(on_switch(hw_patterns()) - on_switch(patterns), 6);
  EXPECT_EQ(oracle.calls, 7);

  // The stages of every prefix k = 0..12 of the same demotion sequence.
  auto walked = hw_patterns();
  RecordingOracle refusing(compiler, 12);
  fit_to_switch(walked, movable, chains, topo, options, refusing);
  EXPECT_EQ(refusing.log.str(),
            "13 13 13 13 13 13 12+ 13 12+ 13 14 14 11+ ");

  const auto result =
      place(Strategy::kLemur, chains, topo, options, compiler);
  ASSERT_TRUE(result.feasible) << result.infeasible_reason;
  EXPECT_NEAR(result.marginal_gbps(), 58.59, 0.005);
}

/// The dependency analysis written the plain way: string access sets and
/// a linear search per field. pisa::dependency_edges must match it edge
/// for edge, in order.
std::vector<std::pair<int, int>> reference_dependency_edges(
    const pisa::P4Program& prog, bool exclusivity_aware) {
  const auto intersects = [](const std::vector<std::string>& a,
                             const std::vector<std::string>& b) {
    for (const auto& x : a) {
      if (std::find(b.begin(), b.end(), x) != b.end()) return true;
    }
    return false;
  };
  const int n = static_cast<int>(prog.control.size());
  std::vector<pisa::AccessSets> sets;
  for (int i = 0; i < n; ++i) sets.push_back(pisa::access_sets(prog, i));
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const auto& a = sets[static_cast<std::size_t>(i)];
      const auto& b = sets[static_cast<std::size_t>(j)];
      if (!intersects(a.writes, b.reads) && !intersects(a.writes, b.writes) &&
          !intersects(a.reads, b.writes)) {
        continue;
      }
      if (exclusivity_aware &&
          pisa::guards_mutually_exclusive(
              prog.control[static_cast<std::size_t>(i)].guard,
              prog.control[static_cast<std::size_t>(j)].guard)) {
        continue;
      }
      edges.emplace_back(i, j);
    }
  }
  return edges;
}

/// Composes the program of every check it is asked, as CompilerOracle
/// does, compares its dependency edges in both exclusivity modes against
/// the reference, and refuses every check so fit_to_switch walks its
/// whole demotion sequence.
class EdgeDiffOracle final : public SwitchOracle {
 public:
  Check check(const std::vector<ChainSpec>& chains,
              const std::vector<std::vector<int>>& pisa_nodes) override {
    std::vector<metacompiler::ChainRouting> routings;
    for (std::size_t c = 0; c < chains.size(); ++c) {
      Pattern pattern(chains[c].graph.nodes().size());
      for (int id : pisa_nodes[c]) {
        pattern[static_cast<std::size_t>(id)].target = Target::kPisa;
      }
      routings.push_back(metacompiler::build_routing(
          chains[c], pattern, static_cast<int>(c)));
    }
    const auto artifact =
        metacompiler::compose_p4(chains, routings, metacompiler::PortMap{});
    EXPECT_TRUE(artifact.ok()) << artifact.error;
    for (const bool aware : {true, false}) {
      const auto edges = pisa::dependency_edges(artifact.program, aware);
      EXPECT_EQ(edges, reference_dependency_edges(artifact.program, aware))
          << "check " << programs << ", exclusivity_aware " << aware;
      edge_count += edges.size();
    }
    ++programs;
    return Check{};
  }
  int programs = 0;
  std::size_t edge_count = 0;
};

TEST(Placer, DependencyEdgesMatchReferenceOnEveryFitPrefix) {
  const PlacerOptions options;
  const auto walk = [&](const std::vector<int>& numbers, double delta,
                        int servers) {
    auto topo = topo::Topology::multi_server(servers, 8);
    topo.smartnics.push_back(topo::SmartNicSpec{});
    const auto chains = chains_with_delta(numbers, delta, topo, options);
    std::vector<Pattern> patterns;
    for (const auto& spec : chains) {
      patterns.push_back(hw_preferred_pattern(spec, topo, options));
    }
    EdgeDiffOracle diff;
    EXPECT_EQ(fit_to_switch(patterns, std::vector<bool>(chains.size(), true),
                            chains, topo, options, diff),
              -1);
    EXPECT_GT(diff.edge_count, 0u);
    return diff.programs;
  };
  // rackbench's pop-scale input, and SwitchFitIsFirstFitNotBisection's.
  std::vector<int> pop;
  for (int i = 0; i < 6; ++i) pop.insert(pop.end(), {2, 3, 4, 5});
  EXPECT_EQ(walk(pop, 0.5, 6), 97);
  EXPECT_EQ(walk({2, 4, 1, 5, 3, 4, 2, 2}, 0.3, 5), 38);
}

TEST(Strategies, HwPreferredInfeasibleOnTinySwitch) {
  StrategyFixture fx;
  topo::PisaSwitchSpec tiny;
  tiny.stages = 4;
  EstimateOracle tight(tiny);
  auto chains = chains_with_delta({2}, 0.5, fx.topo, fx.options);
  auto result =
      place(Strategy::kHwPreferred, chains, fx.topo, fx.options, tight);
  EXPECT_FALSE(result.feasible);
  EXPECT_NE(result.infeasible_reason.find("stages"), std::string::npos);
}

TEST(Strategies, SmartNicOffloadBeatsServerOnly) {
  PlacerOptions options;
  EstimateOracle oracle{topo::PisaSwitchSpec{}};
  auto with_nic = topo::Topology::lemur_testbed_with_smartnic();
  auto without = topo::Topology::lemur_testbed();
  auto chains = chains_with_delta({5}, 1.0, with_nic, options);
  auto nic_result =
      place(Strategy::kLemur, chains, with_nic, options, oracle);
  auto srv_result = place(Strategy::kLemur, chains, without, options, oracle);
  ASSERT_TRUE(nic_result.feasible) << nic_result.infeasible_reason;
  ASSERT_TRUE(srv_result.feasible) << srv_result.infeasible_reason;
  EXPECT_GT(nic_result.aggregate_gbps, srv_result.aggregate_gbps);
  EXPECT_FALSE(nic_result.nic_nfs.empty());
}

TEST(Strategies, MultiServerRaisesCapacity) {
  PlacerOptions options;
  EstimateOracle oracle{topo::PisaSwitchSpec{}};
  auto one = topo::Topology::multi_server(1, 8);
  auto two = topo::Topology::multi_server(2, 8);
  auto chains = chains_with_delta({1, 2, 3}, 0.5, one, options);
  auto r1 = place(Strategy::kLemur, chains, one, options, oracle);
  auto r2 = place(Strategy::kLemur, chains, two, options, oracle);
  ASSERT_TRUE(r2.feasible) << r2.infeasible_reason;
  if (r1.feasible) {
    EXPECT_GE(r2.aggregate_gbps, r1.aggregate_gbps - 1e-6);
  }
}

TEST(Strategies, PlacementTimeRecorded) {
  StrategyFixture fx;
  auto chains = chains_with_delta({3}, 0.5, fx.topo, fx.options);
  auto result =
      place(Strategy::kLemur, chains, fx.topo, fx.options, fx.oracle);
  EXPECT_GT(result.placement_seconds, 0.0);
  EXPECT_LT(result.placement_seconds, 10.0);
}

// --- Incremental re-placement ----------------------------------------------------

std::vector<int> all_chains(std::size_t n) {
  std::vector<int> out;
  for (std::size_t c = 0; c < n; ++c) out.push_back(static_cast<int>(c));
  return out;
}

TEST(Incremental, AllAffectedOnHealthyRackMatchesPlace) {
  // With every chain affected and nothing failed, re-placement starts from
  // the same patterns and may move every chain, so it must decide exactly
  // what place(kLemur) decides (these inputs carry no latency bound, so
  // place()'s latency repair never runs). delta 2.0 adds infeasible cases,
  // which must stay infeasible.
  const PlacerOptions options;
  const std::vector<std::vector<int>> sets = {{1}, {2, 3}, {1, 2, 3, 4},
                                              {3, 5}};
  const std::vector<topo::Topology> topos = {
      topo::Topology::multi_server(1, 8), topo::Topology::multi_server(2, 8),
      topo::Topology::multi_server(4, 8),
      topo::Topology::lemur_testbed_with_smartnic()};
  int feasible = 0;
  for (const auto& topo : topos) {
    for (const auto& set : sets) {
      for (const double delta : {0.3, 0.9, 2.0}) {
        SCOPED_TRACE(::testing::Message()
                     << "servers=" << topo.servers.size() << " smartnics="
                     << topo.smartnics.size() << " chains=" << set.size()
                     << " first=" << set.front() << " delta=" << delta);
        const auto chains = chains_with_delta(set, delta, topo, options);
        metacompiler::CompilerOracle compiler(topo);
        const auto placed =
            place(Strategy::kLemur, chains, topo, options, compiler);
        CachingOracle cached(compiler);
        const auto replaced = replace_incremental(
            chains, topo, placed, all_chains(chains.size()), options, cached);
        ASSERT_EQ(replaced.feasible, placed.feasible)
            << replaced.infeasible_reason << " / " << placed.infeasible_reason;
        if (!placed.feasible) continue;
        ++feasible;
        ASSERT_EQ(replaced.chains.size(), placed.chains.size());
        for (std::size_t c = 0; c < placed.chains.size(); ++c) {
          const auto& want = placed.chains[c].nodes;
          const auto& got = replaced.chains[c].nodes;
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t n = 0; n < want.size(); ++n) {
            EXPECT_EQ(got[n].target, want[n].target) << "chain " << c;
            EXPECT_EQ(got[n].smartnic, want[n].smartnic) << "chain " << c;
          }
        }
        ASSERT_EQ(replaced.subgroups.size(), placed.subgroups.size());
        for (std::size_t g = 0; g < placed.subgroups.size(); ++g) {
          EXPECT_EQ(replaced.subgroups[g].nodes, placed.subgroups[g].nodes);
          EXPECT_EQ(replaced.subgroups[g].server, placed.subgroups[g].server);
          EXPECT_EQ(replaced.subgroups[g].cores, placed.subgroups[g].cores);
        }
        EXPECT_DOUBLE_EQ(replaced.aggregate_gbps, placed.aggregate_gbps);
      }
    }
  }
  EXPECT_GT(feasible, 0);
}

TEST(Incremental, NoAffectedChainKeepsItsPattern) {
  StrategyFixture fx;
  auto chains = chains_with_delta({1, 2, 3}, 0.5, fx.topo, fx.options);
  const auto placed =
      place(Strategy::kLemur, chains, fx.topo, fx.options, fx.oracle);
  ASSERT_TRUE(placed.feasible) << placed.infeasible_reason;
  CachingOracle cached(fx.oracle);
  const auto replaced =
      replace_incremental(chains, fx.topo, placed, {}, fx.options, cached);
  ASSERT_TRUE(replaced.feasible) << replaced.infeasible_reason;
  EXPECT_EQ(replaced.strategy, placed.strategy);
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const auto& want = placed.chains[c].nodes;
    const auto& got = replaced.chains[c].nodes;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t n = 0; n < want.size(); ++n) {
      EXPECT_EQ(got[n].target, want[n].target) << "chain " << c;
    }
  }
}

TEST(Incremental, UnaffectedChainsAreNeverDemoted) {
  // A placement decided on the full switch does not fit a 4-stage one;
  // with no affected chain, nothing may be demoted to make it fit.
  StrategyFixture fx;
  auto chains = chains_with_delta({2}, 0.5, fx.topo, fx.options);
  const auto placed =
      place(Strategy::kLemur, chains, fx.topo, fx.options, fx.oracle);
  ASSERT_TRUE(placed.feasible) << placed.infeasible_reason;
  topo::PisaSwitchSpec tiny;
  tiny.stages = 4;
  EstimateOracle tight(tiny);
  const auto replaced =
      replace_incremental(chains, fx.topo, placed, {}, fx.options, tight);
  EXPECT_FALSE(replaced.feasible);
  EXPECT_EQ(replaced.infeasible_reason,
            "incremental re-place: affected chains cannot shrink the switch "
            "program further");
  EXPECT_EQ(replaced.strategy, placed.strategy);
}

// Property: for every strategy that reports feasible, the assigned rates
// satisfy t_min and capacity, and marginal >= 0.
class StrategyInvariants
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(StrategyInvariants, FeasibleImpliesSloSatisfied) {
  const auto strategy = static_cast<Strategy>(std::get<0>(GetParam()));
  const double delta = std::get<1>(GetParam());
  StrategyFixture fx;
  auto chains = chains_with_delta({2, 3}, delta, fx.topo, fx.options);
  auto result = place(strategy, chains, fx.topo, fx.options, fx.oracle);
  if (!result.feasible) return;
  EXPECT_GE(result.marginal_gbps(), -1e-6);
  for (std::size_t c = 0; c < chains.size(); ++c) {
    EXPECT_GE(result.chains[c].assigned_gbps,
              chains[c].slo.t_min_gbps - 1e-6);
    EXPECT_LE(result.chains[c].assigned_gbps,
              result.chains[c].capacity_gbps + 1e-6);
    EXPECT_LE(result.chains[c].assigned_gbps,
              chains[c].slo.t_max_gbps + 1e-6);
  }
  int total_cores = 0;
  for (const auto& g : result.subgroups) total_cores += g.cores;
  EXPECT_LE(total_cores, fx.topo.total_cores());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyInvariants,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(0.5, 1.0, 2.0)));

}  // namespace
}  // namespace lemur::placer
