// Tests for the deployment verifier (src/verify): one negative test per
// rule of the catalogue — corrupt a single artifact, assert exactly that
// rule fires — plus clean-placement sweeps, the Testbed's refusal to
// deploy artifacts with error findings, and the metacompiler opt-out.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/chain/canonical.h"
#include "src/metacompiler/metacompiler.h"
#include "src/metacompiler/pisa_oracle.h"
#include "src/openflow/of_switch.h"
#include "src/placer/placer.h"
#include "src/runtime/testbed.h"
#include "src/verify/verifier.h"

namespace lemur::verify {
namespace {

enum class Extras { kNone, kSmartNic, kOpenFlow };

/// A placed + compiled canonical deployment whose artifacts the tests
/// corrupt before re-running the verifier. Compilation itself runs with
/// the verifier disabled so each test exercises verify_artifacts()
/// directly on its own mutated copy.
struct Deployment {
  topo::Topology topo = topo::Topology::lemur_testbed();
  std::vector<chain::ChainSpec> chains;
  placer::PlacementResult placement;
  metacompiler::CompiledArtifacts artifacts;

  [[nodiscard]] Report verify() const {
    return verify_artifacts(chains, placement, artifacts, topo);
  }
};

Deployment compile_canonical(const std::vector<int>& numbers,
                             Extras extras = Extras::kNone,
                             double delta = 0.5) {
  Deployment d;
  placer::PlacerOptions options;
  if (extras == Extras::kSmartNic) {
    d.topo.smartnics.push_back(topo::SmartNicSpec{});
  }
  if (extras == Extras::kOpenFlow) {
    d.topo.openflow = topo::OpenFlowSwitchSpec{};
    options.disable_pisa_nfs = true;
  }
  d.chains = chain::canonical_chains(numbers);
  placer::apply_delta(d.chains, delta, d.topo.servers.front(), options);
  metacompiler::CompilerOracle oracle(d.topo);
  d.placement = placer::place(placer::Strategy::kLemur, d.chains, d.topo,
                              options, oracle);
  EXPECT_TRUE(d.placement.feasible) << d.placement.infeasible_reason;
  d.artifacts = metacompiler::compile(d.chains, d.placement, d.topo,
                                      {.run_verifier = false});
  EXPECT_TRUE(d.artifacts.ok) << d.artifacts.error;
  return d;
}

/// First segment exit that hands off to another segment (not egress).
metacompiler::SegmentExit* find_internal_exit(
    metacompiler::ChainRouting& routing) {
  for (auto& seg : routing.segments) {
    for (auto& exit : seg.exits) {
      if (exit.next_segment >= 0) return &exit;
    }
  }
  return nullptr;
}

// --- Clean placements verify clean ------------------------------------------

TEST(VerifierClean, CanonicalPlacementVerifiesClean) {
  auto d = compile_canonical({2});
  const auto report = d.verify();
  EXPECT_TRUE(report.diagnostics.empty()) << report.to_string();
  EXPECT_FALSE(report.has_errors());
  EXPECT_EQ(report.rules_checked,
            static_cast<int>(rule_catalogue().size()));
}

TEST(VerifierClean, SweepAcrossTopologiesAndDeltas) {
  struct Config {
    std::vector<int> numbers;
    Extras extras;
  };
  const std::vector<Config> configs = {
      {{1}, Extras::kNone},          {{2}, Extras::kNone},
      {{1, 3}, Extras::kNone},       {{1, 2, 3}, Extras::kNone},
      {{5}, Extras::kSmartNic},      {{4}, Extras::kSmartNic},
      {{1, 3}, Extras::kOpenFlow},   {{3}, Extras::kOpenFlow},
  };
  for (const auto& config : configs) {
    for (double delta : {0.25, 0.5}) {
      auto d = compile_canonical(config.numbers, config.extras, delta);
      if (!d.placement.feasible || !d.artifacts.ok) continue;
      const auto report = d.verify();
      EXPECT_TRUE(report.diagnostics.empty())
          << "delta " << delta << ": " << report.to_string();
    }
  }
}

// --- NSH routing continuity ---------------------------------------------------

TEST(VerifierNsh, DanglingExitTargetsMissingSegment) {
  auto d = compile_canonical({2});
  auto* exit = find_internal_exit(d.artifacts.routings[0]);
  ASSERT_NE(exit, nullptr);
  exit->next_segment = 99;
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("nsh.dangling-exit")) << report.to_string();
  EXPECT_TRUE(report.has_errors());
}

TEST(VerifierNsh, DanglingExitTargetsNonEntryNode) {
  auto d = compile_canonical({2});
  auto* exit = find_internal_exit(d.artifacts.routings[0]);
  ASSERT_NE(exit, nullptr);
  exit->next_entry_node = 1000;  // No segment has an entry at this node.
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("nsh.dangling-exit")) << report.to_string();
}

TEST(VerifierNsh, SegmentWithoutEntryPoint) {
  auto d = compile_canonical({2});
  ASSERT_FALSE(d.artifacts.routings[0].segments.empty());
  d.artifacts.routings[0].segments[0].entries.clear();
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("nsh.missing-entry")) << report.to_string();
}

TEST(VerifierNsh, EntryWithForeignSpi) {
  auto d = compile_canonical({2});
  auto& seg = d.artifacts.routings[0].segments[0];
  ASSERT_FALSE(seg.entries.empty());
  seg.entries[0].spi = 42;  // Chain SPI is chain_index + 1.
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("nsh.spi-mismatch")) << report.to_string();
}

TEST(VerifierNsh, ServiceIndexMustStrictlyDecrease) {
  auto d = compile_canonical({2});
  auto& routing = d.artifacts.routings[0];
  auto* exit = find_internal_exit(routing);
  ASSERT_NE(exit, nullptr);
  auto& next =
      routing.segments[static_cast<std::size_t>(exit->next_segment)];
  for (auto& entry : next.entries) {
    if (entry.node == exit->next_entry_node) entry.si = 200;
  }
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("nsh.si-order")) << report.to_string();
}

TEST(VerifierNsh, UnreachableSegmentIsAnOrphan) {
  auto d = compile_canonical({2});
  auto& routing = d.artifacts.routings[0];
  metacompiler::Segment stray;
  stray.id = static_cast<int>(routing.segments.size());
  stray.chain = routing.chain;
  stray.target = placer::Target::kServer;
  stray.nodes = {0};
  stray.entries.push_back(
      metacompiler::SegmentEntry{0, routing.spi, 1});
  routing.segments.push_back(std::move(stray));
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("nsh.orphan-segment")) << report.to_string();
}

TEST(VerifierNsh, LoopWithNoPathToEgress) {
  auto d = compile_canonical({2});
  auto& routing = d.artifacts.routings[0];
  const auto& ingress = routing.ingress_segment();
  ASSERT_FALSE(ingress.entries.empty());
  // Retarget every egress exit back to the ingress entry: the service
  // path becomes a loop that never leaves the fabric.
  for (auto& seg : routing.segments) {
    for (auto& exit : seg.exits) {
      if (exit.next_segment < 0) {
        exit.next_segment = ingress.id;
        exit.next_entry_node = ingress.entries.front().node;
      }
    }
  }
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("nsh.no-egress")) << report.to_string();
}

// --- Cross-artifact hand-offs -------------------------------------------------

TEST(VerifierHandoff, NicProgramWithWrongServicePath) {
  auto d = compile_canonical({5}, Extras::kSmartNic);
  ASSERT_FALSE(d.artifacts.nic_programs.empty());
  d.artifacts.nic_programs[0].si_out =
      static_cast<std::uint8_t>(d.artifacts.nic_programs[0].si_out + 1);
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("handoff.spi-si-mismatch")) << report.to_string();
}

TEST(VerifierHandoff, NicArtifactForUnknownSmartNic) {
  auto d = compile_canonical({5}, Extras::kSmartNic);
  ASSERT_FALSE(d.artifacts.nic_programs.empty());
  d.artifacts.nic_programs[0].smartnic = 3;  // The rack has one SmartNIC.
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("handoff.unknown-device")) << report.to_string();
}

TEST(VerifierHandoff, SmartNicAttachedToUnknownServer) {
  auto d = compile_canonical({5}, Extras::kSmartNic);
  ASSERT_FALSE(d.artifacts.nic_programs.empty());
  d.topo.smartnics[0].attached_server = 5;  // The rack has one server.
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("handoff.unknown-device")) << report.to_string();
}

TEST(VerifierHandoff, OfArtifactForNodeNotPlacedOnOpenFlow) {
  auto d = compile_canonical({2});
  metacompiler::OfArtifact bogus;
  bogus.chain = 0;
  bogus.node = 0;  // Placed on PISA/server, never OpenFlow here.
  d.artifacts.of_rules.push_back(std::move(bogus));
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("handoff.spi-si-mismatch")) << report.to_string();
}

TEST(VerifierHandoff, VidCannotEncodeLargeSpi) {
  auto d = compile_canonical({1, 3}, Extras::kOpenFlow);
  ASSERT_FALSE(d.artifacts.of_rules.empty());
  auto& of = d.artifacts.of_rules[0];
  of.spi_in = 999;  // Beyond the 6-bit vid budget.
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("handoff.vid-overflow")) << report.to_string();
}

TEST(VerifierHandoff, StoredVidDivergesFromServicePath) {
  auto d = compile_canonical({1, 3}, Extras::kOpenFlow);
  ASSERT_FALSE(d.artifacts.of_rules.empty());
  auto& of = d.artifacts.of_rules[0];
  of.vid_in = static_cast<std::uint16_t>(of.vid_in + 1);
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("handoff.vid-mismatch")) << report.to_string();
}

TEST(VerifierHandoff, CheckedPackingRejectsOverflow) {
  EXPECT_EQ(openflow::checked_pack_spi_si(1, 63),
            std::optional<std::uint16_t>(((1u & 0x3f) << 6) | 63u));
  EXPECT_EQ(openflow::checked_pack_spi_si(64, 0), std::nullopt);
  EXPECT_EQ(openflow::checked_pack_spi_si(0, 64), std::nullopt);
}

// --- SmartNIC programs --------------------------------------------------------

/// A program the eBPF verifier rejects: it writes the frame pointer.
nic::Program frame_pointer_write() {
  return {{nic::Op::kMovImm, nic::Reg::kR10, nic::Reg::kR0, 0, 0},
          {nic::Op::kExit}};
}

TEST(VerifierNic, ProgramThatFailsTheEbpfVerifier) {
  auto d = compile_canonical({5}, Extras::kSmartNic);
  ASSERT_FALSE(d.artifacts.nic_programs.empty());
  d.artifacts.nic_programs.back().program = frame_pointer_write();
  const auto report = d.verify();
  ASSERT_TRUE(report.fired("nic.program-verifies")) << report.to_string();
  EXPECT_EQ(report.count(Severity::kError), 1) << report.to_string();
  EXPECT_NE(report.find("nic.program-verifies")->locus.find("nic artifact"),
            std::string::npos);
}

TEST(VerifierNic, GeneratedProgramsPass) {
  auto d = compile_canonical({5}, Extras::kSmartNic);
  ASSERT_FALSE(d.artifacts.nic_programs.empty());
  EXPECT_FALSE(d.verify().fired("nic.program-verifies"));
}

// --- P4 re-audit --------------------------------------------------------------

TEST(VerifierP4, UncompiledProgramIsRejected) {
  auto d = compile_canonical({2});
  d.artifacts.p4.compiled.ok = false;
  d.artifacts.p4.compiled.error.clear();
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("p4.compile-failed")) << report.to_string();
}

TEST(VerifierP4, DependencyEdgeCountDivergence) {
  auto d = compile_canonical({2});
  d.artifacts.p4.compiled.stats.dependency_edges += 1;
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("p4.dependency-divergence")) << report.to_string();
}

TEST(VerifierP4, ReversedStagesViolateDependencyOrder) {
  auto d = compile_canonical({2});
  auto& stages = d.artifacts.p4.compiled.stages;
  ASSERT_GT(stages.size(), 1u);
  std::reverse(stages.begin(), stages.end());
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("p4.dependency-order")) << report.to_string();
}

TEST(VerifierP4, StageMemoryAccountingDivergence) {
  auto d = compile_canonical({2});
  ASSERT_FALSE(d.artifacts.p4.compiled.stages.empty());
  d.artifacts.p4.compiled.stages[0].sram_bytes += 1;
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("p4.stage-overbudget")) << report.to_string();
}

TEST(VerifierP4, RuntimeEntryIntoUnknownTable) {
  auto d = compile_canonical({2});
  d.artifacts.p4.entries.emplace_back("no_such_table",
                                      pisa::TableEntry{});
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("p4.entry-unknown-table")) << report.to_string();
}

/// Copies `table`'s first runtime entry until the table holds one more
/// entry than it provisions.
void overfill_table(metacompiler::P4Artifact& p4, const std::string& table) {
  const auto& def = p4.program.table(p4.program.find_table(table));
  const auto first = std::find_if(
      p4.entries.begin(), p4.entries.end(),
      [&](const auto& e) { return e.first == table; });
  ASSERT_NE(first, p4.entries.end());
  const pisa::TableEntry entry = first->second;
  const auto held = std::count_if(
      p4.entries.begin(), p4.entries.end(),
      [&](const auto& e) { return e.first == table; });
  for (auto n = held; n <= def.size; ++n) p4.entries.emplace_back(table, entry);
}

TEST(VerifierP4, EntriesBeyondTableSize) {
  auto d = compile_canonical({2});
  EXPECT_FALSE(d.verify().fired("p4.table-capacity"));
  overfill_table(d.artifacts.p4, "lemur_steer");
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("p4.table-capacity")) << report.to_string();
  EXPECT_FALSE(report.fired("p4.entry-unknown-table")) << report.to_string();
}

// --- BESS plan sanity ---------------------------------------------------------

TEST(VerifierBess, ModulesNotConnectedByChainEdges) {
  auto d = compile_canonical({2});
  ASSERT_FALSE(d.artifacts.server_plans.empty());
  auto& plan = d.artifacts.server_plans[0];
  ASSERT_FALSE(plan.segments.empty());
  plan.segments[0].nodes = {0, 0};  // No chain edge 0 -> 0.
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("bess.broken-pipeline")) << report.to_string();
}

TEST(VerifierBess, CoreClaimBeyondServerBudget) {
  auto d = compile_canonical({2});
  auto& plan = d.artifacts.server_plans[0];
  ASSERT_FALSE(plan.segments.empty());
  plan.segments[0].replica_cores.assign(1000, 1);
  plan.segments[0].core_group = -1;
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("bess.core-overallocation")) << report.to_string();
}

TEST(VerifierBess, DemuxCoreCounted) {
  // Worker claims that fill every core leave none for core 0's shared
  // demultiplexer (appendix A.1.2), so the plan over-books the server.
  auto d = compile_canonical({2});
  auto& plan = d.artifacts.server_plans[0];
  ASSERT_FALSE(plan.segments.empty());
  const int cores = d.topo.servers[0].total_cores();
  const int others = static_cast<int>(plan.segments.size()) - 1;
  ASSERT_LT(others, cores);
  for (auto& seg : plan.segments) {
    seg.core_group = -1;
    seg.replica_cores = {1};
  }
  plan.segments[0].replica_cores.assign(
      static_cast<std::size_t>(cores - others), 1);
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("bess.core-overallocation")) << report.to_string();
}

TEST(VerifierBess, ReplicaScheduledPastTheLastCore) {
  auto d = compile_canonical({2});
  auto& plan = d.artifacts.server_plans[0];
  ASSERT_FALSE(plan.segments.empty());
  ASSERT_FALSE(plan.segments[0].replica_cores.empty());
  plan.segments[0].replica_cores[0] = d.topo.servers[0].total_cores();
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("bess.core-overallocation")) << report.to_string();
}

TEST(VerifierBess, WorkerReplicaOnTheDemuxCore) {
  // Core 0 runs the shared demultiplexer; the core count still fits, so
  // only the core each replica is on shows the overlap.
  auto d = compile_canonical({2});
  auto& plan = d.artifacts.server_plans[0];
  ASSERT_FALSE(plan.segments.empty());
  auto& cores = plan.segments[0].replica_cores;
  ASSERT_FALSE(cores.empty());
  std::fill(cores.begin(), cores.end(), 0);
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("bess.core-overallocation")) << report.to_string();
}

TEST(VerifierBess, DedicatedReplicasStackedOnOneCore) {
  // The fig2 rack claims no more cores than the server has; putting every
  // dedicated replica on core 1 keeps the count and shares one core.
  auto d = compile_canonical({1, 2, 3, 4}, Extras::kNone, 0.9);
  ASSERT_FALSE(d.verify().has_errors());
  int dedicated = 0;
  for (auto& plan : d.artifacts.server_plans) {
    for (auto& seg : plan.segments) {
      if (seg.core_group >= 0) continue;
      std::fill(seg.replica_cores.begin(), seg.replica_cores.end(), 1);
      dedicated += seg.replicas();
    }
  }
  ASSERT_GT(dedicated, 1);
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("bess.core-overallocation")) << report.to_string();
}

TEST(VerifierBess, SharedGroupMemberOnADedicatedCore) {
  // Chain 4 packs its non-replicable subgroups onto one shared core.
  // Moving one member onto a dedicated replica's core splits the group
  // and doubles up that core, while every count stays as it was.
  auto d = compile_canonical({4});
  ASSERT_FALSE(d.verify().has_errors());
  auto& segments = d.artifacts.server_plans[0].segments;
  const auto member =
      std::find_if(segments.begin(), segments.end(),
                   [](const auto& s) { return s.core_group >= 0; });
  const auto dedicated = std::find_if(
      segments.begin(), segments.end(),
      [](const auto& s) { return s.core_group < 0 && s.replicas() > 0; });
  ASSERT_NE(member, segments.end());
  ASSERT_NE(dedicated, segments.end());
  member->replica_cores = {dedicated->replica_cores[0]};
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("bess.core-overallocation")) << report.to_string();
  const std::string text = report.to_string();
  EXPECT_NE(text.find("spans 2 cores"), std::string::npos) << text;
  EXPECT_NE(text.find("runs 2 workers"), std::string::npos) << text;
}

TEST(VerifierBess, CoreSharingNotAuthorizedByPlacer) {
  auto d = compile_canonical({2});
  auto& plan = d.artifacts.server_plans[0];
  ASSERT_FALSE(plan.segments.empty());
  plan.segments[0].core_group += 8;  // A group the Placer never formed.
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("bess.core-group-conflict")) << report.to_string();
}

TEST(VerifierBess, ExitToNonexistentEndpoint) {
  auto d = compile_canonical({2});
  auto& plan = d.artifacts.server_plans[0];
  ASSERT_FALSE(plan.segments.empty());
  ASSERT_FALSE(plan.segments[0].exits.empty());
  plan.segments[0].exits[0].spi = 9;
  plan.segments[0].exits[0].si = 77;
  const auto report = d.verify();
  EXPECT_TRUE(report.fired("bess.exit-unknown-endpoint")) << report.to_string();
}

// --- SLO lint (warnings, never deploy-blocking) -------------------------------

TEST(VerifierSlo, LatencyBeyondBudgetWarns) {
  auto d = compile_canonical({2});
  d.chains[0].slo = d.chains[0].slo.with_latency(1e-6);
  const auto report = d.verify();
  const auto* finding = report.find("slo.latency-budget");
  ASSERT_NE(finding, nullptr) << report.to_string();
  EXPECT_EQ(finding->severity, Severity::kWarning);
  EXPECT_FALSE(report.has_errors());
}

TEST(VerifierSlo, TminBeyondCapacityWarns) {
  auto d = compile_canonical({2});
  d.chains[0].slo.t_min_gbps = 1e6;
  const auto report = d.verify();
  const auto* finding = report.find("slo.tmin-capacity");
  ASSERT_NE(finding, nullptr) << report.to_string();
  EXPECT_EQ(finding->severity, Severity::kWarning);
  EXPECT_FALSE(report.has_errors());
}

// --- Failed elements ----------------------------------------------------------

TEST(VerifierFailedElement, PlanOntoFailedServerIsRejected) {
  auto d = compile_canonical({2});
  // Find a server the placement actually uses and mark it failed without
  // re-placing — exactly the stale plan a recovery bug would deploy.
  int used_server = -1;
  for (const auto& g : d.placement.subgroups) used_server = g.server;
  ASSERT_GE(used_server, 0);
  d.topo.servers[static_cast<std::size_t>(used_server)].failed = true;
  const auto report = d.verify();
  const auto* finding = report.find("place.failed-element");
  ASSERT_NE(finding, nullptr) << report.to_string();
  EXPECT_EQ(finding->severity, Severity::kError);
  EXPECT_TRUE(report.has_errors());
}

TEST(VerifierFailedElement, PlanOntoFailedSmartNicIsRejected) {
  // Chain 5 at delta 4 offloads FastEncrypt to the SmartNIC (fig 3b).
  auto d = compile_canonical({5}, Extras::kSmartNic, 4.0);
  ASSERT_FALSE(d.placement.nic_nfs.empty())
      << "placement offloaded nothing to the SmartNIC";
  d.topo.smartnics[0].failed = true;
  const auto report = d.verify();
  const auto* finding = report.find("place.failed-element");
  ASSERT_NE(finding, nullptr) << report.to_string();
  EXPECT_EQ(finding->severity, Severity::kError);
}

TEST(VerifierFailedElement, NicProgramOntoFailedSmartNicIsRejected) {
  // The placement moves the NIC NF to a healthy second SmartNIC, but the
  // stale program still loads onto the failed first one.
  auto d = compile_canonical({5}, Extras::kSmartNic, 4.0);
  ASSERT_EQ(d.artifacts.nic_programs.size(), 1u);
  ASSERT_EQ(d.artifacts.nic_programs[0].smartnic, 0);
  d.topo.smartnics.push_back(topo::SmartNicSpec{});
  d.topo.smartnics[0].failed = true;
  for (auto& a : d.placement.nic_nfs) a.smartnic = 1;
  for (auto& chain : d.placement.chains) {
    for (auto& np : chain.nodes) {
      if (np.target == placer::Target::kSmartNic) np.smartnic = 1;
    }
  }
  const auto report = d.verify();
  int fired = 0;
  for (const auto& finding : report.diagnostics) {
    if (finding.rule != "place.failed-element") continue;
    ++fired;
    EXPECT_NE(finding.locus.find("nic artifact"), std::string::npos)
        << finding.locus;
  }
  EXPECT_EQ(fired, 1) << report.to_string();
}

TEST(VerifierFailedElement, CleanPlanOnHealthyRackDoesNotFire) {
  auto d = compile_canonical({2});
  const auto report = d.verify();
  EXPECT_FALSE(report.fired("place.failed-element")) << report.to_string();
}

// --- Pipeline integration -----------------------------------------------------

TEST(VerifierPipeline, MetacompilerVerifiesByDefault) {
  auto d = compile_canonical({2});
  auto artifacts = metacompiler::compile(d.chains, d.placement, d.topo);
  ASSERT_TRUE(artifacts.ok) << artifacts.error;
  EXPECT_EQ(artifacts.verification.rules_checked,
            static_cast<int>(rule_catalogue().size()));
  EXPECT_TRUE(artifacts.verification.diagnostics.empty())
      << artifacts.verification.to_string();
}

TEST(VerifierPipeline, MetacompilerOptOutSkipsVerification) {
  auto d = compile_canonical({2});
  EXPECT_EQ(d.artifacts.verification.rules_checked, 0);
  EXPECT_TRUE(d.artifacts.verification.diagnostics.empty());
}

TEST(VerifierPipeline, TestbedRefusesCorruptArtifacts) {
  auto d = compile_canonical({2});
  auto* exit = find_internal_exit(d.artifacts.routings[0]);
  ASSERT_NE(exit, nullptr);
  exit->next_segment = 99;
  runtime::Testbed testbed(d.chains, d.placement, d.artifacts, d.topo);
  EXPECT_FALSE(testbed.ok());
  EXPECT_NE(testbed.error().find("verifier"), std::string::npos)
      << testbed.error();
}

TEST(VerifierPipeline, TestbedRefusesArtifactForUnknownSmartNic) {
  auto d = compile_canonical({5}, Extras::kSmartNic);
  ASSERT_FALSE(d.artifacts.nic_programs.empty());
  d.artifacts.nic_programs[0].smartnic = 3;
  runtime::Testbed testbed(d.chains, d.placement, d.artifacts, d.topo);
  EXPECT_FALSE(testbed.ok());
  EXPECT_NE(testbed.error().find("handoff.unknown-device"), std::string::npos)
      << testbed.error();
}

TEST(VerifierPipeline, TestbedRefusesNicProgramThatFailsVerification) {
  auto d = compile_canonical({5}, Extras::kSmartNic);
  ASSERT_FALSE(d.artifacts.nic_programs.empty());
  d.artifacts.nic_programs.back().program = frame_pointer_write();
  runtime::Testbed testbed(d.chains, d.placement, d.artifacts, d.topo);
  EXPECT_FALSE(testbed.ok());
  EXPECT_NE(testbed.error().find("nic.program-verifies"), std::string::npos)
      << testbed.error();
}

TEST(VerifierPipeline, TestbedRefusesOverfullTableBeforeDeploy) {
  auto d = compile_canonical({2});
  overfill_table(d.artifacts.p4, "lemur_steer");
  runtime::Testbed testbed(d.chains, d.placement, d.artifacts, d.topo);
  EXPECT_FALSE(testbed.ok());
  // Rejected by the verifier, not by the switch's add_entry at deploy.
  EXPECT_NE(testbed.error().find("p4.table-capacity"), std::string::npos)
      << testbed.error();
}

TEST(VerifierPipeline, TestbedDeploysCleanArtifacts) {
  auto d = compile_canonical({2});
  runtime::Testbed testbed(d.chains, d.placement, d.artifacts, d.topo);
  EXPECT_TRUE(testbed.ok()) << testbed.error();
}

TEST(VerifierPipeline, RuleCatalogueCoversAllFamilies) {
  const auto& rules = rule_catalogue();
  EXPECT_GE(rules.size(), 10u);
  for (const char* family :
       {"nsh.", "handoff.", "nic.", "p4.", "bess.", "slo."}) {
    const bool covered = std::any_of(
        rules.begin(), rules.end(), [family](const RuleInfo& r) {
          return std::string(r.id).rfind(family, 0) == 0;
        });
    EXPECT_TRUE(covered) << "no rules in family " << family;
  }
}

}  // namespace
}  // namespace lemur::verify
