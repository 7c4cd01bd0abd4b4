// The metacompiler's top level (paper section 4): from chain specs plus a
// Placer result, produce every artifact needed to run the chains across
// the rack — the unified P4 program and its table entries, per-server
// BESS plans, SmartNIC eBPF programs, OpenFlow rule sets — along with the
// code-generation accounting the paper reports.
#pragma once

#include <optional>

#include "src/metacompiler/bess_plan.h"
#include "src/metacompiler/p4_compose.h"
#include "src/nf/ebpf/ebpf_nfs.h"
#include "src/openflow/of_nfs.h"
#include "src/placer/types.h"
#include "src/verify/diagnostics.h"

namespace lemur::metacompiler {

/// One eBPF program deployed to a SmartNIC for a NIC-placed NF.
struct NicArtifact {
  int chain = 0;
  int node = 0;
  int smartnic = 0;  ///< Topology::smartnics index the program loads onto.
  nf::NfType type = nf::NfType::kAcl;
  nic::Program program;
  std::uint32_t spi_in = 0;
  std::uint8_t si_in = 255;
  std::uint32_t spi_out = 0;
  std::uint8_t si_out = 0;
  /// The next segment runs on the server this NIC sits in front of: the
  /// packet enters that server's dataplane without crossing the ToR.
  bool local_out = false;
};

/// OpenFlow rules for an OF-placed NF, tagged with its VLAN-encoded
/// service path (the 12-bit vid carries SPI/SI, section 5.3).
struct OfArtifact {
  int chain = 0;
  int node = 0;
  std::vector<openflow::OfFlowRule> rules;
  /// Full NSH service path context (the fabric side of the hand-off).
  std::uint32_t spi_in = 0;
  std::uint8_t si_in = 255;
  std::uint32_t spi_out = 0;
  std::uint8_t si_out = 0;
  /// VLAN-encoded ids used on the OF wire (12-bit vid; lossy for large
  /// SI values, which is exactly the paper's "somewhat limits how many
  /// chains and how many NFs can be configured" caveat).
  std::uint16_t vid_in = 0;
  std::uint16_t vid_out = 0;
};

struct CompiledArtifacts {
  bool ok = false;
  std::string error;

  std::vector<ChainRouting> routings;
  P4Artifact p4;
  std::vector<ServerPlan> server_plans;
  std::vector<NicArtifact> nic_programs;
  std::vector<OfArtifact> of_rules;

  /// Code-generation accounting across targets (section 5.3).
  struct Loc {
    int total = 0;
    int generated = 0;  ///< Coordination code the metacompiler wrote.
    [[nodiscard]] double generated_fraction() const {
      return total > 0 ? static_cast<double>(generated) / total : 0;
    }
  };
  Loc p4_loc;  ///< The unified P4 program's share of `loc`.
  Loc loc;

  /// Findings of the deployment verifier (compile -> verify -> deploy).
  /// Populated by compile() unless verification was opted out; the
  /// runtime refuses to deploy artifacts with error-severity findings.
  verify::Report verification;
};

struct CompileOptions {
  /// Run the static cross-platform consistency analysis (src/verify/)
  /// over the freshly generated artifacts. On by default; opting out is
  /// for callers that verify separately (e.g. the CLI's `verify`
  /// subcommand) or deliberately build partial artifacts in tests.
  bool run_verifier = true;
};

/// Lines of `p4`'s program attributable to coordination (its
/// coordination tables) vs. NF library code — the paper's
/// "auto-generated code" accounting (section 5.3). Pretty-prints the
/// program twice, so only compile() runs it, never the placer's oracle.
CompiledArtifacts::Loc count_p4_loc(const P4Artifact& p4);

/// Compiles the placement into runnable artifacts. The placement must be
/// feasible and its chain order must match `chains`.
CompiledArtifacts compile(const std::vector<chain::ChainSpec>& chains,
                          const placer::PlacementResult& placement,
                          const topo::Topology& topo,
                          const CompileOptions& options = {});

}  // namespace lemur::metacompiler
