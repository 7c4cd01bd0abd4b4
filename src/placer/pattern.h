// Placement patterns (paper section 3.2): the assignment of every NF of
// a chain to a hardware target, and the structure derived from it —
// run-to-completion subgroups, bounce counts, per-link traffic
// coefficients, and latency estimates.
#pragma once

#include <cstdint>
#include <vector>

#include "src/placer/profile.h"
#include "src/placer/types.h"

namespace lemur::placer {

/// Per-node placement of one chain (indexed by node id).
using Pattern = std::vector<NodePlacement>;

/// Per-subgroup NSH encap+decap overhead (paper section 5.3: ~220
/// cycles), charged once per packet per server visit.
inline constexpr std::uint64_t kNshOverheadCycles = 220;

/// Targets a node may legally use, given Table 3's platform matrix, the
/// topology's available hardware, and the options' evaluation
/// restrictions. kServer is always included (every NF has a C++
/// implementation); hardware targets come first in preference order
/// (PISA, NIC, OF). Branch/merge nodes stay off SmartNICs and OpenFlow
/// switches (their steering needs the coordinator or BESS gates).
std::vector<Target> allowed_targets(const chain::NfNode& node,
                                    const topo::Topology& topo,
                                    const PlacerOptions& options,
                                    bool branch_or_merge = false);

/// The run-to-completion rule (section 3.2): `edge` joins its two ends
/// into one subgroup when both are server NFs and neither is a
/// branch/merge node. Branch/merge nodes stay in singleton subgroups:
/// folding one into a neighboring run would make the whole run
/// non-replicable, and the neighbor may be the expensive NF that needs
/// scale-out. They can still share a core with other cheap subgroups.
/// The metacompiler's server segments follow the same rule.
bool joins_subgroup(const chain::NfGraph& graph, const Pattern& pattern,
                    const chain::NfEdge& edge);

/// Forms the run-to-completion subgroups of `pattern`: the components of
/// the server nodes under joins_subgroup(). Subgroup cycle costs include
/// the per-subgroup NSH overhead (kNshOverheadCycles). Branch/merge
/// membership or a non-replicable NF makes a subgroup non-replicable.
/// Each subgroup's `server`/`cores` fields are left at defaults for the
/// allocator to fill; a server NF runs on its subgroup's server.
std::vector<Subgroup> form_subgroups(const chain::NfGraph& graph,
                                     const Pattern& pattern, int chain_index,
                                     const topo::ServerSpec& server_spec,
                                     const PlacerOptions& options);

/// SmartNIC assignments implied by the pattern.
std::vector<NicAssignment> nic_assignments(const chain::NfGraph& graph,
                                           const Pattern& pattern,
                                           int chain_index,
                                           const PlacerOptions& options);

/// True when every maximal run of consecutive OpenFlow-placed NFs
/// respects the fixed table order of the OF ASIC.
bool openflow_order_ok(const chain::NfGraph& graph, const Pattern& pattern);

struct PathAnalysis {
  int worst_bounces = 0;  ///< Max switch<->server-side transitions per path.
  /// Per (server) x direction: sum over paths of fraction x crossings.
  std::vector<double> link_in_coeff;   ///< Indexed by server.
  std::vector<double> link_out_coeff;  ///< Indexed by server.
  double openflow_coeff = 0;  ///< Fraction-weighted traffic through the OF.
  double worst_latency_us = 0;
};

/// Bounce/link/latency analysis over the chain's linear paths. Subgroup
/// server assignments must already be final (pass the chain's subgroups).
PathAnalysis analyze_paths(const chain::NfGraph& graph,
                           const Pattern& pattern,
                           const std::vector<Subgroup>& chain_subgroups,
                           const topo::Topology& topo,
                           const PlacerOptions& options);

/// Locates the subgroup containing `node`, or -1.
int subgroup_of(const std::vector<Subgroup>& subgroups, int chain_index,
                int node);

}  // namespace lemur::placer
