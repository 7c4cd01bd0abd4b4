// Deployment verifier: static cross-platform consistency analysis of the
// metacompiler's artifacts, run after compilation and before testbed
// deployment (the compile -> verify -> deploy pipeline).
//
// Lemur's correctness story depends on four independently generated
// artifact families (unified P4, per-server BESS plans, SmartNIC eBPF,
// OpenFlow rules) agreeing on one NSH service-path fabric. A wrong
// SPI/SI hand-off or a VLAN-truncated service index (the paper's own
// section 5.3 caveat) silently misroutes traffic; this pass rejects such
// plans before packets fly, in the spirit of the conservative static
// analyses (Sonata-style) that src/pisa/compiler.h models as a baseline.
//
// Rule families (see verify::rule_catalogue() for the full list):
//   nsh.*      NSH routing continuity over the segment graph.
//   handoff.*  Cross-artifact SPI/SI and VLAN-vid hand-off consistency.
//   nic.*      SmartNIC programs pass the eBPF verifier.
//   p4.*       Independent re-audit of the platform compiler's staging.
//   bess.*     Server plan sanity (pipeline wiring, core budgets).
//   slo.*      Lint of the placement against the chains' SLOs.
#pragma once

#include "src/metacompiler/metacompiler.h"
#include "src/verify/diagnostics.h"

namespace lemur::verify {

/// Runs every rule of the catalogue over the compiled artifacts.
/// Error-severity findings mean the deployment would misroute or
/// overcommit and must be rejected; warnings flag SLO risks the Placer
/// already accepted but an operator should see.
Report verify_artifacts(const std::vector<chain::ChainSpec>& chains,
                        const placer::PlacementResult& placement,
                        const metacompiler::CompiledArtifacts& artifacts,
                        const topo::Topology& topo);

}  // namespace lemur::verify
