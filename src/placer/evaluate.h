// Deployment evaluation: given fully-specified patterns and core
// allocations, compute each chain's capacity, build the marginal-
// throughput LP under SLO and link constraints (paper section 3.2,
// "Finding Maximum Marginal Throughput"), and produce a PlacementResult.
//
// Strategies call this twice: during search with their *belief* options
// (possibly uniform/scaled profiles) and once at the end with true
// profiles — mis-belief shows up as real infeasibility or lost marginal
// throughput, exactly as in the paper's ablations.
#pragma once

#include "src/placer/pattern.h"
#include "src/placer/types.h"

namespace lemur::placer {

/// A complete candidate deployment (pattern + subgroup core allocation).
struct Deployment {
  std::vector<Pattern> patterns;    ///< Per chain.
  std::vector<Subgroup> subgroups;  ///< All chains; server/cores final.
  std::vector<NicAssignment> nic_nfs;
};

/// Builds subgroups and NIC assignments for all chains from patterns
/// (cores default to 1; servers to 0 — run the allocator afterwards).
Deployment make_deployment(const std::vector<chain::ChainSpec>& chains,
                           std::vector<Pattern> patterns,
                           const topo::Topology& topo,
                           const PlacerOptions& options);

/// Capacity ceiling of one chain (Gbps) under the deployment: the min
/// over its subgroups and NIC NFs of per-entity rate / traffic fraction.
/// Chains with no server/NIC processing are switch-line-rate bound.
double chain_capacity_gbps(const Deployment& deployment, int chain_index,
                           const topo::Topology& topo);

/// Full evaluation: feasibility checks (core budget, t_min vs capacity,
/// OpenFlow ordering, latency SLOs), then the rate LP. Fills a
/// PlacementResult.
PlacementResult evaluate(const Deployment& deployment,
                         const std::vector<chain::ChainSpec>& chains,
                         const topo::Topology& topo,
                         const PlacerOptions& options);

/// Cores consumed by the deployment on each server, including the
/// reserved demux core on servers hosting at least one subgroup.
std::vector<int> cores_used_per_server(const Deployment& deployment,
                                       const topo::Topology& topo);

}  // namespace lemur::placer
