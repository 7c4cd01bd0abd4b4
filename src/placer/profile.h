// NF profiles (paper section 3.2, "Profiling and Estimated Throughput"):
// worst-case cycles/packet per NF instance, with the linear table-size
// model and conservative cross-socket assumption, plus the per-chain
// "base rate" that parameterizes the delta sweeps of section 5.1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/placer/types.h"

namespace lemur::placer {

/// Worst-case cycles/packet the Placer budgets for a node on a server
/// core: the worst-case cross-socket cost (paper section 5.2,
/// "Cross-socket costs"), honoring the options' profile scaling and the
/// no-profiling ablation.
std::uint64_t profiled_cycles(const chain::NfNode& node,
                              const topo::ServerSpec& server,
                              const PlacerOptions& options);

/// The same budget for a SmartNIC engine, which sees the raw NF cost:
/// the NUMA factor is a server-side artifact.
std::uint64_t nic_profiled_cycles(const chain::NfNode& node,
                                  const PlacerOptions& options);

/// Packets/s -> Gbps at 1500-byte frames.
double pps_to_gbps(double pps);
double gbps_to_pps(double gbps);

/// The chain's base rate (section 5.1): the rate with one core on the
/// slowest software NF. t_min = delta x base rate in the experiments.
double chain_base_rate_gbps(const chain::NfGraph& graph,
                            const topo::ServerSpec& server,
                            const PlacerOptions& options);

/// Per-node traffic fraction: the share of the chain's rate that crosses
/// the node (sum over linear paths containing it).
std::vector<double> node_traffic_fractions(const chain::NfGraph& graph);

/// Experiment parameterization (section 5.1): sets every chain's t_min to
/// delta x its base rate.
void apply_delta(std::vector<chain::ChainSpec>& chains, double delta,
                 const topo::ServerSpec& server,
                 const PlacerOptions& options);

/// One row of the Placer's static cycle budget, for side-by-side
/// comparison with telemetry's measured per-NF profiles.
struct StaticNfProfile {
  int chain = 0;
  int node = 0;
  nf::NfType type = nf::NfType::kAcl;
  std::string instance_name;
  std::uint64_t cycles = 0;  ///< profiled_cycles() under `options`.
};

/// The full static profile table the Placer budgeted for these chains.
std::vector<StaticNfProfile> static_profile_table(
    const std::vector<chain::ChainSpec>& chains,
    const topo::ServerSpec& server, const PlacerOptions& options);

}  // namespace lemur::placer
