#include "src/placer/profile.h"

#include <algorithm>

#include "src/nf/software/software_nf.h"

namespace lemur::placer {
namespace {

/// Wire frame size used to convert pps to Gbps.
constexpr double kPacketBytes = 1500;
/// Figure 2f "No Profiling": the cycles/packet assumed for every NF.
constexpr std::uint64_t kUniformCostCycles = 20000;

/// The node's worst-case cost times the platform `factor`, then times the
/// profile scale, truncated to at least one cycle.
std::uint64_t budgeted_cycles(const chain::NfNode& node, double factor,
                              const PlacerOptions& options) {
  if (options.no_profiling) return kUniformCostCycles;
  double cycles = static_cast<double>(
      nf::worst_case_cycles(node.type, node.config));
  cycles *= factor;
  cycles *= options.profile_scale;
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(cycles));
}

}  // namespace

std::uint64_t profiled_cycles(const chain::NfNode& node,
                              const topo::ServerSpec& server,
                              const PlacerOptions& options) {
  return budgeted_cycles(node, server.cross_numa_factor, options);
}

std::uint64_t nic_profiled_cycles(const chain::NfNode& node,
                                  const PlacerOptions& options) {
  return budgeted_cycles(node, 1.0, options);
}

double pps_to_gbps(double pps) { return pps * kPacketBytes * 8.0 / 1e9; }

double gbps_to_pps(double gbps) { return gbps * 1e9 / (kPacketBytes * 8.0); }

double chain_base_rate_gbps(const chain::NfGraph& graph,
                            const topo::ServerSpec& server,
                            const PlacerOptions& options) {
  std::uint64_t slowest = 1;
  for (const auto& node : graph.nodes()) {
    // Every NF in Table 3 has a software implementation; base rate uses
    // true profiles even for the no-profiling ablation (the *experiment
    // parameterization* must not change with the strategy under test).
    PlacerOptions profile_options = options;
    profile_options.profile_scale = 1.0;
    profile_options.no_profiling = false;
    slowest = std::max(slowest,
                       profiled_cycles(node, server, profile_options));
  }
  const double pps = server.clock_ghz * 1e9 / static_cast<double>(slowest);
  return pps_to_gbps(pps);
}

void apply_delta(std::vector<chain::ChainSpec>& chains, double delta,
                 const topo::ServerSpec& server,
                 const PlacerOptions& options) {
  for (auto& spec : chains) {
    spec.slo.t_min_gbps =
        delta * chain_base_rate_gbps(spec.graph, server, options);
  }
}

std::vector<StaticNfProfile> static_profile_table(
    const std::vector<chain::ChainSpec>& chains,
    const topo::ServerSpec& server, const PlacerOptions& options) {
  std::vector<StaticNfProfile> out;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    for (const auto& node : chains[c].graph.nodes()) {
      StaticNfProfile row;
      row.chain = static_cast<int>(c);
      row.node = node.id;
      row.type = node.type;
      row.instance_name = node.instance_name;
      row.cycles = profiled_cycles(node, server, options);
      out.push_back(std::move(row));
    }
  }
  return out;
}

std::vector<double> node_traffic_fractions(const chain::NfGraph& graph) {
  std::vector<double> fractions(graph.nodes().size(), 0.0);
  for (const auto& path : graph.linear_paths()) {
    for (int id : path.nodes) {
      fractions[static_cast<std::size_t>(id)] += path.fraction;
    }
  }
  return fractions;
}

}  // namespace lemur::placer
