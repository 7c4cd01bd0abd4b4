#include "src/placer/pattern.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>

#include "src/openflow/of_nfs.h"

namespace lemur::placer {
namespace {

/// Estimated one-way processing latency of a PISA/OF switch traverse.
constexpr double kSwitchTraverseUs = 0.8;

bool server_side(Target target) {
  return target == Target::kServer || target == Target::kSmartNic;
}

}  // namespace

std::vector<Target> allowed_targets(const chain::NfNode& node,
                                    const topo::Topology& topo,
                                    const PlacerOptions& options,
                                    bool branch_or_merge) {
  const nf::NfSpec& spec = nf::spec_of(node.type);
  std::vector<Target> out;
  // Paper Table 3 footnote: the evaluation limits IPv4Fwd to P4 wherever
  // the PISA switch may host NFs.
  const bool ipv4fwd_restricted =
      !options.disable_pisa_nfs && node.type == nf::NfType::kIpv4Fwd;
  if (spec.has_p4 && !options.disable_pisa_nfs) {
    out.push_back(Target::kPisa);
  }
  if (ipv4fwd_restricted) return out;
  if (!branch_or_merge) {
    const bool live_smartnic =
        std::any_of(topo.smartnics.begin(), topo.smartnics.end(),
                    [](const topo::SmartNicSpec& nic) { return !nic.failed; });
    if (spec.has_ebpf && live_smartnic) {
      out.push_back(Target::kSmartNic);
    }
    if (spec.has_openflow && topo.openflow.has_value() &&
        !topo.openflow->failed) {
      out.push_back(Target::kOpenFlow);
    }
  }
  out.push_back(Target::kServer);
  return out;
}

bool joins_subgroup(const chain::NfGraph& graph, const Pattern& pattern,
                    const chain::NfEdge& edge) {
  return pattern[static_cast<std::size_t>(edge.from)].target ==
             Target::kServer &&
         pattern[static_cast<std::size_t>(edge.to)].target ==
             Target::kServer &&
         !graph.is_branch_or_merge(edge.from) &&
         !graph.is_branch_or_merge(edge.to);
}

std::vector<Subgroup> form_subgroups(const chain::NfGraph& graph,
                                     const Pattern& pattern, int chain_index,
                                     const topo::ServerSpec& server_spec,
                                     const PlacerOptions& options) {
  const auto fractions = node_traffic_fractions(graph);
  const auto order = graph.topological_order();

  // Union-find over server nodes, joined by the run-to-completion rule.
  std::vector<int> parent(graph.nodes().size());
  for (std::size_t i = 0; i < parent.size(); ++i) {
    parent[i] = static_cast<int>(i);
  }
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      x = parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
    }
    return x;
  };
  for (const auto& e : graph.edges()) {
    if (joins_subgroup(graph, pattern, e)) {
      parent[static_cast<std::size_t>(find(e.from))] = find(e.to);
    }
  }

  std::map<int, Subgroup> groups;
  for (int id : order) {
    if (pattern[static_cast<std::size_t>(id)].target != Target::kServer) {
      continue;
    }
    Subgroup& g = groups[find(id)];
    if (g.nodes.empty()) {
      g.chain = chain_index;
      g.cycles = kNshOverheadCycles;
      g.traffic_fraction = fractions[static_cast<std::size_t>(id)];
    }
    g.nodes.push_back(id);
    g.cycles += profiled_cycles(graph.node(id), server_spec, options);
    const auto& node = graph.node(id);
    // NAT *can* replicate (Table 3), but only by partitioning the port
    // space — which the paper's implementation defers to future work and
    // this one gates behind an option (section 3.2).
    const bool nat_without_partitioning =
        node.type == nf::NfType::kNat &&
        !options.replicate_nat_by_port_partition;
    if (!nf::spec_of(node.type).replicable || nat_without_partitioning ||
        graph.is_branch_or_merge(id)) {
      g.replicable = false;
    }
  }
  std::vector<Subgroup> out;
  out.reserve(groups.size());
  for (auto& [root, g] : groups) out.push_back(std::move(g));
  return out;
}

std::vector<NicAssignment> nic_assignments(const chain::NfGraph& graph,
                                           const Pattern& pattern,
                                           int chain_index,
                                           const PlacerOptions& options) {
  const auto fractions = node_traffic_fractions(graph);
  std::vector<NicAssignment> out;
  for (const auto& node : graph.nodes()) {
    const auto& p = pattern[static_cast<std::size_t>(node.id)];
    if (p.target != Target::kSmartNic) continue;
    NicAssignment a;
    a.chain = chain_index;
    a.node = node.id;
    a.smartnic = p.smartnic;
    a.cycles = nic_profiled_cycles(node, options);
    a.traffic_fraction = fractions[static_cast<std::size_t>(node.id)];
    out.push_back(a);
  }
  return out;
}

bool openflow_order_ok(const chain::NfGraph& graph, const Pattern& pattern) {
  // Check every maximal OF-placed run on every linear path.
  for (const auto& path : graph.linear_paths()) {
    std::vector<nf::NfType> run;
    for (std::size_t i = 0; i <= path.nodes.size(); ++i) {
      const bool is_of =
          i < path.nodes.size() &&
          pattern[static_cast<std::size_t>(path.nodes[i])].target ==
              Target::kOpenFlow;
      if (is_of) {
        run.push_back(graph.node(path.nodes[i]).type);
      } else if (!run.empty()) {
        if (!openflow::respects_table_order(run)) return false;
        run.clear();
      }
    }
  }
  return true;
}

int subgroup_of(const std::vector<Subgroup>& subgroups, int chain_index,
                int node) {
  for (std::size_t i = 0; i < subgroups.size(); ++i) {
    const auto& g = subgroups[i];
    if (g.chain != chain_index) continue;
    if (std::find(g.nodes.begin(), g.nodes.end(), node) != g.nodes.end()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

PathAnalysis analyze_paths(const chain::NfGraph& graph,
                           const Pattern& pattern,
                           const std::vector<Subgroup>& chain_subgroups,
                           const topo::Topology& topo,
                           const PlacerOptions& options) {
  PathAnalysis out;
  out.link_in_coeff.assign(topo.servers.size(), 0.0);
  out.link_out_coeff.assign(topo.servers.size(), 0.0);

  auto server_of_node = [&](int id) -> int {
    const auto& p = pattern[static_cast<std::size_t>(id)];
    if (p.target == Target::kServer) {
      // form_subgroups() puts every server NF in one of the subgroups.
      const int g = subgroup_of(chain_subgroups, chain_subgroups.front().chain,
                                id);
      assert(g >= 0);
      return chain_subgroups[static_cast<std::size_t>(g)].server;
    }
    if (p.target == Target::kSmartNic) {
      const auto& nic =
          topo.smartnics[static_cast<std::size_t>(p.smartnic)];
      return nic.attached_server;
    }
    return -1;  // Switch side.
  };

  for (const auto& path : graph.linear_paths()) {
    int bounces = 0;
    double latency_us = kSwitchTraverseUs;  // Ingress traverse of the ToR.
    int prev_server = -1;  // Start at the switch.
    for (int id : path.nodes) {
      const auto& p = pattern[static_cast<std::size_t>(id)];
      const int node_server = server_side(p.target) ? server_of_node(id) : -1;
      if (node_server != prev_server) {
        // Any change of side (or server) crosses links via the ToR.
        if (prev_server >= 0) {
          out.link_out_coeff[static_cast<std::size_t>(prev_server)] +=
              path.fraction;
          ++bounces;
          latency_us += topo.bounce_latency_us;
        }
        if (node_server >= 0) {
          out.link_in_coeff[static_cast<std::size_t>(node_server)] +=
              path.fraction;
          ++bounces;
          latency_us += topo.bounce_latency_us;
        } else {
          latency_us += kSwitchTraverseUs;
        }
        prev_server = node_server;
      }
      // Processing latency.
      if (p.target == Target::kServer) {
        const topo::ServerSpec& server =
            topo.servers[static_cast<std::size_t>(
                std::max(0, node_server))];
        latency_us += static_cast<double>(profiled_cycles(
                          graph.node(id), server, options)) /
                      (server.clock_ghz * 1e3);
      } else if (p.target == Target::kSmartNic) {
        const auto& nic =
            topo.smartnics[static_cast<std::size_t>(p.smartnic)];
        const topo::ServerSpec& server = topo.servers[static_cast<std::size_t>(
            nic.attached_server)];
        latency_us +=
            static_cast<double>(nic_profiled_cycles(graph.node(id), options)) /
            (server.clock_ghz * nic.speedup_vs_core * 1e3);
      }
    }
    // Return to the switch for egress.
    if (prev_server >= 0) {
      out.link_out_coeff[static_cast<std::size_t>(prev_server)] +=
          path.fraction;
      ++bounces;
      latency_us += topo.bounce_latency_us;
    }
    latency_us += kSwitchTraverseUs;  // Egress traverse.
    out.worst_bounces = std::max(out.worst_bounces, bounces);
    out.worst_latency_us = std::max(out.worst_latency_us, latency_us);
  }

  // OpenFlow capacity coefficient: fraction-weighted share of chain
  // traffic that visits the OF switch at least once per path.
  for (const auto& path : graph.linear_paths()) {
    bool visits = false;
    for (int id : path.nodes) {
      if (pattern[static_cast<std::size_t>(id)].target ==
          Target::kOpenFlow) {
        visits = true;
        break;
      }
    }
    if (visits) out.openflow_coeff += path.fraction;
  }
  return out;
}

}  // namespace lemur::placer
