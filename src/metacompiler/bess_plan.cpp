#include "src/metacompiler/bess_plan.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace lemur::metacompiler {
namespace {

/// Branch-steering rules derived from a node's conditioned out-edges,
/// aligned with the gate numbering of gate_map().
std::vector<nf::MatchRule> steering_rules(const chain::NfGraph& graph,
                                          int node) {
  std::vector<nf::MatchRule> out;
  for (const auto& [edge, gate] : gate_map(graph, node)) {
    if (!edge->condition) continue;  // Unconditioned edge = default gate 0.
    nf::MatchRule rule;
    rule.field = edge->condition->field;
    rule.value = edge->condition->value;
    rule.gate = gate;
    out.push_back(rule);
  }
  return out;
}

/// Schedules every replica of `plan` on a worker core (appendix A.1.3).
/// Shared-core groups land on one physical core; dedicated replicas fill
/// cores sequentially after the demultiplexer's core 0 — socket 0 first,
/// matching the paper's observation that same-socket placement often
/// beats the worst-case cross-NUMA profile. Claims past the last core
/// stay on it.
void assign_cores(ServerPlan& plan, int num_cores) {
  int next_core = 1;
  auto claim = [&] { return std::min(next_core++, num_cores - 1); };
  std::map<int, int> shared_core_of_group;
  for (auto& seg : plan.segments) {
    for (int& core : seg.replica_cores) {
      if (seg.core_group < 0) {
        core = claim();
        continue;
      }
      auto it = shared_core_of_group.find(seg.core_group);
      if (it == shared_core_of_group.end()) {
        it = shared_core_of_group.emplace(seg.core_group, claim()).first;
      }
      core = it->second;
    }
  }
}

}  // namespace

std::vector<ServerPlan> build_bess_plans(
    const std::vector<chain::ChainSpec>& chains,
    const std::vector<ChainRouting>& routings,
    const std::vector<placer::Subgroup>& subgroups,
    const topo::Topology& topo) {
  std::vector<ServerPlan> plans(topo.servers.size());
  for (std::size_t s = 0; s < plans.size(); ++s) {
    plans[s].server = static_cast<int>(s);
  }

  for (std::size_t c = 0; c < routings.size(); ++c) {
    const auto& routing = routings[c];
    const auto& graph = chains[c].graph;
    for (const auto& segment : routing.segments) {
      if (segment.target != placer::Target::kServer) continue;
      BessSegmentPlan plan;
      plan.chain = static_cast<int>(c);
      plan.nodes = segment.nodes;
      plan.spi_in = segment.entries.front().spi;
      plan.si_in = segment.entries.front().si;

      // An unresolved segment gets one replica on server 0, where the
      // verifier reports it as unauthorized.
      const int server = std::max(segment.server, 0);
      int replicas = 1;
      if (segment.subgroup >= 0) {
        const auto& g = subgroups[static_cast<std::size_t>(segment.subgroup)];
        replicas = std::max(g.cores, 0);
        plan.core_group = g.shared_core;
        plan.traffic_fraction = g.traffic_fraction;
      }
      plan.replica_cores.assign(static_cast<std::size_t>(replicas), 0);

      for (const auto& exit : segment.exits) {
        const Handoff handoff = routing.handoff(exit);
        plan.exits.push_back(
            {exit.gate, handoff.spi, handoff.si, handoff.local_to(server)});
      }

      const int tail = segment.nodes.back();
      if (graph.successors(tail).size() > 1) {
        plan.generated_steering = steering_rules(graph, tail);
      }
      plans[static_cast<std::size_t>(server)].segments.push_back(
          std::move(plan));
    }
  }
  for (auto& plan : plans) {
    assign_cores(plan, topo.servers[static_cast<std::size_t>(plan.server)]
                           .total_cores());
  }
  return plans;
}

std::string ServerPlan::print_script(
    const std::vector<chain::ChainSpec>& chains) const {
  std::ostringstream out;
  out << "# Auto-generated BESS script for server " << server
      << " — Lemur metacompiler\n";
  out << "port_inc = PortInc(port='nic0')          # coordination\n";
  out << "nsh_decap = NSHdecap()                   # coordination\n";
  out << "nsh_mux_out = PortOut(port='nic0')       # coordination\n";
  out << "port_inc -> nsh_decap                    # coordination\n";

  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& seg = segments[i];
    const auto& graph = chains[static_cast<std::size_t>(seg.chain)].graph;
    const std::string id = "c" + std::to_string(seg.chain) + "_s" +
                           std::to_string(i);
    out << "# chain " << seg.chain << " subgroup: spi=" << seg.spi_in
        << " si=" << static_cast<int>(seg.si_in)
        << " cores=" << seg.replicas() << "\n";
    for (int r = 0; r < seg.replicas(); ++r) {
      out << "q_" << id << "_r" << r << " = Queue()  # coordination\n";
    }
    if (seg.replicas() > 1) {
      out << "steer_" << id << " = RoundRobin(gates=" << seg.replicas()
          << ")  # coordination\n";
      out << "nsh_decap:" << i << " -> steer_" << id
          << "  # coordination\n";
      for (int r = 0; r < seg.replicas(); ++r) {
        out << "steer_" << id << ":" << r << " -> q_" << id << "_r" << r
            << "  # coordination\n";
      }
    } else {
      out << "nsh_decap:" << i << " -> q_" << id << "_r0  # coordination\n";
    }
    std::string prev = "q_" + id + "_r0";
    for (int node_id : seg.nodes) {
      const auto& node = graph.node(node_id);
      const std::string inst = node.instance_name;
      out << inst << " = " << nf::spec_of(node.type).name << "()\n";
      out << prev << " -> " << inst << "\n";
      prev = inst;
    }
    if (seg.needs_generated_steering()) {
      out << "branch_" << id << " = Match(rules="
          << seg.generated_steering.size() << ")  # coordination\n";
      out << prev << " -> branch_" << id << "  # coordination\n";
      prev = "branch_" + id;
    }
    for (const auto& exit : seg.exits) {
      out << "nsh_encap_" << id << "_g" << exit.gate
          << " = NSHencap(spi=" << exit.spi
          << ", si=" << static_cast<int>(exit.si) << ")  # coordination\n";
      out << prev << ":" << exit.gate << " -> nsh_encap_" << id << "_g"
          << exit.gate << " -> nsh_mux_out  # coordination\n";
    }
    for (int r = 0; r < seg.replicas(); ++r) {
      out << "bess.attach_task('q_" << id << "_r" << r
          << "', wid=" << seg.replica_cores[static_cast<std::size_t>(r)]
          << ")  # coordination\n";
    }
  }
  return out.str();
}

namespace {

bool is_coordination_line(const std::string& line) {
  return line.find("# coordination") != std::string::npos ||
         line.rfind("#", 0) == 0;
}

}  // namespace

ServerPlan::LocSummary ServerPlan::loc_summary(
    const std::vector<chain::ChainSpec>& chains) const {
  LocSummary out;
  std::istringstream script(print_script(chains));
  std::string line;
  while (std::getline(script, line)) {
    if (line.empty()) continue;
    ++out.total;
    if (is_coordination_line(line)) ++out.coordination;
  }
  return out;
}

}  // namespace lemur::metacompiler
