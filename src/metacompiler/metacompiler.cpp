#include "src/metacompiler/metacompiler.h"

#include <map>

#include "src/pisa/compiler.h"
#include "src/pisa/p4_printer.h"
#include "src/verify/verifier.h"

namespace lemur::metacompiler {

CompiledArtifacts::Loc count_p4_loc(const P4Artifact& p4) {
  const pisa::P4Program& prog = p4.program;
  pisa::P4Program library_only = prog;
  library_only.tables.clear();
  library_only.control.clear();
  std::map<int, int> remap;
  for (std::size_t i = 0; i < prog.tables.size(); ++i) {
    if (p4.coordination_tables.count(prog.tables[i].name) != 0) continue;
    remap[static_cast<int>(i)] = static_cast<int>(library_only.tables.size());
    library_only.tables.push_back(prog.tables[i]);
  }
  for (const auto& apply : prog.control) {
    auto it = remap.find(apply.table);
    if (it == remap.end()) continue;
    pisa::TableApply kept = apply;
    kept.table = it->second;
    library_only.control.push_back(std::move(kept));
  }
  CompiledArtifacts::Loc loc;
  loc.total = pisa::count_program_lines(prog);
  loc.generated = loc.total - pisa::count_program_lines(library_only);
  return loc;
}

CompiledArtifacts compile(const std::vector<chain::ChainSpec>& chains,
                          const placer::PlacementResult& placement,
                          const topo::Topology& topo,
                          const CompileOptions& options) {
  CompiledArtifacts out;
  if (!placement.feasible) {
    out.error = "placement is infeasible: " + placement.infeasible_reason;
    return out;
  }
  if (placement.chains.size() != chains.size()) {
    out.error = "placement/chain count mismatch";
    return out;
  }

  // Routing decomposition per chain, each segment resolved to where it
  // runs; every generator below reads the resolution from the routing.
  for (std::size_t c = 0; c < chains.size(); ++c) {
    out.routings.push_back(build_routing(
        chains[c], placement.chains[c].nodes, static_cast<int>(c)));
    resolve_placement(out.routings.back(), placement, topo);
  }

  // Unified P4 program + steering entries.
  PortMap ports;
  out.p4 = compose_p4(chains, out.routings, ports);
  if (!out.p4.ok()) {
    out.error = "P4 composition failed: " + out.p4.error;
    return out;
  }
  // Stage the unified program against the deployment ToR now, so the
  // verifier (and operators) can audit stages/memory before deployment.
  out.p4.compiled = pisa::compile(out.p4.program, topo.tor);

  // Per-server BESS plans.
  out.server_plans =
      build_bess_plans(chains, out.routings, placement.subgroups, topo);

  // SmartNIC programs.
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const auto& routing = out.routings[c];
    const auto& graph = chains[c].graph;
    for (const auto& segment : routing.segments) {
      if (segment.target != placer::Target::kSmartNic) continue;
      const int node_id = segment.nodes.front();
      const auto& node = graph.node(node_id);
      auto program = nf::ebpf::generate(node.type, node.config);
      if (!program) {
        out.error = "NF '" + node.instance_name +
                    "' placed on a SmartNIC but has no eBPF generator";
        return out;
      }
      NicArtifact artifact;
      artifact.chain = static_cast<int>(c);
      artifact.node = node_id;
      artifact.smartnic =
          placement.chains[c].nodes[static_cast<std::size_t>(node_id)]
              .smartnic;
      artifact.type = node.type;
      artifact.program = std::move(*program);
      artifact.spi_in = segment.entries.front().spi;
      artifact.si_in = segment.entries.front().si;
      // NIC NFs are non-branching: single exit.
      const Handoff handoff = routing.handoff(segment.exits.front());
      artifact.spi_out = handoff.spi;
      artifact.si_out = handoff.si;
      artifact.local_out = handoff.local_to(segment.server);
      out.nic_programs.push_back(std::move(artifact));
    }
  }

  // OpenFlow rules: NF rules plus the VLAN-encoded service path ids.
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const auto& routing = out.routings[c];
    const auto& graph = chains[c].graph;
    for (const auto& segment : routing.segments) {
      if (segment.target != placer::Target::kOpenFlow) continue;
      const int node_id = segment.nodes.front();
      const auto& node = graph.node(node_id);
      OfArtifact artifact;
      artifact.chain = static_cast<int>(c);
      artifact.node = node_id;
      artifact.rules = openflow::generate_rules(node.type, node.config);
      const auto& entry = segment.entries.front();
      artifact.spi_in = entry.spi;
      artifact.si_in = entry.si;
      const Handoff handoff = routing.handoff(segment.exits.front());
      artifact.spi_out = handoff.spi;
      artifact.si_out = handoff.si;
      // Checked packing: a service path that does not fit the 12-bit vid
      // must never be wrapped onto the wire (section 5.3). vid 0 marks
      // the encoding as unassigned; the verifier turns it into a hard
      // error (handoff.vid-overflow) that blocks deployment.
      artifact.vid_in =
          openflow::checked_pack_spi_si(artifact.spi_in, artifact.si_in)
              .value_or(0);
      artifact.vid_out =
          openflow::checked_pack_spi_si(artifact.spi_out, artifact.si_out)
              .value_or(0);
      out.of_rules.push_back(std::move(artifact));
    }
  }

  // LoC accounting across targets.
  out.p4_loc = count_p4_loc(out.p4);
  out.loc = out.p4_loc;
  for (const auto& plan : out.server_plans) {
    const auto summary = plan.loc_summary(chains);
    out.loc.total += summary.total;
    out.loc.generated += summary.coordination;
  }
  for (const auto& nic : out.nic_programs) {
    // Count generated eBPF instructions as lines; the parse/steer
    // preamble and exits are coordination, the NF body is library.
    const int lines = static_cast<int>(nic.program.size());
    out.loc.total += lines;
    out.loc.generated += std::min(lines, 18);  // Parse preamble + exits.
  }

  out.ok = true;
  if (options.run_verifier) {
    out.verification = verify::verify_artifacts(chains, placement, out, topo);
  }
  return out;
}

}  // namespace lemur::metacompiler
