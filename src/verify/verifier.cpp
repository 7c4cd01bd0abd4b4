#include "src/verify/verifier.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>

#include "src/nic/verifier.h"
#include "src/openflow/of_switch.h"
#include "src/pisa/compiler.h"

namespace lemur::verify {
namespace {

using metacompiler::ChainRouting;
using metacompiler::CompiledArtifacts;
using metacompiler::Segment;

std::string seg_locus(const ChainRouting& routing, const Segment& seg) {
  return "chain " + std::to_string(routing.chain) + " / segment " +
         std::to_string(seg.id);
}

std::uint64_t sp_key(std::uint32_t spi, std::uint8_t si) {
  return (static_cast<std::uint64_t>(spi) << 8) | si;
}

std::string sp_str(std::uint32_t spi, std::uint8_t si) {
  return "(spi " + std::to_string(spi) + ", si " + std::to_string(si) + ")";
}

// ---------------------------------------------------------------------------
// NSH routing continuity (rule family nsh.*).
// ---------------------------------------------------------------------------

/// Per-segment forward reachability over exit edges, from `start`.
std::set<int> reachable_segments(const ChainRouting& routing, int start) {
  std::set<int> seen;
  std::deque<int> queue{start};
  while (!queue.empty()) {
    const int id = queue.front();
    queue.pop_front();
    if (id < 0 || id >= static_cast<int>(routing.segments.size())) continue;
    if (!seen.insert(id).second) continue;
    for (const auto& exit :
         routing.segments[static_cast<std::size_t>(id)].exits) {
      if (exit.next_segment >= 0) queue.push_back(exit.next_segment);
    }
  }
  return seen;
}

/// Segments from which chain egress (an exit with next_segment == -1) is
/// reachable, via reverse traversal of the exit edges.
std::set<int> egress_reaching_segments(const ChainRouting& routing) {
  std::map<int, std::vector<int>> rev;  // next_segment -> predecessors.
  std::deque<int> queue;
  std::set<int> seen;
  for (const auto& seg : routing.segments) {
    for (const auto& exit : seg.exits) {
      if (exit.next_segment < 0) {
        if (seen.insert(seg.id).second) queue.push_back(seg.id);
      } else {
        rev[exit.next_segment].push_back(seg.id);
      }
    }
  }
  while (!queue.empty()) {
    const int id = queue.front();
    queue.pop_front();
    for (int pred : rev[id]) {
      if (seen.insert(pred).second) queue.push_back(pred);
    }
  }
  return seen;
}

/// Nodes of `seg` reachable from `from` along chain edges that stay
/// inside the segment (run-to-completion / guarded-region flow).
std::set<int> intra_segment_reach(const chain::NfGraph& graph,
                                  const Segment& seg, int from) {
  std::set<int> seen;
  std::deque<int> queue{from};
  while (!queue.empty()) {
    const int id = queue.front();
    queue.pop_front();
    if (!seen.insert(id).second) continue;
    for (int succ : graph.successors(id)) {
      if (seg.contains(succ)) queue.push_back(succ);
    }
  }
  return seen;
}

void check_nsh_continuity(const std::vector<chain::ChainSpec>& chains,
                          const CompiledArtifacts& artifacts, Report& report) {
  std::map<std::uint32_t, int> spi_owner;  // SPI -> chain, for uniqueness.
  for (const auto& routing : artifacts.routings) {
    const std::size_t c = static_cast<std::size_t>(routing.chain);
    if (c >= chains.size()) {
      report.add(Severity::kError, "nsh.dangling-exit",
                 "chain " + std::to_string(routing.chain),
                 "routing references a chain index outside the deployment");
      continue;
    }
    const auto& graph = chains[c].graph;

    auto [owner, inserted] = spi_owner.emplace(routing.spi, routing.chain);
    if (!inserted) {
      report.add(Severity::kError, "nsh.spi-mismatch",
                 "chain " + std::to_string(routing.chain),
                 "SPI " + std::to_string(routing.spi) +
                     " is already owned by chain " +
                     std::to_string(owner->second));
    }

    for (const auto& seg : routing.segments) {
      if (seg.entries.empty()) {
        report.add(Severity::kError, "nsh.missing-entry",
                   seg_locus(routing, seg),
                   "segment has no NSH entry point; returning traffic "
                   "cannot be steered into it");
      }
      for (const auto& entry : seg.entries) {
        if (entry.spi != routing.spi) {
          report.add(Severity::kError, "nsh.spi-mismatch",
                     seg_locus(routing, seg),
                     "entry at node " + std::to_string(entry.node) +
                         " carries SPI " + std::to_string(entry.spi) +
                         " but the chain's SPI is " +
                         std::to_string(routing.spi));
        }
      }

      // Entries that can reach each exit's from_node without leaving the
      // segment: the SI baseline the hand-off must strictly decrease from.
      for (const auto& exit : seg.exits) {
        const Segment* next = nullptr;
        if (exit.next_segment >= 0) {
          if (exit.next_segment >=
              static_cast<int>(routing.segments.size())) {
            report.add(Severity::kError, "nsh.dangling-exit",
                       seg_locus(routing, seg),
                       "exit from node " + std::to_string(exit.from_node) +
                           " targets segment " +
                           std::to_string(exit.next_segment) +
                           " which does not exist");
            continue;
          }
          next = &routing.segments[static_cast<std::size_t>(
              exit.next_segment)];
          if (next->entry_for(exit.next_entry_node) == nullptr) {
            report.add(Severity::kError, "nsh.dangling-exit",
                       seg_locus(routing, seg),
                       "exit from node " + std::to_string(exit.from_node) +
                           " targets node " +
                           std::to_string(exit.next_entry_node) +
                           " which is not an entry of segment " +
                           std::to_string(exit.next_segment));
            continue;
          }
        }
        // SI monotonicity: every entry that can reach this exit must sit
        // strictly above the next segment's entry SI.
        if (next != nullptr) {
          const auto* next_entry = next->entry_for(exit.next_entry_node);
          for (const auto& entry : seg.entries) {
            const auto reach = intra_segment_reach(graph, seg, entry.node);
            if (reach.count(exit.from_node) == 0) continue;
            if (next_entry->si >= entry.si) {
              report.add(
                  Severity::kError, "nsh.si-order",
                  seg_locus(routing, seg),
                  "hand-off from node " + std::to_string(exit.from_node) +
                      " enters segment " +
                      std::to_string(exit.next_segment) + " at si " +
                      std::to_string(next_entry->si) +
                      " which does not decrease from entry si " +
                      std::to_string(entry.si));
            }
          }
        }
      }

      // Every node of the segment must be reachable from one of its
      // entries (otherwise the platform pipeline never executes it).
      std::set<int> covered;
      for (const auto& entry : seg.entries) {
        auto reach = intra_segment_reach(graph, seg, entry.node);
        covered.insert(reach.begin(), reach.end());
      }
      for (int node : seg.nodes) {
        if (!seg.entries.empty() && covered.count(node) == 0) {
          report.add(Severity::kError, "nsh.orphan-segment",
                     seg_locus(routing, seg),
                     "node " + std::to_string(node) +
                         " is unreachable from every entry of its segment");
        }
      }
    }

    // Segment-level reachability: orphans and egress-less segments.
    const int ingress = routing.segment_of(routing.source_node);
    if (ingress < 0) {
      report.add(Severity::kError, "nsh.orphan-segment",
                 "chain " + std::to_string(routing.chain),
                 "chain source node " + std::to_string(routing.source_node) +
                     " belongs to no segment");
      continue;
    }
    const auto reachable = reachable_segments(routing, ingress);
    const auto reaches_egress = egress_reaching_segments(routing);
    for (const auto& seg : routing.segments) {
      if (reachable.count(seg.id) == 0) {
        report.add(Severity::kError, "nsh.orphan-segment",
                   seg_locus(routing, seg),
                   "segment is unreachable from the chain's ingress "
                   "segment " +
                       std::to_string(ingress));
      } else if (reaches_egress.count(seg.id) == 0) {
        report.add(Severity::kError, "nsh.no-egress",
                   seg_locus(routing, seg),
                   "no path from this segment reaches chain egress");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-artifact hand-off consistency (rule family handoff.*).
// ---------------------------------------------------------------------------

struct ExpectedHandoff {
  bool valid = false;
  std::uint32_t spi_in = 0, spi_out = 0;
  std::uint8_t si_in = 0, si_out = 0;
};

/// Recomputes the (spi, si) hand-off a single-node segment artifact must
/// carry, straight from the routing (the verifier's own derivation).
ExpectedHandoff expected_handoff(const ChainRouting& routing,
                                 const Segment& seg) {
  ExpectedHandoff out;
  if (seg.entries.empty() || seg.exits.empty()) return out;
  out.spi_in = seg.entries.front().spi;
  out.si_in = seg.entries.front().si;
  const auto& exit = seg.exits.front();
  if (exit.next_segment < 0) {
    out.spi_out = routing.spi;
    out.si_out = 0;
  } else {
    if (exit.next_segment >= static_cast<int>(routing.segments.size())) {
      return out;  // Dangling; nsh.dangling-exit already fired.
    }
    const auto* entry =
        routing.segments[static_cast<std::size_t>(exit.next_segment)]
            .entry_for(exit.next_entry_node);
    if (entry == nullptr) return out;
    out.spi_out = entry->spi;
    out.si_out = entry->si;
  }
  out.valid = true;
  return out;
}

/// Locates the routing segment an artifact claims to implement; reports a
/// hand-off error when the node is not placed on `expected` at all.
const Segment* artifact_segment(const CompiledArtifacts& artifacts,
                                int chain, int node, placer::Target expected,
                                const std::string& locus, Report& report) {
  if (chain < 0 ||
      chain >= static_cast<int>(artifacts.routings.size())) {
    report.add(Severity::kError, "handoff.spi-si-mismatch", locus,
               "artifact references chain " + std::to_string(chain) +
                   " which has no routing");
    return nullptr;
  }
  const auto& routing = artifacts.routings[static_cast<std::size_t>(chain)];
  const int seg_idx = routing.segment_of(node);
  if (seg_idx < 0) {
    report.add(Severity::kError, "handoff.spi-si-mismatch", locus,
               "artifact references node " + std::to_string(node) +
                   " which belongs to no segment of chain " +
                   std::to_string(chain));
    return nullptr;
  }
  const auto& seg = routing.segments[static_cast<std::size_t>(seg_idx)];
  if (seg.target != expected) {
    report.add(Severity::kError, "handoff.spi-si-mismatch", locus,
               "artifact exists for node " + std::to_string(node) +
                   " but the routing places that segment on " +
                   placer::to_string(seg.target));
    return nullptr;
  }
  return &seg;
}

void check_handoffs(const CompiledArtifacts& artifacts,
                    const topo::Topology& topo, Report& report) {
  for (const auto& nic : artifacts.nic_programs) {
    const std::string locus = "chain " + std::to_string(nic.chain) +
                              " / nic artifact node " +
                              std::to_string(nic.node);
    // The runtime loads the program onto this device, in line in front of
    // the server it is attached to.
    if (nic.smartnic < 0 ||
        nic.smartnic >= static_cast<int>(topo.smartnics.size())) {
      report.add(Severity::kError, "handoff.unknown-device", locus,
                 "program targets SmartNIC " + std::to_string(nic.smartnic) +
                     " but the topology has " +
                     std::to_string(topo.smartnics.size()));
    } else {
      const int server =
          topo.smartnics[static_cast<std::size_t>(nic.smartnic)]
              .attached_server;
      if (server < 0 || server >= static_cast<int>(topo.servers.size())) {
        report.add(Severity::kError, "handoff.unknown-device", locus,
                   "SmartNIC " + std::to_string(nic.smartnic) +
                       " is attached to server " + std::to_string(server) +
                       ", which the topology does not have");
      }
    }
    const Segment* seg =
        artifact_segment(artifacts, nic.chain, nic.node,
                         placer::Target::kSmartNic, locus, report);
    if (seg == nullptr) continue;
    const auto expect = expected_handoff(
        artifacts.routings[static_cast<std::size_t>(nic.chain)], *seg);
    if (!expect.valid) continue;
    if (nic.spi_in != expect.spi_in || nic.si_in != expect.si_in ||
        nic.spi_out != expect.spi_out || nic.si_out != expect.si_out) {
      report.add(Severity::kError, "handoff.spi-si-mismatch", locus,
                 "NIC program advertises " + sp_str(nic.spi_in, nic.si_in) +
                     " -> " + sp_str(nic.spi_out, nic.si_out) +
                     " but the routing hands off " +
                     sp_str(expect.spi_in, expect.si_in) + " -> " +
                     sp_str(expect.spi_out, expect.si_out));
    }
  }

  for (const auto& of : artifacts.of_rules) {
    const std::string locus = "chain " + std::to_string(of.chain) +
                              " / of artifact node " +
                              std::to_string(of.node);
    const Segment* seg =
        artifact_segment(artifacts, of.chain, of.node,
                         placer::Target::kOpenFlow, locus, report);
    if (seg != nullptr) {
      const auto expect = expected_handoff(
          artifacts.routings[static_cast<std::size_t>(of.chain)], *seg);
      if (expect.valid &&
          (of.spi_in != expect.spi_in || of.si_in != expect.si_in ||
           of.spi_out != expect.spi_out || of.si_out != expect.si_out)) {
        report.add(Severity::kError, "handoff.spi-si-mismatch", locus,
                   "OF rules advertise " + sp_str(of.spi_in, of.si_in) +
                       " -> " + sp_str(of.spi_out, of.si_out) +
                       " but the routing hands off " +
                       sp_str(expect.spi_in, expect.si_in) + " -> " +
                       sp_str(expect.spi_out, expect.si_out));
      }
    }

    // The 12-bit VLAN vid must carry the full service-path coordinate
    // (the paper's section 5.3 caveat, made a hard error here).
    auto check_vid = [&](const char* which, std::uint32_t spi,
                         std::uint8_t si, std::uint16_t vid) {
      const auto packed = openflow::checked_pack_spi_si(spi, si);
      if (!packed) {
        report.add(Severity::kError, "handoff.vid-overflow", locus,
                   std::string(which) + " service path " + sp_str(spi, si) +
                       " does not fit the 6+6-bit VLAN vid encoding; "
                       "SPI/SI bits would be silently lost on the OF wire");
      } else if (vid != *packed) {
        report.add(Severity::kError, "handoff.vid-mismatch", locus,
                   std::string(which) + " vid " + std::to_string(vid) +
                       " does not encode " + sp_str(spi, si) +
                       " (expected vid " + std::to_string(*packed) + ")");
      }
    };
    check_vid("ingress", of.spi_in, of.si_in, of.vid_in);
    check_vid("egress", of.spi_out, of.si_out, of.vid_out);
  }
}

// ---------------------------------------------------------------------------
// Independent P4 resource re-audit (rule family p4.*).
// ---------------------------------------------------------------------------

/// The verifier's own read/write-set extraction — deliberately written
/// independently of pisa::access_sets() so a bug in either side shows up
/// as p4.dependency-divergence.
struct FieldSets {
  std::set<std::string> reads;
  std::set<std::string> writes;
};

FieldSets field_sets(const pisa::P4Program& prog, int apply_index) {
  FieldSets out;
  const auto& apply = prog.control[static_cast<std::size_t>(apply_index)];
  const auto& table = prog.table(apply.table);
  for (const auto& m : table.match) out.reads.insert(m.field);
  for (const auto& cond : apply.guard.all_of) out.reads.insert(cond.field);
  for (const auto& action : table.actions) {
    for (const auto& op : action.ops) {
      using Kind = pisa::PrimitiveOp::Kind;
      switch (op.kind) {
        case Kind::kSetFieldImm:
        case Kind::kSetFieldParam:
        case Kind::kHashSelectParams:
          out.writes.insert(op.field);
          break;
        case Kind::kCopyField:
          out.writes.insert(op.field);
          out.reads.insert(op.src_field);
          break;
        case Kind::kAddImm:
        case Kind::kAndFieldParam:
          out.reads.insert(op.field);
          out.writes.insert(op.field);
          break;
        case Kind::kDrop:
          out.writes.insert("std.drop");
          break;
        case Kind::kEgressParam:
          out.writes.insert("std.egress_port");
          break;
        case Kind::kPushVlanParam:
        case Kind::kPopVlan:
          out.writes.insert("vlan.vid");
          break;
        case Kind::kPushNshParams:
        case Kind::kPopNsh:
        case Kind::kSetNshParams:
          out.writes.insert("nsh.spi");
          out.writes.insert("nsh.si");
          break;
        case Kind::kNoOp:
          break;
      }
    }
  }
  return out;
}

bool sets_intersect(const std::set<std::string>& a,
                    const std::set<std::string>& b) {
  for (const auto& x : a) {
    if (b.count(x) != 0) return true;
  }
  return false;
}

/// Independent re-derivation of the staging dependency edges, including
/// the branch-exclusivity pruning of the paper's optimization (d).
std::vector<std::pair<int, int>> recompute_edges(
    const pisa::P4Program& prog) {
  const int n = static_cast<int>(prog.control.size());
  std::vector<FieldSets> sets;
  sets.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) sets.push_back(field_sets(prog, i));

  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const auto& a = sets[static_cast<std::size_t>(i)];
      const auto& b = sets[static_cast<std::size_t>(j)];
      const bool hazard = sets_intersect(a.writes, b.reads) ||
                          sets_intersect(a.writes, b.writes) ||
                          sets_intersect(a.reads, b.writes);
      if (!hazard) continue;
      if (pisa::guards_mutually_exclusive(
              prog.control[static_cast<std::size_t>(i)].guard,
              prog.control[static_cast<std::size_t>(j)].guard)) {
        continue;
      }
      edges.emplace_back(i, j);
    }
  }
  return edges;
}

void check_p4(const CompiledArtifacts& artifacts,
              const topo::Topology& topo, Report& report) {
  const auto& p4 = artifacts.p4;
  const auto& prog = p4.program;

  // Runtime entries must land in existing tables and actions, and fit the
  // tables' provisioned sizes, regardless of whether the program compiled.
  std::vector<int> entries_per_table(prog.tables.size(), 0);
  for (const auto& [table_name, entry] : p4.entries) {
    const int idx = prog.find_table(table_name);
    if (idx < 0) {
      report.add(Severity::kError, "p4.entry-unknown-table",
                 "p4 entry '" + table_name + "'",
                 "runtime entry targets a table that is not part of the "
                 "unified program");
      continue;
    }
    ++entries_per_table[static_cast<std::size_t>(idx)];
    const auto& table = prog.table(idx);
    if (table.find_action(entry.action) == nullptr) {
      report.add(Severity::kError, "p4.entry-unknown-table",
                 "p4 entry '" + table_name + "'",
                 "runtime entry uses action '" + entry.action +
                     "' which table '" + table_name + "' does not define");
    }
    if (entry.key.size() != table.match.size()) {
      report.add(Severity::kError, "p4.entry-unknown-table",
                 "p4 entry '" + table_name + "'",
                 "runtime entry has " + std::to_string(entry.key.size()) +
                     " key fields but the table matches on " +
                     std::to_string(table.match.size()));
    }
  }

  for (std::size_t t = 0; t < prog.tables.size(); ++t) {
    const auto& table = prog.tables[t];
    if (entries_per_table[t] > table.size) {
      report.add(Severity::kError, "p4.table-capacity",
                 "p4 table '" + table.name + "'",
                 std::to_string(entries_per_table[t]) +
                     " runtime entries exceed the " +
                     std::to_string(table.size) +
                     " the table provisions; the switch refuses the rest");
    }
  }

  const auto& compiled = p4.compiled;
  if (!compiled.ok) {
    report.add(Severity::kError, "p4.compile-failed", "p4 program",
               compiled.error.empty()
                   ? std::string("the unified program was never compiled")
                   : compiled.error);
    return;  // No staging to audit.
  }

  // (1) Dependency edges, recomputed from scratch.
  const auto edges = recompute_edges(prog);
  if (static_cast<int>(edges.size()) != compiled.stats.dependency_edges) {
    report.add(Severity::kError, "p4.dependency-divergence", "p4 program",
               "verifier recomputed " + std::to_string(edges.size()) +
                   " table dependency edges but the platform compiler "
                   "reported " +
                   std::to_string(compiled.stats.dependency_edges));
  }

  // (2) Stage assignment must cover every apply exactly once and honor
  // every recomputed edge.
  const int n = static_cast<int>(prog.control.size());
  std::vector<int> stage_of(static_cast<std::size_t>(n), -1);
  long sram_total = 0, tcam_total = 0;
  for (std::size_t s = 0; s < compiled.stages.size(); ++s) {
    const auto& stage = compiled.stages[s];
    long sram = 0, tcam = 0;
    for (int apply : stage.applies) {
      if (apply < 0 || apply >= n) {
        report.add(Severity::kError, "p4.stage-overbudget",
                   "p4 stage " + std::to_string(s),
                   "stage lists apply index " + std::to_string(apply) +
                       " which is outside the control flow");
        continue;
      }
      if (stage_of[static_cast<std::size_t>(apply)] >= 0) {
        report.add(Severity::kError, "p4.stage-overbudget",
                   "p4 stage " + std::to_string(s),
                   "apply " + std::to_string(apply) +
                       " is assigned to two stages");
      }
      stage_of[static_cast<std::size_t>(apply)] = static_cast<int>(s);
      const auto& table =
          prog.table(prog.control[static_cast<std::size_t>(apply)].table);
      sram += pisa::table_sram_bytes(table);
      tcam += pisa::table_tcam_bytes(table);
    }
    if (sram != stage.sram_bytes || tcam != stage.tcam_bytes) {
      report.add(Severity::kError, "p4.stage-overbudget",
                 "p4 stage " + std::to_string(s),
                 "stage accounting claims " +
                     std::to_string(stage.sram_bytes) + "B SRAM / " +
                     std::to_string(stage.tcam_bytes) +
                     "B TCAM but its tables re-sum to " +
                     std::to_string(sram) + "B / " + std::to_string(tcam) +
                     "B");
    }
    if (static_cast<int>(stage.applies.size()) > topo.tor.tables_per_stage ||
        sram > topo.tor.sram_bytes_per_stage ||
        tcam > topo.tor.tcam_bytes_per_stage) {
      report.add(Severity::kError, "p4.stage-overbudget",
                 "p4 stage " + std::to_string(s),
                 "stage exceeds the switch budget (" +
                     std::to_string(stage.applies.size()) + " tables, " +
                     std::to_string(sram) + "B SRAM, " +
                     std::to_string(tcam) + "B TCAM)");
    }
    sram_total += sram;
    tcam_total += tcam;
  }
  if (static_cast<int>(compiled.stages.size()) > topo.tor.stages) {
    report.add(Severity::kError, "p4.stage-overbudget", "p4 program",
               "program uses " + std::to_string(compiled.stages.size()) +
                   " stages but the switch has " +
                   std::to_string(topo.tor.stages));
  }
  if (sram_total != compiled.stats.total_sram_bytes ||
      tcam_total != compiled.stats.total_tcam_bytes) {
    report.add(Severity::kError, "p4.stage-overbudget", "p4 program",
               "total memory accounting diverges from the per-table re-sum");
  }
  for (int i = 0; i < n; ++i) {
    if (stage_of[static_cast<std::size_t>(i)] < 0) {
      report.add(Severity::kError, "p4.stage-overbudget", "p4 program",
                 "apply " + std::to_string(i) +
                     " was never assigned to a stage");
    }
  }
  for (const auto& [i, j] : edges) {
    const int si = stage_of[static_cast<std::size_t>(i)];
    const int sj = stage_of[static_cast<std::size_t>(j)];
    if (si < 0 || sj < 0) continue;  // Coverage error already reported.
    if (si >= sj) {
      report.add(Severity::kError, "p4.dependency-order", "p4 program",
                 "apply " + std::to_string(i) + " (stage " +
                     std::to_string(si) + ") must precede apply " +
                     std::to_string(j) + " (stage " + std::to_string(sj) +
                     ") per the recomputed dependency edge");
    }
  }
}

// ---------------------------------------------------------------------------
// BESS plan sanity (rule family bess.*).
// ---------------------------------------------------------------------------

void check_bess(const std::vector<chain::ChainSpec>& chains,
                const placer::PlacementResult& placement,
                const CompiledArtifacts& artifacts,
                const topo::Topology& topo, Report& report) {
  // Live NSH endpoints: every segment entry plus per-chain egress.
  std::set<std::uint64_t> endpoints;
  for (const auto& routing : artifacts.routings) {
    endpoints.insert(sp_key(routing.spi, 0));  // Egress sentinel.
    for (const auto& seg : routing.segments) {
      for (const auto& entry : seg.entries) {
        endpoints.insert(sp_key(entry.spi, entry.si));
      }
    }
  }

  for (const auto& plan : artifacts.server_plans) {
    if (plan.server < 0 ||
        plan.server >= static_cast<int>(topo.servers.size())) {
      report.add(Severity::kError, "bess.core-overallocation",
                 "server " + std::to_string(plan.server),
                 "plan targets a server the topology does not have");
      continue;
    }
    const auto& server = topo.servers[static_cast<std::size_t>(plan.server)];
    int dedicated_cores = 0;
    std::set<int> shared_groups;
    std::map<int, int> workers_on_core;  // Dedicated replicas + groups.
    std::map<int, std::set<int>> cores_of_group;

    for (std::size_t i = 0; i < plan.segments.size(); ++i) {
      const auto& seg = plan.segments[i];
      const std::string locus = "server " + std::to_string(plan.server) +
                                " / plan segment " + std::to_string(i) +
                                " (chain " + std::to_string(seg.chain) + ")";
      if (seg.chain < 0 ||
          seg.chain >= static_cast<int>(chains.size())) {
        report.add(Severity::kError, "bess.broken-pipeline", locus,
                   "plan references a chain outside the deployment");
        continue;
      }
      const auto& graph = chains[static_cast<std::size_t>(seg.chain)].graph;
      const int node_count = static_cast<int>(graph.nodes().size());

      // (1) Pipeline wiring: modules must form a connected run from the
      // segment entry, i.e. consecutive nodes joined by chain edges.
      if (seg.nodes.empty()) {
        report.add(Severity::kError, "bess.broken-pipeline", locus,
                   "plan segment instantiates no modules");
      }
      for (std::size_t k = 0; k < seg.nodes.size(); ++k) {
        if (seg.nodes[k] < 0 || seg.nodes[k] >= node_count) {
          report.add(Severity::kError, "bess.broken-pipeline", locus,
                     "module references node " +
                         std::to_string(seg.nodes[k]) +
                         " which the chain graph does not define");
          continue;
        }
        if (k == 0) continue;
        const auto succs = graph.successors(seg.nodes[k - 1]);
        if (seg.nodes[k - 1] < 0 || seg.nodes[k - 1] >= node_count ||
            std::find(succs.begin(), succs.end(), seg.nodes[k]) ==
                succs.end()) {
          report.add(Severity::kError, "bess.broken-pipeline", locus,
                     "module for node " + std::to_string(seg.nodes[k]) +
                         " is not reachable from its predecessor " +
                         std::to_string(seg.nodes[k - 1]) +
                         " in the chain graph");
        }
      }

      // (2) Core accounting: the runtime schedules each replica on its
      // plan core as given.
      if (seg.replicas() < 1) {
        report.add(Severity::kError, "bess.core-overallocation", locus,
                   "plan segment is assigned " +
                       std::to_string(seg.replicas()) + " cores");
      } else if (seg.core_group >= 0) {
        shared_groups.insert(seg.core_group);
      } else {
        dedicated_cores += seg.replicas();
      }
      for (int core : seg.replica_cores) {
        if (core < 0 || core >= server.total_cores()) {
          report.add(Severity::kError, "bess.core-overallocation", locus,
                     "replica scheduled on core " + std::to_string(core) +
                         " but the server has " +
                         std::to_string(server.total_cores()));
        } else if (core == 0) {
          report.add(Severity::kError, "bess.core-overallocation", locus,
                     "replica scheduled on core 0, which runs the shared "
                     "demultiplexer");
        } else if (seg.core_group >= 0) {
          cores_of_group[seg.core_group].insert(core);
        } else {
          ++workers_on_core[core];
        }
      }

      // (3) Core sharing must match what the Placer authorized.
      const placer::Subgroup* authorized = nullptr;
      for (const auto& g : placement.subgroups) {
        if (g.chain == seg.chain && g.nodes == seg.nodes) {
          authorized = &g;
          break;
        }
      }
      if (authorized == nullptr) {
        report.add(Severity::kError, "bess.core-group-conflict", locus,
                   "plan segment has no matching Placer subgroup");
      } else if (authorized->server != plan.server ||
                 authorized->cores != seg.replicas() ||
                 authorized->shared_core != seg.core_group) {
        report.add(
            Severity::kError, "bess.core-group-conflict", locus,
            "plan assigns server " + std::to_string(plan.server) + ", " +
                std::to_string(seg.replicas()) + " core(s), share group " +
                std::to_string(seg.core_group) +
                " but the Placer authorized server " +
                std::to_string(authorized->server) + ", " +
                std::to_string(authorized->cores) + " core(s), share group " +
                std::to_string(authorized->shared_core));
      }

      // (4) Exits must re-encapsulate to live endpoints.
      for (const auto& exit : seg.exits) {
        if (endpoints.count(sp_key(exit.spi, exit.si)) == 0) {
          report.add(Severity::kError, "bess.exit-unknown-endpoint", locus,
                     "exit gate " + std::to_string(exit.gate) +
                         " re-encapsulates to " +
                         sp_str(exit.spi, exit.si) +
                         " which no segment entry or chain egress serves");
        }
      }
    }

    // Each dedicated replica and each shared group needs a core of its
    // own: the runtime schedules replicas on the plan's cores as given,
    // so any overlap shares a core the Placer budgeted as two.
    const std::string server_locus = "server " + std::to_string(plan.server);
    for (const auto& [group, cores] : cores_of_group) {
      if (cores.size() > 1) {
        report.add(Severity::kError, "bess.core-overallocation", server_locus,
                   "shared group " + std::to_string(group) + " spans " +
                       std::to_string(cores.size()) + " cores");
      }
      for (int core : cores) ++workers_on_core[core];
    }
    for (const auto& [core, workers] : workers_on_core) {
      if (workers > 1) {
        report.add(Severity::kError, "bess.core-overallocation", server_locus,
                   "core " + std::to_string(core) + " runs " +
                       std::to_string(workers) +
                       " workers (dedicated replicas or shared groups)");
      }
    }

    // A server that runs any segment also runs the shared demultiplexer
    // on core 0 (appendix A.1.2), beside the worker cores the plan claims.
    const int used = (plan.segments.empty() ? 0 : 1) + dedicated_cores +
                     static_cast<int>(shared_groups.size());
    if (used > server.total_cores()) {
      report.add(Severity::kError, "bess.core-overallocation",
                 server_locus,
                 "plan claims " + std::to_string(used) +
                     " core(s) but the server has " +
                     std::to_string(server.total_cores()));
    }
  }
}

// ---------------------------------------------------------------------------
// SLO lint (rule family slo.*).
// ---------------------------------------------------------------------------

void check_slo(const std::vector<chain::ChainSpec>& chains,
               const placer::PlacementResult& placement, Report& report) {
  const std::size_t n = std::min(chains.size(), placement.chains.size());
  for (std::size_t c = 0; c < n; ++c) {
    const auto& spec = chains[c];
    const auto& placed = placement.chains[c];
    const std::string locus = "chain " + std::to_string(c) + " ('" +
                              spec.name + "')";
    if (spec.slo.has_latency_bound() &&
        placed.latency_us > spec.slo.d_max_us + 1e-9) {
      report.add(Severity::kWarning, "slo.latency-budget", locus,
                 "profiled worst-path latency " +
                     std::to_string(placed.latency_us) +
                     " us already exceeds d_max " +
                     std::to_string(spec.slo.d_max_us) + " us");
    }
    if (spec.slo.t_min_gbps > placed.capacity_gbps + 1e-9) {
      report.add(Severity::kWarning, "slo.tmin-capacity", locus,
                 "t_min " + std::to_string(spec.slo.t_min_gbps) +
                     " Gbps exceeds the placement's capacity ceiling " +
                     std::to_string(placed.capacity_gbps) + " Gbps");
    } else if (spec.slo.t_min_gbps > placed.assigned_gbps + 1e-9) {
      report.add(Severity::kWarning, "slo.tmin-capacity", locus,
                 "t_min " + std::to_string(spec.slo.t_min_gbps) +
                     " Gbps exceeds the LP-assigned rate " +
                     std::to_string(placed.assigned_gbps) + " Gbps");
    }
  }
}

/// After a fault the recovery controller marks elements failed; any plan
/// that still assigns NFs (or subgroup cores) to them would deploy onto
/// hardware that is gone.
void check_failed_elements(const placer::PlacementResult& placement,
                           const metacompiler::CompiledArtifacts& artifacts,
                           const topo::Topology& topo, Report& report) {
  auto server_failed = [&](int s) {
    return s >= 0 && s < static_cast<int>(topo.servers.size()) &&
           topo.servers[static_cast<std::size_t>(s)].failed;
  };
  auto nic_failed = [&](int n) {
    return n >= 0 && n < static_cast<int>(topo.smartnics.size()) &&
           topo.smartnics[static_cast<std::size_t>(n)].failed;
  };
  for (const auto& g : placement.subgroups) {
    if (server_failed(g.server)) {
      report.add(Severity::kError, "place.failed-element",
                 "chain " + std::to_string(g.chain) + " subgroup",
                 "assigned to failed server " + std::to_string(g.server));
    }
  }
  for (const auto& a : placement.nic_nfs) {
    if (nic_failed(a.smartnic)) {
      report.add(Severity::kError, "place.failed-element",
                 "chain " + std::to_string(a.chain) + " node " +
                     std::to_string(a.node),
                 "assigned to failed SmartNIC " +
                     std::to_string(a.smartnic));
    }
  }
  const bool of_failed =
      topo.openflow.has_value() && topo.openflow->failed;
  // A server NF runs on its subgroup's server; one outside every
  // subgroup already fails bess.core-group-conflict.
  auto node_server = [&](int chain, int node) {
    const int g = placer::subgroup_of(placement.subgroups, chain, node);
    return g < 0 ? -1 : placement.subgroups[static_cast<std::size_t>(g)].server;
  };
  for (std::size_t c = 0; c < placement.chains.size(); ++c) {
    for (std::size_t n = 0; n < placement.chains[c].nodes.size(); ++n) {
      const auto& np = placement.chains[c].nodes[n];
      const bool hit =
          (np.target == placer::Target::kServer &&
           server_failed(node_server(static_cast<int>(c),
                                     static_cast<int>(n)))) ||
          (np.target == placer::Target::kSmartNic &&
           nic_failed(np.smartnic)) ||
          (np.target == placer::Target::kOpenFlow && of_failed);
      if (hit) {
        report.add(Severity::kError, "place.failed-element",
                   "chain " + std::to_string(c) + " node " +
                       std::to_string(n),
                   std::string("assigned to failed ") +
                       placer::to_string(np.target));
      }
    }
  }
  // Server plans must also be empty on failed servers, and NIC programs
  // must not load onto failed SmartNICs (the metacompiler lays artifacts
  // out per placement, but double-check them).
  for (std::size_t s = 0; s < artifacts.server_plans.size(); ++s) {
    if (server_failed(static_cast<int>(s)) &&
        !artifacts.server_plans[s].segments.empty()) {
      report.add(Severity::kError, "place.failed-element",
                 "server " + std::to_string(s),
                 "BESS plan deploys " +
                     std::to_string(artifacts.server_plans[s].segments.size()) +
                     " segment(s) onto a failed server");
    }
  }
  for (const auto& nic : artifacts.nic_programs) {
    if (nic_failed(nic.smartnic)) {
      report.add(Severity::kError, "place.failed-element",
                 "chain " + std::to_string(nic.chain) +
                     " / nic artifact node " + std::to_string(nic.node),
                 "NIC program loads onto failed SmartNIC " +
                     std::to_string(nic.smartnic));
    }
  }
}

/// The Testbed runs every NIC artifact's program as loaded, so each must
/// pass the eBPF verifier's loading restrictions first.
void check_nic_programs(const CompiledArtifacts& artifacts, Report& report) {
  for (const auto& nic : artifacts.nic_programs) {
    const auto verdict = nic::verify(nic.program);
    if (verdict.ok) continue;
    report.add(Severity::kError, "nic.program-verifies",
               "chain " + std::to_string(nic.chain) + " / nic artifact node " +
                   std::to_string(nic.node),
               "eBPF program rejected: " + verdict.error);
  }
}

}  // namespace

Report verify_artifacts(const std::vector<chain::ChainSpec>& chains,
                        const placer::PlacementResult& placement,
                        const metacompiler::CompiledArtifacts& artifacts,
                        const topo::Topology& topo) {
  Report report;
  report.rules_checked = static_cast<int>(rule_catalogue().size());
  if (artifacts.routings.size() != chains.size()) {
    report.add(Severity::kError, "nsh.dangling-exit", "deployment",
               "artifacts carry " +
                   std::to_string(artifacts.routings.size()) +
                   " chain routings for " + std::to_string(chains.size()) +
                   " chains");
    return report;
  }
  check_nsh_continuity(chains, artifacts, report);
  check_handoffs(artifacts, topo, report);
  check_nic_programs(artifacts, report);
  check_p4(artifacts, topo, report);
  check_bess(chains, placement, artifacts, topo, report);
  check_slo(chains, placement, report);
  check_failed_elements(placement, artifacts, topo, report);
  return report;
}

}  // namespace lemur::verify
