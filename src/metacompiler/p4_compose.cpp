#include "src/metacompiler/p4_compose.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "src/nf/p4/p4_nfs.h"

namespace lemur::metacompiler {
namespace {

using pisa::ActionDef;
using pisa::Condition;
using pisa::Guard;
using pisa::MatchField;
using pisa::MatchKind;
using pisa::MatchValue;
using pisa::P4Program;
using pisa::PrimitiveOp;
using pisa::TableApply;
using pisa::TableDef;
using pisa::TableEntry;

PrimitiveOp op(PrimitiveOp::Kind kind, std::string field = "",
               int param = 0, std::int64_t imm = 0) {
  PrimitiveOp out;
  out.kind = kind;
  out.field = std::move(field);
  out.param = param;
  out.imm = imm;
  return out;
}

/// Maps a chain-spec branch-condition field to (P4 field, bit width).
std::pair<std::string, int> p4_field_of(const std::string& field) {
  if (field == "dst_port") return {"l4.dport", 16};
  if (field == "src_port") return {"l4.sport", 16};
  if (field == "dst_ip") return {"ipv4.dst", 32};
  if (field == "src_ip") return {"ipv4.src", 32};
  if (field == "proto") return {"ipv4.proto", 8};
  if (field == "dscp") return {"ipv4.dscp", 8};
  if (field == "vlan_tag") return {"vlan.vid", 12};
  return {"ipv4.dscp", 8};  // Unknown fields read as dscp (never matches).
}

/// Region-internal reachability analysis, in terms of region-local node
/// bits: bit i of a mask refers to region.nodes[i].
class RegionAnalysis {
 public:
  RegionAnalysis(const chain::NfGraph& graph, const Segment& region)
      : graph_(graph), region_(region) {
    for (int n : region.nodes) index_[n] = static_cast<int>(index_.size());
  }

  /// The bit identifying `node` in path masks.
  [[nodiscard]] std::uint64_t node_bit(int node) const {
    return 1ull << index_.at(node);
  }

  /// Bitmask of region nodes reachable from `from` (including itself).
  [[nodiscard]] std::uint64_t reach_any(int from) const {
    std::uint64_t mask = 0;
    collect(from, mask);
    return mask;
  }

  /// True if some entry reaches `node` on a path avoiding `avoid`.
  [[nodiscard]] bool reachable_avoiding(int node, int avoid) const {
    for (const auto& entry : region_.entries) {
      if (entry.node == avoid) continue;
      if (reaches_avoiding(entry.node, node, avoid)) return true;
    }
    return false;
  }

  /// True if `from` reaches `to` within the region, avoiding `avoid`.
  [[nodiscard]] bool reaches_avoiding(int from, int to, int avoid) const {
    if (from == avoid) return false;
    if (from == to) return true;
    for (int succ : graph_.successors(from)) {
      if (!region_.contains(succ) || succ == avoid) continue;
      if (reaches_avoiding(succ, to, avoid)) return true;
    }
    return false;
  }

  /// The path-mask kept when the splitter at branch node `b` picks
  /// `gate`: the subtrees of every *other* gate are pruned, except for
  /// nodes the taken gate also reaches (merges).
  [[nodiscard]] std::uint64_t keep_mask(int b, int gate,
                                        const chain::NfGraph& graph) const {
    std::uint64_t taken = 0;
    std::uint64_t others = 0;
    for (const auto& [edge, g] : gate_map(graph, b)) {
      if (!region_.contains(edge->to)) continue;
      if (g == gate) {
        taken |= reach_any(edge->to);
      } else {
        others |= reach_any(edge->to);
      }
    }
    return ~(others & ~taken);
  }

 private:
  void collect(int node, std::uint64_t& mask) const {
    const std::uint64_t bit = node_bit(node);
    if (mask & bit) return;
    mask |= bit;
    for (int succ : graph_.successors(node)) {
      if (region_.contains(succ)) collect(succ, mask);
    }
  }

  const chain::NfGraph& graph_;
  const Segment& region_;
  std::map<int, int> index_;
};

/// Builder collecting the composed program.
class Composer {
 public:
  Composer(const std::vector<chain::ChainSpec>& chains,
           const std::vector<ChainRouting>& routings, const PortMap& ports)
      : chains_(chains), routings_(routings), ports_(ports) {}

  P4Artifact run() {
    init_parser_and_headers();
    build_steering_table();
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      for (const auto& segment : routings_[c].segments) {
        if (segment.target != placer::Target::kPisa) continue;
        if (!compose_region(static_cast<int>(c), segment)) {
          return std::move(artifact_);
        }
      }
      add_chain_steering_entries(static_cast<int>(c));
    }
    artifact_.program = std::move(prog_);
    return std::move(artifact_);
  }

 private:
  // --- headers & parser ------------------------------------------------------

  void add_header(const pisa::HeaderDef& header) {
    for (const auto& h : prog_.headers) {
      if (h.name == header.name) return;
    }
    prog_.headers.push_back(header);
  }

  void init_parser_and_headers() {
    add_header(nf::p4::standard_header("eth"));
    add_header(nf::p4::standard_header("nsh"));
    add_header(nf::p4::standard_header("ipv4"));
    prog_.parser.root = "eth";
    prog_.parser.states = {"eth", "nsh", "ipv4"};
    prog_.parser.transitions = {
        {"eth", "eth.type", 0x894f, "nsh"},
        {"eth", "eth.type", 0x0800, "ipv4"},
        {"nsh", "nsh.next", 1, "ipv4"},
    };
  }

  bool merge_bundle_parser(const pisa::ParserGraph& parser) {
    auto merged = pisa::merge_parsers(prog_.parser, parser);
    if (!merged.ok) {
      artifact_.error = "parser conflict: " + merged.conflict;
      return false;
    }
    prog_.parser = std::move(merged.merged);
    return true;
  }

  // --- steering (optimization (c): one first-stage table) --------------------

  void build_steering_table() {
    TableDef steer;
    steer.name = "lemur_steer";
    steer.match = {{"nsh.spi", MatchKind::kExact, 24},
                   {"nsh.si", MatchKind::kExact, 8},
                   {"ipv4.src", MatchKind::kTernary, 32}};
    steer.size = 256;

    // Enter a P4 region: strip any NSH (regions run NSH-free; exits
    // re-push — optimization (a) falls out for all-switch chains), then
    // record the region context and the reachability path mask (pruned
    // further by traffic-splitting tables at branch nodes).
    ActionDef enter;
    enter.name = "steer_enter";
    enter.num_params = 2;
    enter.ops.push_back(op(PrimitiveOp::Kind::kPopNsh));
    enter.ops.push_back(
        op(PrimitiveOp::Kind::kSetFieldParam, "meta.region", 0));
    enter.ops.push_back(
        op(PrimitiveOp::Kind::kSetFieldParam, "meta.path", 1));

    // Forward to a platform, NSH already set by the sender.
    ActionDef fwd;
    fwd.name = "steer_fwd";
    fwd.num_params = 1;
    fwd.ops.push_back(op(PrimitiveOp::Kind::kEgressParam, "", 0));

    // First sight of a chain whose ingress is off-switch: tag + forward.
    ActionDef push_fwd;
    push_fwd.name = "steer_push_fwd";
    push_fwd.num_params = 3;
    push_fwd.ops.push_back(op(PrimitiveOp::Kind::kPushNshParams, "", 0));
    push_fwd.ops.push_back(op(PrimitiveOp::Kind::kEgressParam, "", 2));

    // Chain egress for NSH-carrying traffic.
    ActionDef pop_out;
    pop_out.name = "steer_pop_out";
    pop_out.num_params = 1;
    pop_out.ops.push_back(op(PrimitiveOp::Kind::kPopNsh));
    pop_out.ops.push_back(op(PrimitiveOp::Kind::kEgressParam, "", 0));

    ActionDef deny;
    deny.name = "steer_deny";
    deny.ops.push_back(op(PrimitiveOp::Kind::kDrop));

    steer.actions = {enter, fwd, push_fwd, pop_out, deny};
    steer.default_action = "steer_deny";
    prog_.tables.push_back(std::move(steer));
    artifact_.coordination_tables.insert("lemur_steer");
    prog_.control.push_back(TableApply{0, {}});
  }

  void add_chain_steering_entries(int c) {
    const auto& routing = routings_[static_cast<std::size_t>(c)];
    const auto& chain = chains_[static_cast<std::size_t>(c)];
    const std::uint64_t src_value =
        aggregate_prefix_value(chain.aggregate_id);

    auto key = [&](std::uint64_t spi, std::uint64_t si, bool match_src) {
      std::vector<MatchValue> k;
      k.push_back(MatchValue::exact(spi));
      k.push_back(MatchValue::exact(si));
      k.push_back(match_src
                      ? MatchValue::ternary(src_value, aggregate_prefix_mask())
                      : MatchValue::wildcard());
      return k;
    };

    // Unseen traffic of this aggregate.
    const Segment& ingress = routing.ingress_segment();
    TableEntry first;
    first.key = key(0, 0, true);
    first.priority = 10;
    if (ingress.target == placer::Target::kPisa) {
      first.action = "steer_enter";
      first.params = {region_id_.at({c, ingress.id}),
                      entry_path_mask_.at({c, routing.source_node})};
    } else {
      const auto* entry = ingress.entry_for(routing.source_node);
      first.action = "steer_push_fwd";
      first.params = {entry->spi, entry->si, port_of(ingress)};
    }
    artifact_.entries.emplace_back("lemur_steer", std::move(first));

    // Returning / in-transit traffic, per segment entry.
    for (const auto& segment : routing.segments) {
      for (std::size_t e = 0; e < segment.entries.size(); ++e) {
        const auto& entry = segment.entries[e];
        if (segment.target == placer::Target::kPisa) {
          TableEntry t;
          t.key = key(entry.spi, entry.si, false);
          t.action = "steer_enter";
          t.params = {region_id_.at({c, segment.id}),
                      entry_path_mask_.at({c, entry.node})};
          artifact_.entries.emplace_back("lemur_steer", std::move(t));
        } else {
          TableEntry t;
          t.key = key(entry.spi, entry.si, false);
          t.action = "steer_fwd";
          t.params = {port_of(segment)};
          artifact_.entries.emplace_back("lemur_steer", std::move(t));
        }
      }
    }
    // Chain egress id (spi, si=0).
    TableEntry out;
    out.key = key(routing.spi, 0, false);
    out.action = "steer_pop_out";
    out.params = {ports_.network_egress};
    artifact_.entries.emplace_back("lemur_steer", std::move(out));
  }

  /// ToR egress port reaching a non-switch segment. Unresolved segments
  /// (oracle probes of provisional patterns) go to server 0.
  std::uint32_t port_of(const Segment& segment) const {
    if (segment.target == placer::Target::kOpenFlow) return ports_.of_switch;
    return ports_.server(std::max(segment.server, 0));
  }

  // --- P4 regions ---------------------------------------------------------------

  /// The guard a table belonging to `node_id` must carry: region id, the
  /// node's reachability bit in the dynamic path mask (set by steering,
  /// pruned by splitters — the execute-exactly-when-reached semantics of
  /// appendix A.2.2's merge handling), plus every branch decision that
  /// *dominates* the node. The equality conditions are redundant with the
  /// path bit at runtime but give the platform compiler the exclusivity
  /// facts it packs parallel branches with (optimization (d)).
  Guard node_guard(int c, const Segment& region, int region_id,
                   const RegionAnalysis& analysis, int node_id) const {
    const auto& graph = chains_[static_cast<std::size_t>(c)].graph;
    Guard base;
    base.all_of.push_back({"meta.region", Condition::Cmp::kEq,
                           static_cast<std::uint64_t>(region_id)});
    base.all_of.push_back({"meta.path", Condition::Cmp::kAnyBits,
                           analysis.node_bit(node_id)});
    for (int branch : region.nodes) {
      if (branch == node_id) continue;
      if (graph.successors(branch).size() <= 1) continue;
      if (analysis.reachable_avoiding(node_id, branch)) continue;
      // Every path to node passes through `branch`: which gates lead on?
      std::set<int> gates;
      for (const auto& [edge, gate] : gate_map(graph, branch)) {
        if (!region.contains(edge->to)) continue;
        if (edge->to == node_id ||
            analysis.reaches_avoiding(edge->to, node_id, branch)) {
          gates.insert(gate);
        }
      }
      if (gates.size() == 1) {
        base.all_of.push_back({branch_field(c, branch), Condition::Cmp::kEq,
                               static_cast<std::uint64_t>(*gates.begin())});
      }
    }
    return base;
  }

  bool compose_region(int c, const Segment& region) {
    const auto& chain = chains_[static_cast<std::size_t>(c)];
    const auto& graph = chain.graph;
    const int region_id = next_region_id_++;
    region_id_[{c, region.id}] = region_id;
    RegionAnalysis analysis(graph, region);
    for (const auto& entry : region.entries) {
      entry_path_mask_[{c, entry.node}] = analysis.reach_any(entry.node);
    }

    for (int node_id : region.nodes) {
      const auto& node = graph.node(node_id);
      const Guard base = node_guard(c, region, region_id, analysis, node_id);
      if (!append_nf_tables(c, node, base)) return false;
      if (graph.successors(node_id).size() > 1) {
        append_splitter(c, node_id, graph, analysis, base);
      }
    }

    // Exit routing: one guarded table per exit edge (optimization (b):
    // the NSH is written exactly once, at region exit). The guard carries
    // the source node's full context plus the taken gate, so an exit
    // never fires for packets on a sibling branch.
    for (const auto& exit : region.exits) {
      Guard guard =
          node_guard(c, region, region_id, analysis, exit.from_node);
      if (graph.successors(exit.from_node).size() > 1) {
        guard.all_of.push_back(
            {branch_field(c, exit.from_node), Condition::Cmp::kEq,
             static_cast<std::uint64_t>(exit.gate)});
      }
      append_exit_table(c, region, exit, guard);
    }
    return true;
  }

  std::string branch_field(int c, int node) const {
    return "meta.branch_c" + std::to_string(c) + "_n" + std::to_string(node);
  }

  /// The P4 bundle of `node`'s (type, config), built once per program;
  /// its headers and parser are merged when it is built, as a repeat
  /// merge would add nothing. Null (with the error set) if there is none.
  const nf::p4::P4NfBundle* bundle_for(const chain::NfNode& node) {
    for (const auto& [key, bundle] : bundles_) {
      if (key->type == node.type && key->config == node.config) {
        return &bundle;
      }
    }
    auto bundle = nf::p4::make_p4_nf(node.type, node.config);
    if (!bundle) {
      artifact_.error = "NF '" + node.instance_name +
                        "' placed on the switch but has no P4 bundle";
      return nullptr;
    }
    for (const auto& h : bundle->headers) add_header(h);
    if (!merge_bundle_parser(bundle->parser)) return nullptr;
    return &bundles_.emplace_back(&node, std::move(*bundle)).second;
  }

  bool append_nf_tables(int c, const chain::NfNode& node,
                        const Guard& base) {
    const auto* bundle = bundle_for(node);
    if (bundle == nullptr) return false;

    const std::string prefix =
        "c" + std::to_string(c) + "_" + node.instance_name + "_";
    const int table_base = static_cast<int>(prog_.tables.size());
    for (auto table : bundle->tables) {
      table.name = prefix + table.name;
      // Mangle metadata fields written/read by the NF's actions so two
      // instances never collide.
      for (auto& action : table.actions) {
        for (auto& op_ref : action.ops) {
          if (op_ref.field.starts_with("meta.")) {
            op_ref.field = "meta." + prefix + op_ref.field.substr(5);
          }
          if (op_ref.src_field.starts_with("meta.")) {
            op_ref.src_field = "meta." + prefix + op_ref.src_field.substr(5);
          }
        }
      }
      prog_.tables.push_back(std::move(table));
    }
    for (const auto& local : bundle->control) {
      TableApply apply;
      apply.table = table_base + local.table;
      apply.guard = base;
      for (auto cond : local.guard.all_of) {
        if (cond.field.starts_with("meta.")) {
          cond.field = "meta." + prefix + cond.field.substr(5);
        }
        apply.guard.all_of.push_back(cond);
      }
      prog_.control.push_back(std::move(apply));
    }
    for (const auto& [local_name, entry] : bundle->entries) {
      artifact_.entries.emplace_back(prefix + local_name, entry);
    }
    return true;
  }

  /// Generated traffic-splitting table at a branch node (appendix A.2.2):
  /// records the taken gate in branch metadata and prunes the path mask
  /// to the taken subtree.
  void append_splitter(int c, int node_id, const chain::NfGraph& graph,
                       const RegionAnalysis& analysis, const Guard& base) {
    const auto gates = gate_map(graph, node_id);
    // Distinct condition fields, in first-use order.
    std::vector<std::string> fields;
    for (const auto& [edge, gate] : gates) {
      if (!edge->condition) continue;
      const auto [p4f, bits] = p4_field_of(edge->condition->field);
      if (std::find(fields.begin(), fields.end(), p4f) == fields.end()) {
        fields.push_back(p4f);
      }
    }
    TableDef split;
    split.name = "c" + std::to_string(c) + "_n" + std::to_string(node_id) +
                 "_split";
    for (const auto& f : fields) {
      int bits = 32;
      for (const auto& [edge, gate] : gates) {
        if (edge->condition && p4_field_of(edge->condition->field).first == f) {
          bits = p4_field_of(edge->condition->field).second;
        }
      }
      split.match.push_back({f, MatchKind::kTernary, bits});
    }
    split.size = static_cast<int>(gates.size()) + 1;
    ActionDef set_branch;
    set_branch.name = "set_branch";
    set_branch.num_params = 2;
    set_branch.ops.push_back(
        op(PrimitiveOp::Kind::kSetFieldParam, branch_field(c, node_id), 0));
    set_branch.ops.push_back(
        op(PrimitiveOp::Kind::kAndFieldParam, "meta.path", 1));
    split.actions = {set_branch};
    // Miss = the unconditioned default gate (gate 0); if every edge is
    // conditioned, unmatched traffic keeps no downstream bits (parked).
    split.default_action = "set_branch";
    split.default_params = {0, analysis.keep_mask(node_id, 0, graph)};
    artifact_.coordination_tables.insert(split.name);

    // Entries: one per conditioned edge, pruning to the taken subtree.
    int priority = 100;
    for (const auto& [edge, gate] : gates) {
      if (!edge->condition) continue;
      TableEntry entry;
      for (const auto& f : fields) {
        const auto [p4f, bits] = p4_field_of(edge->condition->field);
        if (f == p4f) {
          entry.key.push_back(MatchValue::ternary(
              edge->condition->value,
              bits >= 64 ? ~0ull : (1ull << bits) - 1));
        } else {
          entry.key.push_back(MatchValue::wildcard());
        }
      }
      entry.priority = priority--;
      entry.action = "set_branch";
      entry.params = {static_cast<std::uint64_t>(gate),
                      analysis.keep_mask(node_id, gate, graph)};
      artifact_.entries.emplace_back(split.name, std::move(entry));
    }

    const int table_index = static_cast<int>(prog_.tables.size());
    prog_.tables.push_back(std::move(split));
    TableApply apply;
    apply.table = table_index;
    apply.guard = base;
    prog_.control.push_back(std::move(apply));
  }

  void append_exit_table(int c, const Segment& region,
                         const SegmentExit& exit, const Guard& guard) {
    (void)region;
    TableDef route;
    route.name = "c" + std::to_string(c) + "_route_n" +
                 std::to_string(exit.from_node) + "_g" +
                 std::to_string(exit.gate);
    route.size = 1;
    ActionDef act;
    act.name = "route";
    if (exit.next_segment < 0) {
      // Chain egress straight from the switch: no NSH was ever pushed.
      act.num_params = 1;
      act.ops.push_back(op(PrimitiveOp::Kind::kEgressParam, "", 0));
      route.default_params = {ports_.network_egress};
    } else {
      const Handoff handoff =
          routings_[static_cast<std::size_t>(c)].handoff(exit);
      act.num_params = 3;
      act.ops.push_back(op(PrimitiveOp::Kind::kPushNshParams, "", 0));
      act.ops.push_back(op(PrimitiveOp::Kind::kEgressParam, "", 2));
      route.default_params = {handoff.spi, handoff.si,
                              port_of(*handoff.next)};
    }
    route.actions = {act};
    route.default_action = "route";
    artifact_.coordination_tables.insert(route.name);

    const int table_index = static_cast<int>(prog_.tables.size());
    prog_.tables.push_back(std::move(route));
    TableApply apply;
    apply.table = table_index;
    apply.guard = guard;
    prog_.control.push_back(std::move(apply));
  }

  const std::vector<chain::ChainSpec>& chains_;
  const std::vector<ChainRouting>& routings_;
  const PortMap& ports_;

  P4Program prog_;
  P4Artifact artifact_;
  /// Bundles built so far, keyed by the first node of their (type, config).
  std::deque<std::pair<const chain::NfNode*, nf::p4::P4NfBundle>> bundles_;
  std::map<std::pair<int, int>, std::uint64_t> region_id_;
  /// (chain, entry node) -> initial reachability path mask.
  std::map<std::pair<int, int>, std::uint64_t> entry_path_mask_;
  int next_region_id_ = 1;
};

}  // namespace

std::uint32_t aggregate_prefix_value(std::uint32_t aggregate_id) {
  return 0x0a000000u | ((aggregate_id & 0xff) << 16);  // 10.<id>.0.0.
}

std::uint64_t aggregate_prefix_mask() { return 0xffff0000ull; }

P4Artifact compose_p4(const std::vector<chain::ChainSpec>& chains,
                      const std::vector<ChainRouting>& routings,
                      const PortMap& ports) {
  Composer composer(chains, routings, ports);
  return composer.run();
}

}  // namespace lemur::metacompiler
