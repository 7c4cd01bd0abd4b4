#include "src/metacompiler/segments.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>

namespace lemur::metacompiler {
namespace {

using placer::Pattern;
using placer::Target;

/// Union-find over node ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }
  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      x = parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(x)])];
    }
    return x;
  }
  void unite(int a, int b) { parent_[static_cast<std::size_t>(find(a))] = find(b); }

 private:
  std::vector<int> parent_;
};

}  // namespace

bool Segment::contains(int node) const {
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

const SegmentEntry* Segment::entry_for(int node) const {
  for (const auto& e : entries) {
    if (e.node == node) return &e;
  }
  return nullptr;
}

int ChainRouting::segment_of(int node) const {
  for (const auto& s : segments) {
    if (s.contains(node)) return s.id;
  }
  return -1;
}

const Segment& ChainRouting::ingress_segment() const {
  return segments[static_cast<std::size_t>(segment_of(source_node))];
}

Handoff ChainRouting::handoff(const SegmentExit& exit) const {
  if (exit.next_segment < 0) return {spi, 0, nullptr};
  const auto& next = segments[static_cast<std::size_t>(exit.next_segment)];
  const auto* entry = next.entry_for(exit.next_entry_node);
  return {entry->spi, entry->si, &next};
}

SegmentIndex::SegmentIndex(const std::vector<ChainRouting>& routings) {
  for (const auto& routing : routings) {
    for (const auto& segment : routing.segments) {
      for (const auto& entry : segment.entries) {
        entries_[{entry.spi, entry.si}] =
            SegmentRef{segment.chain, segment.id, segment.target, entry.node};
      }
    }
  }
}

const SegmentRef* SegmentIndex::find(std::uint32_t spi,
                                     std::uint8_t si) const {
  const auto it = entries_.find({spi, si});
  return it != entries_.end() ? &it->second : nullptr;
}

std::string SegmentIndex::label(std::uint32_t spi, std::uint8_t si) const {
  const SegmentRef* ref = find(spi, si);
  if (ref == nullptr) {
    return "spi" + std::to_string(spi) + "/si" + std::to_string(si);
  }
  return "chain" + std::to_string(ref->chain + 1) + "/seg" +
         std::to_string(ref->segment) + "@" +
         placer::to_string(ref->target) + " entry n" +
         std::to_string(ref->entry_node);
}

std::vector<std::pair<const chain::NfEdge*, int>> gate_map(
    const chain::NfGraph& graph, int node) {
  std::vector<std::pair<const chain::NfEdge*, int>> out;
  int next_gate = 1;
  for (const auto* e : graph.out_edges(node)) {
    if (e->condition.has_value()) {
      out.emplace_back(e, next_gate++);
    } else {
      out.emplace_back(e, 0);
    }
  }
  // Single unconditioned out-edge keeps gate 0 (the common case).
  return out;
}

ChainRouting build_routing(const chain::ChainSpec& spec,
                           const Pattern& pattern, int chain_index) {
  const auto& graph = spec.graph;
  ChainRouting out;
  out.chain = chain_index;
  out.spi = static_cast<std::uint32_t>(chain_index + 1);

  const auto order = graph.topological_order();
  assert(!order.empty());
  out.source_node = graph.sources().front();

  auto target_of = [&](int id) {
    return pattern[static_cast<std::size_t>(id)].target;
  };

  // 1. Group nodes into segments.
  UnionFind uf(graph.nodes().size());
  // A whole connected P4 component executes in one switch traversal; a
  // server segment is one Placer subgroup; SmartNIC and OpenFlow segments
  // are single nodes.
  for (const auto& e : graph.edges()) {
    const bool p4 =
        target_of(e.from) == Target::kPisa && target_of(e.to) == Target::kPisa;
    if (p4 || placer::joins_subgroup(graph, pattern, e)) {
      uf.unite(e.from, e.to);
    }
  }

  std::map<int, int> root_to_segment;
  for (int id : order) {
    const int root = uf.find(id);
    auto it = root_to_segment.find(root);
    if (it == root_to_segment.end()) {
      Segment seg;
      seg.id = static_cast<int>(out.segments.size());
      seg.chain = chain_index;
      seg.target = target_of(id);
      root_to_segment.emplace(root, seg.id);
      out.segments.push_back(std::move(seg));
      it = root_to_segment.find(root);
    }
    out.segments[static_cast<std::size_t>(it->second)].nodes.push_back(id);
  }

  // 2. Entries: nodes whose predecessors are outside the segment (or the
  // chain source). Assign (SPI, SI): SI counts down in *chain topological
  // order* of the entry nodes, so the service index strictly decreases
  // along every path — including paths that leave a multi-entry P4
  // region and re-enter it further down. Starting at 63 keeps every
  // (SPI, SI) losslessly encodable in the 12-bit OpenFlow VLAN vid
  // (6 bits each, the paper's section 5.3 constraint); chains with more
  // than 63 hand-off points are rejected by the deployment verifier.
  std::uint8_t next_si = kInitialSi;
  for (int id : order) {
    const int seg_idx = out.segment_of(id);
    auto& seg = out.segments[static_cast<std::size_t>(seg_idx)];
    const auto preds = graph.predecessors(id);
    bool is_entry = preds.empty();
    for (int p : preds) {
      if (!seg.contains(p)) is_entry = true;
    }
    if (is_entry) {
      seg.entries.push_back(SegmentEntry{id, out.spi, next_si--});
    }
  }

  // 3. Exits: edges leaving a segment, plus chain egress at sinks.
  for (auto& seg : out.segments) {
    for (int id : seg.nodes) {
      const auto gates = gate_map(graph, id);
      if (gates.empty()) {
        seg.exits.push_back(SegmentExit{id, 0, std::nullopt, -1, -1});
        continue;
      }
      for (const auto& [edge, gate] : gates) {
        if (seg.contains(edge->to)) continue;  // Internal hand-off.
        SegmentExit exit;
        exit.from_node = id;
        exit.gate = gate;
        exit.condition = edge->condition;
        exit.next_segment = out.segment_of(edge->to);
        exit.next_entry_node = edge->to;
        seg.exits.push_back(std::move(exit));
      }
    }
  }
  return out;
}

void resolve_placement(ChainRouting& routing,
                       const placer::PlacementResult& placement,
                       const topo::Topology& topo) {
  const auto& pattern =
      placement.chains[static_cast<std::size_t>(routing.chain)].nodes;
  for (auto& segment : routing.segments) {
    if (segment.target == Target::kServer) {
      for (std::size_t g = 0; g < placement.subgroups.size(); ++g) {
        const auto& group = placement.subgroups[g];
        if (group.chain == segment.chain && group.nodes == segment.nodes) {
          segment.subgroup = static_cast<int>(g);
          segment.server = group.server;
          break;
        }
      }
    } else if (segment.target == Target::kSmartNic) {
      const int nic =
          pattern[static_cast<std::size_t>(segment.nodes.front())].smartnic;
      if (nic >= 0 && nic < static_cast<int>(topo.smartnics.size())) {
        segment.server =
            topo.smartnics[static_cast<std::size_t>(nic)].attached_server;
      }
    }
  }
}

}  // namespace lemur::metacompiler
