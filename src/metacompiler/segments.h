// Chain routing synthesis (paper section 4.1): decomposes each placed
// chain into *segments* — the units of cross-platform hand-off — and
// assigns each segment entry a Network Service Header (SPI, SI) pair.
//
//  - Server segments match the Placer's run-to-completion subgroups.
//  - PISA segments are connected components of switch-placed NFs: one
//    switch traversal executes the whole guarded component (appendix
//    A.2.2's subgroup DAG), possibly via multiple entry points.
//  - SmartNIC and OpenFlow NFs form single-node segments.
//
// resolve_placement() then records where each segment of a final
// placement runs, once, for every code generator.
//
// An exit edge records where traffic goes next (segment id + entry node)
// and under which branch condition, giving every code generator the same
// view of the chain's routing.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/placer/pattern.h"

namespace lemur::metacompiler {

/// First SI handed out per chain. SIs count down from here in chain
/// topological order, so they strictly decrease along every path and —
/// together with SPI < 64 — always fit the 6+6-bit OpenFlow VLAN vid
/// encoding (section 5.3) without truncation.
inline constexpr std::uint8_t kInitialSi = 63;

struct SegmentEntry {
  int node = 0;           ///< Entry NF node id.
  std::uint32_t spi = 0;  ///< Service path index carried by packets.
  std::uint8_t si = kInitialSi;  ///< Service index of this entry.
};

struct SegmentExit {
  int from_node = 0;
  int gate = 0;  ///< Output gate of from_node (0 = default/unconditioned).
  std::optional<chain::BranchCondition> condition;
  int next_segment = -1;    ///< -1 = chain egress.
  int next_entry_node = -1; ///< Entry node within next_segment.
};

struct Segment {
  int id = 0;
  int chain = 0;
  placer::Target target = placer::Target::kServer;
  std::vector<int> nodes;  ///< In topological order.
  std::vector<SegmentEntry> entries;
  std::vector<SegmentExit> exits;
  /// Set by resolve_placement(); -1 while unresolved.
  int subgroup = -1;  ///< Index into PlacementResult::subgroups (kServer).
  /// The server whose ToR port reaches the segment: a server segment's
  /// subgroup server, a SmartNIC segment's attached server.
  int server = -1;

  [[nodiscard]] bool contains(int node) const;
  [[nodiscard]] const SegmentEntry* entry_for(int node) const;
};

/// Where an exit hands packets off: the NSH (SPI, SI) to re-encapsulate
/// with, and the segment that entry belongs to (nullptr at chain egress,
/// which carries SI 0).
struct Handoff {
  std::uint32_t spi = 0;
  std::uint8_t si = 0;
  const Segment* next = nullptr;

  /// The next segment runs on server `s`: the hand-off skips the ToR.
  [[nodiscard]] bool local_to(int s) const {
    return next != nullptr && next->target == placer::Target::kServer &&
           next->server == s;
  }
};

struct ChainRouting {
  int chain = 0;
  std::uint32_t spi = 0;  ///< All segments of a chain share one SPI.
  int source_node = 0;    ///< The chain's single entry NF.
  std::vector<Segment> segments;

  /// Segment index containing `node`, or -1.
  [[nodiscard]] int segment_of(int node) const;
  /// The segment entered by chain ingress traffic.
  [[nodiscard]] const Segment& ingress_segment() const;
  /// The hand-off `exit` (of one of this chain's segments) performs.
  [[nodiscard]] Handoff handoff(const SegmentExit& exit) const;
};

/// Decomposes one placed chain. `chain_index` determines the SPI
/// (chain_index + 1). Reads only each NF's target, so a provisional
/// pattern routes too; its segments stay unresolved.
ChainRouting build_routing(const chain::ChainSpec& spec,
                           const placer::Pattern& pattern, int chain_index);

/// Resolves each segment of `routing` against the final `placement`: a
/// server segment's subgroup (the one with its node set) and server, a
/// SmartNIC segment's attached server.
void resolve_placement(ChainRouting& routing,
                       const placer::PlacementResult& placement,
                       const topo::Topology& topo);

/// What a packet's NSH coordinates point at: the segment (and entry node)
/// it is about to execute.
struct SegmentRef {
  int chain = 0;
  int segment = 0;
  placer::Target target = placer::Target::kServer;
  int entry_node = 0;
};

/// Reverse index from the (SPI, SI) packets actually carry to the segment
/// they enter. Telemetry uses it to turn raw per-hop trace records into
/// human-readable attribution ("chain 1, segment 2 on server").
class SegmentIndex {
 public:
  SegmentIndex() = default;
  explicit SegmentIndex(const std::vector<ChainRouting>& routings);

  [[nodiscard]] const SegmentRef* find(std::uint32_t spi,
                                       std::uint8_t si) const;

  /// "chain1/seg0@server entry n3"; falls back to "spi1/si60" for
  /// coordinates the compiled routings never assigned.
  [[nodiscard]] std::string label(std::uint32_t spi, std::uint8_t si) const;

  [[nodiscard]] const std::map<std::pair<std::uint32_t, std::uint8_t>,
                               SegmentRef>&
  entries() const {
    return entries_;
  }

 private:
  std::map<std::pair<std::uint32_t, std::uint8_t>, SegmentRef> entries_;
};

/// Gate numbering for a node's out-edges: unconditioned edges get gate 0,
/// conditioned edges get 1, 2, ... in graph order. Returns pairs of
/// (edge pointer, gate).
std::vector<std::pair<const chain::NfEdge*, int>> gate_map(
    const chain::NfGraph& graph, int node);

}  // namespace lemur::metacompiler
