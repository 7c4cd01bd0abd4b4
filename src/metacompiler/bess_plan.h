// BESS pipeline code generation (paper section 4.2 "Codegen for BESS
// packet steering and NF scheduling" and appendix A.1): for each server,
// a declarative plan describing the shared demultiplexer, per-subgroup
// queues/replicas, NF module chains, generated branch-steering modules,
// NSH re-encapsulation, and core assignments. The runtime instantiates
// plans onto ServerDataplane simulators; print_script() emits the
// BESS-script text for operator inspection and LoC accounting.
#pragma once

#include <string>
#include <vector>

#include "src/metacompiler/segments.h"
#include "src/nf/software/header_nfs.h"

namespace lemur::metacompiler {

/// One run-to-completion subgroup deployed on a server.
struct BessSegmentPlan {
  int chain = 0;
  std::vector<int> nodes;  ///< Chain node ids, execution order.
  /// Worker core of each replica (appendix A.1.3). Core 0 runs the
  /// demultiplexer; a shared-core group's members all get its one core.
  std::vector<int> replica_cores;
  /// >= 0: run on the shared core carrying this group id (round-robin
  /// with the other members, appendix A.1.3); -1 = dedicated core(s).
  int core_group = -1;
  /// Share of the chain's traffic this subgroup sees (for splitting the
  /// chain's t_max rate limit across replicas).
  double traffic_fraction = 1.0;
  std::uint32_t spi_in = 0;
  std::uint8_t si_in = 255;

  struct Exit {
    int gate = 0;
    std::uint32_t spi = 0;
    std::uint8_t si = 0;  ///< si 0 = chain egress.
    /// The next segment runs on this server: the hand-off loops back
    /// into the demultiplexer without crossing the ToR.
    bool local = false;
  };
  std::vector<Exit> exits;  ///< Per output gate of the last node.

  /// Generated steering rules appended after a non-Match branching NF
  /// (the auto-generated demux the paper's metacompiler emits).
  std::vector<nf::MatchRule> generated_steering;
  [[nodiscard]] int replicas() const {
    return static_cast<int>(replica_cores.size());
  }
  [[nodiscard]] bool needs_generated_steering() const {
    return !generated_steering.empty();
  }
};

struct ServerPlan {
  int server = 0;
  std::vector<BessSegmentPlan> segments;

  /// BESS-script-like rendering of the pipeline.
  [[nodiscard]] std::string print_script(
      const std::vector<chain::ChainSpec>& chains) const;

  /// Lines attributable to generated coordination (ports, demux, queues,
  /// steering, encap) vs. NF instantiations.
  struct LocSummary {
    int total = 0;
    int coordination = 0;
  };
  [[nodiscard]] LocSummary loc_summary(
      const std::vector<chain::ChainSpec>& chains) const;
};

/// Builds the per-server plans for every server-placed segment of
/// `routings`, which resolve_placement() has resolved against the
/// placement `subgroups` come from.
std::vector<ServerPlan> build_bess_plans(
    const std::vector<chain::ChainSpec>& chains,
    const std::vector<ChainRouting>& routings,
    const std::vector<placer::Subgroup>& subgroups,
    const topo::Topology& topo);

}  // namespace lemur::metacompiler
