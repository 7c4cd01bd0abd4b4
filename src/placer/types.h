// Core types of Lemur's Placer (paper section 3): placements, subgroups,
// strategies, and options.
#pragma once

#include <string>
#include <vector>

#include "src/chain/canonical.h"
#include "src/topo/topology.h"

namespace lemur::placer {

/// Placement strategies compared in the paper's evaluation (section 5.1).
enum class Strategy {
  kLemur,            ///< The heuristic of section 3.2 (the default).
  kOptimal,          ///< Brute-force placement (bounded-beam search).
  kHwPreferred,      ///< Max hardware offload, spare cores spread evenly.
  kSwPreferred,      ///< Everything in software.
  kMinimumBounce,    ///< Fewest switch<->server transitions (E2-style).
  kGreedy,           ///< HW-preferred + SLO-aware sequential core greed.
  kNoProfiling,      ///< Lemur with uniform NF costs (Figure 2f ablation).
  kNoCoreAllocation  ///< Lemur with one core per subgroup (Figure 2f).
};

[[nodiscard]] const char* to_string(Strategy strategy);

/// Where one NF instance executes.
enum class Target { kPisa, kServer, kSmartNic, kOpenFlow };

[[nodiscard]] const char* to_string(Target target);

/// A kServer node runs on its subgroup's server (Subgroup::server).
struct NodePlacement {
  Target target = Target::kServer;
  int smartnic = 0;  ///< Valid when target is kSmartNic.
};

/// A run-to-completion subgroup: consecutive server NFs of one chain
/// executed on the same core(s) with zero-copy hand-off (section 3.2).
struct Subgroup {
  int chain = 0;              ///< Index into the chain list.
  std::vector<int> nodes;     ///< Node ids, in chain order.
  std::uint64_t cycles = 0;   ///< Worst-case cycles/packet incl. overheads.
  double traffic_fraction = 1.0;  ///< Share of the chain's rate it sees.
  bool replicable = true;
  int server = 0;
  int cores = 1;
  /// >= 0: this subgroup shares a core with every other subgroup carrying
  /// the same id (BESS round-robin scheduling of multiple subgroups on
  /// one core, paper appendix A.1.3). The shared core's cycle budget
  /// becomes a joint LP constraint. -1 = dedicated core(s).
  int shared_core = -1;
};

/// One NF assigned to a SmartNIC engine.
struct NicAssignment {
  int chain = 0;
  int node = 0;
  int smartnic = 0;
  std::uint64_t cycles = 0;       ///< Server-equivalent cycles/packet.
  double traffic_fraction = 1.0;
};

struct ChainPlacement {
  std::vector<NodePlacement> nodes;  ///< Indexed by node id.
  int bounces = 0;  ///< Switch<->server(-side) transitions on the worst path.
  double capacity_gbps = 0;   ///< Placement-implied rate ceiling.
  double assigned_gbps = 0;   ///< LP-assigned rate (>= t_min if feasible).
  double latency_us = 0;      ///< Worst-path latency estimate.
};

/// Oracle-call accounting for one place() invocation. The search paths
/// (heuristic demotion loop, brute-force beam product, latency repair)
/// repeatedly probe the same PISA node sets; a memo table in front of
/// the switch oracle answers repeats without re-running the compiler.
struct PlacementStats {
  std::uint64_t oracle_calls = 0;   ///< check() queries issued by search.
  std::uint64_t oracle_hits = 0;    ///< Served from the memo table.
  std::uint64_t oracle_misses = 0;  ///< Forwarded to the real oracle.
};

struct PlacementResult {
  bool feasible = false;
  std::string infeasible_reason;
  Strategy strategy = Strategy::kLemur;

  std::vector<ChainPlacement> chains;
  std::vector<Subgroup> subgroups;          ///< Across all chains.
  std::vector<NicAssignment> nic_nfs;

  double aggregate_gbps = 0;        ///< Sum of assigned chain rates.
  double aggregate_t_min_gbps = 0;  ///< Sum of chain t_min.
  /// Marginal throughput = aggregate - aggregate_t_min (the objective).
  [[nodiscard]] double marginal_gbps() const {
    return aggregate_gbps - aggregate_t_min_gbps;
  }

  int cores_used = 0;
  double placement_seconds = 0;  ///< Wall-clock spent placing.
  PlacementStats stats;          ///< Oracle-call accounting for the search.
};

struct PlacerOptions {
  /// Figure 3c setup: "use an OpenFlow switch in place of a PISA switch".
  /// Disables NF offload onto the PISA ToR (it still coordinates), so
  /// hardware acceleration can only come from the OF switch or SmartNICs.
  bool disable_pisa_nfs = false;

  /// Multiplies every profiled cost (profiling-error experiment,
  /// section 5.2: values < 1 under-estimate costs).
  double profile_scale = 1.0;

  /// Figure 2f "No Profiling": when set, profiled_cycles() returns
  /// one uniform cost for every NF. Strategies set this in their
  /// *belief* options during decision-making; the final evaluation always
  /// re-scores placements with true profiles.
  bool no_profiling = false;

  // --- Extensions the paper defers to future work ---------------------------

  /// Section 3.2 future work: replicate NAT across cores by partitioning
  /// the external port space (each replica allocates from a disjoint
  /// range, so no cross-core state sharing). When set, subgroups whose
  /// only stateful members are NATs become replicable; the metacompiler
  /// and runtime give each replica its own port range.
  bool replicate_nat_by_port_partition = false;

  /// Footnote 2 future work: the rate-allocation objective. kMaxMarginal
  /// is the paper's default (maximize sum of rates above t_min);
  /// kWeighted maximizes the weighted sum (weights from ChainSpec);
  /// kMaxMin maximizes the minimum marginal rate across chains first,
  /// then the sum (lexicographic max-min fairness).
  enum class Objective { kMaxMarginal, kWeighted, kMaxMin };
  Objective objective = Objective::kMaxMarginal;
};

}  // namespace lemur::placer
