// Public entry point of Lemur's Placer (paper section 3).
//
// Usage:
//   EstimateOracle oracle(topo.tor);          // or the metacompiler's
//   auto result = place(Strategy::kLemur, chains, topo, options, oracle);
//
// The result is guaranteed SLO-satisfying when `feasible` is true: every
// chain's assigned rate >= t_min under the link-capacity LP, the PISA
// program fits the switch per the oracle, and latency bounds hold.
#pragma once

#include "src/placer/core_alloc.h"
#include "src/placer/evaluate.h"
#include "src/placer/oracle.h"
#include "src/placer/types.h"

namespace lemur::placer {

/// Runs the given placement strategy. `chains` must all validate().
PlacementResult place(Strategy strategy,
                      const std::vector<chain::ChainSpec>& chains,
                      const topo::Topology& topo,
                      const PlacerOptions& options, SwitchOracle& oracle);

/// Incremental re-placement after a fault: the same heuristic place()
/// runs for Strategy::kLemur (switch fit, coalescing variants, core
/// allocation search), with the unaffected chains frozen. Chains in
/// `affected_chains` restart from the hardware-preferred pattern on
/// `degraded_topo` (whose failed elements contribute zero cores / zero
/// link capacity and are excluded from pattern targets) and are the only
/// ones demoted or coalesced; every other chain keeps the pattern it had
/// in `previous`, so when `oracle` is a persistent CachingOracle the
/// unaffected subgroups' switch probes all hit cache. Core allocation and
/// the rate LP re-run globally (rack capacity changed). Unlike place(),
/// it does not run latency repair.
PlacementResult replace_incremental(const std::vector<chain::ChainSpec>& chains,
                                    const topo::Topology& degraded_topo,
                                    const PlacementResult& previous,
                                    const std::vector<int>& affected_chains,
                                    const PlacerOptions& options,
                                    SwitchOracle& oracle);

// --- Building blocks shared by strategies (exposed for tests) -------------

/// Hardware-preferred pattern: PISA > SmartNIC > OpenFlow > server.
Pattern hw_preferred_pattern(const chain::ChainSpec& spec,
                             const topo::Topology& topo,
                             const PlacerOptions& options);

/// All-software pattern.
Pattern sw_pattern(const chain::ChainSpec& spec);

/// Step 1 of the heuristic: demote the lowest-cycle-cost PISA NF of a
/// `movable` chain until the oracle accepts. Returns the stage count of
/// the accepted program, or -1 when the remaining (pinned, P4-only, or
/// frozen) NFs alone overflow the switch.
int fit_to_switch(std::vector<Pattern>& patterns,
                  const std::vector<bool>& movable,
                  const std::vector<chain::ChainSpec>& chains,
                  const topo::Topology& topo, const PlacerOptions& options,
                  SwitchOracle& oracle);

/// Enumerates every legal pattern of one chain (bounded; used by Optimal
/// and Minimum Bounce).
std::vector<Pattern> enumerate_patterns(const chain::ChainSpec& spec,
                                        const topo::Topology& topo,
                                        const PlacerOptions& options,
                                        std::size_t limit = 100000);

}  // namespace lemur::placer
