// Live recovery controller (the control plane of the chaos harness).
//
// The controller never peeks at the fault scheduler: it detects failures
// purely from the telemetry the Testbed emits — Testbed::fault_counters(),
// one cause=fault drop counter per failed Element (server, SmartNIC,
// OpenFlow switch, ToR link, wire), exported as fault.<element>.drops.
// Detection is followed by a fixed virtual control delay, kControlDelayNs
// (the modelled telemetry-pipeline + decision latency), after which the
// controller:
//
//   1. marks the failed element in a copy of the topology (a severed ToR
//      link isolates its server, so it marks the server),
//   2. incrementally re-places only the chains the element carried
//      (placer::replace_incremental over a persistent CachingOracle, so
//      unaffected subgroups' switch probes hit cache),
//   3. recompiles artifacts for the degraded plan,
//   4. hands them to Testbed::swap_plan, which verifies them, migrates
//      stateful NF state and atomically swaps the dataplane, and
//   5. when the degraded rack cannot carry every chain's t_min, walks the
//      degradation ladder: admission-shed the lowest-marginal chain
//      (explicit ledger cause) and retry until feasible.
//
// Wire impairments (corrupt) are not placement failures; the controller
// rides them out and closes the event once the wire's fault counter
// stays quiet for kImpairmentQuietQuanta quanta.
//
// Everything is keyed to virtual time, so with a fixed seed the whole
// event log — detection times, MTTRs, drop counts, final placements — is
// bit-identical across runs. Elements first detected in the same quantum
// are queued, recovered and reported in Element order (kind, then index).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/metacompiler/metacompiler.h"
#include "src/placer/caching_oracle.h"
#include "src/placer/placer.h"
#include "src/runtime/testbed.h"

namespace lemur::runtime {

class RecoveryController final : public RecoveryHook {
 public:
  /// Detection-to-action latency (telemetry pipeline + decision),
  /// virtual ns: three 100us quanta.
  static constexpr std::uint64_t kControlDelayNs = 300'000;
  /// An impairment ride-through closes after this many consecutive
  /// quanta without new fault drops on the wire.
  static constexpr int kImpairmentQuietQuanta = 3;

  /// `chains`/`topo` are copied (the controller mutates SLOs on the
  /// degradation ladder and failure marks on faults); `initial_placement`
  /// must outlive the controller. `oracle` is the real switch oracle; the
  /// controller wraps it in a persistent CachingOracle shared by every
  /// re-placement.
  RecoveryController(std::vector<chain::ChainSpec> chains,
                     const placer::PlacementResult& initial_placement,
                     const topo::Topology& topo,
                     placer::PlacerOptions placer_options,
                     placer::SwitchOracle& oracle);
  ~RecoveryController() override;

  void on_quantum(Testbed& testbed, std::uint64_t now_ns) override;
  [[nodiscard]] std::vector<RecoveryEvent> events() const override;

  /// Chains currently admission-shed by the degradation ladder.
  [[nodiscard]] const std::set<int>& shed_chains() const { return shed_; }

  /// Oracle-call accounting across every re-placement (cache hit rate is
  /// the incremental re-place win).
  [[nodiscard]] const placer::PlacementStats& oracle_stats() const {
    return cache_.stats();
  }

  /// The placement currently live (initial until the first recovery).
  [[nodiscard]] const placer::PlacementResult& current_placement() const;

  /// The chain set / topology of the live plan (the newest generation's
  /// after a recovery — shed chains have zeroed SLOs, failed elements
  /// are marked). The MTTR bench rebuilds fresh testbeds from these.
  [[nodiscard]] const std::vector<chain::ChainSpec>& current_chains() const;
  [[nodiscard]] const topo::Topology& current_topo() const;
  /// Artifacts of the newest generation; nullptr before any recovery.
  [[nodiscard]] const metacompiler::CompiledArtifacts* current_artifacts()
      const {
    return generations_.empty() ? nullptr : &generations_.back()->artifacts;
  }

 private:
  /// One recovered plan. Owned here because Testbed::swap_plan keeps
  /// references; generations are never freed while the controller lives.
  struct Generation {
    std::vector<chain::ChainSpec> chains;
    topo::Topology topo;
    placer::PlacementResult placement;
    metacompiler::CompiledArtifacts artifacts;
  };

  struct Pending {
    Element element;
    std::uint64_t detected_ns = 0;
    std::uint64_t execute_at_ns = 0;
  };

  /// Ride-through bookkeeping for an active wire impairment; indexes the
  /// already-appended event in events_.
  struct RideThrough {
    std::size_t event_index = 0;
    int quiet_quanta = 0;
  };

  void detect(Testbed& testbed, std::uint64_t now_ns);
  void execute(Testbed& testbed, const Pending& pending,
               std::uint64_t now_ns);
  [[nodiscard]] std::vector<int> affected_chains(Element element) const;
  /// Lowest-marginal not-yet-shed chain, or -1 when none remain.
  [[nodiscard]] int pick_shed_victim(
      const std::vector<chain::ChainSpec>& chains) const;

  std::vector<chain::ChainSpec> initial_chains_;
  const placer::PlacementResult* initial_placement_;
  topo::Topology initial_topo_;
  placer::PlacerOptions placer_options_;
  placer::CachingOracle cache_;

  std::deque<std::unique_ptr<Generation>> generations_;
  std::vector<RecoveryEvent> events_;
  std::vector<Pending> pending_;
  std::map<Element, std::uint64_t> last_counter_;
  std::map<Element, RideThrough> ride_throughs_;
  std::set<Element> handled_;  ///< Elements already recovered from.
  std::set<int> shed_;
};

}  // namespace lemur::runtime
