// The deployment engine: instantiates the metacompiler's artifacts onto
// the simulated rack (PISA ToR + BESS servers + SmartNICs + OpenFlow
// switch), injects rate-shaped chain traffic, and measures delivered
// throughput and latency — the "execute the NF chain configuration on
// the testbed" step of the paper's methodology (section 5.1).
//
// Packet transport model: all traffic transits the ToR. The switch
// pipeline (the real compiled P4 program) routes packets to server/OF
// ports or to network egress; servers run their BESS pipelines under
// per-core cycle accounting; each switch<->server hand-off costs the
// topology's bounce latency. SmartNICs sit in-line in front of their
// server and process NSH-tagged segments assigned to them.
//
// Each rack element is a stage (stages.h); the Testbed builds them from
// the plan, applies fault onsets, swaps plans and runs the quantum
// schedule. The run's accounting, the Measurement and the stats JSON
// are the Report's (report.h).
//
// Telemetry: with tracing on (the default) every packet accumulates
// per-hop (platform, SPI/SI, enter/exit) records across the path;
// delivery folds them into per-segment latency attribution, per-chain
// latency histograms feed the SLO monitor, and every discarded packet is
// charged to the drop ledger.
#pragma once

#include "src/runtime/stages.h"

namespace lemur::runtime {

class Testbed;

/// The Testbed consults this after every quantum; the recovery controller
/// implements it. Kept abstract so runtime/testbed does not depend on the
/// controller (which itself drives the placer + metacompiler).
class RecoveryHook {
 public:
  virtual ~RecoveryHook() = default;
  virtual void on_quantum(Testbed& testbed, std::uint64_t now_ns) = 0;
  [[nodiscard]] virtual std::vector<RecoveryEvent> events() const = 0;
};

class Testbed {
 public:
  /// Offered load defaults to each chain's LP-assigned rate plus this
  /// headroom — enough to reveal when actual capacity beats the Placer's
  /// conservative prediction, as in the paper's section 5.2.
  static constexpr double kOfferedHeadroom = 1.05;

  Testbed(const std::vector<chain::ChainSpec>& chains,
          const placer::PlacementResult& placement,
          const metacompiler::CompiledArtifacts& artifacts,
          const topo::Topology& topo, std::uint64_t seed = 7,
          FlowMode flow_mode = FlowMode::kLongLived);
  ~Testbed();

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Runs the measurement for `duration_ms` of virtual time.
  /// `offered_gbps` overrides the per-chain offered load; empty uses each
  /// chain's LP-assigned rate times kOfferedHeadroom (capped at t_max).
  /// A testbed measures once: a second call sets error() and returns an
  /// empty Measurement.
  Measurement run(double duration_ms,
                  const std::vector<double>& offered_gbps = {});

  [[nodiscard]] const pisa::PisaSwitch& tor() const { return tor_.device(); }

  /// Per-hop packet tracing (on by default). Off saves the per-hop
  /// record-keeping; drop attribution and latency histograms stay on.
  void set_tracing(bool enabled) { report_.tracing = enabled; }

  /// Packet-buffer pool: delivered/dropped packets return their frame
  /// buffers to an arena that injection re-uses, so steady state
  /// allocates nothing per packet.
  [[nodiscard]] const net::PacketPool& packet_pool() const {
    return report_.pool;
  }

  /// Keep every raw latency sample per chain (tests compare histogram
  /// quantiles against an exact sort). Off by default: unbounded memory.
  void set_record_raw_latencies(bool enabled) {
    report_.record_raw_latencies = enabled;
  }
  [[nodiscard]] const std::vector<std::vector<std::uint64_t>>&
  raw_latencies_ns() const {
    return report_.raw_latency_ns;
  }

  /// Counters/gauges/histograms accumulated by the last run() (per-chain
  /// latency, per-platform queue occupancy series, ...).
  [[nodiscard]] const telemetry::MetricsRegistry& metrics() const {
    return report_.metrics;
  }
  /// Per-(chain, hop) residency statistics from the last run().
  [[nodiscard]] const telemetry::TraceAggregator& traces() const {
    return report_.traces;
  }

  /// Per-NF measured profiles (cycles actually charged per packet) from
  /// the last run() — comparable to placer::static_profile_table.
  [[nodiscard]] std::vector<telemetry::MeasuredNfProfile>
  measured_nf_profiles() const;

  /// Full telemetry snapshot of the last run() as a JSON document:
  /// measurement, SLO report, drop ledger, per-hop table, measured
  /// profiles, and the metrics registry.
  [[nodiscard]] std::string stats_json(const Measurement& m) const;

  /// Observation hook invoked for every packet delivered at network
  /// egress (tests use it to verify end-to-end packet transformations).
  void set_egress_hook(std::function<void(const net::Packet&)> hook) {
    report_.egress_hook = std::move(hook);
  }

  /// Captures every egress packet to a pcap file (openable in Wireshark).
  /// Returns false if the file cannot be created.
  bool capture_egress_to(const std::string& path);

  // --- Fault injection & live recovery ------------------------------------

  /// Attaches a fault scheduler consulted every quantum (and per wire
  /// packet for impairments). Not owned; must outlive run().
  void set_fault_scheduler(FaultScheduler* faults) { faults_ = faults; }

  /// Attaches a recovery hook called after every quantum. Not owned.
  void set_recovery_hook(RecoveryHook* hook) { recovery_ = hook; }

  /// Atomically replaces the running plan mid-run: exports stateful NF
  /// state, flushes in-flight packets (charged cause=recovery-flush so
  /// conservation holds), rebuilds ToR/servers/NICs/OF from the new
  /// artifacts, and imports the state into the replacement instances.
  /// The new references must outlive the testbed. Runs the deployment
  /// verifier on the new plan first; returns false (and leaves the old
  /// plan running) on verification failure.
  bool swap_plan(const std::vector<chain::ChainSpec>& chains,
                 const placer::PlacementResult& placement,
                 const metacompiler::CompiledArtifacts& artifacts,
                 const topo::Topology& topo, std::uint64_t now_ns,
                 std::string* error = nullptr);

  /// Admission-shed a chain at the ToR: its packets still count as
  /// offered but are dropped on arrival with cause=admission-shed (the
  /// degradation ladder's explicit ledger trail).
  void set_chain_shed(int chain, bool shed) { tor_.set_shed(chain, shed); }

  /// Per-element cause=fault drop counters (fault.<element>.drops in
  /// metrics()), live during run(): the recovery controller's detection
  /// signal. An element appears on its first fault drop.
  [[nodiscard]] const std::map<Element, telemetry::Counter*>&
  fault_counters() const {
    return report_.fault_counters;
  }

  /// Packets flushed during swap_plan() calls so far.
  [[nodiscard]] std::uint64_t recovery_flush_drops() const {
    return recovery_flush_drops_;
  }

  /// Number of successful swap_plan() calls.
  [[nodiscard]] int plan_generation() const { return plan_generation_; }

  /// The plan currently live (post-swap these differ from the ctor args).
  [[nodiscard]] const placer::PlacementResult& placement() const {
    return *placement_;
  }
  [[nodiscard]] const topo::Topology& topology() const { return *topo_; }

  /// Per-(chain, node-id) state snapshots captured by the last
  /// swap_plan() (tests verify migrated NAT/LB/Monitor/Dedup state).
  [[nodiscard]] const NfState& last_exported_state() const {
    return exported_state_;
  }

  /// Read access to a server's dataplane (state-migration tests inspect
  /// NF modules); nullptr for out-of-range indices.
  [[nodiscard]] const bess::ServerDataplane* server_dataplane(int s) const {
    return s >= 0 && s < static_cast<int>(servers_.size())
               ? &servers_[static_cast<std::size_t>(s)]->dataplane()
               : nullptr;
  }

 private:
  /// Builds every stage from the current plan, which the caller has
  /// verified; sets error_ when a platform rejects its artifact.
  void build();
  /// Marks newly-dead servers; each loses its resident packets.
  void apply_fault_onsets(std::uint64_t now_ns);

  // Pointers (not references) so swap_plan() can repoint the live plan.
  const std::vector<chain::ChainSpec>* chains_;
  const placer::PlacementResult* placement_;
  const metacompiler::CompiledArtifacts* artifacts_;
  const topo::Topology* topo_;
  FlowMode flow_mode_;
  std::uint64_t seed_;
  std::string error_;
  bool ran_ = false;  ///< run() measured already.

  FaultScheduler* faults_ = nullptr;
  RecoveryHook* recovery_ = nullptr;
  std::vector<char> server_dead_;  ///< Onset already applied (flushed).
  NfState exported_state_;
  std::uint64_t recovery_flush_drops_ = 0;
  int plan_generation_ = 0;

  /// Declared before the stages, which hold references into it.
  Report report_;
  /// Kept across swaps: its inbox and shed chains outlive a plan.
  TorStage tor_;
  std::vector<std::unique_ptr<ServerStage>> servers_;
  std::unique_ptr<OpenFlowStage> openflow_;
};

}  // namespace lemur::runtime
