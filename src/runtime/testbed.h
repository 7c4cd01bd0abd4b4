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
// Telemetry: with tracing on (the default) every packet accumulates
// per-hop (platform, SPI/SI, enter/exit) records across the path;
// delivery folds them into per-segment latency attribution, per-chain
// latency histograms feed the SLO monitor, and every discarded packet is
// charged to a (chain, platform, cause) drop-ledger cell so that
//   offered == delivered + dropped + residual
// holds exactly per chain (residual = end-of-run queue residents).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "src/bess/dataplane.h"
#include "src/bess/nsh_modules.h"
#include "src/net/pcap.h"
#include "src/metacompiler/metacompiler.h"
#include "src/nic/smartnic.h"
#include "src/openflow/of_switch.h"
#include "src/pisa/switch_sim.h"
#include "src/runtime/faults.h"
#include "src/runtime/traffic.h"
#include "src/telemetry/drops.h"
#include "src/telemetry/measured_profile.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/slo_monitor.h"
#include "src/telemetry/trace.h"

namespace lemur::bess {
class Queue;
}  // namespace lemur::bess
namespace lemur::nf {
class NfModule;
}  // namespace lemur::nf

namespace lemur::runtime {

class Testbed;

/// One detected fault and what the recovery controller did about it.
/// All times are virtual nanoseconds; with a fixed seed the whole record
/// is bit-identical across runs.
struct RecoveryEvent {
  std::string element;  ///< "server1", "smartnic0", "openflow", "link0", ...
  std::string action;   ///< "replaced", "replaced+shed-chain-3",
                        ///< "impairment-ride-through", "unrecovered: ..."
  std::uint64_t detected_ns = 0;   ///< Telemetry spike observed.
  std::uint64_t recovered_ns = 0;  ///< New plan live (or give-up time).
  std::uint64_t fault_window_drops = 0;  ///< cause=fault drops attributed
                                         ///< to this element at recovery.
  std::uint64_t recovery_flush_drops = 0;  ///< In-flight flushed at swap.
  std::uint64_t slo_violation_ns = 0;  ///< detected->recovered window.
  bool recovered = false;
  std::vector<int> replaced_chains;  ///< Chains the new plan re-placed.
  std::vector<int> shed_chains;      ///< Chains admission-shed (degraded).
};

/// The Testbed consults this after every quantum; the recovery controller
/// implements it. Kept abstract so runtime/testbed does not depend on the
/// controller (which itself drives the placer + metacompiler).
class RecoveryHook {
 public:
  virtual ~RecoveryHook() = default;
  virtual void on_quantum(Testbed& testbed, std::uint64_t now_ns) = 0;
  [[nodiscard]] virtual std::vector<RecoveryEvent> events() const = 0;
};

struct Measurement {
  std::vector<double> chain_gbps;     ///< Delivered rate per chain.
  std::vector<double> chain_latency_us;  ///< Mean end-to-end latency.
  double aggregate_gbps = 0;
  std::uint64_t offered_packets = 0;  ///< Injected during the window.
  std::uint64_t delivered_packets = 0;
  /// Fabric drops: every drop-ledger cell except in-server ones
  /// (platform kServer), preserving the field's historical meaning.
  /// `drops` below carries the full attribution.
  std::uint64_t dropped_packets = 0;

  // Per-chain latency distribution (microseconds). The mean above hides
  // tail violations; SLO enforcement reads these.
  std::vector<double> chain_p50_us;
  std::vector<double> chain_p95_us;
  std::vector<double> chain_p99_us;
  std::vector<double> chain_max_us;

  // Exact per-chain packet conservation:
  //   chain_offered == chain_delivered + chain_dropped + chain_residual.
  std::vector<std::uint64_t> chain_offered;
  std::vector<std::uint64_t> chain_delivered;
  std::vector<std::uint64_t> chain_dropped;   ///< All causes/platforms.
  std::vector<std::uint64_t> chain_residual;  ///< Still queued at run end.

  /// Per-(chain, platform, cause) drop attribution.
  telemetry::DropLedger drops;
  /// SLO compliance judged against each chain's t_min/t_max/d_max.
  telemetry::SloReport slo;
  /// Total packets still queued (wire FIFOs, BESS queues, ToR backlog)
  /// when the run ended.
  std::uint64_t residual_queued = 0;

  /// Per-event recovery report (MTTR, failure-window loss, SLO-violation
  /// duration) when a RecoveryHook was attached; empty otherwise.
  std::vector<RecoveryEvent> recovery;

  /// Packets neither delivered nor counted as fabric drops: still queued
  /// at the end of the drain window, or consumed inside NF modules
  /// (ACL/Limiter/UrlFilter verdicts). Conservation: offered ==
  /// delivered + dropped + unaccounted().
  [[nodiscard]] std::uint64_t unaccounted() const {
    return offered_packets - delivered_packets - dropped_packets;
  }
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
  Measurement run(double duration_ms,
                  const std::vector<double>& offered_gbps = {});

  [[nodiscard]] const pisa::PisaSwitch& tor() const { return *tor_; }

  /// Per-hop packet tracing (on by default). Off saves the per-hop
  /// record-keeping; drop attribution and latency histograms stay on.
  void set_tracing(bool enabled) { tracing_ = enabled; }

  /// Packet-buffer pool: delivered/dropped packets return their frame
  /// buffers to an arena that injection re-uses, so steady state
  /// allocates nothing per packet.
  [[nodiscard]] const net::PacketPool& packet_pool() const { return pool_; }

  /// Keep every raw latency sample per chain (tests compare histogram
  /// quantiles against an exact sort). Off by default: unbounded memory.
  void set_record_raw_latencies(bool enabled) {
    record_raw_latencies_ = enabled;
  }
  [[nodiscard]] const std::vector<std::vector<std::uint64_t>>&
  raw_latencies_ns() const {
    return raw_latency_ns_;
  }

  /// Counters/gauges/histograms accumulated by the last run() (per-chain
  /// latency, per-platform queue occupancy series, ...).
  [[nodiscard]] const telemetry::MetricsRegistry& metrics() const {
    return metrics_;
  }
  /// Per-(chain, hop) residency statistics from the last run().
  [[nodiscard]] const telemetry::TraceAggregator& traces() const {
    return traces_;
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
    egress_hook_ = std::move(hook);
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
  void set_chain_shed(int chain, bool shed);

  /// Per-element cause=fault drop counters (fault.<element>.drops in
  /// metrics()), live during run(): the recovery controller's detection
  /// signal. An element appears on its first fault drop.
  [[nodiscard]] const std::map<Element, telemetry::Counter*>&
  fault_counters() const {
    return fault_counters_;
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
  [[nodiscard]] const std::map<std::pair<int, int>,
                               std::vector<std::uint8_t>>&
  last_exported_state() const {
    return exported_state_;
  }

  /// Read access to a server's dataplane (state-migration tests inspect
  /// NF modules); nullptr for out-of-range indices.
  [[nodiscard]] const bess::ServerDataplane* server_dataplane(int s) const {
    return s >= 0 && s < static_cast<int>(servers_.size())
               ? servers_[static_cast<std::size_t>(s)].dataplane.get()
               : nullptr;
  }

 private:
  class WireSource;
  class ReturnSink;

  /// One sampled occupancy series: last value + max, and its histogram.
  struct DepthSeries {
    telemetry::Gauge* gauge = nullptr;
    telemetry::LatencyHistogram* histogram = nullptr;
    void record(std::uint64_t depth) const {
      gauge->set(static_cast<double>(depth));
      histogram->record(depth);
    }
  };

  /// An NF module with its chain graph coordinates; node -1 marks the
  /// metacompiler's generated steering, which is no chain NF.
  struct NfRt {
    nf::NfModule* module;
    int chain;
    int node;
  };

  /// A NIC-placed NF with its per-packet engine cost.
  struct NicNfRt {
    const metacompiler::NicArtifact* artifact;
    std::uint64_t cost_cycles;
    std::uint64_t cost_ns;
    std::uint64_t packets = 0;  ///< Packets the engine ran through this NF.
  };

  struct NicRt {
    std::unique_ptr<nic::SmartNic> device;  ///< Null: no in-line NIC.
    std::vector<NicNfRt> nfs;
    std::uint64_t engine_free_ns = 0;
  };

  /// One server as the run loop sees it. Everything here is resolved by
  /// build(), so the loop does no module casts, name parsing or metric
  /// name building.
  struct ServerRt {
    std::unique_ptr<bess::ServerDataplane> dataplane;
    std::unique_ptr<WireSource> source;
    std::unique_ptr<ReturnSink> sink;
    NicRt nic;
    /// The only pipeline module besides queues and NFs that can drop
    /// (unmapped NSH); encaps, steers and ports have every gate wired.
    bess::Module* demux = nullptr;
    std::vector<bess::Queue*> queues;
    std::vector<NfRt> nfs;  ///< In module creation order.
    DepthSeries wire_depth;
    DepthSeries queue_depth;
  };

  /// Builds the whole rack from the current plan, which the caller has
  /// verified; sets error_ when a platform rejects its artifact.
  void build();
  void build_tor();
  void build_servers();
  void build_nics();
  void build_openflow();

  /// Marks newly-dead servers, flushing their wire FIFOs, queues, and
  /// sinks as cause=fault drops.
  void apply_fault_onsets(std::uint64_t now_ns);
  /// Drops every in-flight packet on a server, charging `cause`; returns
  /// how many.
  std::uint64_t flush_server(ServerRt& rt, telemetry::DropCause cause);
  void export_nf_state();
  void import_nf_state();

  void route_from_switch(net::Packet&& pkt, std::uint32_t egress_port,
                         std::uint64_t ready_ns);
  void deliver(net::Packet&& pkt, std::uint64_t ready_ns);
  /// Fault interception (death, link-down, wire impairments), then
  /// inject_server().
  void to_server(net::Packet&& pkt, int server, std::uint64_t ready_ns);
  /// The actual SmartNIC + wire-FIFO hand-off, past the fault checks.
  void inject_server(net::Packet&& pkt, int server, std::uint64_t ready_ns);
  void through_openflow(net::Packet&& pkt, std::uint64_t ready_ns);

  /// 0-based chain index for a packet's traffic aggregate.
  [[nodiscard]] int chain_of(std::uint32_t aggregate_id) const;
  /// Charges a discarded packet to the drop ledger and recycles it.
  void drop(net::Packet&& pkt, net::HopPlatform platform,
            telemetry::DropCause cause);
  /// drop() with cause=fault, plus the per-element counter the recovery
  /// controller localizes the failure by.
  void fault_drop(net::Packet&& pkt, net::HopPlatform platform,
                  Element element);
  /// The element's fault counter, created on first use.
  telemetry::Counter& fault_counter(Element element);
  /// Appends a trace hop labelled with the NSH coordinates the packet
  /// carries now. It starts where the previous hop ended (or at arrival),
  /// so traces tile by construction. Server hops stay open (exit 0) until
  /// the ReturnSink closes them at server egress.
  void trace_hop(net::Packet& pkt, net::HopPlatform platform,
                 std::uint16_t id, std::uint64_t exit_ns);
  void sweep_module_drops();
  void sweep_residuals(Measurement& out);
  void sample_queue_depths();

  // Pointers (not references) so swap_plan() can repoint the live plan.
  const std::vector<chain::ChainSpec>* chains_;
  const placer::PlacementResult* placement_;
  const metacompiler::CompiledArtifacts* artifacts_;
  const topo::Topology* topo_;
  FlowMode flow_mode_;
  std::uint64_t seed_;
  std::string error_;

  FaultScheduler* faults_ = nullptr;
  RecoveryHook* recovery_ = nullptr;
  std::vector<char> server_dead_;  ///< Onset already applied (flushed).
  std::vector<char> shed_;         ///< Admission-shed chains.
  std::map<std::pair<int, int>, std::vector<std::uint8_t>> exported_state_;
  std::uint64_t recovery_flush_drops_ = 0;
  int plan_generation_ = 0;

  /// Declared before the runtimes that hold pointers into it.
  net::PacketPool pool_;

  std::unique_ptr<pisa::PisaSwitch> tor_;
  /// Drop cause per ToR table, indexed like the program's tables.
  std::vector<telemetry::DropCause> tor_drop_cause_;
  std::vector<ServerRt> servers_;
  std::map<std::uint32_t, int> server_of_port_;  ///< ToR egress port.
  std::unordered_map<std::uint32_t, int> chain_of_aggregate_;
  std::uint64_t bounce_ns_ = 0;  ///< One switch<->server hand-off.
  std::unique_ptr<openflow::OpenFlowSwitch> of_switch_;
  metacompiler::SegmentIndex segment_index_;

  std::deque<std::pair<std::uint64_t, net::Packet>> to_switch_;
  std::function<void(const net::Packet&)> egress_hook_;
  std::unique_ptr<net::PcapWriter> egress_capture_;

  // Measurement accumulators.
  std::vector<std::uint64_t> delivered_bytes_;
  std::vector<std::uint64_t> offered_packets_;
  std::vector<std::uint64_t> offered_bytes_;
  /// Per-chain delivery latency; count() is the chain's delivered packets.
  std::vector<telemetry::LatencyHistogram> latency_ns_;
  std::vector<std::vector<std::uint64_t>> raw_latency_ns_;
  telemetry::DropLedger drop_ledger_;
  telemetry::TraceAggregator traces_;
  /// Entries are never erased, so handles into it (DepthSeries,
  /// tor_backlog_) stay valid for the testbed's lifetime.
  telemetry::MetricsRegistry metrics_;
  std::map<Element, telemetry::Counter*> fault_counters_;
  telemetry::Gauge* tor_backlog_ = nullptr;
  bool tracing_ = true;
  bool record_raw_latencies_ = false;
};

}  // namespace lemur::runtime
