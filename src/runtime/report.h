// The run's shared accounting and its report. Every Testbed stage charges
// offers, deliveries, drops and trace hops here; after the run the report
// assembles the Measurement, finalises the metrics registry, folds the
// measured NF profiles and writes the stats JSON.
//
// Every discarded packet is charged to a (chain, platform, cause)
// drop-ledger cell, so that
//   offered == delivered + dropped + residual
// holds exactly per chain (residual = end-of-run queue residents).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "src/metacompiler/segments.h"
#include "src/net/packet_pool.h"
#include "src/net/pcap.h"
#include "src/placer/placer.h"
#include "src/runtime/faults.h"
#include "src/telemetry/drops.h"
#include "src/telemetry/json.h"
#include "src/telemetry/measured_profile.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/slo_monitor.h"
#include "src/telemetry/trace.h"

namespace lemur::runtime {

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

/// Writes `events` as one JSON array: the `recovery` array of the stats
/// JSON and the `events` array of `lemur_cli chaos`.
void write_recovery_events(telemetry::JsonWriter& w,
                           const std::vector<RecoveryEvent>& events);

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

/// One NF instance's counts, as its stage measured them.
struct NfSample {
  int chain = 0;
  int node = 0;
  nf::NfType type = nf::NfType::kAcl;
  net::HopPlatform platform = net::HopPlatform::kServer;
  std::uint64_t packets = 0;
  /// Server: every cycle the module charged. SmartNIC: per packet (the
  /// engine charges the NF's profiled cost exactly).
  std::uint64_t cycles = 0;
};

/// Measured NF profiles: server samples of one (chain, node), i.e. its
/// replicas, fold into one row in (chain, node) order; SmartNIC samples
/// follow, one row each, in sample order.
[[nodiscard]] std::vector<telemetry::MeasuredNfProfile> measured_profiles(
    const std::vector<NfSample>& samples,
    const std::vector<chain::ChainSpec>& chains);

class Report {
 public:
  explicit Report(std::size_t chains);

  /// The live plan's chains: who each traffic aggregate belongs to.
  void set_chains(const std::vector<chain::ChainSpec>& chains);
  /// 0-based chain index for a packet's traffic aggregate.
  [[nodiscard]] int chain_of(std::uint32_t aggregate_id) const {
    const auto it = chain_of_aggregate_.find(aggregate_id);
    return it == chain_of_aggregate_.end() ? 0 : it->second;
  }

  /// Counts a packet as offered load of `chain`.
  void offer(int chain, const net::Packet& pkt) {
    ++offered_packets_[static_cast<std::size_t>(chain)];
    offered_bytes_[static_cast<std::size_t>(chain)] += pkt.size();
  }
  /// Network egress: latency, delivered bytes, trace; recycles the packet.
  void deliver(net::Packet&& pkt, std::uint64_t ready_ns);
  /// Charges `n` discarded packets of `aggregate_id` to the drop ledger.
  void charge(std::uint32_t aggregate_id, net::HopPlatform platform,
              telemetry::DropCause cause, std::uint64_t n = 1) {
    drop_ledger_.add(chain_of(aggregate_id), platform, cause, n);
  }
  /// Charges a discarded packet to the drop ledger and recycles it.
  void drop(net::Packet&& pkt, net::HopPlatform platform,
            telemetry::DropCause cause) {
    charge(pkt.aggregate_id, platform, cause);
    pool.release(std::move(pkt));
  }
  /// drop() with cause=fault, plus the per-element counter the recovery
  /// controller localizes the failure by: a ledger spike says *that*
  /// something died; the counter says *what*.
  void fault_drop(net::Packet&& pkt, net::HopPlatform platform,
                  Element element) {
    fault_counter(element).add(1);
    drop(std::move(pkt), platform, telemetry::DropCause::kFault);
  }
  /// The element's fault counter, created on first use.
  telemetry::Counter& fault_counter(Element element);
  /// Counts a packet still queued when the run ends.
  void residual(const net::Packet& pkt) {
    ++residual_[static_cast<std::size_t>(chain_of(pkt.aggregate_id))];
  }
  /// Appends a trace hop labelled with the NSH coordinates the packet
  /// carries now. It starts where the previous hop ended (or at arrival),
  /// so traces tile by construction. Server hops stay open (exit 0) until
  /// the server's return sink closes them at server egress.
  void trace_hop(net::Packet& pkt, net::HopPlatform platform,
                 std::uint16_t id, std::uint64_t exit_ns);

  /// The Measurement of a `duration_ms` window, once every stage has
  /// charged its residents; also finalises the metrics registry.
  [[nodiscard]] Measurement measure(
      double duration_ms, const std::vector<chain::ChainSpec>& chains,
      const placer::PlacementResult& placement);
  /// Full telemetry snapshot as a JSON document: measurement, SLO report,
  /// drop ledger, per-hop table, recovery, measured profiles, metrics.
  [[nodiscard]] std::string stats_json(
      const Measurement& m, const std::vector<chain::ChainSpec>& chains,
      const metacompiler::SegmentIndex& segments,
      const std::vector<telemetry::MeasuredNfProfile>& profiles) const;

  /// Declared before the stages that hold pointers into it.
  net::PacketPool pool;
  /// Entries are never erased, so handles into it stay valid.
  telemetry::MetricsRegistry metrics;
  telemetry::TraceAggregator traces;
  std::map<Element, telemetry::Counter*> fault_counters;
  bool tracing = true;
  bool record_raw_latencies = false;
  std::vector<std::vector<std::uint64_t>> raw_latency_ns;
  std::function<void(const net::Packet&)> egress_hook;
  std::unique_ptr<net::PcapWriter> egress_capture;

 private:
  std::unordered_map<std::uint32_t, int> chain_of_aggregate_;
  std::vector<std::uint64_t> delivered_bytes_;
  std::vector<std::uint64_t> offered_packets_;
  std::vector<std::uint64_t> offered_bytes_;
  std::vector<std::uint64_t> residual_;
  /// Per-chain delivery latency; count() is the chain's delivered packets.
  std::vector<telemetry::LatencyHistogram> latency_ns_;
  telemetry::DropLedger drop_ledger_;
};

}  // namespace lemur::runtime
