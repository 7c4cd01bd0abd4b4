#include "src/runtime/report.h"

#include <algorithm>

namespace lemur::runtime {

void write_recovery_events(telemetry::JsonWriter& w,
                           const std::vector<RecoveryEvent>& events) {
  w.begin_array();
  for (const auto& ev : events) {
    w.begin_object();
    w.kv("element", ev.element);
    w.kv("action", ev.action);
    w.kv("detected_ns", ev.detected_ns);
    w.kv("recovered_ns", ev.recovered_ns);
    w.kv("mttr_ns", ev.recovered_ns > ev.detected_ns
                        ? ev.recovered_ns - ev.detected_ns
                        : 0);
    w.kv("fault_window_drops", ev.fault_window_drops);
    w.kv("recovery_flush_drops", ev.recovery_flush_drops);
    w.kv("slo_violation_ns", ev.slo_violation_ns);
    w.kv("recovered", ev.recovered);
    w.key("replaced_chains");
    w.begin_array();
    for (const int c : ev.replaced_chains) w.value(c + 1);
    w.end_array();
    w.key("shed_chains");
    w.begin_array();
    for (const int c : ev.shed_chains) w.value(c + 1);
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

std::vector<telemetry::MeasuredNfProfile> measured_profiles(
    const std::vector<NfSample>& samples,
    const std::vector<chain::ChainSpec>& chains) {
  std::map<std::pair<int, int>, telemetry::MeasuredNfProfile> server_rows;
  std::vector<telemetry::MeasuredNfProfile> nic_rows;
  for (const auto& s : samples) {
    const bool server = s.platform == net::HopPlatform::kServer;
    auto& row =
        server ? server_rows[{s.chain, s.node}] : nic_rows.emplace_back();
    if (row.packets == 0) {
      row.chain = s.chain;
      row.node = s.node;
      row.type = s.type;
      row.name = chains[static_cast<std::size_t>(s.chain)]
                     .graph.node(s.node)
                     .instance_name;
      row.platform = s.platform;
    }
    if (!server) {
      row.packets = s.packets;
      row.cycles_per_packet = static_cast<double>(s.cycles);
      continue;
    }
    const double total =
        row.cycles_per_packet * static_cast<double>(row.packets) +
        static_cast<double>(s.cycles);
    row.packets += s.packets;
    row.cycles_per_packet = total / static_cast<double>(row.packets);
  }
  std::vector<telemetry::MeasuredNfProfile> out;
  out.reserve(server_rows.size() + nic_rows.size());
  for (auto& [key, row] : server_rows) out.push_back(std::move(row));
  for (auto& row : nic_rows) out.push_back(std::move(row));
  return out;
}

Report::Report(std::size_t chains)
    : raw_latency_ns(chains),
      delivered_bytes_(chains, 0),
      offered_packets_(chains, 0),
      offered_bytes_(chains, 0),
      residual_(chains, 0),
      latency_ns_(chains) {}

void Report::set_chains(const std::vector<chain::ChainSpec>& chains) {
  chain_of_aggregate_.clear();
  for (std::size_t c = 0; c < chains.size(); ++c) {
    // First chain wins, as a scan in chain order would.
    chain_of_aggregate_.emplace(chains[c].aggregate_id, static_cast<int>(c));
  }
}

void Report::deliver(net::Packet&& pkt, std::uint64_t ready_ns) {
  if (egress_hook) egress_hook(pkt);
  if (egress_capture) egress_capture->write(pkt, ready_ns);
  const auto chain = static_cast<std::size_t>(chain_of(pkt.aggregate_id));
  delivered_bytes_[chain] += pkt.size();
  const std::uint64_t latency =
      ready_ns > pkt.arrival_ns ? ready_ns - pkt.arrival_ns : 0;
  latency_ns_[chain].record(latency);
  if (record_raw_latencies) raw_latency_ns[chain].push_back(latency);
  if (tracing) traces.observe(pkt, ready_ns, static_cast<int>(chain));
  pool.release(std::move(pkt));  // Delivered: the buffer is dead.
}

telemetry::Counter& Report::fault_counter(Element element) {
  auto& counter = fault_counters[element];
  if (counter == nullptr) {
    counter = &metrics.counter("fault." + element.name() + ".drops");
  }
  return *counter;
}

void Report::trace_hop(net::Packet& pkt, net::HopPlatform platform,
                       std::uint16_t id, std::uint64_t exit_ns) {
  if (!tracing) return;
  net::PacketHop hop;
  hop.platform = platform;
  hop.id = id;
  hop.enter_ns =
      pkt.hops.empty() ? pkt.arrival_ns : pkt.hops.back().exit_ns;
  hop.exit_ns = platform == net::HopPlatform::kServer
                    ? 0
                    : std::max(hop.enter_ns, exit_ns);
  const auto* layers = pkt.layers();
  if (layers != nullptr && layers->nsh) {
    hop.spi = layers->nsh->spi;
    hop.si = layers->nsh->si;
  }
  pkt.hops.push_back(hop);
}

Measurement Report::measure(double duration_ms,
                            const std::vector<chain::ChainSpec>& chains,
                            const placer::PlacementResult& placement) {
  const std::size_t n = chains.size();
  const auto gbps = [&](std::uint64_t bytes) {
    return static_cast<double>(bytes) * 8.0 / (duration_ms * 1e6);  // b/ns
  };
  Measurement out;
  out.chain_residual = residual_;
  for (const auto r : out.chain_residual) out.residual_queued += r;
  std::vector<double> offered_gbps;
  for (std::size_t c = 0; c < n; ++c) {
    const auto& hist = latency_ns_[c];
    out.chain_gbps.push_back(gbps(delivered_bytes_[c]));
    out.aggregate_gbps += out.chain_gbps[c];
    // An empty histogram reads 0 everywhere.
    out.chain_latency_us.push_back(hist.mean() / 1000.0);
    out.chain_p50_us.push_back(hist.quantile(0.50) / 1e3);
    out.chain_p95_us.push_back(hist.quantile(0.95) / 1e3);
    out.chain_p99_us.push_back(hist.quantile(0.99) / 1e3);
    out.chain_max_us.push_back(static_cast<double>(hist.max()) / 1e3);
    out.chain_offered.push_back(offered_packets_[c]);
    out.chain_delivered.push_back(hist.count());
    out.chain_dropped.push_back(drop_ledger_.chain_total(static_cast<int>(c)));
    out.offered_packets += offered_packets_[c];
    out.delivered_packets += hist.count();
    offered_gbps.push_back(gbps(offered_bytes_[c]));
  }
  // Legacy semantics: fabric drops only — in-server losses (NF verdicts,
  // queue overflow inside a pipeline) stay in unaccounted().
  for (const auto& [key, count] : drop_ledger_.cells()) {
    if (std::get<1>(key) != net::HopPlatform::kServer) {
      out.dropped_packets += count;
    }
  }
  out.drops = drop_ledger_;

  // Finalize the metrics registry.
  for (std::size_t c = 0; c < n; ++c) {
    const std::string prefix = "chain" + std::to_string(c);
    metrics.counter(prefix + ".offered_packets").add(offered_packets_[c]);
    metrics.counter(prefix + ".delivered_packets").add(latency_ns_[c].count());
    metrics.histogram(prefix + ".latency_ns").merge(latency_ns_[c]);
  }
  for (const auto& [key, count] : drop_ledger_.cells()) {
    metrics
        .counter("chain" + std::to_string(std::get<0>(key)) + ".drops." +
                 net::to_string(std::get<1>(key)) + "." +
                 telemetry::to_string(std::get<2>(key)))
        .add(count);
  }

  // SLO compliance for the run.
  std::vector<const telemetry::LatencyHistogram*> hists;
  hists.reserve(n);
  for (const auto& hist : latency_ns_) hists.push_back(&hist);
  out.slo = telemetry::evaluate_slo(chains, placement, offered_gbps,
                                    out.chain_gbps, hists, traces,
                                    drop_ledger_);
  return out;
}

std::string Report::stats_json(
    const Measurement& m, const std::vector<chain::ChainSpec>& chains,
    const metacompiler::SegmentIndex& segments,
    const std::vector<telemetry::MeasuredNfProfile>& profiles) const {
  telemetry::JsonWriter w;
  w.begin_object();

  w.key("measurement");
  w.begin_object();
  w.kv("aggregate_gbps", m.aggregate_gbps);
  w.kv("offered_packets", m.offered_packets);
  w.kv("delivered_packets", m.delivered_packets);
  w.kv("dropped_packets", m.dropped_packets);
  w.kv("residual_queued", m.residual_queued);
  w.key("chains");
  w.begin_array();
  for (std::size_t c = 0; c < chains.size(); ++c) {
    // A failed run's Measurement is empty: its chains print zeros.
    const auto at = [c](const auto& v) {
      using T = typename std::decay_t<decltype(v)>::value_type;
      return c < v.size() ? v[c] : T{};
    };
    w.begin_object();
    w.kv("chain", static_cast<int>(c) + 1);
    w.kv("name", chains[c].name);
    w.kv("gbps", at(m.chain_gbps));
    w.kv("latency_mean_us", at(m.chain_latency_us));
    w.kv("latency_p50_us", at(m.chain_p50_us));
    w.kv("latency_p95_us", at(m.chain_p95_us));
    w.kv("latency_p99_us", at(m.chain_p99_us));
    w.kv("latency_max_us", at(m.chain_max_us));
    w.kv("offered", at(m.chain_offered));
    w.kv("delivered", at(m.chain_delivered));
    w.kv("dropped", at(m.chain_dropped));
    w.kv("residual", at(m.chain_residual));
    w.kv("slo_compliant", m.slo.compliant(static_cast<int>(c)));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("slo");
  w.begin_object();
  w.kv("compliant", m.slo.compliant());
  w.key("violations");
  w.begin_array();
  for (const auto& v : m.slo.violations) {
    w.begin_object();
    w.kv("chain", v.chain + 1);
    w.kv("kind", telemetry::to_string(v.kind));
    w.kv("observed", v.observed);
    w.kv("bound", v.bound);
    w.kv("responsible_hop", v.responsible_hop);
    w.kv("hop_share", v.hop_share);
    w.kv("detail", v.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("drops");
  w.begin_array();
  for (const auto& [key, n] : m.drops.cells()) {
    w.begin_object();
    w.kv("chain", std::get<0>(key) + 1);
    w.kv("platform", net::to_string(std::get<1>(key)));
    w.kv("cause", telemetry::to_string(std::get<2>(key)));
    w.kv("count", n);
    w.end_object();
  }
  w.end_array();

  w.key("hops");
  w.begin_array();
  for (const auto& [key, stats] : traces.hops()) {
    w.begin_object();
    w.kv("chain", key.first + 1);
    w.kv("hop", telemetry::to_string(key.second));
    if (key.second.spi != 0) {
      w.kv("segment", segments.label(key.second.spi, key.second.si));
    }
    w.kv("packets", stats.packets);
    w.kv("mean_ns", stats.mean_ns());
    w.kv("p99_ns", stats.residency_ns.quantile(0.99));
    w.kv("max_ns", stats.residency_ns.max());
    w.end_object();
  }
  w.end_array();

  if (!m.recovery.empty()) {
    w.key("recovery");
    write_recovery_events(w, m.recovery);
  }

  w.key("trace_health");
  w.begin_object();
  w.kv("traces_observed", traces.traces_observed());
  w.kv("continuity_errors", traces.continuity_errors());
  w.kv("first_continuity_error", traces.first_continuity_error());
  w.end_object();

  w.key("measured_profiles");
  w.raw(telemetry::to_json(profiles));

  w.key("metrics");
  w.raw(metrics.to_json());

  w.end_object();
  return w.str();
}

}  // namespace lemur::runtime
