#include "rackbench/rack.h"

#include <algorithm>

#include "rackbench/stats.h"
#include "src/placer/placer.h"

namespace lemur::rackbench {
namespace {

/// Runs `step(span_id)`, recording a span when tracing; returns host ns.
template <typename Step>
std::int64_t timed(SpanRecorder* spans, const char* name, int parent,
                   Step&& step) {
  ScopedSpan span(spans, name, parent);
  const std::int64_t start = now_ns();
  step(span.id());
  return now_ns() - start;
}

}  // namespace

std::unique_ptr<Rack> build_rack(const Workload& workload, std::uint64_t seed,
                                 bool probes, SpanRecorder* spans,
                                 int parent) {
  auto rack = std::make_unique<Rack>();
  Rack& r = *rack;
  r.workload = &workload;
  r.seed = seed;
  r.topo = workload.topology();
  const placer::PlacerOptions options{};  // Every workload uses the defaults.
  ScopedSpan setup_span(spans, "setup", parent);
  const int setup = setup_span.id();

  r.setup.chain_ns = timed(spans, "chain.build", setup, [&](int) {
    r.chains = chain::canonical_chains(workload.chains);
    placer::apply_delta(r.chains, workload.delta, r.topo.servers.front(),
                        options);
  });

  r.compiler = std::make_unique<metacompiler::CompilerOracle>(r.topo);
  if (probes) {
    r.oracle =
        std::make_unique<TimedOracle>(*r.compiler, "metacompiler.oracle");
  }
  placer::SwitchOracle& oracle =
      probes ? static_cast<placer::SwitchOracle&>(*r.oracle) : *r.compiler;
  r.setup.place_ns = timed(spans, "placer.place", setup, [&](int span) {
    if (r.oracle) r.oracle->trace_into(spans, span);
    r.placement = placer::place(placer::Strategy::kLemur, r.chains, r.topo,
                                options, oracle);
  });
  if (r.oracle) r.oracle->trace_into(nullptr, -1);
  if (!r.placement.feasible) {
    r.error = "place: " + r.placement.infeasible_reason;
    return rack;
  }

  r.setup.compile_ns = timed(spans, "metacompiler.compile", setup, [&](int) {
    metacompiler::CompileOptions compile_options;
    compile_options.run_verifier = false;
    r.artifacts = metacompiler::compile(r.chains, r.placement, r.topo,
                                        compile_options);
  });
  if (!r.artifacts.ok) {
    r.error = "compile: " + r.artifacts.error;
    return rack;
  }

  r.setup.verify_ns = timed(spans, "verify.verify", setup, [&](int) {
    r.report = verify::verify_artifacts(r.chains, r.placement, r.artifacts,
                                        r.topo);
  });
  if (r.report.has_errors()) {
    r.error = "verify: " + r.report.to_string();
    return rack;
  }
  r.artifacts.verification = r.report;

  r.setup.deploy_ns = timed(spans, "runtime.deploy", setup, [&](int) {
    r.testbed = std::make_unique<runtime::Testbed>(
        r.chains, r.placement, r.artifacts, r.topo, seed, workload.flow_mode);
  });
  if (!r.testbed->ok()) {
    r.error = "deploy: " + r.testbed->error();
    return rack;
  }

  if (workload.failover()) {
    std::string parse_error;
    auto events = runtime::FaultScheduler::parse(workload.faults,
                                                 &parse_error);
    if (!events.has_value()) {
      r.error = "faults: " + parse_error;
      return rack;
    }
    r.faults = std::make_unique<runtime::FaultScheduler>(*events, seed);
    r.recovery_compiler =
        std::make_unique<metacompiler::CompilerOracle>(r.topo);
    if (probes) {
      r.recovery_oracle = std::make_unique<TimedOracle>(
          *r.recovery_compiler, "recovery.oracle");
    }
    placer::SwitchOracle& live =
        probes ? static_cast<placer::SwitchOracle&>(*r.recovery_oracle)
               : *r.recovery_compiler;
    r.controller = std::make_unique<runtime::RecoveryController>(
        r.chains, r.placement, r.topo, options, live);
  }
  return rack;
}

RunResult run_rack(Rack& rack, bool probes, SpanRecorder* spans, int parent,
                   bool testbed_tracing, bool raw_latencies) {
  RunResult out;
  runtime::Testbed& testbed = *rack.testbed;
  testbed.set_tracing(testbed_tracing);
  testbed.set_record_raw_latencies(raw_latencies);
  if (rack.faults) testbed.set_fault_scheduler(rack.faults.get());
  QuantumClock clock(rack.controller.get());
  if (probes) {
    testbed.set_recovery_hook(&clock);
  } else if (rack.controller) {
    testbed.set_recovery_hook(rack.controller.get());
  }
  net::reset_parse_cache_stats();
  ScopedSpan run_span(spans, "runtime.run", parent);
  if (rack.recovery_oracle) {
    // The controller calls its oracle from inside on_quantum; those
    // checks land under the run span.
    rack.recovery_oracle->trace_into(spans, run_span.id());
  }
  if (probes) clock.start(spans, run_span.id());
  const std::int64_t start = now_ns();
  out.m = testbed.run(kWindowMs);
  out.run_ns = now_ns() - start;
  out.parse = net::parse_cache_stats();

  testbed.set_recovery_hook(nullptr);
  testbed.set_fault_scheduler(nullptr);
  if (rack.recovery_oracle) rack.recovery_oracle->trace_into(nullptr, -1);
  out.quantum_ns = clock.quantum_ns();
  out.swap_call_ns = clock.swap_call_ns();
  if (raw_latencies) out.latency_ns = testbed.raw_latencies_ns();
  out.continuity_errors = testbed.traces().continuity_errors();
  out.tor_packets = testbed.tor().packets_processed();
  out.pool = testbed.packet_pool().stats();
  for (const auto& [name, hist] : testbed.metrics().histograms()) {
    if (name.ends_with(".queue_depth")) {
      out.queue_depth_p99 = std::max(out.queue_depth_p99, hist.quantile(0.99));
    } else if (name.ends_with(".wire_depth")) {
      out.wire_depth_p99 = std::max(out.wire_depth_p99, hist.quantile(0.99));
    }
  }
  return out;
}

double loss_ratio(const runtime::Measurement& m) {
  if (m.offered_packets == 0) return 1;
  std::uint64_t verdicts = 0;
  for (std::size_t c = 0; c < m.chain_offered.size(); ++c) {
    verdicts += m.drops.cause_total(static_cast<int>(c),
                                    telemetry::DropCause::kNfVerdict);
  }
  const double lost = static_cast<double>(m.offered_packets) -
                      static_cast<double>(m.delivered_packets) -
                      static_cast<double>(verdicts);
  return lost / static_cast<double>(m.offered_packets);
}

VirtualMetrics virtual_metrics(const Rack& rack, const RunResult& run) {
  const runtime::Measurement& m = run.m;
  VirtualMetrics v;
  v.marginal_gbps = m.aggregate_gbps - rack.placement.aggregate_t_min_gbps;
  v.slo_violations = m.slo.violations.size();
  std::size_t met = 0;
  for (std::size_t c = 0; c < m.chain_offered.size(); ++c) {
    if (m.slo.compliant(static_cast<int>(c))) ++met;
  }
  v.slo_met_ratio = ratio(static_cast<double>(met),
                          static_cast<double>(m.chain_offered.size()));
  v.loss_ratio = loss_ratio(m);
  v.offered = m.offered_packets;
  v.delivered = m.delivered_packets;
  v.residual = m.residual_queued;
  for (std::size_t c = 0; c < m.chain_offered.size(); ++c) {
    const int chain = static_cast<int>(c);
    v.nf_verdict_drops +=
        m.drops.cause_total(chain, telemetry::DropCause::kNfVerdict);
    v.queue_overflow_drops +=
        m.drops.cause_total(chain, telemetry::DropCause::kQueueOverflow);
  }
  for (const auto& ev : m.recovery) {
    if (ev.recovered) {
      v.mttr_ns = std::max(v.mttr_ns, ev.recovered_ns - ev.detected_ns);
    }
  }
  return v;
}

LatencyPercentiles latency_percentiles(const RunResult& run) {
  std::vector<std::uint64_t> latencies;
  for (const auto& chain : run.latency_ns) {
    latencies.insert(latencies.end(), chain.begin(), chain.end());
  }
  return {percentile(latencies, 0.50) / 1e3, percentile(latencies, 0.99) / 1e3,
          latencies.size()};
}

namespace {

bool same_event(const runtime::RecoveryEvent& a,
                const runtime::RecoveryEvent& b) {
  return a.element == b.element && a.action == b.action &&
         a.detected_ns == b.detected_ns && a.recovered_ns == b.recovered_ns &&
         a.fault_window_drops == b.fault_window_drops &&
         a.recovery_flush_drops == b.recovery_flush_drops &&
         a.slo_violation_ns == b.slo_violation_ns &&
         a.recovered == b.recovered &&
         a.replaced_chains == b.replaced_chains &&
         a.shed_chains == b.shed_chains;
}

bool same_violation(const telemetry::SloViolation& a,
                    const telemetry::SloViolation& b) {
  return a.chain == b.chain && a.kind == b.kind && a.observed == b.observed &&
         a.bound == b.bound && a.responsible_hop == b.responsible_hop &&
         a.hop_share == b.hop_share && a.detail == b.detail;
}

bool same_compliance(const telemetry::ChainCompliance& a,
                     const telemetry::ChainCompliance& b) {
  return a.chain == b.chain && a.offered_gbps == b.offered_gbps &&
         a.delivered_gbps == b.delivered_gbps && a.p50_us == b.p50_us &&
         a.p95_us == b.p95_us && a.p99_us == b.p99_us &&
         a.max_us == b.max_us &&
         a.fraction_over_d_max == b.fraction_over_d_max &&
         a.compliant == b.compliant;
}

template <typename T, typename Same>
bool same_list(const std::vector<T>& a, const std::vector<T>& b, Same same) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), same);
}

}  // namespace

bool same_measurement(const runtime::Measurement& a,
                      const runtime::Measurement& b) {
  return a.chain_gbps == b.chain_gbps &&
         a.chain_latency_us == b.chain_latency_us &&
         a.aggregate_gbps == b.aggregate_gbps &&
         a.offered_packets == b.offered_packets &&
         a.delivered_packets == b.delivered_packets &&
         a.dropped_packets == b.dropped_packets &&
         a.chain_p50_us == b.chain_p50_us &&
         a.chain_p95_us == b.chain_p95_us &&
         a.chain_p99_us == b.chain_p99_us &&
         a.chain_max_us == b.chain_max_us &&
         a.chain_offered == b.chain_offered &&
         a.chain_delivered == b.chain_delivered &&
         a.chain_dropped == b.chain_dropped &&
         a.chain_residual == b.chain_residual &&
         a.drops.cells() == b.drops.cells() &&
         same_list(a.slo.violations, b.slo.violations, same_violation) &&
         same_list(a.slo.chains, b.slo.chains, same_compliance) &&
         a.residual_queued == b.residual_queued &&
         same_list(a.recovery, b.recovery, same_event);
}

std::vector<std::string> failed_checks(const Rack& rack,
                                       const RunResult& run) {
  std::vector<std::string> failed;
  const runtime::Measurement& m = run.m;
  for (std::size_t c = 0; c < m.chain_offered.size(); ++c) {
    if (m.chain_offered[c] != m.chain_delivered[c] + m.chain_dropped[c] +
                                  m.chain_residual[c]) {
      failed.push_back("conservation (chain " + std::to_string(c + 1) + ")");
    }
  }
  if (m.offered_packets == 0) failed.push_back("no offered packets");
  if (run.continuity_errors != 0) {
    failed.push_back("trace continuity (" +
                     std::to_string(run.continuity_errors) + " errors)");
  }
  if (rack.workload->failover()) {
    if (m.recovery.empty()) failed.push_back("fault never detected");
    for (const auto& ev : m.recovery) {
      if (!ev.recovered) {
        failed.push_back("recovery of " + ev.element + ": " + ev.action);
      }
    }
  }
  return failed;
}

}  // namespace lemur::rackbench
