// Rack benchmark command.
//
//   rackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// --trace 0 repeats the workload (set-up + one measured run) until
// --seconds have passed, then runs it once more, untimed, recording every
// packet's latency, and prints the end-to-end metrics. --trace 1
// prints the per-layer metrics instead: it interleaves span-traced,
// untraced and Testbed-tracing-off repetitions, then replays the
// workload's packets through each per-packet layer, and writes the spans
// to --spans-out. Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed correctness check is named on stderr and the exit code is 1.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rackbench/rack.h"
#include "rackbench/replay.h"
#include "rackbench/stats.h"
#include "src/nf/nf_spec.h"

namespace {

using namespace lemur;
using namespace lemur::rackbench;

// Repetitions even past the deadline, so that every host metric is a
// median of at least 3 (the slowest workload, pop-scale, fits about 4).
constexpr int kMinReps = 3;
// Back-to-back set-ups per repetition; the fastest is its setup_s sample.
constexpr int kSetupsPerRep = 3;
constexpr double kTracedShare = 0.7;  // Of --seconds, before the replays.
constexpr std::size_t kReplayPackets = 2048;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return args;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Metrics in print order, plus the correctness verdict.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit, note});
  }

  /// Records a failed correctness check (named with the workload).
  void fail(const std::string& check) {
    std::fprintf(stderr, "rackbench: %s: correctness check failed: %s\n",
                 workload_.c_str(), check.c_str());
    failures_.push_back(check);
  }
  [[nodiscard]] bool correct() const { return failures_.empty(); }

  /// Human-readable table, then the one-line JSON result; returns the
  /// process exit code.
  int finish(std::uint64_t attempted, std::uint64_t failed) const {
    for (const auto& m : metrics_) {
      std::printf("  %-34s %18.6f %-7s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[40];
      std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct() ? 0 : 1;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::string workload_;
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

/// Compares each repetition's virtual results with the first one's.
class RepeatGate {
 public:
  /// Returns false when this repetition's virtual results differ. With
  /// `whole`, every Measurement field must match too (Testbed tracing
  /// off legitimately drops the per-hop attribution of SLO violations).
  bool same_as_first(const VirtualMetrics& v, const runtime::Measurement& m,
                     bool whole) {
    if (!first_.has_value()) {
      first_ = v;
      first_m_ = m;
      return true;
    }
    return v == *first_ && (!whole || same_measurement(m, first_m_));
  }
  [[nodiscard]] const std::optional<VirtualMetrics>& first() const {
    return first_;
  }

 private:
  std::optional<VirtualMetrics> first_;
  runtime::Measurement first_m_;
};

/// Runs the repetition's correctness gate; true when it passed.
bool check_rep(const Rack& rack, const RunResult& run, RepeatGate& repeats,
               Report& report, bool whole = true) {
  auto failed = failed_checks(rack, run);
  if (!repeats.same_as_first(virtual_metrics(rack, run), run.m, whole)) {
    failed.push_back("virtual metrics differ across repeats of seed " +
                     std::to_string(rack.seed));
  }
  for (const auto& check : failed) report.fail(check);
  return failed.empty();
}

/// NF types some workload's placement runs on a server: the per-layer
/// nf.<Type> metrics (0 on a workload that runs the type elsewhere or
/// not at all). Tunnel, Detunnel and IPv4Fwd always land on the ToR.
constexpr nf::NfType kServerNfTypes[] = {
    nf::NfType::kEncrypt, nf::NfType::kFastEncrypt, nf::NfType::kDedup,
    nf::NfType::kLimiter, nf::NfType::kUrlFilter,   nf::NfType::kMonitor,
    nf::NfType::kNat,     nf::NfType::kLb,          nf::NfType::kMatch,
    nf::NfType::kAcl,
};

double pps(const RunResult& run) {
  return static_cast<double>(run.m.offered_packets) /
         (static_cast<double>(run.run_ns) * 1e-9);
}

int run_end_to_end(const Workload& w, const Args& args) {
  Report report(w.name);
  RepeatGate repeats;
  // Host metrics, one sample per repetition. Each is reported as the
  // median over the run's repetitions, an estimator that does not depend
  // on how many repetitions fit in --seconds.
  std::vector<double> setup_s;
  std::vector<double> sim_pps;
  std::vector<double> quantum_p50_us;
  std::vector<double> quantum_p95_us;
  std::size_t quanta = 0;  // Per repetition; the same in every one.
  int swaps = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (attempted < kMinReps || now_ns() < deadline) {
    ++attempted;
    std::unique_ptr<Rack> rack;
    std::int64_t setup_ns = 0;
    for (int i = 0; i < kSetupsPerRep && (!rack || rack->ok()); ++i) {
      rack.reset();  // One deployed rack at a time.
      rack = build_rack(w, args.seed, /*probes=*/true);
      const std::int64_t ns = rack->setup.total_ns();
      setup_ns = i == 0 ? ns : std::min(setup_ns, ns);
    }
    if (!rack->ok()) {
      ++failed;
      report.fail(rack->error);
      break;
    }
    RunResult run = run_rack(*rack, /*probes=*/true);
    if (!check_rep(*rack, run, repeats, report)) {
      ++failed;
      break;
    }
    std::fprintf(stderr,
                 "rep %" PRIu64 ": setup %.3f ms, run %.1f ms, %.0f pkt/s\n",
                 attempted, ms(setup_ns), ms(run.run_ns), pps(run));
    if (run.swap_call_ns >= 0) ++swaps;
    setup_s.push_back(static_cast<double>(setup_ns) * 1e-9);
    sim_pps.push_back(pps(run));
    quantum_p50_us.push_back(percentile(run.quantum_ns, 0.50) / 1e3);
    quantum_p95_us.push_back(percentile(run.quantum_ns, 0.95) / 1e3);
    quanta = run.quantum_ns.size();
  }
  if (w.failover() && report.correct() && swaps == 0) {
    report.fail("no plan swap happened");
    ++failed;
  }
  // Before the latency repetition below, which keeps every latency.
  const double rss_mib = peak_rss_mib();

  // One more repetition, not timed, records every packet's latency for
  // exact percentiles; its Measurement must match the timed ones.
  LatencyPercentiles latency;
  if (report.correct()) {
    ++attempted;
    auto rack = build_rack(w, args.seed, /*probes=*/true);
    if (!rack->ok()) {
      ++failed;
      report.fail(rack->error);
    } else {
      const RunResult run =
          run_rack(*rack, /*probes=*/true, nullptr, -1,
                   /*testbed_tracing=*/true, /*raw_latencies=*/true);
      if (check_rep(*rack, run, repeats, report)) {
        latency = latency_percentiles(run);
      } else {
        ++failed;
      }
    }
  }

  const VirtualMetrics v = repeats.first().value_or(VirtualMetrics{});
  const std::string reps = std::to_string(sim_pps.size()) + " repetitions";
  const std::string q_note =
      "(median of " + reps + ", each over " + std::to_string(quanta) +
      " quanta; " + std::to_string(samples_beyond(quanta, 0.95)) +
      " beyond p95)";
  std::printf("rackbench %s seed %" PRIu64 ": %s, %.1f ms virtual each\n",
              w.name.c_str(), args.seed, reps.c_str(), kWindowMs);
  report.add("setup_s", median(setup_s), "s",
             "(median of " + reps + ", each the fastest of " +
                 std::to_string(kSetupsPerRep) + " set-ups)");
  report.add("sim_pps", median(sim_pps), "pkt/s",
             "(median of " + reps + " of offered packets / run() host time)");
  report.add("quantum_us_p50", median(quantum_p50_us), "us", q_note);
  report.add("quantum_us_p95", median(quantum_p95_us), "us", q_note);
  report.add("peak_rss_mb", rss_mib, "MiB");
  report.add("marginal_gbps", v.marginal_gbps, "Gbps", "(virtual)");
  const std::string lat_note =
      "(virtual, " + std::to_string(latency.samples) + " packets)";
  report.add("latency_p50_us", latency.p50_us, "us", lat_note);
  report.add("latency_p99_us", latency.p99_us, "us", lat_note);
  report.add("delivered_ratio", 1 - v.loss_ratio, "ratio",
             "(virtual, 1 - loss_ratio over " + std::to_string(v.offered) +
                 " offered)");
  report.add("slo_met_ratio", v.slo_met_ratio, "ratio",
             "(virtual, chains without an SLO violation)");
  return report.finish(attempted, failed);
}

int run_traced(const Workload& w, const Args& args) {
  Report report(w.name);
  RepeatGate repeats;
  SpanRecorder spans;
  std::vector<double> pps_default;   // No spans, Testbed tracing on.
  std::vector<double> pps_traced;    // Spans, Testbed tracing on.
  std::vector<double> pps_untraced;  // No spans, Testbed tracing off.
  std::unique_ptr<Rack> last;
  RunResult last_run;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int traced_reps = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * kTracedShare * 1e9);
  while (report.correct() && (traced_reps == 0 || now_ns() < deadline)) {
    for (int kind = 0; kind < 3 && report.correct(); ++kind) {
      ++attempted;
      const bool traced = kind == 1;
      SpanRecorder* recorder = traced ? &spans : nullptr;
      int root = -1;
      if (traced) {
        spans.set_run(traced_reps);
        root = spans.open("repetition", -1);
      }
      auto rack = build_rack(w, args.seed, /*probes=*/true, recorder, root);
      if (!rack->ok()) {
        ++failed;
        report.fail(rack->error);
        break;
      }
      RunResult run = run_rack(*rack, /*probes=*/true, recorder, root,
                               /*testbed_tracing=*/kind != 2);
      if (traced) spans.close(root);
      // Testbed tracing off must not change the model either.
      if (!check_rep(*rack, run, repeats, report, /*whole=*/kind != 2)) {
        ++failed;
        break;
      }
      (kind == 0 ? pps_default : traced ? pps_traced : pps_untraced)
          .push_back(pps(run));
      if (traced) {
        ++traced_reps;
        last = std::move(rack);
        last_run = std::move(run);
      }
    }
  }
  if (!report.correct() || !last) return report.finish(attempted, failed);

  const Rack& rack = *last;
  const VirtualMetrics v = virtual_metrics(rack, last_run);
  const double reps = traced_reps;
  const auto per_rep_ms = [&](const char* name) {
    return ms(spans.totals(name).total_ns) / reps;
  };
  std::printf("rackbench %s seed %" PRIu64 ": %d traced repetitions\n",
              w.name.c_str(), args.seed, traced_reps);

  report.add("chain.build_ms", per_rep_ms("chain.build"), "ms");
  const auto place = spans.totals("placer.place");
  report.add("placer.place_ms", ms(place.total_ns) / reps, "ms");
  report.add("placer.self_ms", ms(place.self_ns) / reps, "ms");
  const auto& stats = rack.placement.stats;
  report.add("placer.oracle_calls", static_cast<double>(stats.oracle_calls),
             "count");
  report.add("placer.oracle_hit_ratio",
             ratio(static_cast<double>(stats.oracle_hits),
                   static_cast<double>(stats.oracle_calls)),
             "ratio");
  const double predicted = rack.placement.marginal_gbps();
  report.add("placer.predicted_marginal_gbps", predicted, "Gbps");
  report.add("placer.prediction_error",
             ratio(predicted - v.marginal_gbps, predicted), "ratio",
             "((predicted - measured) / predicted marginal)");

  const auto oracle = spans.totals("metacompiler.oracle");
  report.add("metacompiler.oracle_ms", ms(oracle.total_ns) / reps, "ms");
  report.add("metacompiler.oracle_ms_per_call",
             ratio(ms(oracle.total_ns), static_cast<double>(oracle.count)),
             "ms");
  report.add("metacompiler.compile_ms", per_rep_ms("metacompiler.compile"),
             "ms");
  report.add("metacompiler.p4_stages",
             static_cast<double>(rack.artifacts.p4.compiled.stages_required),
             "count");
  report.add("metacompiler.p4_entries",
             static_cast<double>(rack.artifacts.p4.entries.size()), "count");

  report.add("verify.ms", per_rep_ms("verify.verify"), "ms");
  report.add("verify.findings",
             static_cast<double>(rack.report.diagnostics.size()), "count");

  report.add("runtime.deploy_ms", per_rep_ms("runtime.deploy"), "ms");
  report.add("runtime.run_ms", per_rep_ms("runtime.run"), "ms");
  report.add("runtime.quanta",
             static_cast<double>(spans.totals("runtime.quantum").count) / reps,
             "count");
  report.add("runtime.residual_packets", static_cast<double>(v.residual),
             "count");
  report.add("runtime.loss_ratio", v.loss_ratio, "ratio",
             "((offered - delivered - NF-verdict drops) / offered)");
  report.add("slo.violations", static_cast<double>(v.slo_violations),
             "count");

  // Per-packet layers, replayed with the workload's own packets.
  const std::size_t per_chain =
      std::max<std::size_t>(1, kReplayPackets / rack.chains.size());
  const auto packets =
      workload_packets(rack.chains, args.seed, w.flow_mode, per_chain);
  const ReplayStat traffic =
      replay_traffic(rack.chains, args.seed, w.flow_mode, per_chain);
  report.add("traffic.ns_per_pkt", traffic.ns_per_pkt, "ns",
             "(" + std::to_string(traffic.packets) + " packets)");
  const ReplayStat pisa = replay_pisa(rack.artifacts, rack.topo, packets);
  report.add("pisa.ns_per_pkt", pisa.ns_per_pkt, "ns",
             "(" + std::to_string(pisa.packets) + " packets)");
  report.add("pisa.passes_per_pkt",
             ratio(static_cast<double>(last_run.tor_packets),
                   static_cast<double>(v.offered)),
             "ratio");
  std::map<std::string, ReplayStat> nfs;
  for (auto& stat : replay_software_nfs(rack.chains, rack.artifacts, packets)) {
    nfs.emplace(stat.layer, stat);
  }
  for (const nf::NfType type : kServerNfTypes) {
    const std::string layer = "nf." + std::string(nf::spec_of(type).name);
    const auto it = nfs.find(layer);
    report.add(layer + ".ns_per_pkt",
               it != nfs.end() ? it->second.ns_per_pkt : 0.0, "ns",
               it != nfs.end()
                   ? "(" + std::to_string(it->second.packets) + " packets)"
                   : "(not on a server)");
  }
  const ReplayStat nic = replay_nic(rack.artifacts, packets);
  report.add("nic.ns_per_pkt", nic.ns_per_pkt, "ns",
             "(" + std::to_string(nic.packets) + " program runs)");
  report.add("nic.nfs", static_cast<double>(rack.placement.nic_nfs.size()),
             "count");

  report.add("bess.queue_depth_p99", last_run.queue_depth_p99, "packets");
  report.add("bess.wire_depth_p99", last_run.wire_depth_p99, "packets");
  report.add("bess.queue_overflow_drops",
             static_cast<double>(v.queue_overflow_drops), "count");

  const auto& pool = last_run.pool;
  report.add("net.pool_reuse_ratio",
             ratio(static_cast<double>(pool.reused),
                   static_cast<double>(pool.reused + pool.allocated)),
             "ratio");
  report.add("net.parse_hit_ratio",
             ratio(static_cast<double>(last_run.parse.hits),
                   static_cast<double>(last_run.parse.hits +
                                       last_run.parse.misses)),
             "ratio");

  // Fastest repetitions: interference only slows a repetition down.
  const auto fastest = [](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end());
  };
  report.add("telemetry.trace_overhead",
             ratio(fastest(pps_untraced), fastest(pps_default)) - 1, "ratio",
             "(sim_pps without Testbed tracing / with - 1)");
  report.add("bench.trace_overhead",
             ratio(fastest(pps_default), fastest(pps_traced)) - 1, "ratio",
             "(sim_pps without benchmark spans / with - 1)");

  std::uint64_t flush = 0;
  std::uint64_t window = 0;
  std::uint64_t replaced = 0;
  for (const auto& ev : last_run.m.recovery) {
    flush += ev.recovery_flush_drops;
    window += ev.fault_window_drops;
    replaced += ev.replaced_chains.size();
  }
  report.add("recovery.swap_ms",
             last_run.swap_call_ns >= 0 ? ms(last_run.swap_call_ns) : 0.0,
             "ms", "(host time of the on_quantum call that swapped plans)");
  report.add("recovery.mttr_us", static_cast<double>(v.mttr_ns) / 1e3, "us",
             "(virtual, worst detected -> recovered)");
  report.add("recovery.on_quantum_ms", per_rep_ms("recovery.on_quantum"),
             "ms");
  report.add("recovery.oracle_ms", per_rep_ms("recovery.oracle"), "ms");
  const placer::PlacementStats recovery_stats =
      rack.controller ? rack.controller->oracle_stats()
                      : placer::PlacementStats{};
  report.add("recovery.oracle_hit_ratio",
             ratio(static_cast<double>(recovery_stats.oracle_hits),
                   static_cast<double>(recovery_stats.oracle_calls)),
             "ratio");
  report.add("recovery.flush_drops", static_cast<double>(flush), "count");
  report.add("recovery.fault_window_drops", static_cast<double>(window),
             "count");
  report.add("recovery.replaced_chains", static_cast<double>(replaced),
             "count");

  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    out << spans.to_json() << '\n';
    if (!out) report.fail("cannot write spans to " + args.spans_out);
  }
  return report.finish(attempted, failed);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: rackbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--spans-out <path>]\n");
    return 2;
  }
  const Workload* workload = find_workload(args->workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "rackbench: unknown workload '%s'; known:",
                 args->workload.c_str());
    for (const auto& w : workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  return args->trace ? run_traced(*workload, *args)
                     : run_end_to_end(*workload, *args);
}
