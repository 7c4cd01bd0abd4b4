// Telemetry smoke bench: deploys the fig2 comparison workload (chains
// {1,2,3,4} at delta 0.9) with per-hop tracing on and off, checks that
// the observability layer (a) keeps its books straight — exact per-chain
// packet conservation and zero trace-continuity errors — and (b) costs
// less than 10% wall-clock overhead. The overhead is the median of
// per-pair traced/untraced ratios over pairs interleaved in this process,
// alternating which side runs first, so host drift hits both sides of a
// pair alike; its interquartile range is printed and emitted beside it.
// Emits BENCH_telemetry.json with the per-pair timings and the traced
// run's compliance snapshot; exits 1 on any failed check, so ci.sh gates
// on it.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <fstream>

#include "bench/common.h"
#include "src/telemetry/json.h"

namespace {

using namespace lemur;

constexpr int kPairs = 15;
constexpr double kDurationMs = 5.0;
constexpr double kMaxOverhead = 0.10;

struct RunResult {
  double wall_ms = 0;
  runtime::Measurement m;
  std::uint64_t continuity_errors = 0;
  std::uint64_t traces_observed = 0;
};

RunResult run_once(const std::vector<chain::ChainSpec>& chains,
                   const placer::PlacementResult& placement,
                   const metacompiler::CompiledArtifacts& artifacts,
                   const topo::Topology& topo, bool tracing) {
  runtime::Testbed testbed(chains, placement, artifacts, topo);
  if (!testbed.ok()) {
    std::printf("deployment error: %s\n", testbed.error().c_str());
    std::exit(1);
  }
  testbed.set_tracing(tracing);
  RunResult out;
  const auto start = std::chrono::steady_clock::now();
  out.m = testbed.run(kDurationMs);
  const auto stop = std::chrono::steady_clock::now();
  out.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  out.continuity_errors = testbed.traces().continuity_errors();
  out.traces_observed = testbed.traces().traces_observed();
  return out;
}

/// Quantile q of `values` by linear interpolation between order statistics.
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace

int main() {
  const topo::Topology topo = topo::Topology::lemur_testbed();
  placer::PlacerOptions options;
  auto chains = bench::chain_set({1, 2, 3, 4}, 0.9, topo, options);
  metacompiler::CompilerOracle oracle(topo);
  auto placement =
      placer::place(placer::Strategy::kLemur, chains, topo, options, oracle);
  if (!placement.feasible) {
    std::printf("placement infeasible: %s\n",
                placement.infeasible_reason.c_str());
    return 1;
  }
  auto artifacts = metacompiler::compile(chains, placement, topo);
  if (!artifacts.ok) {
    std::printf("metacompiler error: %s\n", artifacts.error.c_str());
    return 1;
  }

  std::printf("Lemur reproduction — telemetry smoke (fig2 workload, "
              "chains {1,2,3,4} at delta 0.9)\n");
  bench::print_header("Tracing overhead, " + std::to_string(kPairs) +
                      " interleaved pairs of " + std::to_string(kDurationMs) +
                      " ms");

  std::vector<double> traced_ms, untraced_ms, ratios;
  RunResult traced_last;
  bool ok = true;
  // Untimed warm-up, so the first pair does not pay the process's cold
  // start on one side only.
  run_once(chains, placement, artifacts, topo, true);
  std::printf("%-6s %12s %12s %8s\n", "pair", "traced-ms", "untraced-ms",
              "ratio");
  for (int pair = 0; pair < kPairs; ++pair) {
    RunResult traced, untraced;
    if (pair % 2 == 0) {
      traced = run_once(chains, placement, artifacts, topo, true);
      untraced = run_once(chains, placement, artifacts, topo, false);
    } else {
      untraced = run_once(chains, placement, artifacts, topo, false);
      traced = run_once(chains, placement, artifacts, topo, true);
    }
    const double ratio =
        untraced.wall_ms > 0 ? traced.wall_ms / untraced.wall_ms : 1.0;
    std::printf("%-6d %12.2f %12.2f %8.3f\n", pair, traced.wall_ms,
                untraced.wall_ms, ratio);
    traced_ms.push_back(traced.wall_ms);
    untraced_ms.push_back(untraced.wall_ms);
    ratios.push_back(ratio);
    ok = ok && bench::conserved(traced.m) && bench::conserved(untraced.m);
    if (traced.continuity_errors != 0) {
      std::printf("continuity errors: %" PRIu64 " of %" PRIu64 " traces\n",
                  traced.continuity_errors, traced.traces_observed);
      ok = false;
    }
    traced_last = std::move(traced);
  }

  const double overhead = quantile(ratios, 0.5) - 1.0;
  const double overhead_iqr = quantile(ratios, 0.75) - quantile(ratios, 0.25);
  std::printf("\nmedian per-pair overhead %+.1f%%, IQR %.1f%% (budget "
              "%.0f%%)\n",
              overhead * 100, overhead_iqr * 100, kMaxOverhead * 100);
  if (overhead > kMaxOverhead) {
    std::printf("FAIL: tracing overhead exceeds budget\n");
    ok = false;
  }

  const auto& m = traced_last.m;
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("bench", "telemetry_smoke");
  w.kv("workload", "fig2 chains {1,2,3,4} delta 0.9");
  w.kv("pairs", kPairs);
  w.kv("duration_ms", kDurationMs);
  w.key("traced_wall_ms");
  w.begin_array();
  for (double v : traced_ms) w.value(v);
  w.end_array();
  w.key("untraced_wall_ms");
  w.begin_array();
  for (double v : untraced_ms) w.value(v);
  w.end_array();
  w.kv("tracing_overhead", overhead);
  w.kv("tracing_overhead_iqr", overhead_iqr);
  w.kv("overhead_budget", kMaxOverhead);
  w.kv("aggregate_gbps", m.aggregate_gbps);
  w.kv("offered_packets", m.offered_packets);
  w.kv("delivered_packets", m.delivered_packets);
  w.kv("dropped_packets", m.dropped_packets);
  w.kv("residual_queued", m.residual_queued);
  w.kv("traces_observed", traced_last.traces_observed);
  w.kv("continuity_errors", traced_last.continuity_errors);
  w.kv("slo_compliant", m.slo.compliant());
  w.kv("slo_violations",
       static_cast<std::uint64_t>(m.slo.violations.size()));
  w.kv("pass", ok);
  w.end_object();
  std::ofstream out("BENCH_telemetry.json");
  out << w.str() << '\n';
  std::printf("wrote BENCH_telemetry.json (%s)\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
