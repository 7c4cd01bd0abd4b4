// Failover MTTR bench: sweeps every fault type in the chaos taxonomy
// through the live-recovery pipeline (telemetry detection -> incremental
// re-place -> verify -> state-migrating atomic swap) and reports, per
// fault: recovery time (MTTR), failure-window packet loss, swap-flush
// loss, and SLO-violation duration — all in virtual time, so the whole
// table is bit-identical across runs with the same seed.
//
// Gates (any failing exits 1):
//   - every placement fault (server/NIC/OF/link death) recovers, every
//     impairment (corrupt) closes its ride-through, silent impairments
//     (dup/reorder) leave no spurious events;
//   - per-chain conservation holds exactly through fault + flush + swap:
//     offered == delivered + dropped + residual;
//   - the incrementally re-placed plan's throughput stays within 1% of a
//     cold from-scratch re-place on the same degraded rack;
//   - with --baseline <path>, the worst MTTR stays within 1.5x of the
//     committed BENCH_failover.json (MTTR is virtual-time deterministic,
//     so drift means the detection or control path changed).
//
// Emits BENCH_failover.json.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/runtime/recovery.h"
#include "src/telemetry/json.h"

namespace {

using namespace lemur;

constexpr double kChaosMs = 8.0;        // Chaos window (fault at 2 ms).
constexpr double kThroughputMs = 5.0;   // Warm-vs-cold comparison window.
constexpr double kMaxThroughputDelta = 0.01;
constexpr double kMaxMttrGrowth = 1.5;  // vs --baseline worst MTTR.
constexpr std::uint64_t kSeed = 7;

enum class Expect {
  kReplace,      // Placement fault: detect + re-place + swap.
  kRideThrough,  // Corruption: event that closes on quiescence.
  kSilent,       // Dup/reorder: no drops, no events, conservation only.
};

struct ScenarioSpec {
  const char* name;
  /// Fault spec with %d for the victim server (picked from the live
  /// placement at runtime); used verbatim when no %d.
  const char* fault_format;
  Expect expect;
  bool use_last_server;  // %d = last used server (first otherwise).
  bool smartnic;
  bool openflow;
  std::vector<int> chain_numbers;
  double delta;
};

const std::vector<ScenarioSpec>& scenarios() {
  static const std::vector<ScenarioSpec> kScenarios = {
      {"server-death", "server:%d@2", Expect::kReplace, true, false, false,
       {3, 5}, 1.0},
      {"nic-death", "nic:0@2", Expect::kReplace, false, true, false, {5},
       4.0},
      {"of-down", "of@2", Expect::kReplace, false, false, true, {3}, 0.5},
      {"link-down", "link:%d@2+1", Expect::kReplace, true, false, false,
       {3, 5}, 1.0},
      {"wire-corrupt", "corrupt:%d@2+2@0.25", Expect::kRideThrough, false,
       false, false, {3}, 1.0},
      {"wire-duplicate", "dup:%d@2+2@0.25", Expect::kSilent, false, false,
       false, {3}, 1.0},
      {"wire-reorder", "reorder:%d@2+2@0.25", Expect::kSilent, false, false,
       false, {3}, 1.0},
  };
  return kScenarios;
}

struct ScenarioResult {
  std::string name;
  std::string fault_spec;
  bool ok = true;
  std::string failure;
  std::vector<runtime::RecoveryEvent> events;
  std::uint64_t mttr_ns = 0;  ///< Worst detected->recovered among events.
  runtime::Measurement m;
  double warm_gbps = -1;  ///< Recovered plan, fresh measurement window.
  double cold_gbps = -1;  ///< From-scratch re-place on the degraded rack.
};

void fail(ScenarioResult& r, const std::string& why) {
  r.ok = false;
  if (!r.failure.empty()) r.failure += "; ";
  r.failure += why;
  std::printf("  FAIL: %s\n", why.c_str());
}

int pick_victim_server(const placer::PlacementResult& placement, bool last) {
  std::vector<int> used;
  for (const auto& g : placement.subgroups) {
    if (std::find(used.begin(), used.end(), g.server) == used.end()) {
      used.push_back(g.server);
    }
  }
  std::sort(used.begin(), used.end());
  if (used.empty()) return 0;
  return last ? used.back() : used.front();
}

double measure_gbps(const std::vector<chain::ChainSpec>& chains,
                    const placer::PlacementResult& placement,
                    const metacompiler::CompiledArtifacts& artifacts,
                    const topo::Topology& topo) {
  runtime::Testbed testbed(chains, placement, artifacts, topo, kSeed);
  if (!testbed.ok()) return -1;
  return testbed.run(kThroughputMs).aggregate_gbps;
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  ScenarioResult r;
  r.name = spec.name;
  std::printf("%s\n", spec.name);

  topo::Topology topo = topo::Topology::multi_server(2, 8);
  placer::PlacerOptions options;
  if (spec.smartnic) topo.smartnics.push_back(topo::SmartNicSpec{});
  if (spec.openflow) {
    topo.openflow = topo::OpenFlowSwitchSpec{};
    options.disable_pisa_nfs = true;
  }
  auto chains = bench::chain_set(spec.chain_numbers, spec.delta, topo,
                                 options);
  metacompiler::CompilerOracle oracle(topo);
  auto placement =
      placer::place(placer::Strategy::kLemur, chains, topo, options, oracle);
  if (!placement.feasible) {
    fail(r, "healthy placement infeasible: " + placement.infeasible_reason);
    return r;
  }
  auto artifacts = metacompiler::compile(chains, placement, topo);
  if (!artifacts.ok) {
    fail(r, "metacompiler: " + artifacts.error);
    return r;
  }

  r.fault_spec = spec.fault_format;
  if (r.fault_spec.find("%d") != std::string::npos) {
    const int victim = pick_victim_server(placement, spec.use_last_server);
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, spec.fault_format, victim);
    r.fault_spec = buffer;
  }

  std::string parse_error;
  auto events = runtime::FaultScheduler::parse(r.fault_spec, &parse_error);
  if (!events.has_value()) {
    fail(r, "fault spec: " + parse_error);
    return r;
  }
  runtime::FaultScheduler faults(*events, kSeed);
  metacompiler::CompilerOracle live_oracle(topo);
  runtime::RecoveryController controller(chains, placement, topo, options,
                                         live_oracle);
  runtime::Testbed testbed(chains, placement, artifacts, topo, kSeed);
  if (!testbed.ok()) {
    fail(r, "deploy: " + testbed.error());
    return r;
  }
  testbed.set_fault_scheduler(&faults);
  testbed.set_recovery_hook(&controller);
  r.m = testbed.run(kChaosMs);
  r.events = controller.events();
  if (!bench::conserved(r.m)) fail(r, "per-chain conservation violated");

  for (const auto& ev : r.events) {
    if (ev.recovered) {
      r.mttr_ns = std::max(r.mttr_ns, ev.recovered_ns - ev.detected_ns);
    }
    std::printf("  %-10s %-28s detect %.2f ms, recover %.2f ms, mttr "
                "%.0f us, lost %" PRIu64 "+%" PRIu64 "\n",
                ev.element.c_str(), ev.action.c_str(),
                static_cast<double>(ev.detected_ns) * 1e-6,
                static_cast<double>(ev.recovered_ns) * 1e-6,
                static_cast<double>(ev.recovered_ns - ev.detected_ns) * 1e-3,
                ev.fault_window_drops, ev.recovery_flush_drops);
  }

  switch (spec.expect) {
    case Expect::kReplace: {
      if (r.events.empty()) {
        fail(r, "placement fault produced no recovery event");
        break;
      }
      for (const auto& ev : r.events) {
        if (!ev.recovered) fail(r, ev.element + " " + ev.action);
      }
      if (testbed.plan_generation() < 1) {
        fail(r, "no dataplane swap happened");
      }
      if (!r.ok) break;
      // Warm (incrementally re-placed) vs cold (from-scratch re-place on
      // the same degraded rack, same chain set including any sheds).
      const auto& gen_chains = controller.current_chains();
      const auto& gen_topo = controller.current_topo();
      const auto* gen_artifacts = controller.current_artifacts();
      r.warm_gbps = measure_gbps(gen_chains, controller.current_placement(),
                                 *gen_artifacts, gen_topo);
      metacompiler::CompilerOracle cold_oracle(gen_topo);
      auto cold_placement = placer::place(placer::Strategy::kLemur,
                                          gen_chains, gen_topo, options,
                                          cold_oracle);
      if (!cold_placement.feasible) {
        fail(r, "cold re-place infeasible: " +
                    cold_placement.infeasible_reason);
        break;
      }
      auto cold_artifacts =
          metacompiler::compile(gen_chains, cold_placement, gen_topo);
      if (!cold_artifacts.ok) {
        fail(r, "cold re-place artifacts: " + cold_artifacts.error);
        break;
      }
      r.cold_gbps =
          measure_gbps(gen_chains, cold_placement, cold_artifacts, gen_topo);
      std::printf("  warm %.3f Gbps vs cold re-place %.3f Gbps\n",
                  r.warm_gbps, r.cold_gbps);
      if (r.warm_gbps < 0 || r.cold_gbps < 0) {
        fail(r, "throughput comparison run failed");
      } else if (std::abs(r.warm_gbps - r.cold_gbps) >
                 kMaxThroughputDelta * r.cold_gbps) {
        fail(r, "recovered throughput deviates >1% from cold re-place");
      }
      break;
    }
    case Expect::kRideThrough: {
      if (r.events.size() != 1 ||
          r.events.front().action != "impairment-ride-through") {
        fail(r, "expected exactly one ride-through event");
        break;
      }
      if (!r.events.front().recovered) {
        fail(r, "ride-through never closed");
      }
      if (testbed.plan_generation() != 0) {
        fail(r, "impairment must not trigger a dataplane swap");
      }
      break;
    }
    case Expect::kSilent: {
      // Duplication/reordering cause no drops, so telemetry-only
      // detection must stay quiet; the gate is exact conservation even
      // with cloned/delayed packets in flight.
      if (!r.events.empty()) {
        fail(r, "silent impairment produced recovery events");
      }
      if (r.m.delivered_packets == 0) fail(r, "nothing delivered");
      break;
    }
  }
  if (r.ok) std::printf("  ok\n");
  return r;
}

std::uint64_t read_baseline_worst_mttr(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::printf("cannot open baseline '%s'\n", path);
    return 0;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const auto pos = text.find("\"worst_mttr_ns\":");
  if (pos == std::string::npos) {
    std::printf("baseline '%s' has no worst_mttr_ns\n", path);
    return 0;
  }
  return static_cast<std::uint64_t>(
      std::atoll(text.c_str() + pos + std::strlen("\"worst_mttr_ns\":")));
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0) baseline_path = argv[i + 1];
  }

  std::printf("Lemur reproduction — failover MTTR sweep (chaos taxonomy, "
              "seed %" PRIu64 ")\n",
              kSeed);
  bench::print_header("fault -> detect -> re-place -> migrate -> swap");

  bool ok = true;
  std::uint64_t worst_mttr_ns = 0;
  std::vector<ScenarioResult> results;
  for (const auto& spec : scenarios()) {
    results.push_back(run_scenario(spec));
    ok = ok && results.back().ok;
    worst_mttr_ns = std::max(worst_mttr_ns, results.back().mttr_ns);
  }

  std::printf("\nworst MTTR %.0f us across %zu scenarios\n",
              static_cast<double>(worst_mttr_ns) * 1e-3, results.size());

  if (baseline_path != nullptr) {
    const std::uint64_t baseline = read_baseline_worst_mttr(baseline_path);
    if (baseline > 0) {
      const auto ceiling = static_cast<std::uint64_t>(
          static_cast<double>(baseline) * kMaxMttrGrowth);
      std::printf("baseline worst_mttr_ns %" PRIu64 ", ceiling %" PRIu64
                  ": %s\n",
                  baseline, ceiling,
                  worst_mttr_ns <= ceiling ? "ok" : "REGRESSION");
      if (worst_mttr_ns > ceiling) {
        std::printf("FAIL: worst MTTR grew >%.1fx over baseline\n",
                    kMaxMttrGrowth);
        ok = false;
      }
    }
  }

  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("bench", "failover_mttr");
  w.kv("seed", kSeed);
  w.kv("chaos_ms", kChaosMs);
  w.kv("worst_mttr_ns", worst_mttr_ns);
  w.key("scenarios");
  w.begin_array();
  for (const auto& r : results) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("faults", r.fault_spec);
    w.kv("ok", r.ok);
    if (!r.failure.empty()) w.kv("failure", r.failure);
    w.kv("mttr_ns", r.mttr_ns);
    w.kv("offered_packets", r.m.offered_packets);
    w.kv("delivered_packets", r.m.delivered_packets);
    if (r.warm_gbps >= 0) w.kv("warm_gbps", r.warm_gbps);
    if (r.cold_gbps >= 0) w.kv("cold_gbps", r.cold_gbps);
    w.key("events");
    runtime::write_recovery_events(w, r.events);
    w.end_object();
  }
  w.end_array();
  w.kv("pass", ok);
  w.end_object();
  std::ofstream out("BENCH_failover.json");
  out << w.str() << '\n';
  std::printf("wrote BENCH_failover.json (%s)\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
