// Dataplane microbench: drives the fig2 comparison workload (chains
// {1,2,3,4} at delta 0.9) through the full rack on the one packet path
// there is — pooled packets, parse-once metadata, fast AES. Each fast
// layer (and the flat flow table) is checked against its oracle in
// tests/fastpath_test.cpp, not here.
//
// Emits BENCH_dataplane.json. With --baseline <path>, compares this
// run's pooled pps against the committed baseline's and exits 1 when it
// regresses more than 10% — the packets/sec regression gate ci.sh runs.
// Conservation (offered == delivered + dropped + residual) and trace
// continuity are checked on every rep; either failing also exits 1.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench/common.h"
#include "src/telemetry/json.h"

namespace {

using namespace lemur;

constexpr int kReps = 3;
constexpr double kDurationMs = 5.0;
constexpr double kMaxRegression = 0.10;  // vs --baseline pooled_pps.

struct RunResult {
  std::vector<double> wall_ms;
  double best_wall_ms = 0;
  double pps = 0;  ///< offered packets / best wall second.
  runtime::Measurement m;
  net::PacketPool::Stats pool;
  net::ParseCacheStats cache;
};

RunResult run_reps(const std::vector<chain::ChainSpec>& chains,
                   const placer::PlacementResult& placement,
                   const metacompiler::CompiledArtifacts& artifacts,
                   const topo::Topology& topo, bool* ok) {
  RunResult out;
  for (int rep = 0; rep < kReps; ++rep) {
    runtime::Testbed testbed(chains, placement, artifacts, topo);
    if (!testbed.ok()) {
      std::printf("deployment error: %s\n", testbed.error().c_str());
      std::exit(1);
    }
    net::reset_parse_cache_stats();
    const auto start = std::chrono::steady_clock::now();
    auto m = testbed.run(kDurationMs);
    const auto stop = std::chrono::steady_clock::now();
    out.wall_ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
    *ok = *ok && bench::conserved(m);
    if (testbed.traces().continuity_errors() != 0) {
      std::printf("continuity errors: %" PRIu64 "\n",
                  testbed.traces().continuity_errors());
      *ok = false;
    }
    out.pool = testbed.packet_pool().stats();
    out.cache = net::parse_cache_stats();
    out.m = std::move(m);
  }
  out.best_wall_ms = *std::min_element(out.wall_ms.begin(),
                                       out.wall_ms.end());
  out.pps = out.best_wall_ms > 0
                ? static_cast<double>(out.m.offered_packets) /
                      (out.best_wall_ms * 1e-3)
                : 0;
  return out;
}

double read_baseline_pps(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::printf("cannot open baseline '%s'\n", path);
    return -1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const auto pos = text.find("\"pooled_pps\":");
  if (pos == std::string::npos) {
    std::printf("baseline '%s' has no pooled_pps\n", path);
    return -1;
  }
  return std::atof(text.c_str() + pos + std::strlen("\"pooled_pps\":"));
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0) baseline_path = argv[i + 1];
  }

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

  std::printf("Lemur reproduction — dataplane microbench (fig2 workload, "
              "chains {1,2,3,4} at delta 0.9)\n");
  bench::print_header("packets/sec, " + std::to_string(kReps) + " reps of " +
                      std::to_string(kDurationMs) + " ms");

  bool ok = true;
  const RunResult run = run_reps(chains, placement, artifacts, topo, &ok);
  const double pooled_pps = run.pps;
  std::printf("best %.2f ms, %.0f pps (pool reused %" PRIu64
              ", parse hits %" PRIu64 ")\n",
              run.best_wall_ms, pooled_pps, run.pool.reused, run.cache.hits);

  double baseline_pps = -1;
  if (baseline_path != nullptr) {
    baseline_pps = read_baseline_pps(baseline_path);
    if (baseline_pps > 0) {
      const double floor = baseline_pps * (1.0 - kMaxRegression);
      std::printf("baseline pooled_pps %.0f, floor %.0f: %s\n", baseline_pps,
                  floor, pooled_pps >= floor ? "ok" : "REGRESSION");
      if (pooled_pps < floor) {
        std::printf("FAIL: pooled pps regressed >%.0f%% below baseline\n",
                    kMaxRegression * 100);
        ok = false;
      }
    }
  }

  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("bench", "dataplane_micro");
  w.kv("workload", "fig2 chains {1,2,3,4} delta 0.9");
  w.kv("reps", kReps);
  w.kv("duration_ms", kDurationMs);
  w.key("wall_ms");
  w.begin_array();
  for (double v : run.wall_ms) w.value(v);
  w.end_array();
  w.kv("best_wall_ms", run.best_wall_ms);
  w.kv("offered_packets", run.m.offered_packets);
  w.kv("delivered_packets", run.m.delivered_packets);
  w.kv("pool_allocated", run.pool.allocated);
  w.kv("pool_reused", run.pool.reused);
  w.kv("parse_hits", run.cache.hits);
  w.kv("parse_misses", run.cache.misses);
  w.kv("pooled_pps", pooled_pps);
  if (baseline_pps > 0) w.kv("baseline_pps", baseline_pps);
  w.kv("pass", ok);
  w.end_object();
  std::ofstream out("BENCH_dataplane.json");
  out << w.str() << '\n';
  std::printf("wrote BENCH_dataplane.json (%s)\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
