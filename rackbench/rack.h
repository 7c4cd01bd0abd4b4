// One benchmark repetition driven through the public pipeline, as an
// operator would: canonical chains + apply_delta -> place -> compile ->
// verify_artifacts -> Testbed -> Testbed::run, with the fault scheduler
// and recovery controller attached on the failover workload. Every call is
// timed from outside; with a SpanRecorder each also becomes a span.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/metacompiler/pisa_oracle.h"
#include "src/runtime/recovery.h"
#include "src/runtime/testbed.h"
#include "src/verify/verifier.h"
#include "rackbench/probes.h"
#include "rackbench/spans.h"
#include "rackbench/workloads.h"

namespace lemur::rackbench {

/// Host time of each set-up step (nanoseconds).
struct SetupTiming {
  std::int64_t chain_ns = 0;
  std::int64_t place_ns = 0;
  std::int64_t compile_ns = 0;
  std::int64_t verify_ns = 0;
  std::int64_t deploy_ns = 0;  ///< Testbed ctor.

  [[nodiscard]] std::int64_t total_ns() const {
    return chain_ns + place_ns + compile_ns + verify_ns + deploy_ns;
  }
};

/// Everything one repetition deploys. Members are declared before the
/// objects that keep references to them; hold it by unique_ptr.
struct Rack {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  topo::Topology topo;
  std::vector<chain::ChainSpec> chains;
  std::unique_ptr<metacompiler::CompilerOracle> compiler;
  std::unique_ptr<TimedOracle> oracle;  ///< Null without probes.
  placer::PlacementResult placement;
  metacompiler::CompiledArtifacts artifacts;
  verify::Report report;
  std::unique_ptr<runtime::Testbed> testbed;
  // Failover only: the controller gets its own compile oracle.
  std::unique_ptr<metacompiler::CompilerOracle> recovery_compiler;
  std::unique_ptr<TimedOracle> recovery_oracle;  ///< Null without probes.
  std::unique_ptr<runtime::FaultScheduler> faults;
  std::unique_ptr<runtime::RecoveryController> controller;

  SetupTiming setup;
  std::string error;  ///< "<step>: <reason>" when a step failed.

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Builds and deploys the workload's rack. With `probes`, the placer's
/// oracle is wrapped in a TimedOracle (the benchmark default); without,
/// the pipeline runs exactly as a plain caller would.
std::unique_ptr<Rack> build_rack(const Workload& workload, std::uint64_t seed,
                                 bool probes, SpanRecorder* spans = nullptr,
                                 int parent = -1);

struct RunResult {
  runtime::Measurement m;
  std::int64_t run_ns = 0;                ///< Host time inside run().
  std::vector<std::int64_t> quantum_ns;   ///< Empty without probes.
  std::int64_t swap_call_ns = -1;         ///< Controller call that swapped.
  /// Per chain, every delivered packet's latency; empty unless the run
  /// recorded raw latencies.
  std::vector<std::vector<std::uint64_t>> latency_ns;
  std::uint64_t continuity_errors = 0;
  std::uint64_t tor_packets = 0;  ///< ToR pipeline passes.
  net::PacketPool::Stats pool;
  net::ParseCacheStats parse;     ///< Parse-cache counts during run().
  /// Worst server's p99 of the per-quantum BESS queue / wire FIFO depth.
  double queue_depth_p99 = 0;
  double wire_depth_p99 = 0;
};

/// Runs the rack's measurement window. `testbed_tracing` is the
/// Testbed's own per-hop tracing (on by default for users).
/// `raw_latencies` keeps every packet's latency, which the Testbed does
/// not by default (unbounded memory), so timed runs leave it off.
RunResult run_rack(Rack& rack, bool probes, SpanRecorder* spans = nullptr,
                   int parent = -1, bool testbed_tracing = true,
                   bool raw_latencies = false);

/// What the modelled rack did. With a fixed seed every field repeats
/// bit for bit, whatever the host.
struct VirtualMetrics {
  double marginal_gbps = 0;
  std::uint64_t slo_violations = 0;
  double slo_met_ratio = 0;  ///< Chains without a violation / chains.
  double loss_ratio = 1;     ///< 1 until a run delivers (failed set-up).
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t nf_verdict_drops = 0;
  std::uint64_t queue_overflow_drops = 0;
  std::uint64_t residual = 0;
  std::uint64_t mttr_ns = 0;  ///< Worst detected->recovered; 0 = no event.

  bool operator==(const VirtualMetrics&) const = default;
};

/// loss_ratio = (offered - delivered - NF-verdict drops) / offered:
/// deliberate NF discards are the chain working, residual packets are not
/// delivered and count as lost.
double loss_ratio(const runtime::Measurement& m);

VirtualMetrics virtual_metrics(const Rack& rack, const RunResult& run);

/// Exact end-to-end latency percentiles over every delivered packet of a
/// run that recorded raw latencies.
struct LatencyPercentiles {
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t samples = 0;

  bool operator==(const LatencyPercentiles&) const = default;
};
LatencyPercentiles latency_percentiles(const RunResult& run);

/// True when every field of two measurements is bit-identical.
bool same_measurement(const runtime::Measurement& a,
                      const runtime::Measurement& b);

/// Correctness gate for one repetition: names of the checks that failed
/// (empty = all passed). Exact per-chain conservation, zero trace
/// continuity errors, and on failover every recovery event recovered.
std::vector<std::string> failed_checks(const Rack& rack,
                                       const RunResult& run);

}  // namespace lemur::rackbench
