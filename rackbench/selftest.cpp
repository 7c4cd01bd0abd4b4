// Self-tests of the benchmark's own arithmetic and probes.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "rackbench/rack.h"
#include "rackbench/spans.h"
#include "rackbench/stats.h"

namespace lemur::rackbench {
namespace {

TEST(Stats, PercentileMatchesExactSort) {
  std::mt19937_64 rng(42);
  for (std::size_t n = 1; n <= 400; n += 7) {
    std::vector<std::uint64_t> samples(n);
    for (auto& s : samples) s = rng() % 1000;
    std::vector<std::uint64_t> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (const int pct : {1, 50, 95, 99, 100}) {
      // Nearest rank in integer arithmetic: smallest k with 100k >= pct·n.
      const std::size_t k = (static_cast<std::size_t>(pct) * n + 99) / 100;
      EXPECT_EQ(percentile(samples, pct / 100.0),
                static_cast<double>(sorted[k - 1]))
          << "n=" << n << " pct=" << pct;
      EXPECT_EQ(samples_beyond(n, pct / 100.0), n - k);
    }
  }
}

TEST(Stats, TwoHundredSamplesLeaveTenBeyondP95) {
  EXPECT_EQ(samples_beyond(200, 0.95), 10u);
  EXPECT_EQ(samples_beyond(199, 0.95), 9u);
  EXPECT_EQ(nearest_rank(200, 0.95), 190u);
}

TEST(Stats, MedianOfEvenAndOddCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(LossRatio, ExcludesNfVerdictDropsAndCountsResiduals) {
  runtime::Measurement m;
  m.offered_packets = 100;
  m.delivered_packets = 80;
  m.chain_offered = {100};
  m.drops.add(0, net::HopPlatform::kServer, telemetry::DropCause::kNfVerdict,
              5);
  m.drops.add(0, net::HopPlatform::kServer,
              telemetry::DropCause::kQueueOverflow, 5);
  m.residual_queued = 10;  // Never delivered: lost.
  EXPECT_DOUBLE_EQ(loss_ratio(m), 0.15);
}

TEST(LossRatio, NothingOfferedCountsAsTotalLoss) {
  EXPECT_EQ(loss_ratio(runtime::Measurement{}), 1.0);
}

TEST(Spans, SelfTimeCountsOverlappingChildrenOnce) {
  SpanRecorder spans;
  const int parent = spans.add("parent", -1, 0, 100);
  spans.add("child", parent, 10, 40);
  spans.add("child", parent, 30, 60);    // Overlaps the first child.
  spans.add("child", parent, 90, 120);   // Runs past the parent's end.
  const int grandchild_parent = spans.add("child", parent, 20, 25);
  spans.add("grandchild", grandchild_parent, 20, 25);
  // Covered: [10, 60) + [90, 100) = 60 ns.
  EXPECT_EQ(spans.self_ns(parent), 40);
  const auto totals = spans.totals("child");
  EXPECT_EQ(totals.count, 4u);
  EXPECT_EQ(totals.total_ns, 30 + 30 + 30 + 5);
  EXPECT_EQ(totals.self_ns, 30 + 30 + 30 + 0);
}

TEST(Spans, CoveredClipsToTheInterval) {
  EXPECT_EQ(covered_ns(0, 10, {}), 0);
  EXPECT_EQ(covered_ns(0, 10, {{-5, 3}, {2, 4}, {8, 20}}), 6);
}

/// Attaching the TimedOracle and QuantumClock must not change anything
/// the rack measures.
void ExpectProbesInvisible(const std::string& name) {
  const Workload* w = find_workload(name);
  ASSERT_NE(w, nullptr);
  auto plain = build_rack(*w, 11, /*probes=*/false);
  ASSERT_TRUE(plain->ok()) << plain->error;
  const RunResult plain_run =
      run_rack(*plain, /*probes=*/false, nullptr, -1, /*testbed_tracing=*/true,
               /*raw_latencies=*/true);

  SpanRecorder spans;
  auto probed = build_rack(*w, 11, /*probes=*/true, &spans, -1);
  ASSERT_TRUE(probed->ok()) << probed->error;
  const RunResult probed_run =
      run_rack(*probed, /*probes=*/true, &spans, -1, /*testbed_tracing=*/true,
               /*raw_latencies=*/true);

  EXPECT_TRUE(same_measurement(plain_run.m, probed_run.m));
  EXPECT_EQ(virtual_metrics(*plain, plain_run),
            virtual_metrics(*probed, probed_run));
  EXPECT_EQ(latency_percentiles(plain_run), latency_percentiles(probed_run));
  EXPECT_GT(latency_percentiles(probed_run).samples, 0u);
  EXPECT_TRUE(failed_checks(*probed, probed_run).empty());
  // The placer's cache forwards each miss to the timed oracle.
  EXPECT_GT(probed->placement.stats.oracle_misses, 0u);
  EXPECT_EQ(spans.totals("metacompiler.oracle").count,
            probed->placement.stats.oracle_misses);
  EXPECT_EQ(probed_run.quantum_ns.size(),
            spans.totals("runtime.quantum").count);
}

TEST(Probes, RawLatenciesLeaveMeasurementBitIdentical) {
  const Workload* w = find_workload("churn-stateful");
  ASSERT_NE(w, nullptr);
  auto plain = build_rack(*w, 5, /*probes=*/true);
  ASSERT_TRUE(plain->ok()) << plain->error;
  const RunResult plain_run = run_rack(*plain, /*probes=*/true);
  EXPECT_TRUE(plain_run.latency_ns.empty());

  auto raw = build_rack(*w, 5, /*probes=*/true);
  ASSERT_TRUE(raw->ok()) << raw->error;
  const RunResult raw_run =
      run_rack(*raw, /*probes=*/true, nullptr, -1, /*testbed_tracing=*/true,
               /*raw_latencies=*/true);
  EXPECT_TRUE(same_measurement(plain_run.m, raw_run.m));
  EXPECT_EQ(latency_percentiles(raw_run).samples, raw_run.m.delivered_packets);
}

TEST(Probes, LeaveFig2MeasurementBitIdentical) {
  ExpectProbesInvisible("fig2-crypto");
}

TEST(Probes, LeaveFailoverMeasurementBitIdentical) {
  ExpectProbesInvisible("failover");
}

TEST(Probes, FailoverSwapIsTimed) {
  auto rack = build_rack(*find_workload("failover"), 3, /*probes=*/true);
  ASSERT_TRUE(rack->ok()) << rack->error;
  const RunResult run = run_rack(*rack, /*probes=*/true);
  EXPECT_GT(run.swap_call_ns, 0);
  EXPECT_FALSE(run.m.recovery.empty());
  EXPECT_GT(virtual_metrics(*rack, run).mttr_ns, 0u);
}

}  // namespace
}  // namespace lemur::rackbench
