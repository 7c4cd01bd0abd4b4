// Telemetry subsystem tests: histogram quantile accuracy against an
// exact sort, trace continuity across platform hand-offs, SLO monitor
// true/false-positive behaviour, exact packet conservation under drops,
// and the end-to-end d_max-violation attribution demo.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "src/metacompiler/pisa_oracle.h"
#include "src/placer/placer.h"
#include "src/placer/profile.h"
#include "src/runtime/testbed.h"

namespace lemur::telemetry {
namespace {

// --- Latency histogram -------------------------------------------------------

std::vector<std::uint64_t> lognormal_samples(std::size_t n,
                                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::lognormal_distribution<double> dist(11.0, 0.8);  // ~60us median.
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<std::uint64_t>(dist(rng)) + 1);
  }
  return out;
}

double exact_quantile(std::vector<std::uint64_t> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return static_cast<double>(sorted[std::min(rank, sorted.size() - 1)]);
}

TEST(Histogram, QuantilesWithinFivePercentOfExactSort) {
  const auto samples = lognormal_samples(20000, 42);
  LatencyHistogram h;
  for (auto v : samples) h.record(v);
  ASSERT_EQ(h.count(), samples.size());
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = exact_quantile(samples, q);
    EXPECT_NEAR(h.quantile(q), exact, 0.05 * exact) << "quantile " << q;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(h.max()),
            *std::max_element(samples.begin(), samples.end()));
  EXPECT_EQ(static_cast<std::uint64_t>(h.min()),
            *std::min_element(samples.begin(), samples.end()));
}

TEST(Histogram, MergeIsLossless) {
  const auto samples = lognormal_samples(8000, 7);
  LatencyHistogram whole, left, right;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    whole.record(samples[i]);
    (i % 2 == 0 ? left : right).record(samples[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_EQ(left.sum(), whole.sum());
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(left.quantile(q), whole.quantile(q)) << q;
  }
}

// --- SLO monitor unit cases --------------------------------------------------

struct Fixture {
  std::vector<chain::ChainSpec> chains;
  placer::PlacementResult placement;
  TraceAggregator traces;
  DropLedger drops;
  LatencyHistogram latency;

  explicit Fixture(chain::Slo slo, double assigned_gbps = 10.0) {
    chain::ChainSpec spec;
    spec.name = "unit-chain";
    spec.aggregate_id = 1;
    spec.slo = slo;
    chains.push_back(std::move(spec));
    placement.feasible = true;
    placement.chains.resize(1);
    placement.chains[0].assigned_gbps = assigned_gbps;
  }

  SloReport evaluate(double offered, double delivered) const {
    return evaluate_slo(chains, placement, {offered}, {delivered},
                        {&latency}, traces, drops);
  }
};

TEST(SloMonitor, FlagsRateBelowTminAndNamesDropPlatform) {
  Fixture f(chain::Slo::elastic_pipe(5.0, 20.0));
  f.drops.add(0, net::HopPlatform::kTor, DropCause::kQueueOverflow, 500);
  f.drops.add(0, net::HopPlatform::kServer, DropCause::kNfVerdict, 3);
  auto report = f.evaluate(6.0, 2.0);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, SloViolationKind::kRateBelowTmin);
  EXPECT_EQ(report.violations[0].responsible_hop, "tor");
  EXPECT_FALSE(report.compliant(0));
}

TEST(SloMonitor, UnderOfferedLoadIsNotAViolation) {
  // Only 2 Gbps was offered; delivering it all satisfies t_min = 5.
  Fixture f(chain::Slo::elastic_pipe(5.0, 20.0));
  auto report = f.evaluate(2.0, 1.95);
  EXPECT_TRUE(report.compliant()) << report.to_string();
}

TEST(SloMonitor, RateToleranceAbsorbsMeasurementQuantization) {
  // 4.6 delivered vs floor 5.0 is within the 10% tolerance band.
  Fixture f(chain::Slo::elastic_pipe(5.0, 20.0));
  auto report = f.evaluate(6.0, 4.6);
  EXPECT_TRUE(report.compliant()) << report.to_string();
}

TEST(SloMonitor, FlagsRateAboveTmax) {
  Fixture f(chain::Slo::elastic_pipe(5.0, 20.0));
  auto report = f.evaluate(30.0, 25.0);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, SloViolationKind::kRateAboveTmax);
}

TEST(SloMonitor, FlagsLatencyAboveDmaxWithDominantHop) {
  Fixture f(chain::Slo::elastic_pipe(5.0, 20.0).with_latency(50.0));
  // Trace: 10us in the ToR, 90us in server0's spi1/si63 segment.
  net::Packet pkt;
  pkt.arrival_ns = 0;
  pkt.hops.push_back({.platform = net::HopPlatform::kTor,
                      .enter_ns = 0,
                      .exit_ns = 10'000});
  pkt.hops.push_back({.platform = net::HopPlatform::kServer,
                      .si = 63,
                      .id = 0,
                      .spi = 1,
                      .enter_ns = 10'000,
                      .exit_ns = 100'000});
  f.traces.observe(pkt, 100'000, 0);
  for (int i = 0; i < 100; ++i) f.latency.record(100'000);  // 100us e2e.
  auto report = f.evaluate(6.0, 5.5);
  ASSERT_EQ(report.violations.size(), 1u);
  const auto& v = report.violations[0];
  EXPECT_EQ(v.kind, SloViolationKind::kLatencyAboveDmax);
  EXPECT_EQ(v.responsible_hop, "server0[spi1/si63]");
  EXPECT_NEAR(v.hop_share, 0.9, 0.01);
  EXPECT_NEAR(v.observed, 100.0, 1.0);
  EXPECT_DOUBLE_EQ(v.bound, 50.0);
}

TEST(SloMonitor, LatencyUnderBoundIsCompliant) {
  Fixture f(chain::Slo::elastic_pipe(5.0, 20.0).with_latency(200.0));
  for (int i = 0; i < 100; ++i) f.latency.record(100'000);
  auto report = f.evaluate(6.0, 5.5);
  EXPECT_TRUE(report.compliant()) << report.to_string();
}

// --- End-to-end: deployments on the simulated rack ---------------------------

struct Deployed {
  topo::Topology topo;
  std::vector<chain::ChainSpec> chains;
  placer::PlacementResult placement;
  metacompiler::CompiledArtifacts artifacts;
  placer::PlacerOptions options;
};

Deployed deploy_canonical(const std::vector<int>& numbers, double delta,
                          topo::Topology topo,
                          bool openflow_mode = false) {
  Deployed d;
  d.topo = std::move(topo);
  if (openflow_mode) {
    d.options.disable_pisa_nfs = true;
  }
  d.chains = chain::canonical_chains(numbers);
  placer::apply_delta(d.chains, delta, d.topo.servers.front(), d.options);
  metacompiler::CompilerOracle oracle(d.topo);
  d.placement = placer::place(placer::Strategy::kLemur, d.chains, d.topo,
                              d.options, oracle);
  EXPECT_TRUE(d.placement.feasible) << d.placement.infeasible_reason;
  d.artifacts = metacompiler::compile(d.chains, d.placement, d.topo);
  EXPECT_TRUE(d.artifacts.ok) << d.artifacts.error;
  return d;
}

void expect_conserved(const runtime::Measurement& m) {
  std::uint64_t offered = 0, delivered = 0, dropped = 0, residual = 0;
  for (std::size_t c = 0; c < m.chain_offered.size(); ++c) {
    EXPECT_EQ(m.chain_offered[c], m.chain_delivered[c] +
                                      m.chain_dropped[c] +
                                      m.chain_residual[c])
        << "chain " << c;
    offered += m.chain_offered[c];
    delivered += m.chain_delivered[c];
    dropped += m.chain_dropped[c];
    residual += m.chain_residual[c];
  }
  EXPECT_EQ(offered, m.offered_packets);
  EXPECT_EQ(delivered, m.delivered_packets);
  EXPECT_EQ(dropped, m.drops.total());
  EXPECT_EQ(residual, m.residual_queued);
  // The legacy aggregate identity still holds by construction.
  EXPECT_EQ(m.offered_packets,
            m.delivered_packets + m.dropped_packets + m.unaccounted());
}

TEST(TraceContinuity, CanonicalChainsTileWithoutGaps) {
  auto d = deploy_canonical({1, 2, 3}, 0.8, topo::Topology::lemur_testbed());
  runtime::Testbed testbed(d.chains, d.placement, d.artifacts, d.topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  auto m = testbed.run(5.0);
  EXPECT_GT(m.delivered_packets, 1000u);
  EXPECT_EQ(testbed.traces().traces_observed(), m.delivered_packets);
  EXPECT_EQ(testbed.traces().continuity_errors(), 0u)
      << testbed.traces().first_continuity_error();
  expect_conserved(m);
}

TEST(TraceContinuity, SmartNicHandOffsTile) {
  auto d = deploy_canonical({5}, 1.0,
                            topo::Topology::lemur_testbed_with_smartnic());
  ASSERT_FALSE(d.artifacts.nic_programs.empty());
  runtime::Testbed testbed(d.chains, d.placement, d.artifacts, d.topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  auto m = testbed.run(5.0);
  EXPECT_GT(m.delivered_packets, 100u);
  EXPECT_EQ(testbed.traces().continuity_errors(), 0u)
      << testbed.traces().first_continuity_error();
  // The SmartNIC actually appears in the per-hop table.
  bool nic_hop_seen = false;
  for (const auto& [key, stats] : testbed.traces().hops()) {
    if (key.second.platform == net::HopPlatform::kSmartNic) {
      nic_hop_seen = stats.packets > 0;
    }
  }
  EXPECT_TRUE(nic_hop_seen);
  expect_conserved(m);
}

TEST(TraceContinuity, OpenFlowHandOffsTile) {
  auto d = deploy_canonical({1, 3}, 0.5,
                            topo::Topology::lemur_testbed_with_openflow(),
                            /*openflow_mode=*/true);
  ASSERT_FALSE(d.artifacts.of_rules.empty());
  runtime::Testbed testbed(d.chains, d.placement, d.artifacts, d.topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  auto m = testbed.run(5.0);
  EXPECT_GT(m.delivered_packets, 100u);
  EXPECT_EQ(testbed.traces().continuity_errors(), 0u)
      << testbed.traces().first_continuity_error();
  bool of_hop_seen = false;
  for (const auto& [key, stats] : testbed.traces().hops()) {
    if (key.second.platform == net::HopPlatform::kOpenFlow) {
      of_hop_seen = stats.packets > 0;
    }
  }
  EXPECT_TRUE(of_hop_seen);
  expect_conserved(m);
}

TEST(Conservation, ExactUnderOverload) {
  // Offer 8x the assigned rate for long enough to blow through the
  // 16K-packet wire FIFOs: drops are charged to (chain, platform, cause)
  // cells, and the books must still balance exactly — including the
  // packets parked in queues at run end.
  auto d = deploy_canonical({1, 2}, 0.8, topo::Topology::lemur_testbed());
  runtime::Testbed testbed(d.chains, d.placement, d.artifacts, d.topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  std::vector<double> offered;
  for (const auto& c : d.placement.chains) {
    offered.push_back(8.0 * c.assigned_gbps);
  }
  auto m = testbed.run(10.0, offered);
  EXPECT_GT(m.drops.total(), 0u);
  expect_conserved(m);
  // Overload shows up as queue-overflow drops on at least one chain.
  std::uint64_t overflow = 0;
  for (std::size_t c = 0; c < d.chains.size(); ++c) {
    overflow +=
        m.drops.cause_total(static_cast<int>(c), DropCause::kQueueOverflow);
  }
  EXPECT_GT(overflow, 0u);
}

TEST(Conservation, NfVerdictDropsAttributed) {
  // Chain 3 contains an ACL; canonical traffic includes denied flows, so
  // verdict drops must land in the ledger under kNfVerdict, not vanish.
  auto d = deploy_canonical({3}, 0.8, topo::Topology::lemur_testbed());
  runtime::Testbed testbed(d.chains, d.placement, d.artifacts, d.topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  auto m = testbed.run(5.0);
  expect_conserved(m);
  EXPECT_EQ(m.chain_dropped[0],
            m.drops.chain_total(0));
}

TEST(EndToEndDemo, DmaxViolationFlaggedWithResponsibleHop) {
  // Deliberately impossible latency SLO: chain 1's measured path takes
  // hundreds of microseconds; demand 25us. The monitor must flag the
  // chain and name the hop dominating the path latency.
  auto d = deploy_canonical({1}, 0.8, topo::Topology::lemur_testbed());
  for (auto& spec : d.chains) spec.slo = spec.slo.with_latency(25.0);
  runtime::Testbed testbed(d.chains, d.placement, d.artifacts, d.topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  testbed.set_record_raw_latencies(true);
  auto m = testbed.run(5.0);
  ASSERT_GT(m.delivered_packets, 500u);

  ASSERT_FALSE(m.slo.compliant());
  const SloViolation* latency_violation = nullptr;
  for (const auto& v : m.slo.violations) {
    if (v.kind == SloViolationKind::kLatencyAboveDmax) {
      latency_violation = &v;
    }
  }
  ASSERT_NE(latency_violation, nullptr);
  EXPECT_FALSE(latency_violation->responsible_hop.empty());
  EXPECT_GT(latency_violation->hop_share, 0.0);
  EXPECT_GT(latency_violation->observed, 25.0);

  // The reported p99 agrees with an exact sort of every raw sample.
  const auto& raw = testbed.raw_latencies_ns()[0];
  ASSERT_EQ(raw.size(), m.delivered_packets);
  const double exact_p99_us = exact_quantile(raw, 0.99) / 1e3;
  EXPECT_NEAR(m.chain_p99_us[0], exact_p99_us, 0.05 * exact_p99_us);

  // And the tightened SLO is the *only* difference: the same deployment
  // with an unbounded d_max is compliant.
  for (auto& spec : d.chains) spec.slo.d_max_us = chain::Slo::kUnbounded;
  runtime::Testbed relaxed(d.chains, d.placement, d.artifacts, d.topo);
  ASSERT_TRUE(relaxed.ok());
  auto m2 = relaxed.run(5.0);
  EXPECT_TRUE(m2.slo.compliant()) << m2.slo.to_string();
}

TEST(MeasuredProfiles, ComparableToStaticTable) {
  auto d = deploy_canonical({1}, 0.8, topo::Topology::lemur_testbed());
  runtime::Testbed testbed(d.chains, d.placement, d.artifacts, d.topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  testbed.run(5.0);
  const auto measured = testbed.measured_nf_profiles();
  ASSERT_FALSE(measured.empty());
  const auto static_table = placer::static_profile_table(
      d.chains, d.topo.servers.front(), d.options);
  for (const auto& row : measured) {
    if (row.platform != net::HopPlatform::kServer) continue;
    EXPECT_GT(row.packets, 0u) << row.name;
    EXPECT_GT(row.cycles_per_packet, 0.0) << row.name;
    const placer::StaticNfProfile* ref = nullptr;
    for (const auto& s : static_table) {
      if (s.chain == row.chain && s.node == row.node) ref = &s;
    }
    ASSERT_NE(ref, nullptr) << row.name;
    // Measured cost stays in the static profile's neighbourhood (the
    // jitter model draws uniformly around the profiled mean).
    EXPECT_GT(row.cycles_per_packet, 0.5 * static_cast<double>(ref->cycles))
        << row.name;
    EXPECT_LT(row.cycles_per_packet, 1.5 * static_cast<double>(ref->cycles))
        << row.name;
  }
}

TEST(MeasuredProfiles, EachNicNfCountsItsOwnPackets) {
  // Two chains put six NFs on one SmartNIC. Every packet is delivered, so
  // each NIC row's packet count is exactly its NF's traced NIC hop (same
  // SPI/SI), not the device's total.
  Deployed d;
  d.topo = topo::Topology::lemur_testbed_with_smartnic();
  d.options.disable_pisa_nfs = true;
  d.chains = chain::canonical_chains({5, 3});
  placer::apply_delta(d.chains, 0.5, d.topo.servers.front(), d.options);
  metacompiler::CompilerOracle oracle(d.topo);
  d.placement = placer::place(placer::Strategy::kLemur, d.chains, d.topo,
                              d.options, oracle);
  ASSERT_TRUE(d.placement.feasible) << d.placement.infeasible_reason;
  d.artifacts = metacompiler::compile(d.chains, d.placement, d.topo);
  ASSERT_TRUE(d.artifacts.ok) << d.artifacts.error;
  ASSERT_GE(d.artifacts.nic_programs.size(), 2u);
  runtime::Testbed testbed(d.chains, d.placement, d.artifacts, d.topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  const auto m = testbed.run(2.0);
  ASSERT_EQ(m.delivered_packets, m.offered_packets);

  std::size_t nic_rows = 0;
  for (const auto& row : testbed.measured_nf_profiles()) {
    if (row.platform != net::HopPlatform::kSmartNic) continue;
    ++nic_rows;
    const metacompiler::NicArtifact* artifact = nullptr;
    for (const auto& a : d.artifacts.nic_programs) {
      if (a.chain == row.chain && a.node == row.node) artifact = &a;
    }
    ASSERT_NE(artifact, nullptr) << row.name;
    const HopKey hop{net::HopPlatform::kSmartNic,
                     static_cast<std::uint16_t>(artifact->smartnic),
                     artifact->spi_in, artifact->si_in};
    const auto it = testbed.traces().hops().find({row.chain, hop});
    ASSERT_NE(it, testbed.traces().hops().end()) << to_string(hop);
    EXPECT_GT(row.packets, 0u) << to_string(hop);
    EXPECT_EQ(row.packets, it->second.packets) << to_string(hop);
  }
  EXPECT_EQ(nic_rows, d.artifacts.nic_programs.size());
}

TEST(StatsJson, SnapshotCarriesEverySection) {
  auto d = deploy_canonical({2}, 0.5, topo::Topology::lemur_testbed());
  runtime::Testbed testbed(d.chains, d.placement, d.artifacts, d.topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  auto m = testbed.run(2.0);
  const std::string json = testbed.stats_json(m);
  for (const char* section :
       {"\"measurement\"", "\"slo\"", "\"drops\"", "\"hops\"",
        "\"trace_health\"", "\"measured_profiles\"", "\"metrics\"",
        "\"latency_p99_us\""}) {
    EXPECT_NE(json.find(section), std::string::npos) << section;
  }
}

}  // namespace
}  // namespace lemur::telemetry
