// Flagship integration sweep: every feasible Lemur row of the Figure-2a
// experiment (chains {1,2,3,4}, delta sweep) must compile, deploy, and
// deliver close to its prediction with conservation of packets. This is
// the regression net for the whole pipeline — placement, metacompilation,
// all four platform simulators, and measurement.
#include <gtest/gtest.h>

#include "src/metacompiler/pisa_oracle.h"
#include "src/placer/placer.h"
#include "src/runtime/testbed.h"

namespace lemur {
namespace {

class Fig2Sweep : public ::testing::TestWithParam<double> {};

TEST_P(Fig2Sweep, LemurRowDeploysAndDelivers) {
  const double delta = GetParam();
  const topo::Topology topo = topo::Topology::lemur_testbed();
  placer::PlacerOptions options;
  auto chains = chain::canonical_chains({1, 2, 3, 4});
  placer::apply_delta(chains, delta, topo.servers.front(), options);

  metacompiler::CompilerOracle oracle(topo);
  auto placement = placer::place(placer::Strategy::kLemur, chains, topo,
                                 options, oracle);
  ASSERT_TRUE(placement.feasible) << placement.infeasible_reason;

  auto artifacts = metacompiler::compile(chains, placement, topo);
  ASSERT_TRUE(artifacts.ok) << artifacts.error;
  EXPECT_LE(artifacts.p4.compiled.stats.stages_used, topo.tor.stages);
  runtime::Testbed testbed(chains, placement, artifacts, topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();
  auto m = testbed.run(15.0);

  // Aggregate within +-15% of the prediction.
  EXPECT_GT(m.aggregate_gbps, 0.85 * placement.aggregate_gbps)
      << "delta " << delta;
  EXPECT_LT(m.aggregate_gbps, 1.15 * placement.aggregate_gbps)
      << "delta " << delta;
  // Every chain earns (close to) its t_min.
  for (std::size_t c = 0; c < chains.size(); ++c) {
    EXPECT_GT(m.chain_gbps[c], 0.85 * chains[c].slo.t_min_gbps)
        << chains[c].name << " at delta " << delta;
  }
  // Packet conservation: nothing materializes from nowhere, and losses
  // (queue residue + NF verdicts) stay marginal on these chains.
  EXPECT_GE(m.offered_packets, m.delivered_packets);
  EXPECT_LT(m.dropped_packets + m.unaccounted(),
            m.offered_packets / 10 + 100);
}

INSTANTIATE_TEST_SUITE_P(Deltas, Fig2Sweep,
                         ::testing::Values(0.5, 1.0, 1.5, 2.0, 2.5));

}  // namespace
}  // namespace lemur
