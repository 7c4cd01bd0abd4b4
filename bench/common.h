// Shared experiment harness for the reproduction benches: chain-set
// construction with delta-scaled SLOs (paper section 5.1), placement +
// metacompilation + testbed measurement, and paper-style table printing.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "src/metacompiler/pisa_oracle.h"
#include "src/placer/placer.h"
#include "src/runtime/testbed.h"

namespace lemur::bench {

inline std::vector<chain::ChainSpec> chain_set(
    const std::vector<int>& numbers, double delta,
    const topo::Topology& topo, const placer::PlacerOptions& options) {
  auto specs = chain::canonical_chains(numbers);
  placer::apply_delta(specs, delta, topo.servers.front(), options);
  return specs;
}

struct ExperimentRow {
  placer::Strategy strategy = placer::Strategy::kLemur;
  bool feasible = false;
  double predicted_gbps = 0;   ///< Placer aggregate (the paper's diamond).
  double measured_gbps = -1;   ///< Testbed aggregate (-1 = not executed).
  double marginal_gbps = 0;
  double t_min_gbps = 0;
  double placement_seconds = 0;
  int bounces = 0;
  std::string note;
};

/// Places (and optionally executes) one strategy on one chain set.
inline ExperimentRow run_strategy(placer::Strategy strategy,
                                  const std::vector<chain::ChainSpec>& chains,
                                  const topo::Topology& topo,
                                  const placer::PlacerOptions& options,
                                  bool execute, double duration_ms = 5.0) {
  metacompiler::CompilerOracle oracle(topo);
  ExperimentRow row;
  row.strategy = strategy;
  auto placement = placer::place(strategy, chains, topo, options, oracle);
  row.feasible = placement.feasible;
  row.t_min_gbps = placement.aggregate_t_min_gbps;
  row.placement_seconds = placement.placement_seconds;
  if (!placement.feasible) {
    row.note = placement.infeasible_reason;
    return row;
  }
  row.predicted_gbps = placement.aggregate_gbps;
  row.marginal_gbps = placement.marginal_gbps();
  for (const auto& c : placement.chains) {
    row.bounces += c.bounces;
  }
  if (execute) {
    auto artifacts = metacompiler::compile(chains, placement, topo);
    if (artifacts.ok) {
      runtime::Testbed testbed(chains, placement, artifacts, topo);
      if (testbed.ok()) {
        auto m = testbed.run(duration_ms);
        row.measured_gbps = m.aggregate_gbps;
      } else {
        row.note = testbed.error();
      }
    } else {
      row.note = artifacts.error;
    }
  }
  return row;
}

inline const std::vector<placer::Strategy>& comparison_strategies() {
  static const std::vector<placer::Strategy> strategies = {
      placer::Strategy::kLemur,         placer::Strategy::kOptimal,
      placer::Strategy::kHwPreferred,   placer::Strategy::kSwPreferred,
      placer::Strategy::kMinimumBounce, placer::Strategy::kGreedy};
  return strategies;
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// "12.34" or "-" for infeasible / unmeasured values.
inline std::string cell(double value, bool valid) {
  if (!valid) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  return buf;
}

/// Exact per-chain conservation: offered == delivered + dropped + residual.
/// Prints the first violating chain.
inline bool conserved(const runtime::Measurement& m) {
  for (std::size_t c = 0; c < m.chain_offered.size(); ++c) {
    if (m.chain_offered[c] != m.chain_delivered[c] + m.chain_dropped[c] +
                                  m.chain_residual[c]) {
      std::printf("conservation violated on chain %zu: offered %" PRIu64
                  " != delivered %" PRIu64 " + dropped %" PRIu64
                  " + residual %" PRIu64 "\n",
                  c + 1, m.chain_offered[c], m.chain_delivered[c],
                  m.chain_dropped[c], m.chain_residual[c]);
      return false;
    }
  }
  return true;
}

}  // namespace lemur::bench
