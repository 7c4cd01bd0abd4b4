// The SLO compliance monitor (paper section 2, Table 1): given the
// Placer's result and the runtime's measurements, judge every chain's
// delivered rate against t_min/t_max and its latency *distribution*
// against d_max, emitting structured violation records that name the
// responsible hop — per-hop trace attribution for latency violations,
// drop-ledger attribution for rate violations.
#pragma once

#include <string>
#include <vector>

#include "src/chain/canonical.h"
#include "src/placer/types.h"
#include "src/telemetry/drops.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace lemur::telemetry {

enum class SloViolationKind {
  kRateBelowTmin,    ///< Delivered < min(t_min, offered) beyond tolerance.
  kRateAboveTmax,    ///< Delivered rate exceeds the burst cap.
  kLatencyAboveDmax, ///< Tail latency (monitored quantile) exceeds d_max.
};

[[nodiscard]] const char* to_string(SloViolationKind kind);

struct SloViolation {
  int chain = 0;
  SloViolationKind kind = SloViolationKind::kRateBelowTmin;
  double observed = 0;  ///< Gbps for rate kinds, microseconds for latency.
  double bound = 0;
  /// The hop judged responsible: the largest mean-latency contributor for
  /// latency violations, the platform with the most attributed drops for
  /// rate violations.
  std::string responsible_hop;
  /// For latency violations: the responsible hop's share of the summed
  /// per-hop mean residencies.
  double hop_share = 0;
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

/// Per-chain delivered-vs-SLO summary, violations or not.
struct ChainCompliance {
  int chain = 0;
  double offered_gbps = 0;
  double delivered_gbps = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double max_us = 0;
  /// Fraction of delivered packets above d_max (0 when unbounded).
  double fraction_over_d_max = 0;
  bool compliant = true;
};

struct SloReport {
  std::vector<SloViolation> violations;
  std::vector<ChainCompliance> chains;

  [[nodiscard]] bool compliant() const { return violations.empty(); }
  [[nodiscard]] bool compliant(int chain) const;
  [[nodiscard]] std::string to_string() const;
};

/// Rate bounds get 10% slack before a violation is declared; latency is
/// judged at p99 against d_max. `latency_ns[c]` may be null for chains
/// with no delivered packets.
SloReport evaluate_slo(const std::vector<chain::ChainSpec>& chains,
                       const placer::PlacementResult& placement,
                       const std::vector<double>& offered_gbps,
                       const std::vector<double>& delivered_gbps,
                       const std::vector<const LatencyHistogram*>& latency_ns,
                       const TraceAggregator& traces,
                       const DropLedger& drops);

}  // namespace lemur::telemetry
