#include "src/telemetry/slo_monitor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lemur::telemetry {
namespace {

/// Fractional slack on rate bounds before a violation is declared (the
/// testbed's measurement window quantization costs a few percent).
constexpr double kRateTolerance = 0.10;
/// Latency quantile judged against d_max.
constexpr double kLatencyQuantile = 0.99;

std::string format_gbps(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string format_us(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

const char* to_string(SloViolationKind kind) {
  switch (kind) {
    case SloViolationKind::kRateBelowTmin: return "rate-below-t_min";
    case SloViolationKind::kRateAboveTmax: return "rate-above-t_max";
    case SloViolationKind::kLatencyAboveDmax: return "latency-above-d_max";
  }
  return "?";
}

std::string SloViolation::to_string() const {
  std::string out = "chain " + std::to_string(chain + 1) + ": " +
                    telemetry::to_string(kind) + " (";
  if (kind == SloViolationKind::kLatencyAboveDmax) {
    out += format_us(observed) + "us vs d_max " + format_us(bound) + "us";
  } else {
    out += format_gbps(observed) + " Gbps vs bound " + format_gbps(bound) +
           " Gbps";
  }
  out += ")";
  if (!responsible_hop.empty()) {
    out += ", responsible hop: " + responsible_hop;
    if (hop_share > 0) {
      out += " (" + std::to_string(static_cast<int>(hop_share * 100 + 0.5)) +
             "% of path latency)";
    }
  }
  if (!detail.empty()) out += " — " + detail;
  return out;
}

bool SloReport::compliant(int chain) const {
  return std::none_of(
      violations.begin(), violations.end(),
      [chain](const SloViolation& v) { return v.chain == chain; });
}

std::string SloReport::to_string() const {
  if (violations.empty()) return "all chains SLO-compliant";
  std::string out;
  for (const auto& v : violations) {
    if (!out.empty()) out += "\n";
    out += v.to_string();
  }
  return out;
}

SloReport evaluate_slo(const std::vector<chain::ChainSpec>& chains,
                       const placer::PlacementResult& placement,
                       const std::vector<double>& offered_gbps,
                       const std::vector<double>& delivered_gbps,
                       const std::vector<const LatencyHistogram*>& latency_ns,
                       const TraceAggregator& traces,
                       const DropLedger& drops) {
  SloReport report;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const int chain = static_cast<int>(c);
    const chain::Slo& slo = chains[c].slo;
    ChainCompliance compliance;
    compliance.chain = chain;
    compliance.offered_gbps = c < offered_gbps.size() ? offered_gbps[c] : 0;
    compliance.delivered_gbps =
        c < delivered_gbps.size() ? delivered_gbps[c] : 0;

    const LatencyHistogram* hist =
        c < latency_ns.size() ? latency_ns[c] : nullptr;
    if (hist != nullptr && hist->count() > 0) {
      compliance.p50_us = hist->quantile(0.50) / 1e3;
      compliance.p95_us = hist->quantile(0.95) / 1e3;
      compliance.p99_us = hist->quantile(0.99) / 1e3;
      compliance.max_us = static_cast<double>(hist->max()) / 1e3;
      if (slo.has_latency_bound()) {
        compliance.fraction_over_d_max = hist->fraction_above(
            static_cast<std::uint64_t>(slo.d_max_us * 1e3));
      }
    }

    // Rate floor: a chain can only be held to what was actually offered.
    // The placer may also have admitted less than t_min (infeasible or
    // partial placements still run) — then the *assigned* rate is the
    // operative promise the runtime must meet.
    double floor_gbps = std::min(slo.t_min_gbps, compliance.offered_gbps);
    if (chain < static_cast<int>(placement.chains.size())) {
      floor_gbps =
          std::min(floor_gbps, placement.chains[c].assigned_gbps);
    }
    if (floor_gbps > 0 &&
        compliance.delivered_gbps <
            floor_gbps * (1.0 - kRateTolerance)) {
      SloViolation v;
      v.chain = chain;
      v.kind = SloViolationKind::kRateBelowTmin;
      v.observed = compliance.delivered_gbps;
      v.bound = floor_gbps;
      const auto platform = drops.dominant_platform(chain);
      if (platform.has_value()) {
        v.responsible_hop = net::to_string(*platform);
        v.detail = std::to_string(drops.chain_total(chain)) +
                   " packets dropped (" +
                   std::to_string(drops.platform_total(chain, *platform)) +
                   " at " + net::to_string(*platform) + ")";
      } else {
        v.responsible_hop = "rate-limit/scheduler";
        v.detail = "no drops attributed; rate shaped below the floor";
      }
      compliance.compliant = false;
      report.violations.push_back(std::move(v));
    }

    if (slo.t_max_gbps < chain::Slo::kUnbounded &&
        compliance.delivered_gbps >
            slo.t_max_gbps * (1.0 + kRateTolerance)) {
      SloViolation v;
      v.chain = chain;
      v.kind = SloViolationKind::kRateAboveTmax;
      v.observed = compliance.delivered_gbps;
      v.bound = slo.t_max_gbps;
      v.responsible_hop = "rate-limit/scheduler";
      v.detail = "burst cap not enforced";
      compliance.compliant = false;
      report.violations.push_back(std::move(v));
    }

    if (slo.has_latency_bound() && hist != nullptr && hist->count() > 0) {
      const double tail_us = hist->quantile(kLatencyQuantile) / 1e3;
      if (tail_us > slo.d_max_us) {
        SloViolation v;
        v.chain = chain;
        v.kind = SloViolationKind::kLatencyAboveDmax;
        v.observed = tail_us;
        v.bound = slo.d_max_us;
        double mean_ns = 0;
        double share = 0;
        const HopKey* hop = traces.dominant_hop(chain, &mean_ns, &share);
        if (hop != nullptr) {
          v.responsible_hop = telemetry::to_string(*hop);
          v.hop_share = share;
          v.detail = "dominant hop mean residency " +
                     format_us(mean_ns / 1e3) + "us";
        }
        compliance.compliant = false;
        report.violations.push_back(std::move(v));
      }
    }

    report.chains.push_back(compliance);
  }
  return report;
}

}  // namespace lemur::telemetry
