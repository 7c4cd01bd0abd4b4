// Table 4 reproduction: profiled NF costs (CPU cycles/packet) over 500
// profiling runs, same-socket vs cross-socket NUMA, for Encrypt, Dedup,
// ACL (1024 rules), and NAT (12000 entries). Each run processes a batch
// through the NF module under worst-case traffic and reports the mean
// per-packet cycle cost; the table shows the mean/min/max across runs.
#include <algorithm>
#include <cstdio>

#include "src/bess/module.h"
#include "src/nf/software/factory.h"
#include "src/runtime/traffic.h"

namespace {

using namespace lemur;

struct ProfiledNf {
  const char* label;
  nf::NfType type;
  nf::NfConfig config;
  runtime::FlowMode mode;
};

struct Stats {
  double mean = 0;
  double min = 1e18;
  double max = 0;
};

Stats profile(const ProfiledNf& target, double numa_factor,
              std::uint64_t seed) {
  // Worst-case traffic per the paper's footnote 6: long-lived flows or
  // high-churn short flows depending on the NF.
  chain::ChainSpec spec;
  spec.graph.add_node(target.type, "profiled", target.config);
  spec.aggregate_id = 1;
  runtime::ChainTrafficModel traffic(spec, seed, target.mode);

  Stats stats;
  double total = 0;
  const int kRuns = 500;
  const int kBatch = 32;
  std::mt19937_64 rng(seed);
  auto nf_impl = nf::make_software_nf(target.type, target.config);
  nf::NfModule module(std::move(nf_impl));
  bess::Sink sink;
  module.connect(0, &sink);
  for (int run = 0; run < kRuns; ++run) {
    std::uint64_t cycles = 0;
    bess::Context ctx(&cycles, 1.7, &rng, numa_factor);
    net::PacketBatch batch;
    for (int i = 0; i < kBatch; ++i) {
      batch.push(traffic.make_packet(0));
    }
    module.process(ctx, std::move(batch));
    const double per_packet = static_cast<double>(cycles) / kBatch;
    total += per_packet;
    stats.min = std::min(stats.min, per_packet);
    stats.max = std::max(stats.max, per_packet);
  }
  stats.mean = total / kRuns;
  return stats;
}

}  // namespace

int main() {
  std::printf("Lemur reproduction — Table 4: profiled NF costs "
              "(CPU cycles/packet), 500 runs\n\n");
  nf::NfConfig acl_config;
  for (int i = 0; i < 1024; ++i) {
    acl_config.rules.push_back(
        {{"src_ip", "10." + std::to_string(i % 250) + ".0.0/16"},
         {"drop", "False"}});
  }
  nf::NfConfig nat_config;
  nat_config.ints["entries"] = 12000;

  const ProfiledNf targets[] = {
      {"Encrypt", nf::NfType::kEncrypt, {}, runtime::FlowMode::kLongLived},
      {"Dedup", nf::NfType::kDedup, {}, runtime::FlowMode::kLongLived},
      {"ACL (1024 rules)", nf::NfType::kAcl, acl_config,
       runtime::FlowMode::kLongLived},
      {"NAT (12000 entries)", nf::NfType::kNat, nat_config,
       runtime::FlowMode::kShortLived},
  };
  const double paper_mean_same[] = {8593, 30182, 3841, 463};
  const double paper_mean_diff[] = {8950, 31188, 4020, 496};

  std::printf("%-22s %-6s %10s %10s %10s   %s\n", "NF", "NUMA", "Mean",
              "Min", "Max", "paper-mean");
  int index = 0;
  for (const auto& target : targets) {
    for (bool cross : {false, true}) {
      const auto stats = profile(target, cross ? 1.04 : 1.0,
                                 17 + static_cast<std::uint64_t>(index));
      std::printf("%-22s %-6s %10.0f %10.0f %10.0f   %.0f\n", target.label,
                  cross ? "Diff" : "Same", stats.mean, stats.min, stats.max,
                  cross ? paper_mean_diff[index] : paper_mean_same[index]);
    }
    ++index;
  }
  std::printf(
      "\nExpected shape: costs extremely stable (max within ~6.5%% of the "
      "mean);\ncross-NUMA ~4%% above same-socket — matching paper "
      "Table 4.\n");
  return 0;
}
