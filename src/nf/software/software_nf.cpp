#include "src/nf/software/software_nf.h"

#include <algorithm>
#include <vector>

namespace lemur::nf {

std::uint64_t worst_case_cycles(NfType type, const NfConfig& config) {
  const double mean =
      static_cast<double>(effective_cycle_cost(type, config));
  return static_cast<std::uint64_t>(mean * (1.0 + kCostJitter));
}

NfModule::NfModule(std::unique_ptr<SoftwareNf> nf) : nf_(std::move(nf)) {}

void NfModule::process(bess::Context& ctx, net::PacketBatch&& batch) {
  count_in(batch);
  const double mean = static_cast<double>(nf_->mean_cycles());
  std::uniform_real_distribution<double> jitter(1.0 - kCostJitter,
                                                1.0 + kCostJitter);
  // Stateful NFs prefetch every packet's flow bucket up front so the
  // per-packet lookups below hit warming cache lines.
  if (nf_->wants_prefetch()) {
    for (const auto& pkt : batch) nf_->prefetch_state(pkt);
  }
  // Partition by gate with the same semantics as the old std::map (groups
  // emitted in ascending gate order, intra-gate order preserved), but with
  // run-splicing instead of a node allocation per gate.
  std::vector<std::pair<int, net::PacketBatch>> out;
  net::PacketBatch run;
  int run_gate = 0;
  auto flush_run = [&] {
    if (run.empty()) return;
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& entry) {
      return entry.first == run_gate;
    });
    if (it == out.end()) {
      out.emplace_back(run_gate, net::PacketBatch{});
      it = std::prev(out.end());
    }
    run.move_all_to(it->second);
  };
  for (auto& pkt : batch) {
    // Charge through charge() with the NUMA factor applied explicitly so
    // the module can record the cycles *actually* spent — the measured
    // profile the telemetry extractor feeds back to the Placer.
    const auto charged = static_cast<std::uint64_t>(
        mean * jitter(ctx.rng()) * ctx.cost_factor());
    ctx.charge(charged);
    cycles_charged_ += charged;
    const int gate = nf_->process(pkt);
    if (gate == SoftwareNf::kDrop || pkt.drop) {
      count_drop(pkt);
      ctx.recycle(std::move(pkt));
      continue;
    }
    if (!run.empty() && gate != run_gate) flush_run();
    run_gate = gate;
    run.push(std::move(pkt));
  }
  flush_run();
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  for (auto& [gate, sub] : out) emit(ctx, gate, std::move(sub));
}

}  // namespace lemur::nf
