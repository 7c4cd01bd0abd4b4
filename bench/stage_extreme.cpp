// "An extreme configuration: P4 stage constraints" (section 5.2): the
// chain BPF -> 11x NAT (branched) -> IPv4Fwd at delta 0.5 (the paper's
// expected minimum rate: ~44.9 Gbps) runs the switch out of stages. Each
// carrier-grade NAT carries the full port space (65000 reverse-mapping
// entries), so its tables dominate a stage's SRAM. The paper: SW
// Preferred misses the SLO (the 40G server link cannot carry t_min);
// every hardware-first alternative exceeds the stage budget; only Lemur
// splits the NATs between the switch and the server.
//
// It also contrasts stage estimates: a naive per-table chain (paper: 27),
// a dependency-aware analysis without branch-exclusivity knowledge (the
// conservative Sonata-style estimate, paper: 14), and the platform
// compiler's packing with the metacompiler's exclusivity annotations
// (paper: 12).
//
// Exits 1 when a stated shape fails (EXPERIMENTS.md "Extreme P4 stage
// configuration"), so it also runs as the ctest bench_stage_extreme.
#include "bench/common.h"

#include "src/chain/parser.h"
#include "src/pisa/compiler.h"

namespace {

using namespace lemur;

chain::ChainSpec extreme_chain(int nats) {
  std::string source = "BPF -> [";
  char frac[16];
  std::snprintf(frac, sizeof(frac), "%.4f", 1.0 / nats);
  for (int i = 0; i < nats; ++i) {
    source += (i > 0 ? std::string(", ") : std::string()) +
              "{'dst_port': " + std::to_string(1000 + i) + ", 'frac': " +
              frac + ", NAT(entries=65000)}";
  }
  source += "] -> IPv4Fwd";
  auto parsed = chain::parse_chain(source);
  chain::ChainSpec spec;
  spec.name = std::to_string(nats) + "-NAT chain";
  spec.graph = std::move(parsed.graph);
  // The paper's expected minimum rate for this configuration.
  spec.slo = chain::Slo::elastic_pipe(44.9, 100);
  spec.aggregate_id = 1;
  return spec;
}

pisa::P4Program all_switch_program(const chain::ChainSpec& spec) {
  placer::Pattern pattern(spec.graph.nodes().size());
  for (auto& p : pattern) p.target = placer::Target::kPisa;
  std::vector<metacompiler::ChainRouting> routings = {
      metacompiler::build_routing(spec, pattern, 0)};
  return metacompiler::compose_p4({spec}, routings, {}).program;
}

}  // namespace

int main() {
  const topo::Topology topo = topo::Topology::lemur_testbed();
  placer::PlacerOptions options;

  std::printf("Lemur reproduction — extreme P4 stage configuration "
              "(section 5.2)\n");
  bool shape_holds = true;

  bench::print_header("Stage estimates, BPF -> N x NAT -> IPv4Fwd fully "
                      "on the switch");
  std::printf("%-6s %18s %24s %18s\n", "NATs", "naive (paper 27)",
              "conservative (paper 14)", "compiler (paper 12)");
  for (int nats : {9, 10, 11}) {
    auto spec = extreme_chain(nats);
    auto program = all_switch_program(spec);
    const int naive = pisa::estimate_stages_conservative(program);
    const auto conservative =
        pisa::compile(program, topo.tor, /*exclusivity_aware=*/false);
    const auto compiled = pisa::compile(program, topo.tor);
    std::printf("%-6d %18d %24d %15d %s\n", nats, naive,
                conservative.stages_required, compiled.stages_required,
                compiled.ok ? "(fits)" : "(overflow)");
    shape_holds &= naive > conservative.stages_required &&
                   conservative.stages_required > compiled.stages_required &&
                   !compiled.ok;
  }

  bench::print_header(
      "Placement of the 11-NAT chain, t_min = 44.9 Gbps (delta 0.5)");
  auto spec = extreme_chain(11);
  std::vector<chain::ChainSpec> chains = {spec};
  std::printf("%-14s %10s %12s   %s\n", "strategy", "feasible",
              "predicted", "switch NATs / note");
  for (auto strategy : bench::comparison_strategies()) {
    metacompiler::CompilerOracle oracle(topo);
    auto placement =
        placer::place(strategy, chains, topo, options, oracle);
    shape_holds &= placement.feasible == (strategy == placer::Strategy::kLemur ||
                                          strategy == placer::Strategy::kOptimal);
    int switch_nats = 0;
    if (placement.feasible) {
      for (const auto& n : chains[0].graph.nodes()) {
        if (n.type == nf::NfType::kNat &&
            placement.chains[0].nodes[static_cast<std::size_t>(n.id)]
                    .target == placer::Target::kPisa) {
          ++switch_nats;
        }
      }
    }
    std::printf("%-14s %10s %12s   ", placer::to_string(strategy),
                placement.feasible ? "yes" : "no",
                bench::cell(placement.aggregate_gbps, placement.feasible)
                    .c_str());
    if (placement.feasible) {
      std::printf("%d of 11 NATs on the switch (paper: 10)\n",
                  switch_nats);
    } else {
      std::printf("%.60s\n", placement.infeasible_reason.c_str());
    }
  }
  std::printf(
      "\nExpected shape: naive > conservative > compiler stage counts; "
      "the 9-, 10- and\n11-NAT programs all overflow; only "
      "Lemur/Optimal find a feasible split (NATs\nshared between the "
      "switch and the server), SW Preferred's 40G link cannot\ncarry "
      "t_min, and hardware-first strategies overflow the stages.\n");
  if (!shape_holds) {
    std::printf("SHAPE FAILED\n");
    return 1;
  }
  return 0;
}
