// "Meta-compiler Benefits and Overhead" (section 5.3): lines of code the
// metacompiler auto-generates for the 4-chain deployment, split by
// target. The paper: more than a third of the total P4 (about 820 of
// 1700 lines) is auto-generated, most of it packet steering.
#include "bench/common.h"

int main() {
  using namespace lemur;
  const topo::Topology topo = topo::Topology::lemur_testbed();
  placer::PlacerOptions options;

  std::printf("Lemur reproduction — metacompiler code-generation "
              "accounting (section 5.3)\n");
  auto chains = bench::chain_set({1, 2, 3, 4}, 1.0, topo, options);
  metacompiler::CompilerOracle oracle(topo);
  auto placement = placer::place(placer::Strategy::kLemur, chains, topo,
                                 options, oracle);
  if (!placement.feasible) {
    std::printf("placement infeasible: %s\n",
                placement.infeasible_reason.c_str());
    return 1;
  }
  auto artifacts = metacompiler::compile(chains, placement, topo);
  if (!artifacts.ok) {
    std::printf("compile failed: %s\n", artifacts.error.c_str());
    return 1;
  }

  bench::print_header("Generated code, chains {1,2,3,4}");
  std::printf("%-26s %10s %12s %10s\n", "target", "total", "generated",
              "fraction");
  std::printf("%-26s %10d %12d %9.0f%%\n", "P4 (unified program)",
              artifacts.p4_loc.total, artifacts.p4_loc.generated,
              100.0 * artifacts.p4_loc.generated_fraction());
  for (const auto& plan : artifacts.server_plans) {
    if (plan.segments.empty()) continue;
    const auto loc = plan.loc_summary(chains);
    std::printf("%-26s %10d %12d %9.0f%%\n",
                ("BESS (server " + std::to_string(plan.server) + ")")
                    .c_str(),
                loc.total, loc.coordination,
                100.0 * loc.coordination / std::max(1, loc.total));
  }
  std::printf("%-26s %10d %12d %9.0f%%\n", "all targets",
              artifacts.loc.total, artifacts.loc.generated,
              100.0 * artifacts.loc.generated_fraction());
  std::printf(
      "\nExpected shape: roughly a third of the emitted code is "
      "metacompiler-generated\ncoordination (steering, splitting, "
      "NSH routing) — the manual labor Lemur saves\n(section 5.3: "
      "~820 of ~1700 P4 lines).\n");
  return 0;
}
