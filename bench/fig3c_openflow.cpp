// Figure 3c reproduction: accelerating chain 3 with an OpenFlow switch
// used in place of the PISA switch (the ToR only coordinates). The paper
// compares offloading ACL (and the other OF-capable NFs) onto the
// Edgecore OpenFlow switch against stitching everything through the
// commodity server: ~7710 Mbps vs ~693 Mbps for that chain.
#include "bench/common.h"

int main() {
  using namespace lemur;
  placer::PlacerOptions options;
  options.disable_pisa_nfs = true;       // The ToR is only a coordinator.

  std::printf("Lemur reproduction — Figure 3c: OpenFlow offload of "
              "chain 3\n");
  bench::print_header("Figure 3c");
  std::printf("%-14s %12s %12s %12s %8s\n", "variant", "t_min",
              "predicted", "measured", "OF-NFs");

  for (bool with_of : {true, false}) {
    const topo::Topology topo =
        with_of ? topo::Topology::lemur_testbed_with_openflow()
                : topo::Topology::lemur_testbed();
    auto chains = bench::chain_set({3}, 0.5, topo, options);
    metacompiler::CompilerOracle oracle(topo);
    auto placement = placer::place(placer::Strategy::kLemur, chains, topo,
                                   options, oracle);
    double measured = -1;
    std::size_t of_nfs = 0;
    if (placement.feasible) {
      auto artifacts = metacompiler::compile(chains, placement, topo);
      of_nfs = artifacts.of_rules.size();
      if (artifacts.ok) {
        runtime::Testbed testbed(chains, placement, artifacts, topo);
        if (testbed.ok()) measured = testbed.run(5.0).aggregate_gbps;
      }
    }
    std::printf("%-14s %12.2f %12s %12s %8zu\n",
                with_of ? "OF offload" : "server only",
                placement.aggregate_t_min_gbps,
                bench::cell(placement.aggregate_gbps, placement.feasible)
                    .c_str(),
                bench::cell(measured, measured >= 0).c_str(), of_nfs);
  }
  std::printf(
      "\nExpected shape (paper: 7710 vs 693 Mbps): offloading the "
      "OF-capable NFs\nfrees server cores for Dedup replication, lifting "
      "the chain by roughly an\norder of magnitude over the all-server "
      "deployment.\n");
  return 0;
}
