// Quickstart: the 60-second tour of Lemur's public API.
//
//   1. Describe an NF chain in the dataflow spec language.
//   2. Attach an SLO (t_min / t_max / d_max).
//   3. Ask the Placer for an SLO-satisfying cross-platform placement.
//   4. Let the metacompiler generate the P4 / BESS / NSH artifacts.
//   5. Deploy onto the simulated rack and measure.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "src/chain/parser.h"
#include "src/metacompiler/pisa_oracle.h"
#include "src/placer/placer.h"
#include "src/runtime/testbed.h"

int main() {
  using namespace lemur;

  // 1. An NF chain, straight from the paper's introduction: filter with
  // an ACL, encrypt traffic tagged for the secure VLAN, and forward.
  const char* spec_source =
      "ACL(rules=[{'dst_ip':'10.0.0.0/8','drop': False}]) "
      "-> [{'vlan_tag': 0x1, 'frac': 0.5, Encrypt}] -> IPv4Fwd";
  auto parsed = chain::parse_chain(spec_source);
  if (!parsed.ok) {
    std::printf("spec error: %s\n", parsed.error.c_str());
    return 1;
  }

  // 2. SLO: an elastic pipe — at least 1 Gbps guaranteed, bursts to 100.
  chain::ChainSpec spec;
  spec.name = "customer-1";
  spec.graph = std::move(parsed.graph);
  spec.slo = chain::Slo::elastic_pipe(1.0, 100.0);
  spec.aggregate_id = 1;  // Traffic from 10.1.0.0/16.
  std::vector<chain::ChainSpec> chains = {spec};

  // 3. Place across the rack: a Tofino-class ToR + one 16-core server.
  const topo::Topology topo = topo::Topology::lemur_testbed();
  placer::PlacerOptions options;
  metacompiler::CompilerOracle oracle(topo);  // Real stage-packing checks.
  auto placement = placer::place(placer::Strategy::kLemur, chains, topo,
                                 options, oracle);
  if (!placement.feasible) {
    std::printf("infeasible: %s\n", placement.infeasible_reason.c_str());
    return 1;
  }
  std::printf("placement (chain '%s'):\n", chains[0].name.c_str());
  for (const auto& node : chains[0].graph.nodes()) {
    std::printf("  %-12s -> %s\n", node.instance_name.c_str(),
                placer::to_string(
                    placement.chains[0]
                        .nodes[static_cast<std::size_t>(node.id)]
                        .target));
  }
  std::printf("predicted: %.2f Gbps (t_min %.2f, marginal %.2f), "
              "%d bounces\n",
              placement.aggregate_gbps, placement.aggregate_t_min_gbps,
              placement.marginal_gbps(), placement.chains[0].bounces);

  // 4. Generate the cross-platform artifacts.
  auto artifacts = metacompiler::compile(chains, placement, topo);
  if (!artifacts.ok) {
    std::printf("metacompiler error: %s\n", artifacts.error.c_str());
    return 1;
  }
  std::printf("metacompiler: %d lines emitted, %d generated coordination "
              "(%.0f%%), %d switch stages\n",
              artifacts.loc.total, artifacts.loc.generated,
              100.0 * artifacts.loc.generated_fraction(),
              artifacts.p4.compiled.stats.stages_used);

  // 5. Deploy and measure for 10 ms of virtual time.
  runtime::Testbed testbed(chains, placement, artifacts, topo);
  if (!testbed.ok()) {
    std::printf("deployment error: %s\n", testbed.error().c_str());
    return 1;
  }
  auto m = testbed.run(10.0);
  std::printf("measured:  %.2f Gbps, mean latency %.1f us, "
              "%llu packets delivered\n",
              m.aggregate_gbps, m.chain_latency_us[0],
              static_cast<unsigned long long>(m.delivered_packets));
  return 0;
}
