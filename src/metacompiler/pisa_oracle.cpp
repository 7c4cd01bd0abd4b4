#include "src/metacompiler/pisa_oracle.h"

#include <algorithm>

#include "src/pisa/compiler.h"

namespace lemur::metacompiler {

placer::SwitchOracle::Check CompilerOracle::check(
    const std::vector<chain::ChainSpec>& chains,
    const std::vector<std::vector<int>>& pisa_nodes) {
  ++invocations_;

  // Build a provisional pattern: proposed nodes on the switch, everything
  // else on a server — routing structure (and thus steering tables) only
  // depends on the switch/off-switch split.
  std::vector<placer::Pattern> patterns(chains.size());
  std::vector<ChainRouting> routings(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    patterns[c].assign(chains[c].graph.nodes().size(), {});
    for (int id : pisa_nodes[c]) {
      patterns[c][static_cast<std::size_t>(id)].target =
          placer::Target::kPisa;
    }
    routings[c] =
        build_routing(chains[c], patterns[c], static_cast<int>(c));
  }

  Check out;
  PortMap ports;
  auto artifact = compose_p4(chains, routings, ports);
  if (!artifact.ok()) {
    out.error = artifact.error;
    out.stages_required = topo_.tor.stages + 1;
    return out;
  }
  const auto compiled = pisa::compile(artifact.program, topo_.tor);
  out.fits = compiled.ok;
  out.stages_required = compiled.stages_required;
  out.error = compiled.error;
  return out;
}

}  // namespace lemur::metacompiler
