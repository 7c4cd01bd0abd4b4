// Unified P4 program synthesis (paper section 4.2 and appendix A.2):
// composes the standalone P4 NF bundles of every switch-placed NF into
// one program with
//   - a merged header parser (A.2.1),
//   - a first-stage steering table that classifies both previously-unseen
//     packets (by traffic aggregate) and packets returning from other
//     platforms (by NSH SPI/SI) — optimization (c),
//   - per-chain guarded table regions with generated traffic-splitting
//     tables at branch nodes and single-apply merge tables (A.2.2),
//   - exit-routing tables that rewrite the NSH service path once per
//     region exit (optimization (b)) and skip NSH entirely for chains
//     that never leave the switch (optimization (a)),
//   - mutually-exclusive guards on parallel branches so the platform
//     compiler packs them into shared stages (optimization (d)).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "src/metacompiler/segments.h"
#include "src/pisa/switch_sim.h"

namespace lemur::metacompiler {

/// Egress-port conventions of the simulated ToR.
struct PortMap {
  std::uint32_t network_egress = 1;
  std::uint32_t of_switch = 30;
  [[nodiscard]] std::uint32_t server(int s) const {
    return static_cast<std::uint32_t>(10 + s);
  }
  /// The server behind `port`, or -1 below the first server port.
  [[nodiscard]] int server_of(std::uint32_t port) const {
    return port >= server(0) ? static_cast<int>(port - server(0)) : -1;
  }
};

struct P4Artifact {
  pisa::P4Program program;
  /// Runtime entries to install: (mangled table name, entry).
  std::vector<std::pair<std::string, pisa::TableEntry>> entries;
  /// The platform compiler's staging of `program` against the deployment
  /// ToR, recorded by Metacompiler::compile so operators (and the
  /// deployment verifier's independent re-audit) can inspect stage and
  /// memory usage before anything is loaded.
  pisa::CompileResult compiled;
  /// Names of the generated coordination tables (steering, splitting,
  /// exit routing), as opposed to NF library tables.
  std::set<std::string> coordination_tables;
  std::string error;  ///< Nonempty when composition failed (parser clash).

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// The traffic aggregate each chain serves: packets with
/// src in 10.<aggregate_id>.0.0/16 belong to the chain (the simulated
/// stand-in for the paper's customer aggregates).
std::uint32_t aggregate_prefix_value(std::uint32_t aggregate_id);
std::uint64_t aggregate_prefix_mask();

/// Composes the unified program for all chains. `routings` must align
/// with `chains`; each segment's resolved server picks the egress port of
/// hand-offs to it.
P4Artifact compose_p4(const std::vector<chain::ChainSpec>& chains,
                      const std::vector<ChainRouting>& routings,
                      const PortMap& ports);

}  // namespace lemur::metacompiler
