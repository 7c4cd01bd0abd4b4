// The PISA "platform compiler": dependency analysis + stage packing.
//
// The paper's Placer cannot know a priori how many stages a placement will
// consume, because the vendor compiler packs independent tables into shared
// stages (section 3.2, "Brute-force Placement"). This compiler performs that
// packing for real: it derives a table dependency graph from field
// read/write sets, assigns each table the earliest stage consistent with
// its dependencies, and first-fits tables into stages under per-stage
// table-count, SRAM, and TCAM budgets. Placements that need more stages
// than the switch has — or that blow a memory budget — fail to compile,
// which is exactly the feasibility signal Placer iterates on.
#pragma once

#include <string>
#include <vector>

#include "src/pisa/p4_ir.h"
#include "src/topo/topology.h"

namespace lemur::pisa {

/// One physical pipeline stage of the compiled artifact.
struct CompiledStage {
  std::vector<int> applies;  ///< Indices into P4Program::control.
  long sram_bytes = 0;
  long tcam_bytes = 0;
};

struct CompileStats {
  int stages_used = 0;
  int tables = 0;
  long total_sram_bytes = 0;
  long total_tcam_bytes = 0;
  int dependency_edges = 0;
};

struct CompileResult {
  bool ok = false;
  std::string error;
  /// Stages the program *would* need; > spec.stages when !ok for a
  /// stage-overflow failure. This mirrors what operators read out of the
  /// vendor compiler log.
  int stages_required = 0;
  std::vector<CompiledStage> stages;
  CompileStats stats;
};

/// Estimated memory footprint of one table (key + action data per entry).
long table_sram_bytes(const TableDef& table);
long table_tcam_bytes(const TableDef& table);

/// The naive stage estimate: every table consumes its own stage in
/// control order, i.e. no packing at all.
int estimate_stages_conservative(const P4Program& prog);

/// Compiles the unified program against the switch's resource model.
/// `exclusivity_aware` = false models the conservative static analysis
/// the paper contrasts against (Sonata-style [14]): dependencies are
/// honored but branch exclusivity is unknown, so parallel branches that
/// touch the same fields serialize. The platform compiler (default true)
/// exploits the generated exclusivity annotations (section 4.2 (d)).
CompileResult compile(const P4Program& prog, const topo::PisaSwitchSpec& spec,
                      bool exclusivity_aware = true);

/// Exposed for tests and for the metacompiler's diagnostics: the pairwise
/// dependency edges (i -> j means control[j] must be staged after
/// control[i]), sorted by (i, j).
std::vector<std::pair<int, int>> dependency_edges(
    const P4Program& prog, bool exclusivity_aware = true);

}  // namespace lemur::pisa
