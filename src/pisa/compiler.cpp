#include "src/pisa/compiler.h"

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <unordered_map>

namespace lemur::pisa {

long table_sram_bytes(const TableDef& table) {
  // Per entry: key bytes + action selector + up to two 32-bit action data
  // words; rounded to the switch's word granularity.
  const long key_bytes = (table.key_bits() + 7) / 8;
  const long entry_bytes = key_bytes + 1 + 8;
  return entry_bytes * table.size;
}

long table_tcam_bytes(const TableDef& table) {
  if (!table.needs_tcam()) return 0;
  // Ternary entries store value + mask.
  const long key_bytes = (table.key_bits() + 7) / 8;
  return 2 * key_bytes * table.size;
}

int estimate_stages_conservative(const P4Program& prog) {
  return static_cast<int>(prog.control.size());
}

std::vector<std::pair<int, int>> dependency_edges(const P4Program& prog,
                                                  bool exclusivity_aware) {
  const auto n = prog.control.size();
  std::vector<AccessSets> sets;
  sets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sets.push_back(access_sets(prog, static_cast<int>(i)));
  }

  // Intern every field name once, in first-use order, and hold each
  // apply's reads and writes as rows of `words` 64-bit words.
  std::unordered_map<std::string_view, std::size_t> field_ids;
  for (const auto& set : sets) {
    for (const auto* names : {&set.reads, &set.writes}) {
      for (const auto& name : *names) {
        field_ids.try_emplace(name, field_ids.size());
      }
    }
  }
  const std::size_t words = (field_ids.size() + 63) / 64;
  std::vector<std::uint64_t> reads(n * words, 0);
  std::vector<std::uint64_t> writes(n * words, 0);
  const auto set_row = [&](std::uint64_t* row,
                           const std::vector<std::string>& names) {
    for (const auto& name : names) {
      const std::size_t id = field_ids.at(name);
      row[id / 64] |= 1ull << (id % 64);
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    set_row(reads.data() + i * words, sets[i].reads);
    set_row(writes.data() + i * words, sets[i].writes);
  }

  std::vector<std::pair<int, int>> edges;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t* ri = reads.data() + i * words;
    const std::uint64_t* wi = writes.data() + i * words;
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::uint64_t* rj = reads.data() + j * words;
      const std::uint64_t* wj = writes.data() + j * words;
      // Match dependency: i writes what j reads.
      // Action dependency: i writes what j writes (order matters).
      // Reverse dependency: i reads what j writes (j must not clobber
      // i's inputs within the same stage) — modelled conservatively as
      // a staging edge, as Tofino's TDG does.
      std::uint64_t hazard = 0;
      for (std::size_t w = 0; w < words; ++w) {
        hazard |= (wi[w] & (rj[w] | wj[w])) | (ri[w] & wj[w]);
      }
      if (hazard == 0) continue;
      // Mutually exclusive applies (disjoint guards on the same field)
      // cannot both fire for one packet, so their data hazards are
      // spurious and they may share a stage (optimization (d)).
      if (exclusivity_aware &&
          guards_mutually_exclusive(prog.control[i].guard,
                                    prog.control[j].guard)) {
        continue;
      }
      edges.emplace_back(static_cast<int>(i), static_cast<int>(j));
    }
  }
  return edges;
}

CompileResult compile(const P4Program& prog,
                      const topo::PisaSwitchSpec& spec,
                      bool exclusivity_aware) {
  CompileResult out;
  const int n = static_cast<int>(prog.control.size());
  out.stats.tables = n;

  const auto edges = dependency_edges(prog, exclusivity_aware);
  out.stats.dependency_edges = static_cast<int>(edges.size());

  // First-fit packing: place each apply (in control order) into the first
  // stage after its dependencies with spare table slots and memory.
  std::vector<CompiledStage> stages;
  auto fits = [&](const CompiledStage& st, long sram, long tcam) {
    return static_cast<int>(st.applies.size()) < spec.tables_per_stage &&
           st.sram_bytes + sram <= spec.sram_bytes_per_stage &&
           st.tcam_bytes + tcam <= spec.tcam_bytes_per_stage;
  };

  // Edges come sorted by source, so placing apply i pushes the earliest
  // stage of each of its successors past i's: one walk of the edge list
  // for the whole program.
  std::vector<int> earliest(static_cast<std::size_t>(n), 0);
  auto next_edge = edges.begin();
  for (int i = 0; i < n; ++i) {
    const TableDef& table =
        prog.table(prog.control[static_cast<std::size_t>(i)].table);
    const long sram = table_sram_bytes(table);
    const long tcam = table_tcam_bytes(table);
    if (sram > spec.sram_bytes_per_stage ||
        tcam > spec.tcam_bytes_per_stage) {
      out.error = "table '" + table.name + "' exceeds per-stage memory";
      out.stages_required = spec.stages + 1;
      return out;
    }
    int stage = earliest[static_cast<std::size_t>(i)];
    while (true) {
      if (stage >= static_cast<int>(stages.size())) {
        stages.resize(static_cast<std::size_t>(stage) + 1);
      }
      if (fits(stages[static_cast<std::size_t>(stage)], sram, tcam)) break;
      ++stage;
    }
    auto& st = stages[static_cast<std::size_t>(stage)];
    st.applies.push_back(i);
    st.sram_bytes += sram;
    st.tcam_bytes += tcam;
    for (; next_edge != edges.end() && next_edge->first == i; ++next_edge) {
      int& after = earliest[static_cast<std::size_t>(next_edge->second)];
      after = std::max(after, stage + 1);
    }
    out.stats.total_sram_bytes += sram;
    out.stats.total_tcam_bytes += tcam;
  }

  out.stages_required = static_cast<int>(stages.size());
  out.stats.stages_used = out.stages_required;
  if (out.stages_required > spec.stages) {
    out.error = "program needs " + std::to_string(out.stages_required) +
                " stages but the switch has " + std::to_string(spec.stages);
    return out;
  }
  out.stages = std::move(stages);
  out.ok = true;
  return out;
}

}  // namespace lemur::pisa
