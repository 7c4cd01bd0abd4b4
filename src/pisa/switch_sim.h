// The PISA switch runtime: executes a compiled P4Program over packets.
//
// The switch processes at line rate regardless of program complexity (the
// property the Placer relies on); what it cannot do is run a program that
// failed to compile. Table entries are installed at runtime, mirroring the
// control-plane API of a real switch.
//
// load() lowers the program once into a resolved pipeline: field names
// become FieldRefs (phv.h), applies become a stage-ordered list holding
// their resolved guard and table, and entries hold resolved actions and are
// kept sorted most specific first. Per packet, nothing is looked up by name.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/pisa/compiler.h"
#include "src/pisa/p4_ir.h"
#include "src/pisa/phv.h"

namespace lemur::pisa {

/// One match value of a runtime table entry. Interpretation depends on the
/// corresponding MatchField's kind:
///  - kExact:   value must equal the packet field.
///  - kLpm:     the top `prefix_len` bits of `value` must match.
///  - kTernary: (packet & mask) == (value & mask).
struct MatchValue {
  std::uint64_t value = 0;
  std::uint64_t mask = ~0ull;
  int prefix_len = 0;

  static MatchValue exact(std::uint64_t v) { return {v, ~0ull, 0}; }
  static MatchValue lpm(std::uint64_t v, int len) { return {v, 0, len}; }
  static MatchValue ternary(std::uint64_t v, std::uint64_t m) {
    return {v, m, 0};
  }
  static MatchValue wildcard() { return {0, 0, 0}; }
};

struct TableEntry {
  std::vector<MatchValue> key;
  int priority = 0;  ///< Higher wins among ternary candidates.
  std::string action;
  std::vector<std::uint64_t> params;
};

/// An action whose primitive ops name resolved fields.
struct ResolvedAction {
  struct Op {
    PrimitiveOp::Kind kind = PrimitiveOp::Kind::kNoOp;
    FieldRef field;
    FieldRef src;
    std::int64_t imm = 0;
    int param = 0;
  };
  std::vector<Op> ops;

  static ResolvedAction lower(const ActionDef& action, FieldResolver& fields);

  /// Runs the ops against the context; missing params read as 0.
  void execute(std::span<const std::uint64_t> params, PhvContext& ctx) const;
};

/// A table populated with runtime entries.
///
/// Entries are kept sorted by specificity, highest first, ties in insertion
/// order, so the first entry that matches is the one a best-specificity
/// scan would pick. Specificity is priority * 4096 plus, per key field, the
/// exact width, the prefix length or the mask popcount; it does not depend
/// on the packet.
class RuntimeTable {
 public:
  RuntimeTable(const TableDef& def, FieldResolver& fields);
  RuntimeTable(RuntimeTable&&) = default;
  RuntimeTable& operator=(RuntimeTable&&) = default;
  RuntimeTable(const RuntimeTable&) = delete;
  RuntimeTable& operator=(const RuntimeTable&) = delete;

  /// Returns false if the entry is malformed (key arity mismatch or
  /// unknown action) or the table is full.
  bool add(TableEntry entry);

  /// Looks the packet up and runs the matching entry's action, or the
  /// default action on a miss.
  void apply(PhvContext& ctx);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    int specificity = 0;
    const ResolvedAction* action = nullptr;
    std::vector<std::uint64_t> params;
  };
  struct KeyField {
    FieldRef field;
    std::uint64_t width_mask = 0;
  };

  /// The lowered form of one of def_->actions; null for null.
  [[nodiscard]] const ResolvedAction* resolved(const ActionDef* action) const;
  [[nodiscard]] const Entry* lookup(const PhvContext& ctx);

  const TableDef* def_;
  std::vector<KeyField> key_;  ///< Parallel to def_->match.
  std::vector<ResolvedAction> actions_;  ///< Parallel to def_->actions.
  const ResolvedAction* default_action_ = nullptr;
  std::vector<Entry> entries_;
  /// Entry i matches when (key[k] & mask_[i*n+k]) == want_[i*n+k] for all
  /// n key fields.
  std::vector<std::uint64_t> mask_;
  std::vector<std::uint64_t> want_;
  std::vector<std::uint64_t> packet_key_;  ///< Lookup scratch.
};

/// The loaded switch.
class PisaSwitch {
 public:
  PisaSwitch(P4Program program, topo::PisaSwitchSpec spec);

  /// Compiles the program and lowers it; must succeed before process() is
  /// used.
  CompileResult load();

  [[nodiscard]] bool loaded() const { return loaded_; }
  [[nodiscard]] const P4Program& program() const { return program_; }

  /// Installs an entry into the named table.
  bool add_entry(const std::string& table, TableEntry entry);

  struct ProcessResult {
    bool dropped = false;
    std::uint32_t egress_port = 0;
    /// Index into program().tables of the table whose action set the drop
    /// flag; -1 when not dropped (or the pipeline was never loaded).
    int drop_table = -1;
  };

  /// Runs one packet through the pipeline, mutating it in place.
  ProcessResult process(net::Packet& pkt);

  [[nodiscard]] std::uint64_t packets_processed() const {
    return packets_processed_;
  }
  [[nodiscard]] std::uint64_t packets_dropped() const {
    return packets_dropped_;
  }

 private:
  struct GuardTerm {
    FieldRef field;
    Condition::Cmp cmp = Condition::Cmp::kEq;
    std::uint64_t value = 0;
  };
  struct Apply {
    int table = 0;
    RuntimeTable* runtime = nullptr;
    std::vector<GuardTerm> guard;
  };

  P4Program program_;
  topo::PisaSwitchSpec spec_;
  CompileResult compile_result_;
  bool loaded_ = false;
  std::vector<RuntimeTable> tables_;  ///< Parallel to program_.tables.
  std::vector<Apply> applies_;        ///< In stage order.
  std::vector<std::uint64_t> slots_;  ///< PHV metadata, zeroed per pass.
  std::uint64_t packets_processed_ = 0;
  std::uint64_t packets_dropped_ = 0;
};

}  // namespace lemur::pisa
