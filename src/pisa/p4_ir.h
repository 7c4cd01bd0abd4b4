// Intermediate representation for P4-style programs targeting the PISA
// switch simulator.
//
// Lemur's metacompiler composes *standalone P4 NFs* (each a bundle of
// headers, an NF-local parser graph, tables, and a control fragment) into
// one unified program (paper section 4.2 and appendix A.2). This IR is the
// currency of that composition: the metacompiler merges parser graphs,
// mangles table names, and emits a single P4Program; the compiler in
// compiler.h then performs dependency analysis and stage packing.
//
// Field naming convention (strings keep the IR compositional):
//   "eth.dst", "eth.src", "eth.type"    Ethernet
//   "vlan.vid", "vlan.pcp"              802.1Q
//   "nsh.spi", "nsh.si"                 Network Service Header
//   "ipv4.src", "ipv4.dst", "ipv4.ttl", "ipv4.proto", "ipv4.dscp"
//   "l4.sport", "l4.dport"              TCP/UDP ports
//   "meta.<x>"                          per-packet metadata (PHV scratch)
//   "std.egress_port", "std.drop"       standard intrinsic metadata
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace lemur::pisa {

/// A header definition from the metacompiler's header library.
struct HeaderDef {
  std::string name;
  std::vector<std::pair<std::string, int>> fields;  ///< (field, bit width).
};

/// A parser graph: states are header names, edges are select transitions.
/// "accept" is the implicit terminal state.
struct ParserGraph {
  struct Transition {
    std::string from;            ///< Header state the select happens in.
    std::string select_field;    ///< Field whose value is matched.
    std::uint64_t select_value;  ///< Value steering to `to`.
    std::string to;              ///< Next header state.
  };

  std::string root = "eth";
  std::vector<std::string> states;  ///< Headers this parser extracts.
  std::vector<Transition> transitions;

  [[nodiscard]] bool has_state(const std::string& s) const;
  void add_state(const std::string& s);
};

/// Outcome of merging two parser graphs (appendix A.2.1): either a merged
/// graph or a conflict description (two NFs steer the same select value to
/// different headers, so they cannot share the switch).
struct ParserMergeResult {
  bool ok = false;
  std::string conflict;  ///< Human-readable reason when !ok.
  ParserGraph merged;
};

/// Merges `addition` into `base`, taking the union of next-header choices
/// per state and rejecting contradictory transitions.
ParserMergeResult merge_parsers(const ParserGraph& base,
                                const ParserGraph& addition);

/// Match kinds supported by PISA match-action tables.
enum class MatchKind { kExact, kLpm, kTernary };

/// Primitive operations an action may perform. Parameters are indexed
/// into the table entry's runtime parameter list.
struct PrimitiveOp {
  enum class Kind {
    kNoOp,
    kSetFieldImm,    ///< field = imm
    kSetFieldParam,  ///< field = params[param]
    kCopyField,      ///< field = src_field
    kAddImm,         ///< field += imm (signed; use -1 for TTL decrement)
    kDrop,           ///< std.drop = 1
    kEgressParam,    ///< std.egress_port = params[param]
    kPushVlanParam,  ///< push 802.1Q tag, vid = params[param]
    kPopVlan,
    kPushNshParams,  ///< push NSH, spi = params[param], si = params[param+1]
    kPopNsh,
    kSetNshParams,   ///< rewrite SPI/SI in place from params[param..+1]
    /// field = params[param+1] + (flow_hash % params[param]) — models a
    /// P4 action selector / ECMP hash group (used by the LB NF).
    kHashSelectParams,
    /// field &= params[param] — bitmask narrowing (the metacompiler's
    /// traffic-splitting tables prune the reachability mask this way).
    kAndFieldParam,
  };

  Kind kind = Kind::kNoOp;
  std::string field;      ///< Destination field where applicable.
  std::string src_field;  ///< Source for kCopyField.
  std::int64_t imm = 0;
  int param = 0;
};

struct ActionDef {
  std::string name;
  int num_params = 0;
  std::vector<PrimitiveOp> ops;
};

/// A match field of a table.
struct MatchField {
  std::string field;
  MatchKind kind = MatchKind::kExact;
  int bits = 32;
};

struct TableDef {
  std::string name;
  std::vector<MatchField> match;
  std::vector<ActionDef> actions;
  int size = 1024;  ///< Provisioned entries, for memory budgeting.
  /// Action run on lookup miss ("" means no-op).
  std::string default_action;
  std::vector<std::uint64_t> default_params;

  [[nodiscard]] const ActionDef* find_action(const std::string& name) const;
  /// Key width in bits (sum of match field widths).
  [[nodiscard]] int key_bits() const;
  /// True if any match field needs TCAM (ternary or LPM).
  [[nodiscard]] bool needs_tcam() const;
};

/// A comparison guarding a table application.
struct Condition {
  enum class Cmp {
    kEq, kNe, kLt, kLe, kGt, kGe,
    kAnyBits,  ///< (actual & value) != 0 — bitmask membership tests.
  };
  std::string field;
  Cmp cmp = Cmp::kEq;
  std::uint64_t value = 0;

  [[nodiscard]] bool eval(std::uint64_t actual) const {
    return holds(cmp, actual, value);
  }
  /// `actual <cmp> value`.
  [[nodiscard]] static bool holds(Cmp cmp, std::uint64_t actual,
                                  std::uint64_t value);
};

/// Conjunction of conditions; empty means "always".
struct Guard {
  std::vector<Condition> all_of;

  [[nodiscard]] bool always() const { return all_of.empty(); }
};

/// True when the two guards can never both hold for the same packet
/// (both require equality on a shared field with different values).
/// Mutually exclusive applies impose no staging dependency — the
/// generated-P4 exclusivity the paper's optimization (d) exploits to
/// pack parallel branches into shared stages.
bool guards_mutually_exclusive(const Guard& a, const Guard& b);

/// One step of the control flow: apply `table` when `guard` holds.
/// The program lists applies in a valid topological order.
struct TableApply {
  int table = 0;  ///< Index into P4Program::tables.
  Guard guard;
};

/// A complete unified P4 program ready for compilation.
struct P4Program {
  std::string name = "lemur";
  std::vector<HeaderDef> headers;
  ParserGraph parser;
  std::vector<TableDef> tables;
  std::vector<TableApply> control;

  [[nodiscard]] const TableDef& table(int i) const {
    return tables[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int find_table(const std::string& name) const;
};

/// Fields a table reads (match keys, guard fields, copy sources) and
/// writes (action destinations). Drives dependency analysis.
struct AccessSets {
  std::vector<std::string> reads;
  std::vector<std::string> writes;
};

/// Computes the access sets for the i-th apply of the program.
AccessSets access_sets(const P4Program& prog, int apply_index);

}  // namespace lemur::pisa
