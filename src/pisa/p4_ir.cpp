#include "src/pisa/p4_ir.h"

#include <algorithm>

namespace lemur::pisa {

bool ParserGraph::has_state(const std::string& s) const {
  return std::find(states.begin(), states.end(), s) != states.end();
}

void ParserGraph::add_state(const std::string& s) {
  if (!has_state(s)) states.push_back(s);
}

ParserMergeResult merge_parsers(const ParserGraph& base,
                                const ParserGraph& addition) {
  ParserMergeResult out;
  out.merged = base;
  if (out.merged.states.empty()) {
    out.merged.root = addition.root;
  } else if (!addition.states.empty() && base.root != addition.root) {
    out.conflict = "parser roots differ: '" + base.root + "' vs '" +
                   addition.root + "'";
    return out;
  }
  for (const auto& s : addition.states) out.merged.add_state(s);
  for (const auto& t : addition.transitions) {
    bool duplicate = false;
    for (const auto& existing : out.merged.transitions) {
      if (existing.from == t.from && existing.select_field == t.select_field &&
          existing.select_value == t.select_value) {
        if (existing.to != t.to) {
          out.conflict = "conflicting transition from '" + t.from +
                         "' on value " + std::to_string(t.select_value) +
                         ": '" + existing.to + "' vs '" + t.to + "'";
          return out;
        }
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out.merged.transitions.push_back(t);
  }
  out.ok = true;
  return out;
}

const ActionDef* TableDef::find_action(const std::string& action_name) const {
  for (const auto& a : actions) {
    if (a.name == action_name) return &a;
  }
  return nullptr;
}

int TableDef::key_bits() const {
  int bits = 0;
  for (const auto& m : match) bits += m.bits;
  return bits;
}

bool TableDef::needs_tcam() const {
  return std::any_of(match.begin(), match.end(), [](const MatchField& m) {
    return m.kind != MatchKind::kExact;
  });
}

bool Condition::holds(Cmp cmp, std::uint64_t actual,
                      std::uint64_t value) {
  switch (cmp) {
    case Cmp::kEq:
      return actual == value;
    case Cmp::kNe:
      return actual != value;
    case Cmp::kLt:
      return actual < value;
    case Cmp::kLe:
      return actual <= value;
    case Cmp::kGt:
      return actual > value;
    case Cmp::kGe:
      return actual >= value;
    case Cmp::kAnyBits:
      return (actual & value) != 0;
  }
  return false;
}

bool guards_mutually_exclusive(const Guard& a, const Guard& b) {
  for (const auto& ca : a.all_of) {
    if (ca.cmp != Condition::Cmp::kEq) continue;
    for (const auto& cb : b.all_of) {
      if (cb.cmp != Condition::Cmp::kEq) continue;
      if (ca.field == cb.field && ca.value != cb.value) return true;
    }
  }
  return false;
}

int P4Program::find_table(const std::string& table_name) const {
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (tables[i].name == table_name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

void add_unique(std::vector<std::string>& v, const std::string& s) {
  if (std::find(v.begin(), v.end(), s) == v.end()) v.push_back(s);
}

}  // namespace

AccessSets access_sets(const P4Program& prog, int apply_index) {
  AccessSets out;
  const TableApply& apply =
      prog.control[static_cast<std::size_t>(apply_index)];
  const TableDef& table = prog.table(apply.table);
  for (const auto& m : table.match) add_unique(out.reads, m.field);
  for (const auto& c : apply.guard.all_of) add_unique(out.reads, c.field);
  for (const auto& action : table.actions) {
    for (const auto& op : action.ops) {
      switch (op.kind) {
        case PrimitiveOp::Kind::kSetFieldImm:
        case PrimitiveOp::Kind::kSetFieldParam:
        case PrimitiveOp::Kind::kHashSelectParams:
          add_unique(out.writes, op.field);
          break;
        case PrimitiveOp::Kind::kCopyField:
          add_unique(out.writes, op.field);
          add_unique(out.reads, op.src_field);
          break;
        case PrimitiveOp::Kind::kAddImm:
        case PrimitiveOp::Kind::kAndFieldParam:
          add_unique(out.reads, op.field);
          add_unique(out.writes, op.field);
          break;
        case PrimitiveOp::Kind::kDrop:
          add_unique(out.writes, "std.drop");
          break;
        case PrimitiveOp::Kind::kEgressParam:
          add_unique(out.writes, "std.egress_port");
          break;
        case PrimitiveOp::Kind::kPushVlanParam:
        case PrimitiveOp::Kind::kPopVlan:
          add_unique(out.writes, "vlan.vid");
          break;
        case PrimitiveOp::Kind::kPushNshParams:
        case PrimitiveOp::Kind::kPopNsh:
        case PrimitiveOp::Kind::kSetNshParams:
          add_unique(out.writes, "nsh.spi");
          add_unique(out.writes, "nsh.si");
          break;
        case PrimitiveOp::Kind::kNoOp:
          break;
      }
    }
  }
  return out;
}

}  // namespace lemur::pisa
