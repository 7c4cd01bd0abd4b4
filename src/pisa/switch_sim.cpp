#include "src/pisa/switch_sim.h"

#include <algorithm>
#include <bit>

namespace lemur::pisa {
namespace {

std::uint64_t width_mask(int bits) {
  return bits >= 64 ? ~0ull : (1ull << bits) - 1;
}

}  // namespace

ResolvedAction ResolvedAction::lower(const ActionDef& action,
                                     FieldResolver& fields) {
  ResolvedAction out;
  out.ops.reserve(action.ops.size());
  for (const auto& op : action.ops) {
    Op r;
    r.kind = op.kind;
    if (!op.field.empty()) r.field = fields.resolve(op.field);
    if (!op.src_field.empty()) r.src = fields.resolve(op.src_field);
    r.imm = op.imm;
    r.param = op.param;
    out.ops.push_back(r);
  }
  return out;
}

void ResolvedAction::execute(std::span<const std::uint64_t> params,
                             PhvContext& ctx) const {
  auto param = [&params](int i) -> std::uint64_t {
    return i >= 0 && static_cast<std::size_t>(i) < params.size()
               ? params[static_cast<std::size_t>(i)]
               : 0;
  };
  for (const auto& op : ops) {
    switch (op.kind) {
      case PrimitiveOp::Kind::kNoOp:
        break;
      case PrimitiveOp::Kind::kSetFieldImm:
        ctx.set(op.field, static_cast<std::uint64_t>(op.imm));
        break;
      case PrimitiveOp::Kind::kSetFieldParam:
        ctx.set(op.field, param(op.param));
        break;
      case PrimitiveOp::Kind::kCopyField:
        ctx.set(op.field, ctx.get(op.src));
        break;
      case PrimitiveOp::Kind::kAddImm:
        ctx.set(op.field, static_cast<std::uint64_t>(
                              static_cast<std::int64_t>(ctx.get(op.field)) +
                              op.imm));
        break;
      case PrimitiveOp::Kind::kDrop:
        ctx.set(FieldRef::slot(FieldResolver::kDropSlot), 1);
        break;
      case PrimitiveOp::Kind::kEgressParam:
        ctx.set(FieldRef::slot(FieldResolver::kEgressSlot), param(op.param));
        break;
      case PrimitiveOp::Kind::kPushVlanParam:
        ctx.push_vlan(static_cast<std::uint16_t>(param(op.param)));
        break;
      case PrimitiveOp::Kind::kPopVlan:
        ctx.pop_vlan();
        break;
      case PrimitiveOp::Kind::kPushNshParams:
        ctx.push_nsh(static_cast<std::uint32_t>(param(op.param)),
                     static_cast<std::uint8_t>(param(op.param + 1)));
        break;
      case PrimitiveOp::Kind::kPopNsh:
        ctx.pop_nsh();
        break;
      case PrimitiveOp::Kind::kSetNshParams:
        ctx.set_nsh(static_cast<std::uint32_t>(param(op.param)),
                    static_cast<std::uint8_t>(param(op.param + 1)));
        break;
      case PrimitiveOp::Kind::kHashSelectParams: {
        const std::uint64_t mod = param(op.param);
        const std::uint64_t base = param(op.param + 1);
        ctx.set(op.field, base + (mod > 0 ? ctx.flow_hash() % mod : 0));
        break;
      }
      case PrimitiveOp::Kind::kAndFieldParam:
        ctx.set(op.field, ctx.get(op.field) & param(op.param));
        break;
    }
  }
}

RuntimeTable::RuntimeTable(const TableDef& def, FieldResolver& fields)
    : def_(&def), packet_key_(def.match.size()) {
  for (const auto& m : def.match) {
    key_.push_back({fields.resolve(m.field), width_mask(m.bits)});
  }
  actions_.reserve(def.actions.size());
  for (const auto& a : def.actions) {
    actions_.push_back(ResolvedAction::lower(a, fields));
  }
  if (!def.default_action.empty()) {
    default_action_ = resolved(def.find_action(def.default_action));
  }
}

const ResolvedAction* RuntimeTable::resolved(const ActionDef* action) const {
  return action == nullptr
             ? nullptr
             : &actions_[static_cast<std::size_t>(action -
                                                  def_->actions.data())];
}

bool RuntimeTable::add(TableEntry entry) {
  const std::size_t n = key_.size();
  if (entry.key.size() != n) return false;
  const ResolvedAction* action = resolved(def_->find_action(entry.action));
  if (action == nullptr) return false;
  if (static_cast<int>(entries_.size()) >= def_->size) return false;

  Entry e;
  e.specificity = entry.priority * 4096;
  e.action = action;
  e.params = std::move(entry.params);
  for (std::size_t k = 0; k < n; ++k) {
    const MatchField& field = def_->match[k];
    const std::uint64_t field_mask = key_[k].width_mask;
    const MatchValue& mv = entry.key[k];
    std::uint64_t mask = 0;
    std::uint64_t want = 0;
    switch (field.kind) {
      case MatchKind::kExact:
        mask = ~0ull;
        want = mv.value & field_mask;
        e.specificity += field.bits;
        break;
      case MatchKind::kLpm:
        if (mv.prefix_len <= 0) break;  // 0-length prefix matches all.
        mask = field_mask &
               ~width_mask(std::max(field.bits - mv.prefix_len, 0));
        want = mv.value & mask;
        e.specificity += mv.prefix_len;
        break;
      case MatchKind::kTernary:
        mask = mv.mask;
        want = mv.value & mv.mask;
        e.specificity += static_cast<int>(std::popcount(mv.mask));
        break;
    }
    mask_.push_back(mask);
    want_.push_back(want);
  }
  // After every entry at least as specific: ties keep insertion order.
  const auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), e.specificity,
      [](int spec, const Entry& other) { return spec > other.specificity; });
  // Move the key just appended to the entry's slot.
  const auto at = static_cast<std::ptrdiff_t>(n) * (pos - entries_.begin());
  const auto tail = static_cast<std::ptrdiff_t>(mask_.size() - n);
  std::rotate(mask_.begin() + at, mask_.begin() + tail, mask_.end());
  std::rotate(want_.begin() + at, want_.begin() + tail, want_.end());
  entries_.insert(pos, std::move(e));
  return true;
}

const RuntimeTable::Entry* RuntimeTable::lookup(const PhvContext& ctx) {
  const std::size_t n = key_.size();
  for (std::size_t k = 0; k < n; ++k) {
    packet_key_[k] = ctx.get(key_[k].field) & key_[k].width_mask;
  }
  const std::uint64_t* mask = mask_.data();
  const std::uint64_t* want = want_.data();
  for (const Entry& e : entries_) {
    // Entries of negative specificity never win a lookup.
    if (e.specificity < 0) break;
    std::size_t k = 0;
    while (k < n && (packet_key_[k] & mask[k]) == want[k]) ++k;
    if (k == n) return &e;
    mask += n;
    want += n;
  }
  return nullptr;
}

void RuntimeTable::apply(PhvContext& ctx) {
  if (const Entry* e = lookup(ctx)) {
    e->action->execute(e->params, ctx);
  } else if (default_action_ != nullptr) {
    default_action_->execute(def_->default_params, ctx);
  }
}

PisaSwitch::PisaSwitch(P4Program program, topo::PisaSwitchSpec spec)
    : program_(std::move(program)), spec_(std::move(spec)) {}

CompileResult PisaSwitch::load() {
  compile_result_ = compile(program_, spec_);
  loaded_ = compile_result_.ok;
  tables_.clear();
  applies_.clear();
  slots_.clear();
  if (!loaded_) return compile_result_;

  FieldResolver fields;
  tables_.reserve(program_.tables.size());
  for (const auto& t : program_.tables) tables_.emplace_back(t, fields);
  for (const auto& stage : compile_result_.stages) {
    for (int apply_index : stage.applies) {
      const TableApply& apply =
          program_.control[static_cast<std::size_t>(apply_index)];
      Apply lowered;
      lowered.table = apply.table;
      lowered.runtime = &tables_[static_cast<std::size_t>(apply.table)];
      for (const auto& cond : apply.guard.all_of) {
        lowered.guard.push_back(
            {fields.resolve(cond.field), cond.cmp, cond.value});
      }
      applies_.push_back(std::move(lowered));
    }
  }
  slots_.resize(fields.slots());
  return compile_result_;
}

bool PisaSwitch::add_entry(const std::string& table, TableEntry entry) {
  const int index = program_.find_table(table);
  if (index < 0 || tables_.empty()) return false;
  return tables_[static_cast<std::size_t>(index)].add(std::move(entry));
}

PisaSwitch::ProcessResult PisaSwitch::process(net::Packet& pkt) {
  ProcessResult out;
  if (!loaded_) {
    out.dropped = true;
    return out;
  }
  ++packets_processed_;
  PhvContext ctx(pkt, slots_);
  for (const Apply& apply : applies_) {
    const bool guard_ok = std::all_of(
        apply.guard.begin(), apply.guard.end(), [&ctx](const GuardTerm& g) {
          return Condition::holds(g.cmp, ctx.get(g.field), g.value);
        });
    if (!guard_ok) continue;
    apply.runtime->apply(ctx);
    if (ctx.dropped()) {
      out.drop_table = apply.table;
      break;
    }
  }
  ctx.flush();
  out.dropped = ctx.dropped();
  out.egress_port = ctx.egress_port();
  if (out.dropped) {
    ++packets_dropped_;
    pkt.drop = true;
  }
  return out;
}

}  // namespace lemur::pisa
