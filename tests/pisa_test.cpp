// Tests for the PISA switch simulator: IR, parser merging, dependency
// analysis, stage packing, and pipeline execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <random>

#include "src/net/bytes.h"
#include "src/net/flow.h"
#include "src/net/packet_builder.h"
#include "src/pisa/compiler.h"
#include "src/pisa/p4_printer.h"
#include "src/pisa/phv.h"
#include "src/pisa/switch_sim.h"

namespace lemur::pisa {
namespace {

using net::Ipv4Addr;
using net::PacketBuilder;

// --- Helpers to build small programs -------------------------------------

TableDef make_table(const std::string& name,
                    std::vector<MatchField> match,
                    std::vector<ActionDef> actions,
                    int size = 16) {
  TableDef t;
  t.name = name;
  t.match = std::move(match);
  t.actions = std::move(actions);
  t.size = size;
  return t;
}

ActionDef action_set_meta(const std::string& name, const std::string& field,
                          std::int64_t imm) {
  ActionDef a;
  a.name = name;
  PrimitiveOp op;
  op.kind = PrimitiveOp::Kind::kSetFieldImm;
  op.field = field;
  op.imm = imm;
  a.ops.push_back(op);
  return a;
}

ActionDef action_drop() {
  ActionDef a;
  a.name = "do_drop";
  PrimitiveOp op;
  op.kind = PrimitiveOp::Kind::kDrop;
  a.ops.push_back(op);
  return a;
}

ActionDef action_noop(const std::string& name = "nop") {
  ActionDef a;
  a.name = name;
  a.ops.push_back(PrimitiveOp{});
  return a;
}

// --- Parser merging (appendix A.2.1) --------------------------------------

ParserGraph eth_ipv4_parser() {
  ParserGraph g;
  g.root = "eth";
  g.states = {"eth", "ipv4"};
  g.transitions = {{"eth", "eth.type", 0x0800, "ipv4"}};
  return g;
}

TEST(ParserMerge, UnionOfTransitions) {
  ParserGraph a = eth_ipv4_parser();
  ParserGraph b;
  b.root = "eth";
  b.states = {"eth", "vlan", "ipv4"};
  b.transitions = {{"eth", "eth.type", 0x8100, "vlan"},
                   {"vlan", "vlan.type", 0x0800, "ipv4"}};
  auto r = merge_parsers(a, b);
  ASSERT_TRUE(r.ok) << r.conflict;
  EXPECT_EQ(r.merged.states.size(), 3u);
  EXPECT_EQ(r.merged.transitions.size(), 3u);
}

TEST(ParserMerge, DuplicateTransitionsDeduplicated) {
  ParserGraph a = eth_ipv4_parser();
  auto r = merge_parsers(a, a);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.merged.transitions.size(), 1u);
  EXPECT_EQ(r.merged.states.size(), 2u);
}

TEST(ParserMerge, ConflictingTransitionRejected) {
  ParserGraph a = eth_ipv4_parser();
  ParserGraph b;
  b.root = "eth";
  b.states = {"eth", "myproto"};
  b.transitions = {{"eth", "eth.type", 0x0800, "myproto"}};
  auto r = merge_parsers(a, b);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.conflict.find("conflicting"), std::string::npos);
}

TEST(ParserMerge, EmptyBaseAdoptsAdditionRoot) {
  ParserGraph empty;
  empty.states.clear();
  auto r = merge_parsers(empty, eth_ipv4_parser());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.merged.root, "eth");
}

// --- Access sets & dependency analysis ------------------------------------

TEST(AccessSets, MatchFieldsAreReads) {
  P4Program prog;
  prog.tables.push_back(make_table(
      "t0", {{"ipv4.dst", MatchKind::kExact, 32}},
      {action_set_meta("set_x", "meta.x", 1)}));
  prog.control.push_back({0, {}});
  auto sets = access_sets(prog, 0);
  ASSERT_EQ(sets.reads.size(), 1u);
  EXPECT_EQ(sets.reads[0], "ipv4.dst");
  ASSERT_EQ(sets.writes.size(), 1u);
  EXPECT_EQ(sets.writes[0], "meta.x");
}

TEST(AccessSets, GuardFieldsAreReads) {
  P4Program prog;
  prog.tables.push_back(make_table("t0", {}, {action_noop()}));
  TableApply apply;
  apply.table = 0;
  apply.guard.all_of.push_back({"meta.branch", Condition::Cmp::kEq, 2});
  prog.control.push_back(apply);
  auto sets = access_sets(prog, 0);
  ASSERT_EQ(sets.reads.size(), 1u);
  EXPECT_EQ(sets.reads[0], "meta.branch");
}

TEST(Dependencies, WriteReadCreatesEdge) {
  P4Program prog;
  prog.tables.push_back(make_table("writer", {},
                                   {action_set_meta("w", "meta.x", 1)}));
  prog.tables.push_back(make_table(
      "reader", {{"meta.x", MatchKind::kExact, 8}}, {action_noop()}));
  prog.control.push_back({0, {}});
  prog.control.push_back({1, {}});
  auto edges = dependency_edges(prog);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], std::make_pair(0, 1));
}

TEST(Dependencies, IndependentTablesHaveNoEdge) {
  P4Program prog;
  prog.tables.push_back(make_table("a", {{"ipv4.src", MatchKind::kExact, 32}},
                                   {action_set_meta("wa", "meta.a", 1)}));
  prog.tables.push_back(make_table("b", {{"ipv4.dst", MatchKind::kExact, 32}},
                                   {action_set_meta("wb", "meta.b", 1)}));
  prog.control.push_back({0, {}});
  prog.control.push_back({1, {}});
  EXPECT_TRUE(dependency_edges(prog).empty());
}

// --- Stage packing ---------------------------------------------------------

topo::PisaSwitchSpec small_switch(int stages, int tables_per_stage = 4) {
  topo::PisaSwitchSpec spec;
  spec.stages = stages;
  spec.tables_per_stage = tables_per_stage;
  return spec;
}

// N independent tables pack into ceil(N / tables_per_stage) stages even
// though the conservative estimate is N stages.
TEST(Compiler, PacksIndependentTables) {
  P4Program prog;
  for (int i = 0; i < 8; ++i) {
    const std::string id = std::to_string(i);
    prog.tables.push_back(
        make_table("t" + id, {{"ipv4.dst", MatchKind::kExact, 32}},
                   {action_set_meta("set" + id, "meta.m" + id, 1)}));
    prog.control.push_back({i, {}});
  }
  EXPECT_EQ(estimate_stages_conservative(prog), 8);
  auto r = compile(prog, small_switch(12, 4));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.stages_required, 2);  // 8 tables / 4 per stage.
}

TEST(Compiler, DependentChainUsesOneStageEach) {
  P4Program prog;
  for (int i = 0; i < 5; ++i) {
    const std::string cur = "meta.v" + std::to_string(i);
    const std::string next = "meta.v" + std::to_string(i + 1);
    prog.tables.push_back(
        make_table("t" + std::to_string(i),
                   {{cur, MatchKind::kExact, 8}},
                   {action_set_meta("s" + std::to_string(i), next, 1)}));
    prog.control.push_back({i, {}});
  }
  auto r = compile(prog, small_switch(12));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.stages_required, 5);
}

TEST(Compiler, StageOverflowFailsWithCount) {
  P4Program prog;
  for (int i = 0; i < 5; ++i) {
    const std::string cur = "meta.v" + std::to_string(i);
    const std::string next = "meta.v" + std::to_string(i + 1);
    prog.tables.push_back(
        make_table("t" + std::to_string(i), {{cur, MatchKind::kExact, 8}},
                   {action_set_meta("s" + std::to_string(i), next, 1)}));
    prog.control.push_back({i, {}});
  }
  auto r = compile(prog, small_switch(3));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.stages_required, 5);
  EXPECT_NE(r.error.find("stages"), std::string::npos);
}

TEST(Compiler, MemoryBudgetSpillsToNextStage) {
  topo::PisaSwitchSpec spec = small_switch(12, 8);
  spec.sram_bytes_per_stage = 8 * 1024;
  P4Program prog;
  // Two fat independent tables that cannot share one stage's SRAM.
  for (int i = 0; i < 2; ++i) {
    auto t = make_table("fat" + std::to_string(i),
                        {{"ipv4.dst", MatchKind::kExact, 32}},
                        {action_set_meta("a" + std::to_string(i),
                                         "meta.x" + std::to_string(i), 1)},
                        /*size=*/400);
    prog.tables.push_back(t);
    prog.control.push_back({i, {}});
  }
  ASSERT_GT(table_sram_bytes(prog.tables[0]), 4 * 1024);
  auto r = compile(prog, spec);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.stages_required, 2);
}

TEST(Compiler, OversizedTableFailsOutright) {
  topo::PisaSwitchSpec spec = small_switch(12);
  spec.sram_bytes_per_stage = 1024;
  P4Program prog;
  prog.tables.push_back(make_table("huge",
                                   {{"ipv4.dst", MatchKind::kExact, 32}},
                                   {action_noop()}, /*size=*/100000));
  prog.control.push_back({0, {}});
  auto r = compile(prog, spec);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("memory"), std::string::npos);
}

TEST(Compiler, TcamBudgetTracked) {
  P4Program prog;
  prog.tables.push_back(make_table(
      "lpm", {{"ipv4.dst", MatchKind::kLpm, 32}}, {action_noop()}, 128));
  prog.control.push_back({0, {}});
  auto r = compile(prog, small_switch(12));
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.stats.total_tcam_bytes, 0);
}

// Parallel-branch packing: two branch tables guarded by *different*
// metadata values both depend on the classifier but not on each other, so
// they share a stage (the paper's optimization (d)).
TEST(Compiler, ParallelBranchesShareStage) {
  P4Program prog;
  prog.tables.push_back(make_table(
      "classify", {{"ipv4.src", MatchKind::kExact, 32}},
      {action_set_meta("set_branch", "meta.branch", 1)}));
  prog.tables.push_back(make_table(
      "branch_a", {{"ipv4.dst", MatchKind::kExact, 32}},
      {action_set_meta("a", "meta.out_a", 1)}));
  prog.tables.push_back(make_table(
      "branch_b", {{"l4.dport", MatchKind::kExact, 16}},
      {action_set_meta("b", "meta.out_b", 1)}));
  prog.control.push_back({0, {}});
  TableApply apply_a;
  apply_a.table = 1;
  apply_a.guard.all_of.push_back({"meta.branch", Condition::Cmp::kEq, 1});
  prog.control.push_back(apply_a);
  TableApply apply_b;
  apply_b.table = 2;
  apply_b.guard.all_of.push_back({"meta.branch", Condition::Cmp::kEq, 2});
  prog.control.push_back(apply_b);

  auto r = compile(prog, small_switch(12));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.stages_required, 2);  // classify | {branch_a, branch_b}.
}

// --- PHV context -----------------------------------------------------------

/// Field names resolved the way PisaSwitch::load() resolves them, over a
/// slot array with room for a few metadata fields.
struct PhvFields {
  FieldResolver fields;
  std::vector<std::uint64_t> slots = std::vector<std::uint64_t>(16);

  FieldRef operator[](const std::string& name) {
    return fields.resolve(name);
  }
};

TEST(Phv, ResolverPinsStandardSlotsAndWireFields) {
  FieldResolver fields;
  EXPECT_EQ(fields.slots(), 2u);
  EXPECT_EQ(fields.resolve("std.drop").kind, FieldRef::Kind::kSlot);
  EXPECT_EQ(fields.resolve("std.drop").index, FieldResolver::kDropSlot);
  EXPECT_EQ(fields.resolve("std.egress_port").index,
            FieldResolver::kEgressSlot);
  const FieldRef x = fields.resolve("meta.x");
  EXPECT_EQ(x.kind, FieldRef::Kind::kSlot);
  EXPECT_EQ(x.index, 2);
  EXPECT_EQ(fields.resolve("meta.x").index, 2);  // Same name, same slot.
  EXPECT_EQ(fields.slots(), 3u);
  EXPECT_EQ(fields.resolve("ipv4.dst").kind, FieldRef::Kind::kWire);
  EXPECT_EQ(fields.resolve("ipv4.dst").index,
            static_cast<std::uint16_t>(WireField::kIpv4Dst));
  EXPECT_EQ(fields.resolve("ipv6.dst").kind, FieldRef::Kind::kNone);
}

TEST(Phv, ReadsWireFields) {
  net::Packet pkt = PacketBuilder()
                        .src_ip(*Ipv4Addr::parse("10.0.0.1"))
                        .dst_ip(*Ipv4Addr::parse("10.0.0.2"))
                        .src_port(123)
                        .dst_port(456)
                        .build();
  PhvFields f;
  PhvContext ctx(pkt, f.slots);
  EXPECT_EQ(ctx.get(f["ipv4.src"]), 0x0a000001u);
  EXPECT_EQ(ctx.get(f["ipv4.dst"]), 0x0a000002u);
  EXPECT_EQ(ctx.get(f["l4.sport"]), 123u);
  EXPECT_EQ(ctx.get(f["l4.dport"]), 456u);
  EXPECT_EQ(ctx.get(f["eth.type"]), 0x0800u);
  EXPECT_EQ(ctx.get(f["vlan.vid"]), 0u);  // Absent header reads as 0.
  EXPECT_EQ(ctx.get(f["no.such"]), 0u);
}

TEST(Phv, WritesFlushWithValidChecksum) {
  net::Packet pkt = PacketBuilder().build();
  PhvFields f;
  {
    PhvContext ctx(pkt, f.slots);
    ctx.set(f["ipv4.dst"], 0xC0A80101);
    ctx.set(f["l4.dport"], 8080);
    ctx.flush();
  }
  auto layers = net::ParsedLayers::parse(pkt);
  ASSERT_TRUE(layers.has_value());
  ASSERT_TRUE(layers->ipv4.has_value()) << "checksum must re-verify";
  EXPECT_EQ(layers->ipv4->dst.value, 0xC0A80101u);
  EXPECT_EQ(layers->udp->dst_port, 8080);
}

TEST(Phv, IgnoredWriteKeepsPendingEdits) {
  net::Packet pkt = PacketBuilder().build();  // Untagged UDP.
  PhvFields f;
  PhvContext ctx(pkt, f.slots);
  ctx.set(f["eth.dst"], 0xaabbccddeeff);
  ctx.set(f["vlan.vid"], 7);        // Absent header.
  ctx.set(f["eth.type"], 0x86dd);   // Read-only.
  ctx.set(f["ipv4.proto"], 6);      // Read-only.
  ctx.set(f["no.such"], 1);         // Unknown field.
  ctx.flush();
  EXPECT_EQ(pkt.data[0], 0xaa);
  EXPECT_EQ(pkt.data[5], 0xff);
  auto layers = net::ParsedLayers::parse(pkt);
  ASSERT_TRUE(layers.has_value());
  EXPECT_EQ(layers->eth.ether_type, 0x0800);
  EXPECT_FALSE(layers->vlan.has_value());
  ASSERT_TRUE(layers->udp.has_value());
}

TEST(Phv, MetadataIndependentOfPacket) {
  net::Packet pkt = PacketBuilder().build();
  PhvFields f;
  f.slots.assign(f.slots.size(), 99);  // The context zeroes its slots.
  PhvContext ctx(pkt, f.slots);
  EXPECT_EQ(ctx.get(f["meta.x"]), 0u);
  ctx.set(f["meta.x"], 42);
  EXPECT_EQ(ctx.get(f["meta.x"]), 42u);
  EXPECT_FALSE(ctx.dropped());
  ctx.set(f["std.drop"], 1);
  EXPECT_TRUE(ctx.dropped());
  ctx.set(f["std.egress_port"], 5);
  EXPECT_EQ(ctx.egress_port(), 5u);
}

TEST(Phv, StructuralOpsPreserveEdits) {
  net::Packet pkt = PacketBuilder().build();
  PhvFields f;
  PhvContext ctx(pkt, f.slots);
  ctx.set(f["ipv4.ttl"], 7);
  ctx.push_nsh(5, 50);  // Forces a flush + reparse.
  EXPECT_EQ(ctx.get(f["nsh.spi"]), 5u);
  EXPECT_EQ(ctx.get(f["ipv4.ttl"]), 7u);
  ctx.pop_nsh();
  ctx.flush();
  auto layers = net::ParsedLayers::parse(pkt);
  EXPECT_EQ(layers->ipv4->ttl, 7);
  EXPECT_FALSE(layers->nsh.has_value());
}

// --- Runtime tables & pipeline execution -----------------------------------

P4Program acl_fwd_program() {
  // acl: drop packets from a source prefix. fwd: set egress by dst.
  P4Program prog;
  TableDef acl = make_table(
      "acl", {{"ipv4.src", MatchKind::kTernary, 32}},
      {action_drop(), action_noop("permit")});
  acl.default_action = "permit";
  prog.tables.push_back(acl);

  ActionDef fwd;
  fwd.name = "set_port";
  fwd.num_params = 1;
  PrimitiveOp op;
  op.kind = PrimitiveOp::Kind::kEgressParam;
  op.param = 0;
  fwd.ops.push_back(op);
  TableDef fwd_table =
      make_table("fwd", {{"ipv4.dst", MatchKind::kLpm, 32}}, {fwd});
  prog.tables.push_back(fwd_table);

  prog.control.push_back({0, {}});
  prog.control.push_back({1, {}});
  return prog;
}

TEST(Switch, ExactPipelineExecution) {
  PisaSwitch sw(acl_fwd_program(), topo::PisaSwitchSpec{});
  ASSERT_TRUE(sw.load().ok);
  // Drop 10.9.0.0/16 sources.
  TableEntry deny;
  deny.key = {MatchValue::ternary(0x0a090000, 0xffff0000)};
  deny.action = "do_drop";
  ASSERT_TRUE(sw.add_entry("acl", deny));
  // Route 192.168.0.0/16 to port 3.
  TableEntry route;
  route.key = {MatchValue::lpm(0xc0a80000, 16)};
  route.action = "set_port";
  route.params = {3};
  ASSERT_TRUE(sw.add_entry("fwd", route));

  net::Packet ok_pkt = PacketBuilder()
                           .src_ip(*Ipv4Addr::parse("10.8.0.1"))
                           .dst_ip(*Ipv4Addr::parse("192.168.5.5"))
                           .build();
  auto r1 = sw.process(ok_pkt);
  EXPECT_FALSE(r1.dropped);
  EXPECT_EQ(r1.egress_port, 3u);

  net::Packet bad_pkt = PacketBuilder()
                            .src_ip(*Ipv4Addr::parse("10.9.1.1"))
                            .dst_ip(*Ipv4Addr::parse("192.168.5.5"))
                            .build();
  auto r2 = sw.process(bad_pkt);
  EXPECT_TRUE(r2.dropped);
  EXPECT_TRUE(bad_pkt.drop);
  EXPECT_EQ(sw.packets_processed(), 2u);
  EXPECT_EQ(sw.packets_dropped(), 1u);
}

TEST(Switch, LpmPrefersLongestPrefix) {
  P4Program prog;
  ActionDef fwd;
  fwd.name = "set_port";
  fwd.num_params = 1;
  PrimitiveOp op;
  op.kind = PrimitiveOp::Kind::kEgressParam;
  fwd.ops.push_back(op);
  prog.tables.push_back(
      make_table("fwd", {{"ipv4.dst", MatchKind::kLpm, 32}}, {fwd}));
  prog.control.push_back({0, {}});
  PisaSwitch sw(std::move(prog), topo::PisaSwitchSpec{});
  ASSERT_TRUE(sw.load().ok);
  TableEntry wide;
  wide.key = {MatchValue::lpm(0x0a000000, 8)};
  wide.action = "set_port";
  wide.params = {1};
  TableEntry narrow;
  narrow.key = {MatchValue::lpm(0x0a010000, 16)};
  narrow.action = "set_port";
  narrow.params = {2};
  ASSERT_TRUE(sw.add_entry("fwd", wide));
  ASSERT_TRUE(sw.add_entry("fwd", narrow));

  net::Packet pkt =
      PacketBuilder().dst_ip(*Ipv4Addr::parse("10.1.2.3")).build();
  EXPECT_EQ(sw.process(pkt).egress_port, 2u);
  net::Packet pkt2 =
      PacketBuilder().dst_ip(*Ipv4Addr::parse("10.2.2.3")).build();
  EXPECT_EQ(sw.process(pkt2).egress_port, 1u);
}

TEST(Switch, TernaryPriorityBreaksTies) {
  P4Program prog;
  prog.tables.push_back(make_table(
      "t", {{"l4.dport", MatchKind::kTernary, 16}},
      {action_set_meta("low", "std.egress_port", 1),
       action_set_meta("high", "std.egress_port", 2)}));
  prog.control.push_back({0, {}});
  PisaSwitch sw(std::move(prog), topo::PisaSwitchSpec{});
  ASSERT_TRUE(sw.load().ok);
  TableEntry low;
  low.key = {MatchValue::wildcard()};
  low.priority = 0;
  low.action = "low";
  TableEntry high;
  high.key = {MatchValue::ternary(80, 0xffff)};
  high.priority = 10;
  high.action = "high";
  ASSERT_TRUE(sw.add_entry("t", low));
  ASSERT_TRUE(sw.add_entry("t", high));

  net::Packet to80 = PacketBuilder().dst_port(80).build();
  EXPECT_EQ(sw.process(to80).egress_port, 2u);
  net::Packet to81 = PacketBuilder().dst_port(81).build();
  EXPECT_EQ(sw.process(to81).egress_port, 1u);
}

TEST(Switch, GuardSkipsTable) {
  P4Program prog;
  prog.tables.push_back(make_table(
      "classify", {}, {action_noop()}));
  prog.tables.back().default_action = "nop";
  TableDef guarded = make_table(
      "guarded", {}, {action_set_meta("mark", "std.egress_port", 9)});
  guarded.default_action = "mark";
  prog.tables.push_back(guarded);
  prog.control.push_back({0, {}});
  TableApply apply;
  apply.table = 1;
  apply.guard.all_of.push_back({"meta.go", Condition::Cmp::kEq, 1});
  prog.control.push_back(apply);
  PisaSwitch sw(std::move(prog), topo::PisaSwitchSpec{});
  ASSERT_TRUE(sw.load().ok);
  net::Packet pkt = PacketBuilder().build();
  // meta.go defaults to 0 -> guarded table skipped -> port stays 0.
  EXPECT_EQ(sw.process(pkt).egress_port, 0u);
}

TEST(Switch, DefaultActionOnMiss) {
  P4Program prog;
  TableDef t = make_table("t", {{"ipv4.dst", MatchKind::kExact, 32}},
                          {action_drop(), action_noop("permit")});
  t.default_action = "do_drop";
  prog.tables.push_back(t);
  prog.control.push_back({0, {}});
  PisaSwitch sw(std::move(prog), topo::PisaSwitchSpec{});
  ASSERT_TRUE(sw.load().ok);
  net::Packet pkt = PacketBuilder().build();
  EXPECT_TRUE(sw.process(pkt).dropped);
}

TEST(Switch, RejectsEntryForUnknownActionOrBadArity) {
  PisaSwitch sw(acl_fwd_program(), topo::PisaSwitchSpec{});
  ASSERT_TRUE(sw.load().ok);
  TableEntry bad_action;
  bad_action.key = {MatchValue::exact(1)};
  bad_action.action = "nonexistent";
  EXPECT_FALSE(sw.add_entry("acl", bad_action));
  TableEntry bad_arity;
  bad_arity.key = {};
  bad_arity.action = "do_drop";
  EXPECT_FALSE(sw.add_entry("acl", bad_arity));
  EXPECT_FALSE(sw.add_entry("no_such_table", TableEntry{}));
}

TEST(Switch, NshManipulationActions) {
  P4Program prog;
  ActionDef encap;
  encap.name = "encap";
  encap.num_params = 2;
  PrimitiveOp op;
  op.kind = PrimitiveOp::Kind::kPushNshParams;
  op.param = 0;
  encap.ops.push_back(op);
  TableDef t = make_table("encap_t", {}, {encap});
  t.default_action = "encap";
  t.default_params = {17, 250};
  prog.tables.push_back(t);
  prog.control.push_back({0, {}});
  PisaSwitch sw(std::move(prog), topo::PisaSwitchSpec{});
  ASSERT_TRUE(sw.load().ok);
  net::Packet pkt = PacketBuilder().build();
  sw.process(pkt);
  auto layers = net::ParsedLayers::parse(pkt);
  ASSERT_TRUE(layers->nsh.has_value());
  EXPECT_EQ(layers->nsh->spi, 17u);
  EXPECT_EQ(layers->nsh->si, 250);
}

// --- Lowered pipeline vs a name-keyed reference ------------------------------

/// The switch's semantics before load() lowered programs, kept as a test
/// oracle: fields are read and written by name, metadata lives in a
/// name-keyed map, and every lookup scans all entries for the best
/// specificity.
class ReferencePhv {
 public:
  explicit ReferencePhv(net::Packet& pkt) : pkt_(pkt) { reparse(); }

  [[nodiscard]] std::uint64_t get(const std::string& field) const {
    if (field.starts_with("meta.") || field.starts_with("std.")) {
      auto it = meta_.find(field);
      return it == meta_.end() ? 0 : it->second;
    }
    if (!ok_) return 0;
    if (field == "eth.dst") return mac(l_.eth.dst);
    if (field == "eth.src") return mac(l_.eth.src);
    if (field == "eth.type") return l_.eth.ether_type;
    if (l_.vlan && field == "vlan.vid") return l_.vlan->vid;
    if (l_.vlan && field == "vlan.pcp") return l_.vlan->pcp;
    if (l_.nsh && field == "nsh.spi") return l_.nsh->spi;
    if (l_.nsh && field == "nsh.si") return l_.nsh->si;
    if (l_.ipv4) {
      if (field == "ipv4.src") return l_.ipv4->src.value;
      if (field == "ipv4.dst") return l_.ipv4->dst.value;
      if (field == "ipv4.ttl") return l_.ipv4->ttl;
      if (field == "ipv4.proto") return l_.ipv4->protocol;
      if (field == "ipv4.dscp") return l_.ipv4->dscp;
    }
    if (l_.tcp && field == "l4.sport") return l_.tcp->src_port;
    if (l_.tcp && field == "l4.dport") return l_.tcp->dst_port;
    if (l_.udp && field == "l4.sport") return l_.udp->src_port;
    if (l_.udp && field == "l4.dport") return l_.udp->dst_port;
    return 0;
  }

  void set(const std::string& field, std::uint64_t v) {
    if (field.starts_with("meta.") || field.starts_with("std.")) {
      meta_[field] = v;
      return;
    }
    if (!ok_) return;
    auto* l4_port = [&]() -> std::uint16_t* {
      const bool src = field == "l4.sport";
      if (!src && field != "l4.dport") return nullptr;
      if (l_.tcp) return src ? &l_.tcp->src_port : &l_.tcp->dst_port;
      if (l_.udp) return src ? &l_.udp->src_port : &l_.udp->dst_port;
      return nullptr;
    }();
    if (field == "eth.dst") {
      set_mac(v, l_.eth.dst);
    } else if (field == "eth.src") {
      set_mac(v, l_.eth.src);
    } else if (field == "vlan.vid" && l_.vlan) {
      l_.vlan->vid = static_cast<std::uint16_t>(v & 0xfff);
    } else if (field == "vlan.pcp" && l_.vlan) {
      l_.vlan->pcp = static_cast<std::uint8_t>(v & 0x7);
    } else if (field == "nsh.spi" && l_.nsh) {
      l_.nsh->spi = static_cast<std::uint32_t>(v) & net::NshHeader::kMaxSpi;
    } else if (field == "nsh.si" && l_.nsh) {
      l_.nsh->si = static_cast<std::uint8_t>(v);
    } else if (field == "ipv4.src" && l_.ipv4) {
      l_.ipv4->src.value = static_cast<std::uint32_t>(v);
    } else if (field == "ipv4.dst" && l_.ipv4) {
      l_.ipv4->dst.value = static_cast<std::uint32_t>(v);
    } else if (field == "ipv4.ttl" && l_.ipv4) {
      l_.ipv4->ttl = static_cast<std::uint8_t>(v);
    } else if (field == "ipv4.dscp" && l_.ipv4) {
      l_.ipv4->dscp = static_cast<std::uint8_t>(v);
    } else if (l4_port != nullptr) {
      *l4_port = static_cast<std::uint16_t>(v);
    } else {
      return;  // Ignored write: pending edits stay pending.
    }
    dirty_ = true;
  }

  /// Flushes edits, applies a net:: structural helper, reparses.
  template <typename Op>
  void structural(Op op) {
    flush();
    op(pkt_);
    reparse();
  }

  void flush() {
    if (!dirty_ || !ok_) return;
    auto write = [this](const auto& header, std::size_t offset) {
      std::vector<std::uint8_t> bytes;
      net::BufWriter w(bytes);
      header.encode(w);
      std::copy(bytes.begin(), bytes.end(),
                pkt_.data.begin() + static_cast<std::ptrdiff_t>(offset));
    };
    write(l_.eth, 0);
    if (l_.vlan) write(*l_.vlan, l_.vlan_offset);
    if (l_.nsh) write(*l_.nsh, l_.nsh_offset);
    if (l_.ipv4) net::patch_ipv4(pkt_, l_, *l_.ipv4);
    if (l_.tcp) {
      net::patch_l4_ports(pkt_, l_, l_.tcp->src_port, l_.tcp->dst_port);
    } else if (l_.udp) {
      net::patch_l4_ports(pkt_, l_, l_.udp->src_port, l_.udp->dst_port);
    }
    pkt_.invalidate_layers();
    dirty_ = false;
  }

  [[nodiscard]] std::uint64_t flow_hash() const {
    if (!ok_) return 0;
    const auto tuple = net::FiveTuple::from(l_);
    return tuple ? tuple->hash() : 0;
  }

  [[nodiscard]] bool dropped() const { return get("std.drop") != 0; }

 private:
  static std::uint64_t mac(const net::MacAddr& m) {
    std::uint64_t v = 0;
    for (std::uint8_t b : m.bytes) v = (v << 8) | b;
    return v;
  }
  static void set_mac(std::uint64_t v, net::MacAddr& m) {
    for (int i = 5; i >= 0; --i, v >>= 8) {
      m.bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
    }
  }
  void reparse() {
    const auto parsed = net::ParsedLayers::parse(pkt_);
    ok_ = parsed.has_value();
    if (ok_) l_ = *parsed;
    dirty_ = false;
  }

  net::Packet& pkt_;
  net::ParsedLayers l_;
  bool ok_ = false;
  bool dirty_ = false;
  std::map<std::string, std::uint64_t> meta_;
};

void reference_execute(const ActionDef& action,
                       const std::vector<std::uint64_t>& params,
                       ReferencePhv& ctx) {
  auto param = [&params](int i) -> std::uint64_t {
    return i >= 0 && static_cast<std::size_t>(i) < params.size()
               ? params[static_cast<std::size_t>(i)]
               : 0;
  };
  using Kind = PrimitiveOp::Kind;
  for (const auto& op : action.ops) {
    const auto p0 = param(op.param);
    const auto p1 = param(op.param + 1);
    switch (op.kind) {
      case Kind::kNoOp:
        break;
      case Kind::kSetFieldImm:
        ctx.set(op.field, static_cast<std::uint64_t>(op.imm));
        break;
      case Kind::kSetFieldParam:
        ctx.set(op.field, p0);
        break;
      case Kind::kCopyField:
        ctx.set(op.field, ctx.get(op.src_field));
        break;
      case Kind::kAddImm:
        ctx.set(op.field, static_cast<std::uint64_t>(
                              static_cast<std::int64_t>(ctx.get(op.field)) +
                              op.imm));
        break;
      case Kind::kDrop:
        ctx.set("std.drop", 1);
        break;
      case Kind::kEgressParam:
        ctx.set("std.egress_port", p0);
        break;
      case Kind::kPushVlanParam:
        ctx.structural([&](net::Packet& p) {
          net::push_vlan(p, static_cast<std::uint16_t>(p0));
        });
        break;
      case Kind::kPopVlan:
        ctx.structural([](net::Packet& p) { net::pop_vlan(p); });
        break;
      case Kind::kPushNshParams:
        ctx.structural([&](net::Packet& p) {
          net::push_nsh(p, static_cast<std::uint32_t>(p0),
                        static_cast<std::uint8_t>(p1));
        });
        break;
      case Kind::kPopNsh:
        ctx.structural([](net::Packet& p) { net::pop_nsh(p); });
        break;
      case Kind::kSetNshParams:
        ctx.structural([&](net::Packet& p) {
          net::set_nsh(p, static_cast<std::uint32_t>(p0),
                       static_cast<std::uint8_t>(p1));
        });
        break;
      case Kind::kHashSelectParams:
        ctx.set(op.field, p1 + (p0 > 0 ? ctx.flow_hash() % p0 : 0));
        break;
      case Kind::kAndFieldParam:
        ctx.set(op.field, ctx.get(op.field) & p0);
        break;
    }
  }
}

/// Best-specificity scan: the most specific matching entry, the earliest
/// inserted among equals, never one below specificity 0.
const TableEntry* reference_lookup(const TableDef& def,
                                   const std::vector<TableEntry>& entries,
                                   const ReferencePhv& ctx) {
  auto width = [](int bits) { return bits >= 64 ? ~0ull : (1ull << bits) - 1; };
  const TableEntry* best = nullptr;
  int best_spec = -1;
  for (const auto& e : entries) {
    int spec = e.priority * 4096;
    bool hit = true;
    for (std::size_t i = 0; hit && i < e.key.size(); ++i) {
      const MatchField& f = def.match[i];
      const std::uint64_t actual = ctx.get(f.field) & width(f.bits);
      const MatchValue& mv = e.key[i];
      switch (f.kind) {
        case MatchKind::kExact:
          hit = actual == (mv.value & width(f.bits));
          spec += f.bits;
          break;
        case MatchKind::kLpm: {
          if (mv.prefix_len == 0) break;
          const int shift = f.bits - mv.prefix_len;
          hit = (actual >> shift) == ((mv.value & width(f.bits)) >> shift);
          spec += mv.prefix_len;
          break;
        }
        case MatchKind::kTernary:
          hit = (actual & mv.mask) == (mv.value & mv.mask);
          spec += std::popcount(mv.mask);
          break;
      }
    }
    if (hit && spec > best_spec) {
      best = &e;
      best_spec = spec;
    }
  }
  return best;
}

PisaSwitch::ProcessResult reference_process(
    const P4Program& prog, const CompileResult& compiled,
    const std::vector<std::vector<TableEntry>>& entries, net::Packet& pkt) {
  PisaSwitch::ProcessResult out;
  ReferencePhv ctx(pkt);
  for (const auto& stage : compiled.stages) {
    for (int apply_index : stage.applies) {
      if (ctx.dropped()) break;
      const TableApply& apply =
          prog.control[static_cast<std::size_t>(apply_index)];
      const bool guard_ok = std::all_of(
          apply.guard.all_of.begin(), apply.guard.all_of.end(),
          [&](const Condition& c) { return c.eval(ctx.get(c.field)); });
      if (!guard_ok) continue;
      const TableDef& table = prog.table(apply.table);
      const TableEntry* entry = reference_lookup(
          table, entries[static_cast<std::size_t>(apply.table)], ctx);
      if (entry != nullptr) {
        reference_execute(*table.find_action(entry->action), entry->params,
                          ctx);
      } else if (const ActionDef* d = table.find_action(table.default_action)) {
        reference_execute(*d, table.default_params, ctx);
      }
      if (ctx.dropped() && out.drop_table < 0) out.drop_table = apply.table;
    }
    if (ctx.dropped()) break;
  }
  ctx.flush();
  out.dropped = ctx.dropped();
  out.egress_port = static_cast<std::uint32_t>(ctx.get("std.egress_port"));
  if (out.dropped) pkt.drop = true;
  return out;
}

const std::string& random_action_name(std::mt19937_64& rng,
                                      const TableDef& def) {
  std::uniform_int_distribution<std::size_t> pick(0, def.actions.size() - 1);
  return def.actions[pick(rng)].name;
}

/// A random program over a few wire and metadata fields: mixed match
/// kinds, guards on meta.*, drops, header rewrites (some ignored) and
/// default actions that are present, absent or name no action.
P4Program random_switch_program(std::mt19937_64& rng) {
  auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  static const std::vector<std::pair<std::string, int>> kKeyFields = {
      {"ipv4.src", 32}, {"ipv4.dst", 32}, {"l4.sport", 16},
      {"l4.dport", 16}, {"ipv4.proto", 8}, {"meta.m0", 8},
      {"meta.m1", 8},   {"meta.m2", 8},    {"nsh.si", 8}};
  static const std::vector<std::string> kMeta = {"meta.m0", "meta.m1",
                                                 "meta.m2"};
  static const std::vector<std::string> kWire = {
      "ipv4.dscp", "ipv4.ttl", "l4.dport", "eth.dst",
      "vlan.vid",  "eth.type", "ipv4.proto", "nsh.si"};
  using Kind = PrimitiveOp::Kind;
  P4Program prog;
  const int tables = 3 + pick(6);
  for (int t = 0; t < tables; ++t) {
    TableDef def;
    def.name = "t" + std::to_string(t);
    def.size = 4 + pick(10);
    for (int k = pick(4); k > 0; --k) {
      const auto& [field, bits] = kKeyFields[static_cast<std::size_t>(
          pick(static_cast<int>(kKeyFields.size())))];
      def.match.push_back({field, static_cast<MatchKind>(pick(3)), bits});
    }
    for (int a = 1 + pick(3); a > 0; --a) {
      ActionDef action;
      action.name = "a" + std::to_string(def.actions.size());
      action.num_params = 2;
      for (int o = 1 + pick(3); o > 0; --o) {
        PrimitiveOp op;
        op.param = pick(3);  // Sometimes past the entry's params.
        op.imm = pick(5) - 2;
        const auto& meta = kMeta[static_cast<std::size_t>(pick(3))];
        const auto& wire = kWire[static_cast<std::size_t>(
            pick(static_cast<int>(kWire.size())))];
        switch (pick(11)) {
          case 0:
            op.kind = Kind::kSetFieldImm;
            op.field = meta;
            break;
          case 1:
            op.kind = Kind::kSetFieldParam;
            op.field = pick(2) ? meta : wire;
            break;
          case 2:
            op.kind = Kind::kCopyField;
            op.field = pick(2) ? meta : wire;
            op.src_field = pick(2) ? "l4.sport" : meta;
            break;
          case 3:
            op.kind = Kind::kAddImm;
            op.field = pick(2) ? meta : "ipv4.ttl";
            break;
          case 4:
            op.kind = Kind::kDrop;
            break;
          case 5:
            op.kind = Kind::kEgressParam;
            break;
          case 6:
            op.kind = Kind::kAndFieldParam;
            op.field = meta;
            break;
          case 7:
            op.kind = Kind::kHashSelectParams;
            op.field = meta;
            break;
          case 8:
            op.kind = pick(2) ? Kind::kSetNshParams : Kind::kPushNshParams;
            break;
          case 9:
            op.kind = pick(2) ? Kind::kPopNsh : Kind::kPopVlan;
            break;
          default:
            op.kind = Kind::kSetFieldImm;
            op.field = "std.drop";
            op.imm = pick(2);  // Sets or clears a drop.
            break;
        }
        action.ops.push_back(op);
      }
      def.actions.push_back(std::move(action));
    }
    switch (pick(3)) {
      case 0:
        break;  // No default action.
      case 1:
        def.default_action = "no_such_action";
        break;
      default:
        def.default_action = random_action_name(rng, def);
        def.default_params = {static_cast<std::uint64_t>(pick(4)),
                              static_cast<std::uint64_t>(pick(4))};
        break;
    }
    prog.tables.push_back(std::move(def));
    TableApply apply;
    apply.table = t;
    for (int g = pick(3); g > 0; --g) {
      apply.guard.all_of.push_back(
          {kMeta[static_cast<std::size_t>(pick(3))],
           static_cast<Condition::Cmp>(pick(7)),
           static_cast<std::uint64_t>(pick(4))});
    }
    prog.control.push_back(std::move(apply));
  }
  return prog;
}

TableEntry random_entry(std::mt19937_64& rng, const TableDef& def) {
  auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  // Few distinct values so that entries overlap and tie.
  auto value = [&](int bits) -> std::uint64_t {
    static const std::uint64_t kValues[] = {0, 1, 2, 80, 0x0a000001,
                                            0x0a000102, 0xc0a80101};
    return kValues[pick(7)] & (bits >= 64 ? ~0ull : (1ull << bits) - 1);
  };
  TableEntry e;
  for (const auto& f : def.match) {
    switch (f.kind) {
      case MatchKind::kExact:
        e.key.push_back(MatchValue::exact(value(f.bits)));
        break;
      case MatchKind::kLpm:
        e.key.push_back(MatchValue::lpm(value(f.bits), pick(f.bits + 1)));
        break;
      case MatchKind::kTernary: {
        static const std::uint64_t kMasks[] = {0, 0xff, 0xff00ff, ~0ull};
        e.key.push_back(MatchValue::ternary(value(f.bits), kMasks[pick(4)]));
        break;
      }
    }
  }
  static const int kPriorities[] = {-1, 0, 0, 0, 1, 2};
  e.priority = kPriorities[pick(6)];
  e.action = pick(8) == 0 ? "no_such_action" : random_action_name(rng, def);
  for (int p = pick(3); p > 0; --p) {
    e.params.push_back(static_cast<std::uint64_t>(pick(4)));
  }
  return e;
}

net::Packet random_packet(std::mt19937_64& rng) {
  auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  static const char* kAddrs[] = {"10.0.0.1", "10.0.1.2", "192.168.1.1",
                                 "172.16.0.9"};
  static const std::uint16_t kPorts[] = {1, 2, 80, 443};
  net::Packet pkt =
      PacketBuilder()
          .src_ip(*Ipv4Addr::parse(kAddrs[pick(4)]))
          .dst_ip(*Ipv4Addr::parse(kAddrs[pick(4)]))
          .src_port(kPorts[pick(4)])
          .dst_port(kPorts[pick(4)])
          .proto(pick(2) ? net::IpProto::kTcp : net::IpProto::kUdp)
          .ttl(static_cast<std::uint8_t>(pick(3)))
          .build();
  if (pick(4) == 0) {
    net::push_nsh(pkt, 1 + static_cast<std::uint32_t>(pick(3)),
                  static_cast<std::uint8_t>(pick(3)));
  }
  if (pick(4) == 0) net::push_vlan(pkt, static_cast<std::uint16_t>(pick(8)));
  return pkt;
}

TEST(SwitchParity, LoweredPipelineMatchesNameKeyedReference) {
  std::mt19937_64 rng(20201201);
  topo::PisaSwitchSpec spec;
  spec.stages = 64;
  int drops = 0;
  int hits = 0;
  for (int program = 0; program < 150; ++program) {
    const P4Program prog = random_switch_program(rng);
    PisaSwitch sw(prog, spec);
    const CompileResult compiled = sw.load();
    ASSERT_TRUE(compiled.ok) << compiled.error;
    std::vector<std::vector<TableEntry>> entries(prog.tables.size());
    for (std::size_t t = 0; t < prog.tables.size(); ++t) {
      const TableDef& def = prog.tables[t];
      for (int n = std::uniform_int_distribution<int>(0, 16)(rng); n > 0;
           --n) {
        TableEntry e = random_entry(rng, def);
        const bool valid = def.find_action(e.action) != nullptr &&
                           static_cast<int>(entries[t].size()) < def.size;
        ASSERT_EQ(sw.add_entry(def.name, e), valid);
        if (valid) entries[t].push_back(std::move(e));
      }
    }
    for (int i = 0; i < 40; ++i) {
      net::Packet pkt = random_packet(rng);
      net::Packet ref_pkt = pkt;
      const auto got = sw.process(pkt);
      const auto want = reference_process(prog, compiled, entries, ref_pkt);
      ASSERT_EQ(got.dropped, want.dropped) << "program " << program;
      ASSERT_EQ(got.drop_table, want.drop_table) << "program " << program;
      ASSERT_EQ(got.egress_port, want.egress_port) << "program " << program;
      ASSERT_EQ(pkt.drop, ref_pkt.drop) << "program " << program;
      ASSERT_EQ(pkt.data, ref_pkt.data) << "program " << program;
      drops += got.dropped ? 1 : 0;
      hits += got.egress_port != 0 ? 1 : 0;
    }
  }
  // The fuzz must exercise both outcomes, not just pass vacuously.
  EXPECT_GT(drops, 100);
  EXPECT_GT(hits, 100);
}

// --- Printer ----------------------------------------------------------------

TEST(Printer, EmitsParseableStructure) {
  const P4Program prog = acl_fwd_program();
  const std::string text = print_program(prog);
  EXPECT_NE(text.find("table acl"), std::string::npos);
  EXPECT_NE(text.find("table fwd"), std::string::npos);
  EXPECT_NE(text.find("control ingress"), std::string::npos);
  EXPECT_GT(count_program_lines(prog), 10);
}

// Property: for any number of independent tables, packed stages <=
// conservative estimate, and both are >= 1.
class PackingProperty : public ::testing::TestWithParam<int> {};

TEST_P(PackingProperty, PackingNeverWorseThanConservative) {
  const int n = GetParam();
  P4Program prog;
  for (int i = 0; i < n; ++i) {
    prog.tables.push_back(
        make_table("t" + std::to_string(i),
                   {{"ipv4.dst", MatchKind::kExact, 32}},
                   {action_set_meta("s" + std::to_string(i),
                                    "meta.m" + std::to_string(i), 1)}));
    prog.control.push_back({i, {}});
  }
  topo::PisaSwitchSpec spec;
  spec.stages = 64;
  auto r = compile(prog, spec);
  ASSERT_TRUE(r.ok);
  EXPECT_LE(r.stages_required, estimate_stages_conservative(prog));
  EXPECT_GE(r.stages_required, (n + spec.tables_per_stage - 1) /
                                   spec.tables_per_stage);
}

INSTANTIATE_TEST_SUITE_P(TableCounts, PackingProperty,
                         ::testing::Values(1, 2, 4, 7, 12, 20, 33));

}  // namespace
}  // namespace lemur::pisa
