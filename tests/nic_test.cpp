// Tests for the eBPF SmartNIC substrate: assembler, verifier restrictions
// (the paper's appendix A.3 constraints), interpreter semantics, helper
// calls, and the generated XDP NF programs. The rack's NIC stage, which
// runs these programs, is tested in placement_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <random>

#include "src/net/packet_builder.h"
#include "src/nf/ebpf/ebpf_nfs.h"
#include "src/nf/software/crypto_nfs.h"
#include "src/nf/software/header_nfs.h"
#include "src/nf/software/stateful_nfs.h"
#include "src/nic/assembler.h"
#include "src/nic/interpreter.h"
#include "src/nic/verifier.h"

namespace lemur::nic {
namespace {

using net::Ipv4Addr;
using net::PacketBuilder;

Program pass_program() {
  Assembler a;
  a.mov_imm(Reg::kR0, static_cast<std::int64_t>(XdpAction::kPass));
  a.exit();
  return *a.finish();
}

// --- Assembler ----------------------------------------------------------------

TEST(Assembler, ResolvesForwardLabels) {
  Assembler a;
  auto skip = a.make_label();
  a.mov_imm(Reg::kR0, 1);
  a.jmp_imm(Op::kJeqImm, Reg::kR0, 1, skip);
  a.mov_imm(Reg::kR0, 99);  // Skipped.
  a.bind(skip);
  a.exit();
  auto program = a.finish();
  ASSERT_TRUE(program.has_value());
  EXPECT_EQ((*program)[1].offset, 3);
}

TEST(Assembler, RejectsBackEdge) {
  Assembler a;
  auto loop = a.make_label();
  a.bind(loop);
  a.mov_imm(Reg::kR0, 1);
  a.ja(loop);
  a.exit();
  EXPECT_FALSE(a.finish().has_value());
  EXPECT_NE(a.error().find("back edge"), std::string::npos);
}

TEST(Assembler, RejectsUnresolvedLabel) {
  Assembler a;
  auto dangling = a.make_label();
  a.ja(dangling);
  a.exit();
  EXPECT_FALSE(a.finish().has_value());
}

// --- Verifier -------------------------------------------------------------------

TEST(Verifier, AcceptsMinimalProgram) {
  auto r = verify(pass_program());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.instructions, 2);
}

TEST(Verifier, RejectsEmptyProgram) {
  EXPECT_FALSE(verify({}).ok);
}

TEST(Verifier, RejectsOversizedProgram) {
  Program program;
  for (int i = 0; i < kMaxInstructions; ++i) {
    program.push_back({Op::kMovImm, Reg::kR0, Reg::kR0, 0, 0});
  }
  program.push_back({Op::kExit});
  auto r = verify(program);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("4196"), std::string::npos);
}

TEST(Verifier, RejectsBackEdgeJump) {
  Program program;
  program.push_back({Op::kMovImm, Reg::kR0, Reg::kR0, 0, 2});
  program.push_back({Op::kJa, Reg::kR0, Reg::kR0, 0, 0});  // Target 0.
  program.push_back({Op::kExit});
  auto r = verify(program);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("back-edge"), std::string::npos);
}

TEST(Verifier, RejectsMissingExit) {
  Program program;
  program.push_back({Op::kMovImm, Reg::kR0, Reg::kR0, 0, 2});
  EXPECT_FALSE(verify(program).ok);
}

TEST(Verifier, RejectsFramePointerWrite) {
  Program program;
  program.push_back({Op::kMovImm, Reg::kR10, Reg::kR0, 0, 0});
  program.push_back({Op::kExit});
  auto r = verify(program);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("r10"), std::string::npos);
}

TEST(Verifier, RejectsStackOutOfBounds) {
  Program program;
  // Store at r10 - 600: outside the 512-byte frame.
  program.push_back({Op::kStxW, Reg::kR10, Reg::kR0, -600, 0});
  program.push_back({Op::kExit});
  auto r = verify(program);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("512"), std::string::npos);
  // And a positive offset (above the frame) is also rejected.
  program[0].offset = 4;
  EXPECT_FALSE(verify(program).ok);
}

TEST(Verifier, TracksMaxStackUsage) {
  Program program;
  program.push_back({Op::kStxW, Reg::kR10, Reg::kR0, -128, 0});
  program.push_back({Op::kStxB, Reg::kR10, Reg::kR0, -256, 0});
  program.push_back({Op::kExit});
  auto r = verify(program);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.max_stack_bytes, 256);
}

TEST(Verifier, RejectsUnknownHelperAndDivByZero) {
  Program program;
  program.push_back({Op::kCall, Reg::kR0, Reg::kR0, 0, 999});
  program.push_back({Op::kExit});
  EXPECT_FALSE(verify(program).ok);
  program[0] = {Op::kDivImm, Reg::kR1, Reg::kR0, 0, 0};
  EXPECT_FALSE(verify(program).ok);
}

TEST(Verifier, AcceptsMaximallySizedProgram) {
  Program program;
  for (int i = 0; i < kMaxInstructions - 1; ++i) {
    program.push_back({Op::kMovImm, Reg::kR0, Reg::kR0, 0, 2});
  }
  program.push_back({Op::kExit});
  EXPECT_TRUE(verify(program).ok);
}

// --- Interpreter ----------------------------------------------------------------

TEST(Interpreter, AluAndExit) {
  Assembler a;
  a.mov_imm(Reg::kR3, 10);
  a.alu_imm(Op::kMulImm, Reg::kR3, 7);
  a.alu_imm(Op::kSubImm, Reg::kR3, 68);
  a.mov_reg(Reg::kR0, Reg::kR3);  // 2 = XDP_PASS.
  a.exit();
  auto pkt = PacketBuilder().build();
  auto r = execute(*a.finish(), pkt, {});
  EXPECT_EQ(r.action, XdpAction::kPass);
  EXPECT_EQ(r.instructions_executed, 5u);
}

TEST(Interpreter, PacketLoadsAreNetworkOrder) {
  Assembler a;
  // EtherType at offset 12 of an IPv4 frame is 0x0800.
  a.ldx(Op::kLdxH, Reg::kR3, Reg::kR1, 12);
  auto ok = a.make_label();
  a.jmp_imm(Op::kJeqImm, Reg::kR3, 0x0800, ok);
  a.mov_imm(Reg::kR0, static_cast<std::int64_t>(XdpAction::kDrop));
  a.exit();
  a.bind(ok);
  a.mov_imm(Reg::kR0, static_cast<std::int64_t>(XdpAction::kPass));
  a.exit();
  auto pkt = PacketBuilder().build();
  EXPECT_EQ(execute(*a.finish(), pkt, {}).action, XdpAction::kPass);
}

TEST(Interpreter, PacketStoreMutatesBytes) {
  Assembler a;
  a.mov_imm(Reg::kR3, 0xBEEF);
  a.stx(Op::kStxH, Reg::kR1, 0, Reg::kR3);
  a.mov_imm(Reg::kR0, static_cast<std::int64_t>(XdpAction::kTx));
  a.exit();
  auto pkt = PacketBuilder().build();
  execute(*a.finish(), pkt, {});
  EXPECT_EQ(pkt.data[0], 0xBE);
  EXPECT_EQ(pkt.data[1], 0xEF);
}

TEST(Interpreter, OutOfBoundsLoadAborts) {
  Assembler a;
  a.ldx(Op::kLdxW, Reg::kR3, Reg::kR1, 10000);
  a.mov_imm(Reg::kR0, static_cast<std::int64_t>(XdpAction::kPass));
  a.exit();
  auto pkt = PacketBuilder().frame_size(100).build();
  auto r = execute(*a.finish(), pkt, {});
  EXPECT_EQ(r.action, XdpAction::kAborted);
  EXPECT_FALSE(r.error.empty());
}

TEST(Interpreter, StackReadWriteRoundTrip) {
  Assembler a;
  a.mov_imm(Reg::kR3, 0x1234567890ll);
  a.stx(Op::kStxDw, Reg::kR10, -8, Reg::kR3);
  a.ldx(Op::kLdxDw, Reg::kR4, Reg::kR10, -8);
  auto ok = a.make_label();
  a.jmp_reg(Op::kJeqReg, Reg::kR4, Reg::kR3, ok);
  a.mov_imm(Reg::kR0, static_cast<std::int64_t>(XdpAction::kDrop));
  a.exit();
  a.bind(ok);
  a.mov_imm(Reg::kR0, static_cast<std::int64_t>(XdpAction::kPass));
  a.exit();
  auto pkt = PacketBuilder().build();
  EXPECT_EQ(execute(*a.finish(), pkt, {}).action, XdpAction::kPass);
}

TEST(Interpreter, DivisionByZeroRegAborts) {
  Assembler a;
  a.mov_imm(Reg::kR3, 5);
  a.mov_imm(Reg::kR4, 0);
  a.alu_reg(Op::kDivReg, Reg::kR3, Reg::kR4);
  a.exit();
  auto pkt = PacketBuilder().build();
  EXPECT_EQ(execute(*a.finish(), pkt, {}).action, XdpAction::kAborted);
}

TEST(Interpreter, InvalidActionValueAborts) {
  Assembler a;
  a.mov_imm(Reg::kR0, 77);
  a.exit();
  auto pkt = PacketBuilder().build();
  EXPECT_EQ(execute(*a.finish(), pkt, {}).action, XdpAction::kAborted);
}

TEST(Interpreter, AdjustHeadGrowAndShrink) {
  Assembler a;
  a.mov_imm(Reg::kR1, -8);
  a.call(Helper::kAdjustHead);
  a.mov_reg(Reg::kR9, Reg::kR2);  // New length.
  a.mov_imm(Reg::kR1, 8);
  a.call(Helper::kAdjustHead);
  a.mov_imm(Reg::kR0, static_cast<std::int64_t>(XdpAction::kTx));
  a.exit();
  auto pkt = PacketBuilder().frame_size(100).build();
  const auto original = pkt.data;
  auto r = execute(*a.finish(), pkt, {});
  EXPECT_EQ(r.action, XdpAction::kTx);
  EXPECT_EQ(pkt.data, original);  // Grow then shrink restores the frame.
}

TEST(Interpreter, HelperRangesThatWrapAbort) {
  // r1 = 2^64 - 1: offset + length wraps to a small in-packet value, yet
  // the range starts outside the packet.
  for (const Helper helper : {Helper::kChaCha20, Helper::kIpv4CsumFixup}) {
    Assembler a;
    a.mov_imm(Reg::kR1, -1);
    a.mov_imm(Reg::kR2, 2);
    a.call(helper);
    a.mov_imm(Reg::kR0, static_cast<std::int64_t>(XdpAction::kTx));
    a.exit();
    auto pkt = PacketBuilder().frame_size(100).build();
    EXPECT_EQ(execute(*a.finish(), pkt, {}).action, XdpAction::kAborted)
        << "helper " << static_cast<int>(helper);
  }
}

// --- Generated NF programs --------------------------------------------------------

TEST(EbpfNf, AllGeneratedProgramsVerify) {
  using nf::NfConfig;
  using nf::NfType;
  for (const auto& spec : nf::all_nf_specs()) {
    NfConfig config;
    if (spec.type == NfType::kAcl) {
      config.rules.push_back({{"dst_ip", "10.0.0.0/8"}, {"drop", "True"}});
    }
    auto program = nf::ebpf::generate(spec.type, config);
    EXPECT_EQ(program.has_value(), spec.has_ebpf)
        << spec.name << ": eBPF availability must match Table 3";
    if (program) {
      auto r = verify(*program);
      EXPECT_TRUE(r.ok) << spec.name << ": " << r.error;
    }
  }
}

TEST(EbpfNf, FastEncryptMatchesSoftwareChaCha) {
  // The NIC program and the software NF must produce identical bytes so
  // the Placer can move FastEncrypt freely between platforms.
  nf::NfConfig config;
  auto pkt_sw = PacketBuilder().payload_text("the quick brown fox").build();
  auto pkt_nic = pkt_sw;

  nf::FastEncryptNf software(config);
  software.process(pkt_sw);

  HelperConfig helpers;
  nf::derive_key_material("lemur-chacha-key", helpers.chacha_key);
  nf::derive_key_material("lemur-nonce", helpers.chacha_nonce);
  auto program = nf::ebpf::gen_fast_encrypt();
  ASSERT_TRUE(verify(program).ok);
  auto r = execute(program, pkt_nic, helpers);
  EXPECT_EQ(r.action, XdpAction::kTx);
  EXPECT_EQ(pkt_nic.data, pkt_sw.data);
}

TEST(EbpfNf, FastEncryptHandlesNshShim) {
  nf::NfConfig config;
  auto pkt = PacketBuilder().payload_text("payload under nsh").build();
  auto reference = pkt;
  nf::FastEncryptNf software(config);
  software.process(reference);

  net::push_nsh(pkt, 5, 100);
  HelperConfig helpers;
  nf::derive_key_material("lemur-chacha-key", helpers.chacha_key);
  nf::derive_key_material("lemur-nonce", helpers.chacha_nonce);
  auto r = execute(nf::ebpf::gen_fast_encrypt(), pkt, helpers);
  EXPECT_EQ(r.action, XdpAction::kTx);
  net::pop_nsh(pkt);
  EXPECT_EQ(pkt.data, reference.data);
}

TEST(EbpfNf, FastEncryptWithOneKeptKeystreamMatchesAFreshCipherPerPacket) {
  // One keystream, kept across 500 payloads of 0..9216 B in random order
  // as the NIC stage keeps one per NF, half of them under an NSH shim: it
  // grows and is reused, and every packet must still see counter 0 onwards.
  std::array<std::uint8_t, nf::crypto::ChaCha20::kKeySize> key;
  std::array<std::uint8_t, nf::crypto::ChaCha20::kNonceSize> nonce;
  nf::derive_key_material("lemur-chacha-key", key);
  nf::derive_key_material("lemur-nonce", nonce);
  auto chacha = nf::make_keystream({});
  const auto program = nf::ebpf::gen_fast_encrypt();
  std::mt19937_64 rng(23);
  std::uniform_int_distribution<std::size_t> length(0, 9216);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> payload(length(rng));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    auto pkt = PacketBuilder().payload(payload).build();
    auto expected = pkt;
    nf::crypto::ChaCha20(key, nonce, 0).apply(nf::l4_payload(expected));
    const bool shim = i % 2 == 1;
    if (shim) net::push_nsh(pkt, 5, 100);
    ASSERT_EQ(execute(program, pkt, chacha).action, XdpAction::kTx)
        << "packet " << i;
    if (shim) net::pop_nsh(pkt);
    ASSERT_EQ(pkt.data, expected.data)
        << "packet " << i << " payload " << payload.size();
  }
}

TEST(EbpfNf, TunnelPushesVlanIdenticalToSoftware) {
  auto pkt_sw = PacketBuilder().frame_size(100).build();
  auto pkt_nic = pkt_sw;
  nf::NfConfig config;
  config.ints["vlan_tag"] = 0x2a5;
  nf::TunnelNf software(config);
  software.process(pkt_sw);

  auto r = execute(nf::ebpf::gen_tunnel(0x2a5), pkt_nic, {});
  EXPECT_EQ(r.action, XdpAction::kTx);
  EXPECT_EQ(pkt_nic.data, pkt_sw.data);
}

TEST(EbpfNf, DetunnelPopsVlan) {
  auto pkt = PacketBuilder().frame_size(100).build();
  const auto original = pkt.data;
  net::push_vlan(pkt, 0x99);
  auto r = execute(nf::ebpf::gen_detunnel(), pkt, {});
  EXPECT_EQ(r.action, XdpAction::kTx);
  EXPECT_EQ(pkt.data, original);
}

TEST(EbpfNf, DetunnelPassesUntagged) {
  auto pkt = PacketBuilder().frame_size(100).build();
  const auto original = pkt.data;
  execute(nf::ebpf::gen_detunnel(), pkt, {});
  EXPECT_EQ(pkt.data, original);
}

TEST(EbpfNf, Ipv4FwdLongestPrefixWins) {
  std::vector<nf::ebpf::EbpfRoute> routes = {
      {0x0a000000, 8, 1},
      {0x0a010000, 16, 2},
  };
  auto program = nf::ebpf::gen_ipv4fwd(routes);
  ASSERT_TRUE(verify(program).ok);
  auto pkt = PacketBuilder().dst_ip(*Ipv4Addr::parse("10.1.5.5")).build();
  execute(program, pkt, {});
  EXPECT_EQ(pkt.data[5], 2);  // Port byte in the rewritten MAC.
  auto pkt2 = PacketBuilder().dst_ip(*Ipv4Addr::parse("10.9.5.5")).build();
  execute(program, pkt2, {});
  EXPECT_EQ(pkt2.data[5], 1);
}

TEST(EbpfNf, AclDropsAndPermitsLikeSoftware) {
  nf::NfConfig config;
  config.rules.push_back({{"src_ip", "10.9.0.0/16"}, {"drop", "True"}});
  config.rules.push_back({{"dst_port", "22"}, {"drop", "True"}});
  auto rules = nf::parse_acl_rules(config);
  auto program = nf::ebpf::gen_acl(rules);
  ASSERT_TRUE(verify(program).ok);
  nf::AclNf software(config);

  const std::vector<std::pair<std::string, std::uint16_t>> cases = {
      {"10.9.1.1", 80}, {"10.8.1.1", 80}, {"10.8.1.1", 22}, {"8.8.8.8", 443}};
  for (const auto& [src, dport] : cases) {
    auto pkt_nic = PacketBuilder()
                       .src_ip(*Ipv4Addr::parse(src))
                       .dst_port(dport)
                       .build();
    auto pkt_sw = pkt_nic;
    const bool sw_drop = software.process(pkt_sw) == nf::SoftwareNf::kDrop;
    const auto r = execute(program, pkt_nic, {});
    EXPECT_EQ(r.action == XdpAction::kDrop, sw_drop)
        << src << ":" << dport;
  }
}

TEST(EbpfNf, LbRewritesVipConsistently) {
  auto program = nf::ebpf::gen_lb(0x0a640001, 0x0ac80001, 4);
  ASSERT_TRUE(verify(program).ok);
  auto pkt = PacketBuilder()
                 .dst_ip(*Ipv4Addr::parse("10.100.0.1"))
                 .src_port(777)
                 .build();
  execute(program, pkt, {});
  auto layers = net::ParsedLayers::parse(pkt);
  ASSERT_TRUE(layers.has_value());
  ASSERT_TRUE(layers->ipv4.has_value()) << "checksum must be fixed up";
  const auto backend = layers->ipv4->dst;
  EXPECT_NE(backend.value, 0x0a640001u);
  EXPECT_GE(backend.value, 0x0ac80001u);
  EXPECT_LT(backend.value, 0x0ac80005u);
  // Same flow -> same backend (hash determinism).
  auto pkt2 = PacketBuilder()
                  .dst_ip(*Ipv4Addr::parse("10.100.0.1"))
                  .src_port(777)
                  .build();
  execute(program, pkt2, {});
  EXPECT_EQ(net::ParsedLayers::parse(pkt2)->ipv4->dst, backend);
}

TEST(EbpfNf, MatchMarksDscp) {
  nf::NfConfig config;
  config.rules.push_back({{"field", "dst_port"}, {"value", "80"},
                          {"gate", "3"}});
  nf::MatchNf reference(config);
  auto program = nf::ebpf::gen_match(reference.match_rules());
  ASSERT_TRUE(verify(program).ok);
  auto hit = PacketBuilder().dst_port(80).build();
  execute(program, hit, {});
  auto layers = net::ParsedLayers::parse(hit);
  ASSERT_TRUE(layers->ipv4.has_value());
  EXPECT_EQ(layers->ipv4->dscp, 3);
  auto miss = PacketBuilder().dst_port(81).build();
  execute(program, miss, {});
  EXPECT_EQ(net::ParsedLayers::parse(miss)->ipv4->dscp, 0);
}

TEST(EbpfNf, LargeAclStillUnderInstructionLimit) {
  nf::NfConfig config;
  for (int i = 0; i < 300; ++i) {
    config.rules.push_back(
        {{"src_ip", "10." + std::to_string(i % 256) + ".0.0/16"},
         {"drop", i % 2 == 0 ? "True" : "False"}});
  }
  auto program = nf::ebpf::gen_acl(nf::parse_acl_rules(config));
  auto r = verify(program);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_LE(r.instructions, kMaxInstructions);
}

TEST(EbpfNf, DescribeEmitsDisassembly) {
  const std::string text =
      nf::ebpf::describe(nf::NfType::kFastEncrypt, nf::NfConfig{});
  EXPECT_NE(text.find("XDP program"), std::string::npos);
  EXPECT_NE(text.find("exit"), std::string::npos);
}

}  // namespace
}  // namespace lemur::nic
