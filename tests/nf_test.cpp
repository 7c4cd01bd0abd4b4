// Tests for the NF library: crypto primitives against official vectors,
// every software NF's packet behaviour, the registry, and the NfModule
// cost model.
#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "src/bess/queue.h"
#include "src/net/packet_builder.h"
#include "src/nf/crypto/aes128.h"
#include "src/nf/crypto/chacha20.h"
#include "src/nf/software/crypto_nfs.h"
#include "src/nf/software/factory.h"
#include "src/nf/software/header_nfs.h"
#include "src/nf/software/payload_nfs.h"
#include "src/nf/software/stateful_nfs.h"

namespace lemur::nf {
namespace {

using net::Ipv4Addr;
using net::PacketBuilder;

// --- Registry ---------------------------------------------------------------

TEST(Registry, HasAllFourteenNfs) {
  EXPECT_EQ(all_nf_specs().size(), static_cast<std::size_t>(kNumNfTypes));
}

TEST(Registry, Table3PlatformMatrix) {
  EXPECT_FALSE(spec_of(NfType::kEncrypt).has_p4);
  EXPECT_FALSE(spec_of(NfType::kDedup).has_p4);
  EXPECT_TRUE(spec_of(NfType::kAcl).has_p4);
  EXPECT_TRUE(spec_of(NfType::kAcl).has_ebpf);
  EXPECT_TRUE(spec_of(NfType::kAcl).has_openflow);
  EXPECT_TRUE(spec_of(NfType::kFastEncrypt).has_ebpf);
  EXPECT_FALSE(spec_of(NfType::kFastEncrypt).has_p4);
  EXPECT_TRUE(spec_of(NfType::kNat).has_p4);
  EXPECT_FALSE(spec_of(NfType::kNat).has_ebpf);
  // Every NF has a C++ implementation.
  for (const auto& s : all_nf_specs()) EXPECT_TRUE(s.has_cpp);
}

TEST(Registry, TwoNonReplicableNfs) {
  int non_replicable = 0;
  for (const auto& s : all_nf_specs()) {
    if (!s.replicable) ++non_replicable;
  }
  EXPECT_EQ(non_replicable, 2);  // Limiter and Monitor (Table 3 bold).
  EXPECT_FALSE(spec_of(NfType::kLimiter).replicable);
  EXPECT_FALSE(spec_of(NfType::kMonitor).replicable);
}

TEST(Registry, NameResolutionAndAliases) {
  EXPECT_EQ(nf_type_from_name("ACL"), NfType::kAcl);
  EXPECT_EQ(nf_type_from_name("BPF"), NfType::kMatch);
  EXPECT_EQ(nf_type_from_name("Encryption"), NfType::kEncrypt);
  EXPECT_EQ(nf_type_from_name("Forward"), NfType::kIpv4Fwd);
  EXPECT_EQ(nf_type_from_name("FastEncrypt"), NfType::kFastEncrypt);
  EXPECT_FALSE(nf_type_from_name("NoSuchNf").has_value());
}

TEST(Registry, Table4CalibratedCosts) {
  EXPECT_EQ(spec_of(NfType::kEncrypt).cycle_cost, 8593u);
  EXPECT_EQ(spec_of(NfType::kDedup).cycle_cost, 30182u);
  EXPECT_EQ(spec_of(NfType::kAcl).cycle_cost, 3841u);
  EXPECT_EQ(spec_of(NfType::kNat).cycle_cost, 463u);
}

TEST(Registry, LinearCostModelForAcl) {
  NfConfig small;
  small.ints["rules_size"] = 16;
  NfConfig big;
  big.ints["rules_size"] = 4096;
  const auto cost_small = effective_cycle_cost(NfType::kAcl, small);
  const auto cost_big = effective_cycle_cost(NfType::kAcl, big);
  EXPECT_LT(cost_small, cost_big);
  // At the measured point the model returns the measured cost.
  NfConfig at_1024;
  at_1024.ints["rules_size"] = 1024;
  EXPECT_NEAR(static_cast<double>(
                  effective_cycle_cost(NfType::kAcl, at_1024)),
              3841.0, 2.0);
}

// --- Crypto primitives -------------------------------------------------------

TEST(Aes128, Fips197Vector) {
  // FIPS-197 appendix C.1.
  std::array<std::uint8_t, 16> key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05,
                                      0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b,
                                      0x0c, 0x0d, 0x0e, 0x0f};
  std::array<std::uint8_t, 16> block = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55,
                                        0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb,
                                        0xcc, 0xdd, 0xee, 0xff};
  const std::array<std::uint8_t, 16> expected = {
      0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
      0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  const std::array<std::uint8_t, 16> plain = block;
  crypto::Aes128 cipher(key);
  cipher.encrypt_block(block);
  EXPECT_EQ(block, expected);
  cipher.decrypt_block(block);
  EXPECT_EQ(block, plain);
  // The reference and T-table paths, which encrypt_block bypasses on
  // AES-NI hosts, must hit the same vector.
  for (const auto& [encrypt, decrypt] :
       {std::pair{&crypto::Aes128::encrypt_reference,
                  &crypto::Aes128::decrypt_reference},
        std::pair{&crypto::Aes128::encrypt_tables,
                  &crypto::Aes128::decrypt_tables}}) {
    block = plain;
    (cipher.*encrypt)(block);
    EXPECT_EQ(block, expected);
    (cipher.*decrypt)(block);
    EXPECT_EQ(block, plain);
  }
}

TEST(Aes128, CbcRoundTripAllLengths) {
  std::array<std::uint8_t, 16> key{};
  std::array<std::uint8_t, 16> iv{};
  derive_key_material("k", key);
  derive_key_material("iv", iv);
  crypto::Aes128 cipher(key);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 48u, 100u, 1000u}) {
    std::vector<std::uint8_t> data(len);
    for (std::size_t i = 0; i < len; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 7 + 1);
    }
    std::vector<std::uint8_t> original = data;
    crypto::aes128_cbc_encrypt(cipher, iv, data);
    if (len >= 16) {
      EXPECT_NE(data, original) << "len " << len;
    }
    crypto::aes128_cbc_decrypt(cipher, iv, data);
    EXPECT_EQ(data, original) << "len " << len;
  }
}

TEST(ChaCha20, Rfc8439BlockVector) {
  // RFC 8439 section 2.3.2.
  std::array<std::uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  std::array<std::uint8_t, 12> nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                                        0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  crypto::ChaCha20 cipher(key, nonce);
  std::array<std::uint8_t, 64> block;
  cipher.block(1, block);
  const std::array<std::uint8_t, 16> expected_prefix = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15,
      0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20, 0x71, 0xc4};
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(block[i], expected_prefix[i]) << "byte " << i;
  }
  EXPECT_EQ(block[63], 0x4e);
}

TEST(ChaCha20, Rfc8439EncryptVector) {
  // RFC 8439 section 2.4.2 ("sunscreen" plaintext).
  std::array<std::uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  std::array<std::uint8_t, 12> nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                                        0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  std::string text =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::vector<std::uint8_t> data(text.begin(), text.end());
  crypto::ChaCha20 cipher(key, nonce, 1);
  cipher.apply(data);
  const std::array<std::uint8_t, 8> expected_prefix = {
      0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80};
  for (std::size_t i = 0; i < expected_prefix.size(); ++i) {
    EXPECT_EQ(data[i], expected_prefix[i]) << "byte " << i;
  }
}

TEST(ChaCha20, ApplyIsInvolution) {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  derive_key_material("key", key);
  derive_key_material("nonce", nonce);
  std::vector<std::uint8_t> data(200, 0xab);
  const auto original = data;
  crypto::ChaCha20 enc(key, nonce);
  enc.apply(data);
  EXPECT_NE(data, original);
  crypto::ChaCha20 dec(key, nonce);
  dec.apply(data);
  EXPECT_EQ(data, original);
}

/// 500 lengths in 0..9216 B (a jumbo frame), in random order, so a
/// keystream both grows and is reused.
std::vector<std::size_t> random_lengths() {
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<std::size_t> len(0, 9216);
  std::vector<std::size_t> out(500);
  for (auto& n : out) n = len(rng);
  return out;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(ChaCha20Keystream, MatchesAFreshCipherPerMessage) {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  derive_key_material("key", key);
  derive_key_material("nonce", nonce);
  crypto::ChaCha20Keystream stream(key, nonce);
  std::uint64_t seed = 0;
  for (const std::size_t n : random_lengths()) {
    auto data = random_bytes(n, ++seed);
    auto expected = data;
    crypto::ChaCha20(key, nonce, 0).apply(expected);
    stream.xor_into(data);
    ASSERT_EQ(data, expected) << "length " << n;
  }
}

// --- Crypto NFs -------------------------------------------------------------

net::Packet payload_packet(std::string_view text, std::size_t frame = 0) {
  auto b = PacketBuilder().payload_text(text);
  if (frame != 0) b.frame_size(frame);
  return b.build();
}

TEST(EncryptNf, EncryptThenDecryptRestoresPayload) {
  auto pkt = payload_packet("attack at dawn, bring snacks");
  const auto original = pkt.data;
  EncryptNf enc(NfConfig{}, false);
  EncryptNf dec(NfConfig{}, true);
  EXPECT_EQ(enc.process(pkt), 0);
  EXPECT_NE(pkt.data, original);
  EXPECT_EQ(pkt.data.size(), original.size());  // Length-preserving.
  EXPECT_EQ(dec.process(pkt), 0);
  EXPECT_EQ(pkt.data, original);
}

TEST(EncryptNf, HeadersStayIntact) {
  auto pkt = payload_packet("secret payload for header check");
  EncryptNf enc(NfConfig{}, false);
  enc.process(pkt);
  auto layers = net::ParsedLayers::parse(pkt);
  ASSERT_TRUE(layers.has_value());
  EXPECT_TRUE(layers->ipv4.has_value());
  EXPECT_TRUE(layers->udp.has_value());
}

TEST(FastEncryptNf, RoundTripsAndDiffersFromAes) {
  auto pkt = payload_packet("chacha contents here padded out 1234");
  const auto original = pkt.data;
  FastEncryptNf fast(NfConfig{});
  fast.process(pkt);
  EXPECT_NE(pkt.data, original);
  FastEncryptNf fast2(NfConfig{});
  fast2.process(pkt);  // XOR stream: second pass decrypts.
  EXPECT_EQ(pkt.data, original);
}

TEST(FastEncryptNf, MatchesAFreshCipherPerPacket) {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  derive_key_material("lemur-chacha-key", key);
  derive_key_material("lemur-nonce", nonce);
  FastEncryptNf fast(NfConfig{});
  std::uint64_t seed = 0;
  for (const std::size_t n : random_lengths()) {
    const auto payload = random_bytes(n, ++seed);
    auto pkt = PacketBuilder().payload(payload).build();
    auto expected = payload;
    crypto::ChaCha20(key, nonce, 0).apply(expected);
    EXPECT_EQ(fast.process(pkt), 0);
    const auto got = l4_payload(pkt);
    ASSERT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()), expected)
        << "length " << n;
  }
}

// --- Header NFs -------------------------------------------------------------

TEST(TunnelNf, PushesConfiguredVlanAndDetunnelPops) {
  NfConfig config;
  config.ints["vlan_tag"] = 0x123;
  TunnelNf tunnel(config);
  DetunnelNf detunnel(NfConfig{});
  auto pkt = PacketBuilder().frame_size(100).build();
  tunnel.process(pkt);
  auto layers = net::ParsedLayers::parse(pkt);
  ASSERT_TRUE(layers->vlan.has_value());
  EXPECT_EQ(layers->vlan->vid, 0x123);
  detunnel.process(pkt);
  EXPECT_FALSE(net::ParsedLayers::parse(pkt)->vlan.has_value());
}

TEST(Ipv4FwdNf, LongestPrefixWinsAndRewritesMac) {
  NfConfig config;
  config.rules.push_back({{"prefix", "10.0.0.0/8"}, {"port", "1"}});
  config.rules.push_back({{"prefix", "10.1.0.0/16"}, {"port", "2"}});
  Ipv4FwdNf fwd(config);
  auto pkt = PacketBuilder().dst_ip(*Ipv4Addr::parse("10.1.9.9")).build();
  fwd.process(pkt);
  EXPECT_EQ(pkt.ingress_port, 2u);
  EXPECT_EQ(pkt.data[5], 2);  // Next-hop MAC low byte = port.
  auto pkt2 = PacketBuilder().dst_ip(*Ipv4Addr::parse("10.2.9.9")).build();
  fwd.process(pkt2);
  EXPECT_EQ(pkt2.ingress_port, 1u);
}

TEST(Ipv4FwdNf, MissLeavesFrameAsItCame) {
  // As the eBPF program and the P4 table's nop default do.
  NfConfig config;
  config.rules.push_back({{"prefix", "10.0.0.0/8"}, {"port", "1"}});
  Ipv4FwdNf fwd(config);
  auto pkt = PacketBuilder().dst_ip(*Ipv4Addr::parse("192.0.2.1")).build();
  pkt.ingress_port = 7;
  const auto before = pkt.data;
  EXPECT_EQ(fwd.process(pkt), 0);
  EXPECT_EQ(pkt.data, before);
  EXPECT_EQ(pkt.ingress_port, 7u);
}

TEST(AclNf, PaperExampleRule) {
  // ACL(rules=[{'dst_ip':'10.0.0.0/8','drop': False}]) plus catch-all drop.
  NfConfig config;
  config.rules.push_back({{"dst_ip", "10.0.0.0/8"}, {"drop", "False"}});
  config.rules.push_back({{"dst_ip", "0.0.0.0/0"}, {"drop", "True"}});
  AclNf acl(config);
  auto inside = PacketBuilder().dst_ip(*Ipv4Addr::parse("10.3.0.1")).build();
  EXPECT_EQ(acl.process(inside), 0);
  auto outside = PacketBuilder().dst_ip(*Ipv4Addr::parse("8.8.8.8")).build();
  EXPECT_EQ(acl.process(outside), SoftwareNf::kDrop);
}

TEST(AclNf, PortAndProtoMatching) {
  NfConfig config;
  config.rules.push_back({{"dst_port", "22"}, {"proto", "6"},
                          {"drop", "True"}});
  AclNf acl(config);
  auto ssh = PacketBuilder().proto(net::IpProto::kTcp).dst_port(22).build();
  EXPECT_EQ(acl.process(ssh), SoftwareNf::kDrop);
  auto udp22 = PacketBuilder().proto(net::IpProto::kUdp).dst_port(22).build();
  EXPECT_EQ(acl.process(udp22), 0);  // Wrong proto: permitted.
}

TEST(AclNf, DefaultPermitWithNoRules) {
  AclNf acl(NfConfig{});
  auto pkt = PacketBuilder().build();
  EXPECT_EQ(acl.process(pkt), 0);
}

TEST(MatchNf, VlanTagBranchSteering) {
  // The paper's branch example: packets with vlan_tag 0x1 go to gate 1.
  NfConfig config;
  config.rules.push_back({{"field", "vlan_tag"}, {"value", "0x1"},
                          {"gate", "1"}});
  MatchNf match(config);
  auto tagged = PacketBuilder().frame_size(100).build();
  net::push_vlan(tagged, 0x1);
  EXPECT_EQ(match.process(tagged), 1);
  auto untagged = PacketBuilder().frame_size(100).build();
  EXPECT_EQ(match.process(untagged), 0);
}

TEST(MatchNf, MultiRuleGateAssignment) {
  NfConfig config;
  config.rules.push_back({{"field", "dst_port"}, {"value", "80"}});
  config.rules.push_back({{"field", "dst_port"}, {"value", "443"}});
  MatchNf match(config);
  auto http = PacketBuilder().dst_port(80).build();
  auto https = PacketBuilder().dst_port(443).build();
  auto other = PacketBuilder().dst_port(9999).build();
  EXPECT_EQ(match.process(http), 1);
  EXPECT_EQ(match.process(https), 2);  // Auto-assigned next gate.
  EXPECT_EQ(match.process(other), 0);
}

// --- Stateful NFs -----------------------------------------------------------

TEST(LimiterNf, DropsAboveConfiguredRate) {
  NfConfig config;
  config.ints["rate_mbps"] = 8;  // 1 MB/s.
  config.ints["burst_kb"] = 1;
  LimiterNf limiter(config);
  std::uint64_t dropped = 0;
  // 100 x 1000B packets in 1 ms = 800 Mbps offered >> 8 Mbps allowed.
  for (int i = 0; i < 100; ++i) {
    auto pkt = PacketBuilder()
                   .frame_size(1000)
                   .arrival_ns(static_cast<std::uint64_t>(i) * 10000)
                   .build();
    if (limiter.process(pkt) == SoftwareNf::kDrop) ++dropped;
  }
  EXPECT_GT(dropped, 90u);
  EXPECT_EQ(limiter.dropped(), dropped);
}

TEST(LimiterNf, PassesBelowRate) {
  NfConfig config;
  config.ints["rate_mbps"] = 1000;
  LimiterNf limiter(config);
  // 10 x 100B packets spread over 1 ms = 8 Mbps << 1 Gbps.
  for (int i = 0; i < 10; ++i) {
    auto pkt = PacketBuilder()
                   .frame_size(100)
                   .arrival_ns(static_cast<std::uint64_t>(i) * 100000)
                   .build();
    EXPECT_EQ(limiter.process(pkt), 0);
  }
}

TEST(MonitorNf, CountsPerFlow) {
  MonitorNf monitor(NfConfig{});
  for (int i = 0; i < 3; ++i) {
    auto pkt = PacketBuilder().src_port(1000).frame_size(100).build();
    monitor.process(pkt);
  }
  auto pkt = PacketBuilder().src_port(2000).frame_size(200).build();
  monitor.process(pkt);
  ASSERT_EQ(monitor.stats().size(), 2u);
  std::uint64_t total_packets = 0;
  std::uint64_t total_bytes = 0;
  for (const auto& [flow, stats] : monitor.stats()) {
    total_packets += stats.packets;
    total_bytes += stats.bytes;
  }
  EXPECT_EQ(total_packets, 4u);
  EXPECT_EQ(total_bytes, 500u);
}

TEST(NatNf, ForwardAndReverseTranslation) {
  NfConfig config;
  config.strings["external_ip"] = "100.64.0.1";
  config.ints["port_base"] = 20000;
  NatNf nat(config);
  auto out_pkt = PacketBuilder()
                     .src_ip(*Ipv4Addr::parse("192.168.1.10"))
                     .src_port(5555)
                     .dst_ip(*Ipv4Addr::parse("8.8.8.8"))
                     .dst_port(53)
                     .build();
  ASSERT_EQ(nat.process(out_pkt), 0);
  auto layers = net::ParsedLayers::parse(out_pkt);
  EXPECT_EQ(layers->ipv4->src.to_string(), "100.64.0.1");
  EXPECT_EQ(layers->udp->src_port, 20000);
  EXPECT_EQ(nat.active_mappings(), 1u);

  // Reply comes back to the external (ip, port).
  auto reply = PacketBuilder()
                   .src_ip(*Ipv4Addr::parse("8.8.8.8"))
                   .src_port(53)
                   .dst_ip(*Ipv4Addr::parse("100.64.0.1"))
                   .dst_port(20000)
                   .build();
  ASSERT_EQ(nat.process(reply), 0);
  auto reply_layers = net::ParsedLayers::parse(reply);
  EXPECT_EQ(reply_layers->ipv4->dst.to_string(), "192.168.1.10");
  EXPECT_EQ(reply_layers->udp->dst_port, 5555);
}

TEST(NatNf, ReusesMappingPerFlow) {
  NatNf nat(NfConfig{});
  for (int i = 0; i < 5; ++i) {
    auto pkt = PacketBuilder().src_port(7777).build();
    nat.process(pkt);
  }
  EXPECT_EQ(nat.active_mappings(), 1u);
}

TEST(NatNf, DropsOnPortExhaustionAndUnknownReverse) {
  NfConfig config;
  config.ints["entries"] = 2;
  NatNf nat(config);
  for (std::uint16_t p = 1; p <= 3; ++p) {
    auto pkt = PacketBuilder().src_port(p).build();
    const int gate = nat.process(pkt);
    if (p <= 2) {
      EXPECT_EQ(gate, 0);
    } else {
      EXPECT_EQ(gate, SoftwareNf::kDrop);
    }
  }
  EXPECT_EQ(nat.exhaustion_drops(), 1u);
  auto stray = PacketBuilder()
                   .dst_ip(*Ipv4Addr::parse("100.64.0.1"))
                   .dst_port(64000)
                   .build();
  EXPECT_EQ(nat.process(stray), SoftwareNf::kDrop);
}

TEST(LbNf, ConsistentBackendPerFlow) {
  NfConfig config;
  config.strings["vip"] = "10.100.0.1";
  config.ints["backends"] = 4;
  LbNf lb(config);
  auto pkt1 = PacketBuilder()
                  .dst_ip(*Ipv4Addr::parse("10.100.0.1"))
                  .src_port(1234)
                  .build();
  lb.process(pkt1);
  const auto first_backend = net::ParsedLayers::parse(pkt1)->ipv4->dst;
  EXPECT_NE(first_backend.to_string(), "10.100.0.1");
  // Same flow -> same backend.
  auto pkt2 = PacketBuilder()
                  .dst_ip(*Ipv4Addr::parse("10.100.0.1"))
                  .src_port(1234)
                  .build();
  lb.process(pkt2);
  EXPECT_EQ(net::ParsedLayers::parse(pkt2)->ipv4->dst, first_backend);
  EXPECT_EQ(lb.tracked_flows(), 1u);
}

TEST(LbNf, NonVipTrafficPassesThrough) {
  LbNf lb(NfConfig{});
  auto pkt = PacketBuilder().dst_ip(*Ipv4Addr::parse("9.9.9.9")).build();
  const auto before = pkt.data;
  lb.process(pkt);
  EXPECT_EQ(pkt.data, before);
}

// --- Payload NFs -------------------------------------------------------------

TEST(DedupNf, SecondCopyShrinks) {
  NfConfig config;
  config.ints["chunk_bytes"] = 64;
  DedupNf dedup(config);
  std::string blob(256, 'A');
  auto first = payload_packet(blob);
  const std::size_t original_size = first.size();
  dedup.process(first);
  EXPECT_LT(first.size(), original_size);  // Self-similar content shrinks.
  auto second = payload_packet(std::string(256, 'B'));
  dedup.process(second);
  auto third = payload_packet(std::string(256, 'B'));  // Re-send B blob.
  dedup.process(third);
  EXPECT_LT(third.size(), second.size() + 1);
  EXPECT_GT(dedup.chunks_deduped(), 0u);
  EXPECT_LT(dedup.bytes_out(), dedup.bytes_in());
}

TEST(DedupNf, ShrunkPacketStaysParseable) {
  DedupNf dedup(NfConfig{});
  auto pkt = payload_packet(std::string(512, 'x'));
  dedup.process(pkt);
  auto pkt2 = payload_packet(std::string(512, 'x'));
  dedup.process(pkt2);
  auto layers = net::ParsedLayers::parse(pkt2);
  ASSERT_TRUE(layers.has_value());
  ASSERT_TRUE(layers->ipv4.has_value());
  EXPECT_EQ(layers->ipv4->total_length,
            pkt2.size() - net::EthernetHeader::kSize);
}

TEST(DedupNf, SmallPayloadPassthrough) {
  DedupNf dedup(NfConfig{});
  auto pkt = payload_packet("tiny");
  const auto before = pkt.data;
  dedup.process(pkt);
  EXPECT_EQ(pkt.data, before);
}

TEST(UrlFilterNf, DropsBlockedPattern) {
  NfConfig config;
  config.rules.push_back({{"pattern", "evil.example.com"}});
  UrlFilterNf filter(config);
  auto bad = payload_packet("GET http://evil.example.com/x HTTP/1.1");
  EXPECT_EQ(filter.process(bad), SoftwareNf::kDrop);
  auto good = payload_packet("GET http://good.example.com/x HTTP/1.1");
  EXPECT_EQ(filter.process(good), 0);
  EXPECT_EQ(filter.filtered(), 1u);
}

// --- Factory & NfModule ------------------------------------------------------

TEST(Factory, CreatesEveryType) {
  for (const auto& spec : all_nf_specs()) {
    auto nf = make_software_nf(spec.type, NfConfig{});
    ASSERT_NE(nf, nullptr) << spec.name;
    EXPECT_EQ(nf->type(), spec.type);
    EXPECT_GT(nf->mean_cycles(), 0u);
  }
}

TEST(NfModule, ChargesCostWithinJitterBand) {
  std::uint64_t cycles = 0;
  std::mt19937_64 rng(3);
  bess::Context ctx(&cycles, 1.7, &rng);
  NfModule module(make_software_nf(NfType::kEncrypt, NfConfig{}));
  bess::Sink sink;
  module.connect(0, &sink);
  net::PacketBatch batch;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    batch.push(payload_packet("some payload that will be encrypted"));
  }
  module.process(ctx, std::move(batch));
  const double per_packet = static_cast<double>(cycles) / n;
  EXPECT_GT(per_packet, 8593.0 * (1 - kCostJitter) - 1);
  EXPECT_LT(per_packet, 8593.0 * (1 + kCostJitter) + 1);
  EXPECT_EQ(sink.packets(), static_cast<std::uint64_t>(n));
}

TEST(NfModule, RoutesDropsAndGates) {
  std::uint64_t cycles = 0;
  std::mt19937_64 rng(3);
  bess::Context ctx(&cycles, 1.7, &rng);
  NfConfig config;
  config.rules.push_back({{"field", "dst_port"}, {"value", "80"},
                          {"gate", "1"}});
  NfModule module(make_software_nf(NfType::kMatch, config));
  bess::Sink default_sink, http_sink;
  module.connect(0, &default_sink);
  module.connect(1, &http_sink);
  net::PacketBatch batch;
  batch.push(PacketBuilder().dst_port(80).build());
  batch.push(PacketBuilder().dst_port(81).build());
  module.process(ctx, std::move(batch));
  EXPECT_EQ(http_sink.packets(), 1u);
  EXPECT_EQ(default_sink.packets(), 1u);
}

TEST(WorstCase, ExceedsMean) {
  NfConfig config;
  EXPECT_GT(worst_case_cycles(NfType::kDedup, config),
            effective_cycle_cost(NfType::kDedup, config));
}

// Parameterized: every NF type processes a generic packet without
// corrupting it beyond parseability.
class NfRobustness : public ::testing::TestWithParam<int> {};

TEST_P(NfRobustness, HandlesGenericPacket) {
  const auto type = static_cast<NfType>(GetParam());
  auto nf = make_software_nf(type, NfConfig{});
  auto pkt = payload_packet("generic payload for robustness check", 200);
  const int gate = nf->process(pkt);
  if (gate != SoftwareNf::kDrop) {
    EXPECT_TRUE(net::ParsedLayers::parse(pkt).has_value());
  }
}

TEST_P(NfRobustness, HandlesNonIpPacket) {
  const auto type = static_cast<NfType>(GetParam());
  auto nf = make_software_nf(type, NfConfig{});
  net::Packet pkt;
  pkt.data.assign(20, 0);  // Runt frame, bogus EtherType.
  pkt.data[12] = 0x12;
  pkt.data[13] = 0x34;
  nf->process(pkt);  // Must not crash.
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllNfs, NfRobustness,
                         ::testing::Range(0, kNumNfTypes));

}  // namespace
}  // namespace lemur::nf
