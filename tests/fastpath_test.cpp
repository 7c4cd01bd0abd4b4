// Dataplane fast-path invariants, each checked against an oracle: a
// recycled PacketPool packet against a fresh Packet, the parse cache
// against a fresh ParsedLayers::parse, the AES fast paths against the
// FIPS-197 reference, FlatFlowTable against std::unordered_map; the fig2
// rack must engage the pool and the parse cache; and the Placer's memoized
// oracle must account for every call.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <unordered_map>

#include "src/chain/canonical.h"
#include "src/chain/parser.h"
#include "src/metacompiler/pisa_oracle.h"
#include "src/net/flat_table.h"
#include "src/net/packet_builder.h"
#include "src/net/packet_pool.h"
#include "src/nf/crypto/aes128.h"
#include "src/pisa/phv.h"
#include "src/placer/placer.h"
#include "src/runtime/testbed.h"

namespace lemur {
namespace {

chain::ChainSpec make_spec(const std::string& source, double t_min,
                           std::uint32_t aggregate) {
  auto parsed = chain::parse_chain(source);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  chain::ChainSpec spec;
  spec.name = "chain-" + std::to_string(aggregate);
  spec.graph = std::move(parsed.graph);
  spec.slo = chain::Slo::elastic_pipe(t_min, 100);
  spec.aggregate_id = aggregate;
  return spec;
}

// --- PacketPool hardening ----------------------------------------------------

TEST(PacketPool, DoubleReleaseIsDetectedAndDiscarded) {
  net::PacketPool pool;
  net::Packet pkt = pool.acquire();
  pkt.data.assign(64, 0xab);
  pool.release(std::move(pkt));
  EXPECT_EQ(pool.stats().recycled, 1u);
  // Releasing the moved-from husk again must not corrupt the free list:
  // debug builds assert, release builds count + discard.
  EXPECT_DEBUG_DEATH(pool.release(std::move(pkt)),
                     "PacketPool double release");
#ifdef NDEBUG
  // Under NDEBUG the macro ran the statement in-process: the duplicate
  // was counted and discarded, and the free list was not corrupted.
  EXPECT_EQ(pool.stats().double_release, 1u);
  EXPECT_EQ(pool.free_size(), 1u);
#endif
}

TEST(PacketPool, ReacquireClearsTheReleasedFlag) {
  net::PacketPool pool;
  net::Packet pkt = pool.acquire();
  pool.release(std::move(pkt));
  net::Packet again = pool.acquire();  // The recycled object.
  EXPECT_EQ(pool.stats().reused, 1u);
  pool.release(std::move(again));  // Must NOT look like a double release.
  EXPECT_EQ(pool.stats().double_release, 0u);
  EXPECT_EQ(pool.stats().recycled, 2u);
}

TEST(PacketPool, ExhaustionFallsBackToHeapAndIsCounted) {
  net::PacketPool pool;
  // Empty free list: every acquire is a counted heap allocation, and
  // never fails.
  net::Packet a = pool.acquire();
  net::Packet b = pool.acquire();
  EXPECT_EQ(pool.stats().allocated, 2u);
  pool.release(std::move(a));
  pool.release(std::move(b));
  net::Packet c = pool.acquire();  // Now a pool hit.
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(pool.stats().allocated, 2u);
  pool.release(std::move(c));
}

TEST(PacketPool, RecycledPacketIsIndistinguishableFromFresh) {
  net::PacketPool pool;
  net::Packet dirty = pool.acquire();
  net::PacketBuilder().proto(net::IpProto::kTcp).frame_size(256).build_into(
      dirty);
  dirty.hops.push_back({net::HopPlatform::kServer, 3, 1, 7, 10, 20});
  dirty.arrival_ns = 12345;
  dirty.ingress_port = 4;
  dirty.aggregate_id = 9;
  dirty.drop = true;
  ASSERT_NE(dirty.layers(), nullptr);  // Leaves a cached parse behind.
  pool.release(std::move(dirty));

  net::Packet pkt = pool.acquire();
  ASSERT_EQ(pool.stats().reused, 1u);  // The dirty object, recycled.
  const net::Packet fresh;
  EXPECT_EQ(pkt.data, fresh.data);
  EXPECT_EQ(pkt.hops.size(), fresh.hops.size());
  EXPECT_EQ(pkt.arrival_ns, fresh.arrival_ns);
  EXPECT_EQ(pkt.ingress_port, fresh.ingress_port);
  EXPECT_EQ(pkt.aggregate_id, fresh.aggregate_id);
  EXPECT_EQ(pkt.drop, fresh.drop);
  // An empty frame has no Ethernet header: the stale TCP parse is gone.
  EXPECT_EQ(fresh.layers(), nullptr);
  EXPECT_EQ(pkt.layers(), nullptr);
  EXPECT_EQ(pkt.mutable_layers(), nullptr);

  // Refilled, it parses its new bytes like a fresh packet does.
  net::PacketBuilder().frame_size(64).build_into(pkt);
  const auto* layers = pkt.layers();
  ASSERT_NE(layers, nullptr);
  EXPECT_TRUE(layers->udp.has_value());
  EXPECT_FALSE(layers->tcp.has_value());
  pool.release(std::move(pkt));
}

// --- Parse cache vs a fresh parse -------------------------------------------

// Every header field and every offset of a parse, one line per layer, so
// a mismatch names what went stale.
std::string describe(const net::ParsedLayers& l) {
  std::ostringstream out;
  out << "eth dst=" << l.eth.dst.to_string() << " src=" << l.eth.src.to_string()
      << " type=" << l.eth.ether_type << '\n';
  out << "vlan@" << l.vlan_offset;
  if (l.vlan) {
    out << " pcp=" << +l.vlan->pcp << " dei=" << l.vlan->dei
        << " vid=" << l.vlan->vid << " type=" << l.vlan->ether_type;
  }
  out << "\nnsh@" << l.nsh_offset;
  if (l.nsh) {
    out << " ttl=" << +l.nsh->ttl << " next=" << +l.nsh->next_proto
        << " spi=" << l.nsh->spi << " si=" << +l.nsh->si;
  }
  out << "\nipv4@" << l.ipv4_offset;
  if (l.ipv4) {
    out << " dscp=" << +l.ipv4->dscp << " len=" << l.ipv4->total_length
        << " id=" << l.ipv4->identification << " ttl=" << +l.ipv4->ttl
        << " proto=" << +l.ipv4->protocol << " csum=" << l.ipv4->checksum
        << " src=" << l.ipv4->src.value << " dst=" << l.ipv4->dst.value;
  }
  out << "\nl4@" << l.l4_offset;
  if (l.tcp) {
    out << " tcp sport=" << l.tcp->src_port << " dport=" << l.tcp->dst_port
        << " seq=" << l.tcp->seq << " ack=" << l.tcp->ack
        << " flags=" << +l.tcp->flags << " window=" << l.tcp->window;
  }
  if (l.udp) {
    out << " udp sport=" << l.udp->src_port << " dport=" << l.udp->dst_port
        << " len=" << l.udp->length;
  }
  out << "\npayload@" << l.payload_offset;
  return out.str();
}

// One PISA pass that rewrites a random subset of the writable PHV fields
// and flushes them back to the packet.
void phv_rewrite(net::Packet& pkt, std::mt19937_64& rng) {
  static const char* const kWritable[] = {
      "eth.dst",  "eth.src",  "vlan.vid", "vlan.pcp",  "nsh.spi",  "nsh.si",
      "ipv4.src", "ipv4.dst", "ipv4.ttl", "ipv4.dscp", "l4.sport", "l4.dport"};
  pisa::FieldResolver resolver;
  std::vector<pisa::FieldRef> fields;
  for (const char* name : kWritable) {
    if (rng() % 3 == 0) fields.push_back(resolver.resolve(name));
  }
  std::vector<std::uint64_t> slots(resolver.slots());
  pisa::PhvContext phv(pkt, slots);
  for (const auto& field : fields) phv.set(field, rng());
  phv.flush();
}

TEST(ParseCache, MatchesAFreshParseAfterEveryMutation) {
  std::mt19937_64 rng(11);
  const auto u16 = [&rng] { return static_cast<std::uint16_t>(rng()); };
  const auto u8 = [&rng] { return static_cast<std::uint8_t>(rng()); };
  for (int trial = 0; trial < 200; ++trial) {
    net::Packet pkt =
        net::PacketBuilder()
            .proto(rng() % 2 == 0 ? net::IpProto::kUdp : net::IpProto::kTcp)
            .src_ip(net::Ipv4Addr{static_cast<std::uint32_t>(rng())})
            .dst_ip(net::Ipv4Addr{static_cast<std::uint32_t>(rng())})
            .src_port(u16())
            .dst_port(u16())
            .ttl(u8())
            .frame_size(64 + rng() % 200)
            .build();
    for (int step = 0; step < 40; ++step) {
      const net::ParsedLayers* layers = pkt.layers();
      ASSERT_NE(layers, nullptr);
      const auto op = rng() % 10;
      switch (op) {
        case 0:
          if (layers->ipv4) {
            net::Ipv4Header h = *layers->ipv4;
            h.ttl = u8();
            h.dscp = u8() & 0x3f;
            h.dst = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
            net::patch_ipv4(pkt, *layers, h);
          }
          break;
        case 1:
          net::patch_l4_ports(pkt, *layers, u16(), u16());
          break;
        case 2: {
          net::MacAddr mac;
          for (auto& b : mac.bytes) b = u8();
          net::patch_eth_dst(pkt, mac);
          break;
        }
        case 3:
          net::set_nsh(pkt, rng() & net::NshHeader::kMaxSpi, u8());
          break;
        case 4:
          if (!layers->vlan) net::push_vlan(pkt, u16() & 0xfff, u8() & 7);
          break;
        case 5:
          net::pop_vlan(pkt);
          break;
        case 6:
          net::push_nsh(pkt, rng() & net::NshHeader::kMaxSpi, u8());
          break;
        case 7:
          net::pop_nsh(pkt);
          break;
        case 8:
          phv_rewrite(pkt, rng);
          break;
        default:  // A direct write into the Ethernet source MAC.
          pkt.data[6 + rng() % 6] = u8();
          pkt.invalidate_layers();
          break;
      }
      const auto fresh = net::ParsedLayers::parse(pkt);
      const net::ParsedLayers* cached = pkt.layers();
      ASSERT_TRUE(fresh.has_value());
      ASSERT_NE(cached, nullptr);
      ASSERT_EQ(describe(*cached), describe(*fresh))
          << "trial " << trial << " step " << step << " op " << op;
    }
  }
}

// --- FlatFlowTable vs unordered_map oracle ----------------------------------

TEST(FlatFlowTable, MatchesUnorderedMapUnderRandomChurn) {
  net::FlatFlowTable<std::uint64_t, std::uint32_t> table;
  std::unordered_map<std::uint64_t, std::uint32_t> oracle;
  std::mt19937_64 rng(42);
  // Small key space forces constant insert/overwrite/erase collisions.
  std::uniform_int_distribution<std::uint64_t> key_dist(0, 499);
  for (int step = 0; step < 200'000; ++step) {
    const std::uint64_t key = key_dist(rng);
    switch (rng() % 4) {
      case 0: {  // emplace
        const auto value = static_cast<std::uint32_t>(rng());
        const auto [it, inserted] = table.emplace(key, value);
        const auto [oit, oinserted] = oracle.emplace(key, value);
        ASSERT_EQ(inserted, oinserted);
        ASSERT_EQ(it->second, oit->second);
        break;
      }
      case 1: {  // operator[] overwrite
        const auto value = static_cast<std::uint32_t>(rng());
        table[key] = value;
        oracle[key] = value;
        break;
      }
      case 2: {  // find
        auto it = table.find(key);
        auto oit = oracle.find(key);
        ASSERT_EQ(it == table.end(), oit == oracle.end());
        if (oit != oracle.end()) {
          ASSERT_EQ(it->second, oit->second);
        }
        break;
      }
      default: {  // erase by key
        ASSERT_EQ(table.erase(key), oracle.erase(key));
        break;
      }
    }
    ASSERT_EQ(table.size(), oracle.size());
  }
  // Full contents match at the end.
  std::size_t visited = 0;
  for (const auto& [key, value] : table) {
    auto oit = oracle.find(key);
    ASSERT_NE(oit, oracle.end());
    ASSERT_EQ(value, oit->second);
    ++visited;
  }
  EXPECT_EQ(visited, oracle.size());
}

TEST(FlatFlowTable, IteratorEraseVisitsEveryRemainingEntry) {
  net::FlatFlowTable<std::uint64_t, std::uint32_t> table;
  std::unordered_map<std::uint64_t, std::uint32_t> oracle;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    table.emplace(k, static_cast<std::uint32_t>(k * 3));
    oracle.emplace(k, static_cast<std::uint32_t>(k * 3));
  }
  // Erase every third entry mid-iteration, the NF eviction-scan pattern.
  std::size_t seen = 0;
  for (auto it = table.begin(); it != table.end();) {
    ++seen;
    if (it->first % 3 == 0) {
      oracle.erase(it->first);
      it = table.erase(it);
    } else {
      ++it;
    }
  }
  // Backward-shift deletion must not skip or double-visit entries.
  EXPECT_EQ(seen, 1000u);
  EXPECT_EQ(table.size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    auto it = table.find(key);
    ASSERT_NE(it, table.end());
    EXPECT_EQ(it->second, value);
  }
}

// --- AES fast paths vs the FIPS-197 reference -------------------------------

TEST(FastAes, BitIdenticalToReference) {
  // Both fast paths run on every host: encrypt_block/decrypt_block take
  // AES-NI where the CPU has it, and the T-table path is called directly.
  using Block = std::array<std::uint8_t, nf::crypto::Aes128::kBlockSize>;
  std::mt19937_64 rng(7);
  const auto random_block = [&rng] {
    Block b{};
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
    return b;
  };
  for (int trial = 0; trial < 200; ++trial) {
    const Block key = random_block();
    const nf::crypto::Aes128 cipher(key);

    const Block plain = random_block();
    Block ref = plain;
    cipher.encrypt_reference(ref);
    Block tables = plain;
    cipher.encrypt_tables(tables);
    Block block = plain;
    cipher.encrypt_block(block);
    EXPECT_EQ(tables, ref);
    EXPECT_EQ(block, ref);

    const Block cipher_text = random_block();
    Block dref = cipher_text;
    cipher.decrypt_reference(dref);
    Block dtables = cipher_text;
    cipher.decrypt_tables(dtables);
    Block dblock = cipher_text;
    cipher.decrypt_block(dblock);
    EXPECT_EQ(dtables, dref);
    EXPECT_EQ(dblock, dref);

    cipher.decrypt_reference(ref);
    EXPECT_EQ(ref, plain);
  }
}

// --- Fast-path engagement on the rack ---------------------------------------

// The fig2 rack (chains {1,2,3,4} at delta 0.9) must recycle most packets
// through the pool and serve most parses from the cache. The counts are
// deterministic per seed, so each floor sits a few points under the ratio
// the rack reads today.
TEST(FastPathEngagement, Fig2RackReusesPacketsAndParses) {
  const topo::Topology topo = topo::Topology::lemur_testbed();
  placer::PlacerOptions options;
  auto chains = chain::canonical_chains({1, 2, 3, 4});
  placer::apply_delta(chains, 0.9, topo.servers.front(), options);
  metacompiler::CompilerOracle oracle(topo);
  const auto placement =
      placer::place(placer::Strategy::kLemur, chains, topo, options, oracle);
  ASSERT_TRUE(placement.feasible) << placement.infeasible_reason;
  const auto artifacts = metacompiler::compile(chains, placement, topo);
  ASSERT_TRUE(artifacts.ok) << artifacts.error;
  runtime::Testbed testbed(chains, placement, artifacts, topo);
  ASSERT_TRUE(testbed.ok()) << testbed.error();

  net::reset_parse_cache_stats();
  testbed.run(5.0);
  const auto& pool = testbed.packet_pool().stats();
  const auto& cache = net::parse_cache_stats();
  const auto ratio = [](std::uint64_t part, std::uint64_t other) {
    return static_cast<double>(part) / static_cast<double>(part + other);
  };
  // Read 10,181 reused against 836 allocated: 0.924.
  EXPECT_GE(ratio(pool.reused, pool.allocated), 0.90)
      << pool.reused << " reused, " << pool.allocated << " allocated";
  // Read 117,250 hits against 73,832 misses: 0.614.
  EXPECT_GE(ratio(cache.hits, cache.misses), 0.58)
      << cache.hits << " hits, " << cache.misses << " misses";
}

// --- Placer oracle memoization ----------------------------------------------

TEST(PlacerStats, OracleCallsAreAccounted) {
  std::vector<chain::ChainSpec> chains = {
      make_spec("ACL -> Encrypt -> IPv4Fwd", 0.5, 1),
      make_spec("NAT -> IPv4Fwd", 0.5, 2),
  };
  const topo::Topology topo = topo::Topology::lemur_testbed();
  placer::PlacerOptions options;
  metacompiler::CompilerOracle oracle(topo);
  auto placement =
      placer::place(placer::Strategy::kLemur, chains, topo, options, oracle);
  ASSERT_TRUE(placement.feasible) << placement.infeasible_reason;
  EXPECT_GT(placement.stats.oracle_calls, 0u);
  EXPECT_EQ(placement.stats.oracle_hits + placement.stats.oracle_misses,
            placement.stats.oracle_calls);
  // The brute-force strategy re-probes patterns heavily; the memo table
  // must serve repeats.
  auto optimal = placer::place(placer::Strategy::kOptimal, chains, topo,
                               options, oracle);
  ASSERT_TRUE(optimal.feasible) << optimal.infeasible_reason;
  EXPECT_GT(optimal.stats.oracle_hits, 0u);
}

}  // namespace
}  // namespace lemur
