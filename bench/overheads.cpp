// "Meta-compiler Benefits and Overhead" microbenchmarks (section 5.3):
// the coordination costs Lemur imposes — NSH encap/decap cycles on BESS
// (~220), multi-core steering (~180), and the two switch stages burned by
// encap/decap — measured with google-benchmark.
#include <benchmark/benchmark.h>

#include "src/bess/nsh_modules.h"
#include "src/chain/parser.h"
#include "src/metacompiler/p4_compose.h"
#include "src/net/packet_builder.h"
#include "src/pisa/compiler.h"

namespace {

using namespace lemur;

net::PacketBatch make_batch(std::size_t n, bool with_nsh) {
  net::PacketBatch batch;
  for (std::size_t i = 0; i < n; ++i) {
    auto pkt = net::PacketBuilder().frame_size(1500).build();
    if (with_nsh) net::push_nsh(pkt, 1, 255);
    batch.push(std::move(pkt));
  }
  return batch;
}

void BM_NshEncapDecapCycles(benchmark::State& state) {
  std::mt19937_64 rng(1);
  std::uint64_t total_cycles = 0;
  std::uint64_t total_packets = 0;
  for (auto _ : state) {
    std::uint64_t cycles = 0;
    bess::Context ctx(&cycles, 1.7, &rng);
    bess::NshEncap encap(1, 255);
    bess::NshDecap decap;
    decap.map(1, 255, 0);
    encap.connect(0, &decap);
    encap.process(ctx, make_batch(32, false));
    total_cycles += cycles;
    total_packets += 32;
  }
  state.counters["virtual_cycles_per_packet"] = benchmark::Counter(
      static_cast<double>(total_cycles) /
      static_cast<double>(total_packets));
}
BENCHMARK(BM_NshEncapDecapCycles);

void BM_SteeringCycles(benchmark::State& state) {
  std::mt19937_64 rng(1);
  std::uint64_t total_cycles = 0;
  std::uint64_t total_packets = 0;
  for (auto _ : state) {
    std::uint64_t cycles = 0;
    bess::Context ctx(&cycles, 1.7, &rng);
    bess::LoadBalanceSteer steer(static_cast<int>(state.range(0)));
    steer.process(ctx, make_batch(32, false));
    total_cycles += cycles;
    total_packets += 32;
  }
  state.counters["virtual_cycles_per_packet"] = benchmark::Counter(
      static_cast<double>(total_cycles) /
      static_cast<double>(total_packets));
}
BENCHMARK(BM_SteeringCycles)->Arg(1)->Arg(2)->Arg(4);

void BM_NshPushPopWallClock(benchmark::State& state) {
  auto pkt = net::PacketBuilder().frame_size(1500).build();
  for (auto _ : state) {
    net::push_nsh(pkt, 1, 255);
    net::pop_nsh(pkt);
    benchmark::DoNotOptimize(pkt.data.data());
  }
}
BENCHMARK(BM_NshPushPopWallClock);

void BM_P4EncapDecapStageCost(benchmark::State& state) {
  // Composes the same chain with and without a server segment: the NSH
  // steering/encap machinery must cost a small constant number of extra
  // stages (the paper burns two).
  using placer::Pattern;
  using placer::Target;
  const topo::Topology topo = topo::Topology::lemur_testbed();
  int with_nsh_stages = 0;
  int without_nsh_stages = 0;
  for (auto _ : state) {
    auto parsed = chain::parse_chain("ACL -> Encrypt -> IPv4Fwd");
    chain::ChainSpec spec;
    spec.graph = std::move(parsed.graph);
    spec.aggregate_id = 1;
    // Mixed: Encrypt on the server -> NSH machinery present.
    Pattern mixed(3);
    mixed[0].target = Target::kPisa;
    mixed[2].target = Target::kPisa;
    std::vector<metacompiler::ChainRouting> routing = {
        metacompiler::build_routing(spec, mixed, 0)};
    auto artifact = metacompiler::compose_p4({spec}, routing, {});
    with_nsh_stages =
        pisa::compile(artifact.program, topo.tor).stages_required;

    auto parsed2 = chain::parse_chain("ACL -> IPv4Fwd");
    chain::ChainSpec all_p4;
    all_p4.graph = std::move(parsed2.graph);
    all_p4.aggregate_id = 1;
    Pattern pattern(2);
    pattern[0].target = Target::kPisa;
    pattern[1].target = Target::kPisa;
    std::vector<metacompiler::ChainRouting> routing2 = {
        metacompiler::build_routing(all_p4, pattern, 0)};
    auto artifact2 = metacompiler::compose_p4({all_p4}, routing2, {});
    without_nsh_stages =
        pisa::compile(artifact2.program, topo.tor).stages_required;
    benchmark::DoNotOptimize(with_nsh_stages);
  }
  state.counters["stages_with_nsh"] = with_nsh_stages;
  state.counters["stages_without_nsh"] = without_nsh_stages;
}
BENCHMARK(BM_P4EncapDecapStageCost);

}  // namespace

BENCHMARK_MAIN();
