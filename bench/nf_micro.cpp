// NF microbenchmarks (google-benchmark): real wall-clock packet
// processing throughput of the software NF implementations and the eBPF
// interpreter. These are sanity/quality benchmarks for the simulator
// itself (the paper's rates come from the cycle model, not wall-clock).
#include <benchmark/benchmark.h>

#include "src/net/packet_builder.h"
#include "src/nf/ebpf/ebpf_nfs.h"
#include "src/nf/software/factory.h"
#include "src/nic/interpreter.h"
#include "src/nic/verifier.h"

namespace {

using namespace lemur;

net::Packet payload_packet(std::size_t frame = 1500) {
  return net::PacketBuilder().frame_size(frame).build();
}

void BM_SoftwareNf(benchmark::State& state) {
  const auto type = static_cast<nf::NfType>(state.range(0));
  auto impl = nf::make_software_nf(type, nf::NfConfig{});
  auto pkt = payload_packet();
  for (auto _ : state) {
    auto copy = pkt;
    benchmark::DoNotOptimize(impl->process(copy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(std::string(nf::spec_of(type).name));
}
BENCHMARK(BM_SoftwareNf)->DenseRange(0, nf::kNumNfTypes - 1);

void BM_EbpfFastEncrypt(benchmark::State& state) {
  auto program = nf::ebpf::gen_fast_encrypt();
  if (!nic::verify(program).ok) state.SkipWithError("program rejected");
  // The NIC stage keeps each NF's keystream across packets.
  nic::HelperConfig helpers;
  nf::crypto::ChaCha20Keystream chacha(helpers.chacha_key,
                                       helpers.chacha_nonce);
  auto pkt = payload_packet();
  for (auto _ : state) {
    auto copy = pkt;
    benchmark::DoNotOptimize(nic::execute(program, copy, chacha));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EbpfFastEncrypt);

void BM_EbpfAcl(benchmark::State& state) {
  nf::NfConfig config;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    config.rules.push_back(
        {{"src_ip", "10." + std::to_string(i % 200) + ".0.0/16"},
         {"drop", "False"}});
  }
  auto program = nf::ebpf::gen_acl(nf::parse_acl_rules(config));
  if (!nic::verify(program).ok) state.SkipWithError("program rejected");
  auto pkt = payload_packet();
  for (auto _ : state) {
    auto copy = pkt;
    benchmark::DoNotOptimize(nic::execute(program, copy, {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EbpfAcl)->Arg(8)->Arg(64)->Arg(256);

void BM_PacketParse(benchmark::State& state) {
  auto pkt = payload_packet();
  net::push_nsh(pkt, 1, 255);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::ParsedLayers::parse(pkt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketParse);

}  // namespace

BENCHMARK_MAIN();
