// Replay harness for the layers whose cost is host time per packet. The
// workload's own packets (its ChainTrafficModels under the run's seed)
// are fed, after one warm-up pass, through each layer's public entry
// point: traffic generation, the ToR's PISA pipeline, every software NF
// type the placement put on a server, and the SmartNIC's eBPF programs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/metacompiler/metacompiler.h"
#include "src/net/packet.h"
#include "src/runtime/traffic.h"

namespace lemur::rackbench {

struct ReplayStat {
  std::string layer;  ///< "traffic", "pisa", "nf.<Type>", "nic".
  double ns_per_pkt = 0;  ///< Median over timed passes.
  std::uint64_t packets = 0;  ///< Packets (or NIC program runs) per pass.
};

/// `per_chain` packets from each chain's traffic model, interleaved in
/// chain order.
std::vector<net::Packet> workload_packets(
    const std::vector<chain::ChainSpec>& chains, std::uint64_t seed,
    runtime::FlowMode mode, std::size_t per_chain);

ReplayStat replay_traffic(const std::vector<chain::ChainSpec>& chains,
                          std::uint64_t seed, runtime::FlowMode mode,
                          std::size_t per_chain);

ReplayStat replay_pisa(const metacompiler::CompiledArtifacts& artifacts,
                       const topo::Topology& topo,
                       const std::vector<net::Packet>& packets);

/// One stat per NF type placed on a server, in NfType order.
std::vector<ReplayStat> replay_software_nfs(
    const std::vector<chain::ChainSpec>& chains,
    const metacompiler::CompiledArtifacts& artifacts,
    const std::vector<net::Packet>& packets);

/// Every NIC program runs every packet; ns_per_pkt is per program run.
/// packets = 0 when the placement put nothing on a SmartNIC.
ReplayStat replay_nic(const metacompiler::CompiledArtifacts& artifacts,
                      const std::vector<net::Packet>& packets);

}  // namespace lemur::rackbench
