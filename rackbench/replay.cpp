#include "rackbench/replay.h"

#include <map>
#include <memory>

#include "rackbench/spans.h"
#include "rackbench/stats.h"
#include "src/nf/software/crypto_nfs.h"
#include "src/nf/software/factory.h"
#include "src/nic/interpreter.h"
#include "src/pisa/switch_sim.h"

namespace lemur::rackbench {
namespace {

constexpr int kTimedPasses = 5;  // After one untimed warm-up pass.

/// Runs `pass(packets)` once to warm up, then kTimedPasses times on fresh
/// copies of `packets`; returns the median ns per unit of work, where one
/// pass does `units` units. Copying is outside the timed region.
template <typename Pass>
double replay_passes(const std::vector<net::Packet>& packets,
                     std::uint64_t units, Pass&& pass) {
  std::vector<double> per_unit;
  for (int i = 0; i <= kTimedPasses; ++i) {
    std::vector<net::Packet> work = packets;
    const std::int64_t start = now_ns();
    pass(work);
    const std::int64_t elapsed = now_ns() - start;
    if (i > 0 && units > 0) {
      per_unit.push_back(static_cast<double>(elapsed) /
                         static_cast<double>(units));
    }
  }
  return median(per_unit);
}

/// One traffic model per chain, seeded as Testbed::run seeds them.
std::vector<runtime::ChainTrafficModel> traffic_models(
    const std::vector<chain::ChainSpec>& chains, std::uint64_t seed,
    runtime::FlowMode mode) {
  std::vector<runtime::ChainTrafficModel> models;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    models.emplace_back(chains[c], seed + 100 + c, mode);
  }
  return models;
}

}  // namespace

std::vector<net::Packet> workload_packets(
    const std::vector<chain::ChainSpec>& chains, std::uint64_t seed,
    runtime::FlowMode mode, std::size_t per_chain) {
  auto models = traffic_models(chains, seed, mode);
  std::vector<net::Packet> packets;
  packets.reserve(per_chain * chains.size());
  for (std::size_t i = 0; i < per_chain; ++i) {
    for (auto& model : models) {
      packets.push_back(model.make_packet(i * 1000));
    }
  }
  return packets;
}

ReplayStat replay_traffic(const std::vector<chain::ChainSpec>& chains,
                          std::uint64_t seed, runtime::FlowMode mode,
                          std::size_t per_chain) {
  auto models = traffic_models(chains, seed, mode);
  const std::uint64_t units = per_chain * chains.size();
  net::Packet scratch;
  std::uint64_t t = 0;
  const double ns = replay_passes({}, units, [&](std::vector<net::Packet>&) {
    for (std::size_t i = 0; i < per_chain; ++i) {
      for (auto& model : models) model.make_packet_into(t, scratch);
      t += 1000;
    }
  });
  return {"traffic", ns, units};
}

ReplayStat replay_pisa(const metacompiler::CompiledArtifacts& artifacts,
                       const topo::Topology& topo,
                       const std::vector<net::Packet>& packets) {
  pisa::PisaSwitch tor(artifacts.p4.program, topo.tor);
  if (!tor.load().ok) return {"pisa", 0, 0};
  for (const auto& [table, entry] : artifacts.p4.entries) {
    if (!tor.add_entry(table, entry)) return {"pisa", 0, 0};
  }
  const double ns = replay_passes(packets, packets.size(),
                                  [&](std::vector<net::Packet>& work) {
                                    for (auto& pkt : work) tor.process(pkt);
                                  });
  return {"pisa", ns, packets.size()};
}

std::vector<ReplayStat> replay_software_nfs(
    const std::vector<chain::ChainSpec>& chains,
    const metacompiler::CompiledArtifacts& artifacts,
    const std::vector<net::Packet>& packets) {
  // Every server-placed instance, grouped by type; a pass sends each
  // packet through one instance of the type, round-robin.
  std::map<nf::NfType, std::vector<std::unique_ptr<nf::SoftwareNf>>> by_type;
  for (const auto& plan : artifacts.server_plans) {
    for (const auto& seg : plan.segments) {
      const auto& graph = chains[static_cast<std::size_t>(seg.chain)].graph;
      for (const int node_id : seg.nodes) {
        const auto& node = graph.node(node_id);
        by_type[node.type].push_back(
            nf::make_software_nf(node.type, node.config));
      }
    }
  }
  std::vector<ReplayStat> out;
  for (auto& [type, instances] : by_type) {
    const double ns = replay_passes(
        packets, packets.size(), [&](std::vector<net::Packet>& work) {
          for (std::size_t i = 0; i < work.size(); ++i) {
            instances[i % instances.size()]->process(work[i]);
          }
        });
    out.push_back({"nf." + std::string(nf::spec_of(type).name), ns,
                   packets.size()});
  }
  return out;
}

ReplayStat replay_nic(const metacompiler::CompiledArtifacts& artifacts,
                      const std::vector<net::Packet>& packets) {
  if (artifacts.nic_programs.empty()) return {"nic", 0, 0};
  nic::HelperConfig helpers;
  nf::derive_key_material("lemur-chacha-key", helpers.chacha_key);
  nf::derive_key_material("lemur-nonce", helpers.chacha_nonce);
  const std::uint64_t runs = packets.size() * artifacts.nic_programs.size();
  const double ns = replay_passes(
      packets, runs, [&](std::vector<net::Packet>& work) {
        for (const auto& artifact : artifacts.nic_programs) {
          for (auto& pkt : work) nic::execute(artifact.program, pkt, helpers);
        }
      });
  return {"nic", ns, runs};
}

}  // namespace lemur::rackbench
