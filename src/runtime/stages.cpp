#include "src/runtime/stages.h"

#include <algorithm>

#include "src/bess/nsh_modules.h"
#include "src/nf/software/crypto_nfs.h"
#include "src/nf/software/factory.h"

namespace lemur::runtime {
namespace {

constexpr metacompiler::PortMap kPorts;

/// The NSH (spi, si) a packet carries, if any.
std::optional<std::pair<std::uint32_t, std::uint8_t>> nsh_of(
    const net::Packet& pkt) {
  const auto* layers = pkt.layers();
  if (layers == nullptr || !layers->nsh) return std::nullopt;
  return std::pair{layers->nsh->spi, layers->nsh->si};
}

}  // namespace

// --- ToR ------------------------------------------------------------------

std::string TorStage::load(const metacompiler::P4Artifact& p4,
                           const topo::PisaSwitchSpec& spec) {
  switch_ = std::make_unique<pisa::PisaSwitch>(p4.program, spec);
  const auto compiled = switch_->load();
  if (!compiled.ok) return "ToR program failed to compile: " + compiled.error;
  for (const auto& [table, entry] : p4.entries) {
    if (!switch_->add_entry(table, entry)) {
      return "failed to install entry into '" + table + "'";
    }
  }
  // The metacompiler's coordination tables (steering, routing) drop
  // unrouted traffic; every other table drop is an NF's own verdict.
  drop_cause_.clear();
  for (const auto& table : switch_->program().tables) {
    drop_cause_.push_back(p4.coordination_tables.count(table.name) != 0
                              ? telemetry::DropCause::kRoutingMiss
                              : telemetry::DropCause::kNfVerdict);
  }
  backlog_ = &report_.metrics.gauge("tor.backlog");
  return {};
}

void TorStage::advance(std::uint64_t quantum_end) {
  // Stages this drain emits to append to the same inbox: whatever is ready
  // by the quantum end is switched in this drain too.
  std::deque<std::pair<std::uint64_t, net::Packet>> later;
  while (!inbox_.empty()) {
    auto [ready, pkt] = std::move(inbox_.front());
    inbox_.pop_front();
    if (ready > quantum_end) {
      later.emplace_back(ready, std::move(pkt));
      continue;
    }
    // Admission control for shed chains: still offered, dropped at the
    // ToR with an explicit degradation cause.
    if (shed_[static_cast<std::size_t>(report_.chain_of(pkt.aggregate_id))]) {
      report_.drop(std::move(pkt), net::HopPlatform::kTor,
                   telemetry::DropCause::kAdmissionShed);
      continue;
    }
    const auto result = switch_->process(pkt);
    if (result.dropped) {
      report_.drop(std::move(pkt), net::HopPlatform::kTor,
                   result.drop_table < 0
                       ? telemetry::DropCause::kRoutingMiss
                       : drop_cause_[static_cast<std::size_t>(
                             result.drop_table)]);
      continue;
    }
    report_.trace_hop(pkt, net::HopPlatform::kTor, 0, ready);
    route(std::move(pkt), result.egress_port, ready);
  }
  inbox_ = std::move(later);
}

void TorStage::route(net::Packet&& pkt, std::uint32_t port,
                     std::uint64_t ready_ns) {
  const int server = kPorts.server_of(port);
  if (port == kPorts.network_egress) {
    report_.deliver(std::move(pkt), ready_ns);
  } else if (port == kPorts.of_switch) {
    openflow_->accept(std::move(pkt), ready_ns);
  } else if (server >= 0 && server < static_cast<int>(servers_.size())) {
    servers_[static_cast<std::size_t>(server)]->accept(std::move(pkt),
                                                       ready_ns + bounce_ns_);
  } else {
    report_.drop(std::move(pkt), net::HopPlatform::kTor,
                 telemetry::DropCause::kRoutingMiss);  // Unknown port.
  }
}

std::uint64_t TorStage::flush_tagged() {
  // NSH-tagged packets are mid-chain in the old plan's segment space,
  // which the new plan renumbers, so they cannot be replayed. Untagged
  // packets are fresh arrivals that re-enter through the new program.
  std::uint64_t flushed = 0;
  std::deque<std::pair<std::uint64_t, net::Packet>> keep;
  for (auto& [ready, pkt] : inbox_) {
    if (nsh_of(pkt)) {
      report_.drop(std::move(pkt), net::HopPlatform::kTor,
                   telemetry::DropCause::kRecovery);
      ++flushed;
    } else {
      keep.emplace_back(ready, std::move(pkt));
    }
  }
  inbox_ = std::move(keep);
  return flushed;
}

// --- SmartNIC -------------------------------------------------------------

void NicStage::add(const metacompiler::NicArtifact& artifact,
                   const topo::SmartNicSpec& spec,
                   const topo::ServerSpec& server,
                   const std::vector<chain::ChainSpec>& chains) {
  // Engine occupancy per packet: the NF's profiled cycles at the device's
  // speed-up over a core of the attached server.
  const auto& node = chains[static_cast<std::size_t>(artifact.chain)]
                         .graph.node(artifact.node);
  const auto cost_cycles = nf::effective_cycle_cost(node.type, node.config);
  const auto cost_ns = static_cast<std::uint64_t>(
      static_cast<double>(cost_cycles) /
      (server.clock_ghz * spec.speedup_vs_core));
  by_nsh_.emplace(std::pair{artifact.spi_in, artifact.si_in}, nfs_.size());
  nfs_.push_back(
      {&artifact, nf::make_keystream(node.config), cost_cycles, cost_ns});
}

void NicStage::accept(net::Packet&& pkt, std::uint64_t ready_ns) {
  Nf* nf = nullptr;
  if (!nfs_.empty()) {
    if (const auto nsh = nsh_of(pkt)) {
      const auto it = by_nsh_.find(*nsh);
      if (it != by_nsh_.end()) nf = &nfs_[it->second];
    }
  }
  if (nf == nullptr) {
    wire_.accept(std::move(pkt), ready_ns);
    return;
  }
  auto& report = links_.report;
  const auto& artifact = *nf->artifact;
  const Element nic{Element::Kind::kSmartNic, artifact.smartnic};
  if (links_.faults != nullptr && links_.faults->down(nic, ready_ns)) {
    report.fault_drop(std::move(pkt), net::HopPlatform::kSmartNic, nic);
    return;
  }
  // Engine occupancy: serialized packet processing.
  const std::uint64_t start = std::max(ready_ns, engine_free_ns_);
  if (start - ready_ns > 1'000'000) {  // >1ms backlog: overload.
    report.drop(std::move(pkt), net::HopPlatform::kSmartNic,
                telemetry::DropCause::kQueueOverflow);
    return;
  }
  engine_free_ns_ = start + nf->cost_ns;
  ++nf->packets;
  // Traced before processing, so the hop carries the segment it runs.
  report.trace_hop(pkt, net::HopPlatform::kSmartNic,
                   static_cast<std::uint16_t>(artifact.smartnic),
                   engine_free_ns_);
  const auto action = nic::execute(artifact.program, pkt, nf->chacha).action;
  if (action == nic::XdpAction::kDrop || action == nic::XdpAction::kAborted) {
    report.drop(std::move(pkt), net::HopPlatform::kSmartNic,
                telemetry::DropCause::kNfVerdict);
    return;
  }
  net::set_nsh(pkt, artifact.spi_out, artifact.si_out);
  if (artifact.local_out) {
    wire_.accept(std::move(pkt), engine_free_ns_);
  } else {
    links_.tor.accept(std::move(pkt), engine_free_ns_ + links_.bounce_ns);
  }
}

// --- Server ---------------------------------------------------------------

ServerStage::ServerStage(StageLinks links, int index,
                         const std::vector<chain::ChainSpec>& chains,
                         const metacompiler::ServerPlan& plan,
                         const topo::ServerSpec& spec, std::uint64_t seed,
                         bool dead)
    : links_(links),
      index_(index),
      dead_(dead),
      dataplane_(std::make_unique<bess::ServerDataplane>(spec, seed)),
      wire_(links.report, index),
      nic_(links, wire_) {
  auto& metrics = links.report.metrics;
  const std::string prefix = "server" + std::to_string(index);
  wire_depth_ = {&metrics.gauge(prefix + ".wire_depth"),
                 &metrics.histogram(prefix + ".wire_depth")};
  queue_depth_ = {&metrics.gauge(prefix + ".queue_depth"),
                  &metrics.histogram(prefix + ".queue_depth")};
  auto& dp = *dataplane_;
  dp.set_packet_pool(&links.report.pool);
  if (plan.segments.empty()) return;

  auto* inc = dp.add_module<bess::PortInc>(&wire_);
  auto* demux = dp.add_module<bess::NshDecap>();
  auto* out = dp.add_module<bess::PortOut>(&sink_);
  auto* loopback = dp.add_module<bess::Queue>(8192);
  inc->connect(0, demux);
  dp.add_task(0, bess::Task(inc));
  dp.add_task(0, bess::Task(loopback, demux));
  demux_ = demux;
  queues_.push_back(loopback);

  int demux_gate = 0;
  for (const auto& seg : plan.segments) {
    const auto& graph = chains[static_cast<std::size_t>(seg.chain)].graph;
    const int replicas = seg.replicas();

    // Replica queues fed from the demux (via round-robin when k > 1).
    const std::size_t first_queue = queues_.size();
    demux->map(seg.spi_in, seg.si_in, demux_gate);
    bess::LoadBalanceSteer* steer = nullptr;
    if (replicas > 1) {
      steer = dp.add_module<bess::LoadBalanceSteer>(replicas);
      demux->connect(demux_gate++, steer);
    }
    for (int r = 0; r < replicas; ++r) {
      auto* q = dp.add_module<bess::Queue>(4096);
      if (steer != nullptr) {
        steer->connect(r, q);
      } else {
        demux->connect(demux_gate++, q);
      }
      queues_.push_back(q);
    }

    for (int r = 0; r < replicas; ++r) {
      // Per-replica NF instances: replicable stateful NFs partition
      // their state across cores.
      bess::Module* head = nullptr;
      bess::Module* tail = nullptr;
      for (int node_id : seg.nodes) {
        const auto& node = graph.node(node_id);
        // Replicated NATs partition the external port space: each
        // replica allocates from a disjoint range, so translations
        // never collide across cores (the paper's section 3.2
        // future-work scheme).
        nf::NfConfig node_config = node.config;
        if (node.type == nf::NfType::kNat && replicas > 1) {
          const std::int64_t base = node_config.int_or("port_base", 10000);
          const std::int64_t span = (65000 - base) / replicas;
          node_config.ints["port_base"] = base + r * span;
          // The partition's exclusive upper bound: import_state() keeps
          // only mappings inside [port_base, port_limit), so migrated
          // NAT state lands on exactly one replica.
          node_config.ints["port_limit"] = base + (r + 1) * span;
          node_config.ints["entries"] =
              std::min<std::int64_t>(node_config.int_or("entries", 12000),
                                     span);
        }
        auto nf_impl = nf::make_software_nf(node.type, node_config);
        // Branch Match NFs with no configured rules take the
        // metacompiler's generated steering rules.
        if (node.type == nf::NfType::kMatch &&
            !seg.generated_steering.empty() && node_id == seg.nodes.back()) {
          auto* match = dynamic_cast<nf::MatchNf*>(nf_impl.get());
          if (match != nullptr && match->match_rules().empty()) {
            for (const auto& rule : seg.generated_steering) {
              match->add_rule(rule);
            }
          }
        }
        auto* module = dp.add_module<nf::NfModule>(std::move(nf_impl));
        nfs_.push_back({module, seg.chain, node_id});
        if (head == nullptr) head = module;
        if (tail != nullptr) tail->connect(0, module);
        tail = module;
      }

      // Generated steering module after a non-Match branching tail.
      const bool tail_is_match =
          graph.node(seg.nodes.back()).type == nf::NfType::kMatch;
      if (seg.needs_generated_steering() && !tail_is_match) {
        nf::NfConfig empty;
        auto steer_nf = std::make_unique<nf::MatchNf>(empty);
        for (const auto& rule : seg.generated_steering) {
          steer_nf->add_rule(rule);
        }
        auto* module = dp.add_module<nf::NfModule>(std::move(steer_nf));
        nfs_.push_back({module, seg.chain, -1});
        if (tail != nullptr) tail->connect(0, module);
        if (head == nullptr) head = module;
        tail = module;
      }

      // Exits: NSH re-encapsulation per gate; local hand-offs loop back
      // into the shared demux without touching the NIC.
      for (const auto& exit : seg.exits) {
        auto* encap = dp.add_module<bess::NshEncap>(exit.spi, exit.si);
        tail->connect(exit.gate, encap);
        encap->connect(0, exit.local ? static_cast<bess::Module*>(loopback)
                                     : static_cast<bess::Module*>(out));
      }

      // t_max enforcement lives in the BESS scheduler (appendix A.1.3):
      // each replica's task is rate-limited to its share of the chain's
      // burst cap.
      bess::RateLimit limit;
      const double t_max =
          chains[static_cast<std::size_t>(seg.chain)].slo.t_max_gbps;
      if (t_max < chain::Slo::kUnbounded) {
        limit.bits_per_sec = t_max * 1e9 * seg.traffic_fraction / replicas;
        limit.burst_bits = 2e6;
      }
      dp.add_task(
          seg.replica_cores[static_cast<std::size_t>(r)],
          bess::Task(queues_[first_queue + static_cast<std::size_t>(r)], head),
          limit);
    }
  }
}

void ServerStage::accept(net::Packet&& pkt, std::uint64_t ready_ns) {
  auto& report = links_.report;
  auto* faults = links_.faults;
  const Element host{Element::Kind::kServer, index_};
  const Element link{Element::Kind::kLink, index_};
  // Injected faults intercept the packet before it reaches the NIC/wire.
  if (dead_ || (faults != nullptr && faults->down(host, ready_ns))) {
    report.fault_drop(std::move(pkt), net::HopPlatform::kServer, host);
    return;
  }
  if (faults != nullptr && faults->down(link, ready_ns)) {
    report.fault_drop(std::move(pkt), net::HopPlatform::kWire, link);
    return;
  }
  if (faults != nullptr) {
    switch (faults->wire_impairment(index_, ready_ns)) {
      case FaultScheduler::Impairment::kCorrupt:
        report.fault_drop(std::move(pkt), net::HopPlatform::kWire,
                          {Element::Kind::kWire, index_});
        return;
      case FaultScheduler::Impairment::kDuplicate: {
        // The clone is extra offered load (conservation: both copies are
        // charged somewhere). It bypasses the impairment coin so a
        // rate-1.0 duplication event cannot amplify without bound.
        net::Packet clone = pkt;
        report.offer(report.chain_of(pkt.aggregate_id), clone);
        nic_.accept(std::move(clone), ready_ns);
        break;
      }
      case FaultScheduler::Impairment::kReorder:
        // Reordering is modeled as extra wire residency: the packet slips
        // behind later arrivals but is never lost.
        ready_ns += 300'000;
        break;
      case FaultScheduler::Impairment::kNone:
        break;
    }
  }
  nic_.accept(std::move(pkt), ready_ns);
}

void ServerStage::sweep_module_drops() {
  auto& report = links_.report;
  const auto sweep = [&](const bess::Module& module,
                         telemetry::DropCause cause) {
    for (const auto& [aggregate, n] : module.drops_by_aggregate()) {
      report.charge(aggregate, net::HopPlatform::kServer, cause, n);
    }
  };
  if (demux_ != nullptr) sweep(*demux_, telemetry::DropCause::kRoutingMiss);
  for (const auto* queue : queues_) {
    sweep(*queue, telemetry::DropCause::kQueueOverflow);
  }
  for (const auto& nf : nfs_) {
    sweep(*nf.module, telemetry::DropCause::kNfVerdict);
  }
}

void ServerStage::finish() {
  sweep_module_drops();
  walk([&](net::HopPlatform, auto& fifo) {
    for (auto& e : fifo) links_.report.residual(packet_of(e));
  });
}

// --- OpenFlow -------------------------------------------------------------

std::string OpenFlowStage::load(
    const std::vector<metacompiler::OfArtifact>& rules,
    const std::optional<topo::OpenFlowSwitchSpec>& spec) {
  if (rules.empty()) return {};
  switch_ = std::make_unique<openflow::OpenFlowSwitch>(
      spec.value_or(topo::OpenFlowSwitchSpec{}));
  for (const auto& artifact : rules) {
    by_nsh_[{artifact.spi_in, artifact.si_in}] = &artifact;
    for (auto rule : artifact.rules) {
      std::string install_error;
      if (!switch_->install(std::move(rule), &install_error)) {
        return "OpenFlow rule rejected: " + install_error;
      }
    }
  }
  return {};
}

void OpenFlowStage::accept(net::Packet&& pkt, std::uint64_t ready_ns) {
  auto& report = links_.report;
  const Element openflow{Element::Kind::kOpenFlow, 0};
  if (links_.faults != nullptr && links_.faults->down(openflow, ready_ns)) {
    report.fault_drop(std::move(pkt), net::HopPlatform::kOpenFlow, openflow);
    return;
  }
  const metacompiler::OfArtifact* artifact = nullptr;
  if (switch_) {
    if (const auto nsh = nsh_of(pkt)) {
      const auto it = by_nsh_.find(*nsh);
      if (it != by_nsh_.end()) artifact = it->second;
    }
  }
  if (artifact == nullptr) {
    report.drop(std::move(pkt), net::HopPlatform::kOpenFlow,
                telemetry::DropCause::kRoutingMiss);
    return;
  }
  const std::uint64_t out_ns = ready_ns + 2 * links_.bounce_ns;
  // Traced before the VLAN rewrite, so the hop carries the segment it runs.
  report.trace_hop(pkt, net::HopPlatform::kOpenFlow, 0, out_ns);
  // NSH -> VLAN at the OF boundary (the OF ASIC has no NSH support).
  net::pop_nsh(pkt);
  net::push_vlan(pkt, artifact->vid_in);
  if (switch_->process(pkt).dropped) {
    report.drop(std::move(pkt), net::HopPlatform::kOpenFlow,
                telemetry::DropCause::kNfVerdict);
    return;
  }
  net::pop_vlan(pkt);
  net::push_nsh(pkt, artifact->spi_out, artifact->si_out);
  links_.tor.accept(std::move(pkt), out_ns);
}

}  // namespace lemur::runtime
