#include "src/runtime/testbed.h"

#include <algorithm>

#include "src/nf/software/crypto_nfs.h"
#include "src/nf/software/factory.h"
#include "src/placer/profile.h"
#include "src/telemetry/json.h"
#include "src/verify/verifier.h"

namespace lemur::runtime {
namespace {

constexpr metacompiler::PortMap kPorts;

/// "[rule] locus: message" of a report's first error-severity finding.
std::string first_error(const verify::Report& report) {
  for (const auto& d : report.diagnostics) {
    if (d.severity == verify::Severity::kError) {
      return "[" + d.rule + "] " + d.locus + ": " + d.message;
    }
  }
  return {};
}

}  // namespace

/// Wire from the ToR to a server NIC: packets become visible to PortInc
/// once their ready time passes.
class Testbed::WireSource : public bess::PacketSource {
 public:
  [[nodiscard]] bool full() const { return fifo_.size() >= kCapacity; }

  void push(net::Packet pkt, std::uint64_t ready_ns) {
    fifo_.emplace_back(ready_ns, std::move(pkt));
  }

  std::size_t pull(net::PacketBatch& out, std::size_t max,
                   std::uint64_t now_ns) override {
    std::size_t n = 0;
    while (n < max && !fifo_.empty() && fifo_.front().first <= now_ns) {
      out.push(std::move(fifo_.front().second));
      fifo_.pop_front();
      ++n;
    }
    return n;
  }

  [[nodiscard]] std::size_t depth() const { return fifo_.size(); }

  [[nodiscard]] std::map<std::uint32_t, std::uint64_t>
  residents_by_aggregate() const {
    std::map<std::uint32_t, std::uint64_t> out;
    for (const auto& [ready, pkt] : fifo_) ++out[pkt.aggregate_id];
    return out;
  }

  /// Removes and returns every queued packet (fault/recovery flush).
  [[nodiscard]] std::deque<std::pair<std::uint64_t, net::Packet>>
  take_all() {
    return std::exchange(fifo_, {});
  }

 private:
  static constexpr std::size_t kCapacity = 16384;
  std::deque<std::pair<std::uint64_t, net::Packet>> fifo_;
};

/// Collects server egress for re-injection at the ToR. Closes the open
/// server hop: a hop's exit can never precede its enter, so per-core
/// virtual-clock skew is clamped away rather than producing negative
/// residencies.
class Testbed::ReturnSink : public bess::PacketSink {
 public:
  void push(net::PacketBatch&& batch, std::uint64_t now_ns) override {
    for (auto& pkt : batch) {
      if (!pkt.hops.empty() && pkt.hops.back().exit_ns == 0) {
        auto& hop = pkt.hops.back();
        hop.exit_ns = std::max(hop.enter_ns, now_ns);
      }
      collected_.emplace_back(now_ns, std::move(pkt));
    }
  }

  std::vector<std::pair<std::uint64_t, net::Packet>> drain() {
    return std::exchange(collected_, {});
  }

 private:
  std::vector<std::pair<std::uint64_t, net::Packet>> collected_;
};

Testbed::Testbed(const std::vector<chain::ChainSpec>& chains,
                 const placer::PlacementResult& placement,
                 const metacompiler::CompiledArtifacts& artifacts,
                 const topo::Topology& topo, std::uint64_t seed,
                 FlowMode flow_mode)
    : chains_(&chains),
      placement_(&placement),
      artifacts_(&artifacts),
      topo_(&topo),
      flow_mode_(flow_mode),
      seed_(seed) {
  delivered_bytes_.assign(chains.size(), 0);
  offered_packets_.assign(chains.size(), 0);
  offered_bytes_.assign(chains.size(), 0);
  latency_ns_.assign(chains.size(), {});
  raw_latency_ns_.assign(chains.size(), {});
  shed_.assign(chains.size(), 0);
  if (!artifacts.ok) {
    error_ = "artifacts not compiled: " + artifacts.error;
    return;
  }
  // Re-run the deployment verifier on the artifacts as handed to us (not
  // the report stored at compile time — artifacts may have been modified
  // since). Error-severity findings mean misrouted traffic or
  // overcommitted resources, so deployment is refused outright.
  const auto report = verify::verify_artifacts(chains, placement, artifacts,
                                               topo);
  if (report.has_errors()) {
    error_ = "deployment verifier found " +
             std::to_string(report.count(verify::Severity::kError)) +
             " error(s); first: " + first_error(report);
    return;
  }
  build();
}

void Testbed::build() {
  error_.clear();
  tor_.reset();
  servers_.clear();
  server_of_port_.clear();
  of_switch_.reset();
  chain_of_aggregate_.clear();
  for (std::size_t c = 0; c < chains_->size(); ++c) {
    // First chain wins, as a scan in chain order would.
    chain_of_aggregate_.emplace((*chains_)[c].aggregate_id,
                                static_cast<int>(c));
  }
  segment_index_ = metacompiler::SegmentIndex(artifacts_->routings);
  // resize, not assign: servers already marked dead stay dead across a
  // swap (the degraded plan routes nothing at them anyway).
  server_dead_.resize(topo_->servers.size(), 0);
  bounce_ns_ = static_cast<std::uint64_t>(topo_->bounce_latency_us * 1000);
  build_tor();
  if (!error_.empty()) return;
  tor_backlog_ = &metrics_.gauge("tor.backlog");
  build_servers();
  build_nics();
  build_openflow();
}

Testbed::~Testbed() = default;

int Testbed::chain_of(std::uint32_t aggregate_id) const {
  const auto it = chain_of_aggregate_.find(aggregate_id);
  return it == chain_of_aggregate_.end() ? 0 : it->second;
}

void Testbed::drop(net::Packet&& pkt, net::HopPlatform platform,
                   telemetry::DropCause cause) {
  drop_ledger_.add(chain_of(pkt.aggregate_id), platform, cause);
  pool_.release(std::move(pkt));
}

telemetry::Counter& Testbed::fault_counter(Element element) {
  auto& counter = fault_counters_[element];
  if (counter == nullptr) {
    counter = &metrics_.counter("fault." + element.name() + ".drops");
  }
  return *counter;
}

void Testbed::fault_drop(net::Packet&& pkt, net::HopPlatform platform,
                         Element element) {
  // A ledger spike says *that* something died; the per-element counter
  // says *what*.
  fault_counter(element).add(1);
  drop(std::move(pkt), platform, telemetry::DropCause::kFault);
}

void Testbed::trace_hop(net::Packet& pkt, net::HopPlatform platform,
                        std::uint16_t id, std::uint64_t exit_ns) {
  if (!tracing_) return;
  net::PacketHop hop;
  hop.platform = platform;
  hop.id = id;
  hop.enter_ns =
      pkt.hops.empty() ? pkt.arrival_ns : pkt.hops.back().exit_ns;
  hop.exit_ns = platform == net::HopPlatform::kServer
                    ? 0
                    : std::max(hop.enter_ns, exit_ns);
  const auto* layers = pkt.layers();
  if (layers != nullptr && layers->nsh) {
    hop.spi = layers->nsh->spi;
    hop.si = layers->nsh->si;
  }
  pkt.hops.push_back(hop);
}

void Testbed::build_tor() {
  tor_ = std::make_unique<pisa::PisaSwitch>(artifacts_->p4.program,
                                            topo_->tor);
  auto compiled = tor_->load();
  if (!compiled.ok) {
    error_ = "ToR program failed to compile: " + compiled.error;
    return;
  }
  for (const auto& [table, entry] : artifacts_->p4.entries) {
    if (!tor_->add_entry(table, entry)) {
      error_ = "failed to install entry into '" + table + "'";
      return;
    }
  }
  // The metacompiler's coordination tables (steering, routing) drop
  // unrouted traffic; every other table drop is an NF's own verdict.
  tor_drop_cause_.clear();
  for (const auto& table : tor_->program().tables) {
    tor_drop_cause_.push_back(
        artifacts_->p4.coordination_tables.count(table.name) != 0
            ? telemetry::DropCause::kRoutingMiss
            : telemetry::DropCause::kNfVerdict);
  }
}

void Testbed::build_servers() {
  servers_.resize(topo_->servers.size());
  for (std::size_t s = 0; s < topo_->servers.size(); ++s) {
    auto& rt = servers_[s];
    rt.dataplane = std::make_unique<bess::ServerDataplane>(
        topo_->servers[s], seed_ + s);
    rt.dataplane->set_packet_pool(&pool_);
    rt.source = std::make_unique<WireSource>();
    rt.sink = std::make_unique<ReturnSink>();
    server_of_port_[kPorts.server(static_cast<int>(s))] = static_cast<int>(s);
    const std::string prefix = "server" + std::to_string(s);
    rt.wire_depth = {&metrics_.gauge(prefix + ".wire_depth"),
                     &metrics_.histogram(prefix + ".wire_depth")};
    rt.queue_depth = {&metrics_.gauge(prefix + ".queue_depth"),
                      &metrics_.histogram(prefix + ".queue_depth")};
    auto& dp = *rt.dataplane;

    const auto& plan = artifacts_->server_plans[s];
    if (plan.segments.empty()) continue;

    auto* inc = dp.add_module<bess::PortInc>(rt.source.get());
    auto* demux = dp.add_module<bess::NshDecap>();
    auto* out = dp.add_module<bess::PortOut>(rt.sink.get());
    auto* loopback = dp.add_module<bess::Queue>(8192);
    inc->connect(0, demux);
    dp.add_task(0, bess::Task(inc));
    dp.add_task(0, bess::Task(loopback, demux));
    rt.demux = demux;
    rt.queues.push_back(loopback);

    int demux_gate = 0;
    for (const auto& seg : plan.segments) {
      const auto& graph =
          (*chains_)[static_cast<std::size_t>(seg.chain)].graph;
      const int replicas = seg.replicas();

      // Replica queues fed from the demux (via round-robin when k > 1).
      const std::size_t first_queue = rt.queues.size();
      if (replicas > 1) {
        auto* steer = dp.add_module<bess::LoadBalanceSteer>(replicas);
        demux->map(seg.spi_in, seg.si_in, demux_gate);
        demux->connect(demux_gate++, steer);
        for (int r = 0; r < replicas; ++r) {
          auto* q = dp.add_module<bess::Queue>(4096);
          steer->connect(r, q);
          rt.queues.push_back(q);
        }
      } else {
        auto* q = dp.add_module<bess::Queue>(4096);
        demux->map(seg.spi_in, seg.si_in, demux_gate);
        demux->connect(demux_gate++, q);
        rt.queues.push_back(q);
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
              !seg.generated_steering.empty() &&
              node_id == seg.nodes.back()) {
            auto* match = dynamic_cast<nf::MatchNf*>(nf_impl.get());
            if (match != nullptr && match->match_rules().empty()) {
              for (const auto& rule : seg.generated_steering) {
                match->add_rule(rule);
              }
            }
          }
          auto* module = dp.add_module<nf::NfModule>(std::move(nf_impl));
          rt.nfs.push_back({module, seg.chain, node_id});
          if (head == nullptr) head = module;
          if (tail != nullptr) tail->connect(0, module);
          tail = module;
        }

        // Generated steering module after a non-Match branching tail.
        const int tail_node = seg.nodes.back();
        const bool tail_is_match =
            graph.node(tail_node).type == nf::NfType::kMatch;
        if (seg.needs_generated_steering() && !tail_is_match) {
          nf::NfConfig empty;
          auto steer_nf = std::make_unique<nf::MatchNf>(empty);
          for (const auto& rule : seg.generated_steering) {
            steer_nf->add_rule(rule);
          }
          auto* module = dp.add_module<nf::NfModule>(std::move(steer_nf));
          rt.nfs.push_back({module, seg.chain, -1});
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

        // t_max enforcement lives in the BESS scheduler (appendix
        // A.1.3): each replica's task is rate-limited to its share of
        // the chain's burst cap.
        bess::RateLimit limit;
        const double t_max =
            (*chains_)[static_cast<std::size_t>(seg.chain)].slo.t_max_gbps;
        if (t_max < chain::Slo::kUnbounded) {
          limit.bits_per_sec = t_max * 1e9 * seg.traffic_fraction / replicas;
          limit.burst_bits = 2e6;
        }
        dp.add_task(
            seg.replica_cores[static_cast<std::size_t>(r)],
            bess::Task(rt.queues[first_queue + static_cast<std::size_t>(r)],
                       head),
            limit);
      }
    }
  }
}

void Testbed::build_nics() {
  for (const auto& artifact : artifacts_->nic_programs) {
    const auto& spec =
        topo_->smartnics[static_cast<std::size_t>(artifact.smartnic)];
    const auto server = static_cast<std::size_t>(spec.attached_server);
    auto& rt = servers_[server].nic;
    if (!rt.device) {
      rt.device = std::make_unique<nic::SmartNic>(spec);
      nic::HelperConfig helpers;
      nf::derive_key_material("lemur-chacha-key", helpers.chacha_key);
      nf::derive_key_material("lemur-nonce", helpers.chacha_nonce);
      auto verdict = rt.device->load(artifact.program, helpers);
      if (!verdict.ok) {
        error_ = "SmartNIC program rejected: " + verdict.error;
        return;
      }
    }
    // Engine occupancy per packet: the NF's profiled cycles at the
    // device's speed-up over a core of the attached server.
    const auto& node = (*chains_)[static_cast<std::size_t>(artifact.chain)]
                           .graph.node(artifact.node);
    const auto cost_cycles = nf::effective_cycle_cost(node.type, node.config);
    const auto cost_ns = static_cast<std::uint64_t>(
        static_cast<double>(cost_cycles) /
        (topo_->servers[server].clock_ghz *
         rt.device->spec().speedup_vs_core));
    rt.nfs.push_back({&artifact, cost_cycles, cost_ns});
  }
}

void Testbed::build_openflow() {
  if (artifacts_->of_rules.empty()) return;
  of_switch_ = std::make_unique<openflow::OpenFlowSwitch>(
      topo_->openflow.value_or(topo::OpenFlowSwitchSpec{}));
  for (const auto& artifact : artifacts_->of_rules) {
    for (auto rule : artifact.rules) {
      std::string install_error;
      if (!of_switch_->install(std::move(rule), &install_error)) {
        error_ = "OpenFlow rule rejected: " + install_error;
        return;
      }
    }
  }
}

std::uint64_t Testbed::flush_server(ServerRt& rt,
                                    telemetry::DropCause cause) {
  std::uint64_t flushed = 0;
  auto charge = [&](net::Packet&& pkt, net::HopPlatform platform) {
    drop(std::move(pkt), platform, cause);
    ++flushed;
  };
  for (auto& [ready, pkt] : rt.source->take_all()) {
    charge(std::move(pkt), net::HopPlatform::kWire);
  }
  for (auto* queue : rt.queues) {
    for (auto& pkt : queue->take_all()) {
      charge(std::move(pkt), net::HopPlatform::kServer);
    }
  }
  for (auto& [t, pkt] : rt.sink->drain()) {
    charge(std::move(pkt), net::HopPlatform::kServer);
  }
  return flushed;
}

void Testbed::apply_fault_onsets(std::uint64_t now_ns) {
  if (faults_ == nullptr) return;
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    const Element server{Element::Kind::kServer, static_cast<int>(s)};
    if (server_dead_[s] != 0 || !faults_->down(server, now_ns)) continue;
    server_dead_[s] = 1;
    // Everything resident on the dying server is lost right now.
    const std::uint64_t flushed =
        flush_server(servers_[s], telemetry::DropCause::kFault);
    if (flushed > 0) fault_counter(server).add(flushed);
  }
}

void Testbed::set_chain_shed(int chain, bool shed) {
  if (chain < 0 || chain >= static_cast<int>(shed_.size())) return;
  shed_[static_cast<std::size_t>(chain)] = shed ? 1 : 0;
}

void Testbed::export_nf_state() {
  exported_state_.clear();
  for (const auto& rt : servers_) {
    for (const auto& nf : rt.nfs) {
      if (nf.node < 0 || !nf.module->nf().has_state()) continue;
      // Replicas of the same logical NF append their blocks to one
      // snapshot; importers scan the concatenation and keep what is
      // theirs (the NAT filters by port partition).
      nf.module->nf().export_state(exported_state_[{nf.chain, nf.node}]);
    }
  }
}

void Testbed::import_nf_state() {
  for (const auto& rt : servers_) {
    for (const auto& nf : rt.nfs) {
      if (nf.node < 0 || !nf.module->nf().has_state()) continue;
      const auto it = exported_state_.find({nf.chain, nf.node});
      if (it == exported_state_.end() || it->second.empty()) continue;
      nf.module->nf().import_state(it->second.data(), it->second.size());
    }
  }
}

bool Testbed::swap_plan(const std::vector<chain::ChainSpec>& chains,
                        const placer::PlacementResult& placement,
                        const metacompiler::CompiledArtifacts& artifacts,
                        const topo::Topology& topo, std::uint64_t now_ns,
                        std::string* error) {
  // Verify first, and only here: a plan that fails verification must
  // never evict the one that is running, and build() trusts this check.
  std::string refused;
  if (!artifacts.ok) {
    refused = "artifacts not compiled: " + artifacts.error;
  } else if (const auto report = verify::verify_artifacts(
                 chains, placement, artifacts, topo);
             report.has_errors()) {
    refused = "swap refused: " + first_error(report);
  }
  if (!refused.empty()) {
    if (error != nullptr) *error = std::move(refused);
    return false;
  }

  // Capture stateful NF state from the live replicas before teardown.
  export_nf_state();

  // Flush in-flight packets. NSH-tagged packets are mid-chain in the old
  // plan's segment space, which the new plan renumbers — they cannot be
  // replayed, so they are charged to the ledger (cause=recovery-flush)
  // and conservation still holds. Untagged packets are fresh arrivals
  // that simply re-enter through the new ToR program.
  std::deque<std::pair<std::uint64_t, net::Packet>> keep;
  for (auto& [ready, pkt] : to_switch_) {
    const auto* layers = pkt.layers();
    if (layers != nullptr && layers->nsh) {
      drop(std::move(pkt), net::HopPlatform::kTor,
           telemetry::DropCause::kRecovery);
      ++recovery_flush_drops_;
    } else {
      keep.emplace_back(ready, std::move(pkt));
    }
  }
  to_switch_ = std::move(keep);
  for (auto& rt : servers_) {
    recovery_flush_drops_ +=
        flush_server(rt, telemetry::DropCause::kRecovery);
  }

  // Atomic cutover: repoint the live plan and rebuild the rack. build()
  // can only fail on a platform compile regression — surfaced via
  // error_/ok() like a ctor failure.
  chains_ = &chains;
  placement_ = &placement;
  artifacts_ = &artifacts;
  topo_ = &topo;
  build();
  if (!ok()) {
    if (error != nullptr) *error = error_;
    return false;
  }
  import_nf_state();
  ++plan_generation_;
  metrics_.counter("recovery.plan_swaps").add(1);
  metrics_.gauge("recovery.last_swap_ns")
      .set(static_cast<double>(now_ns));
  return true;
}

bool Testbed::capture_egress_to(const std::string& path) {
  auto writer = std::make_unique<net::PcapWriter>(path);
  if (!writer->ok()) return false;
  egress_capture_ = std::move(writer);
  return true;
}

void Testbed::deliver(net::Packet&& pkt, std::uint64_t ready_ns) {
  if (egress_hook_) egress_hook_(pkt);
  if (egress_capture_) egress_capture_->write(pkt, ready_ns);
  const auto chain =
      static_cast<std::size_t>(chain_of(pkt.aggregate_id));
  delivered_bytes_[chain] += pkt.size();
  const std::uint64_t latency =
      ready_ns > pkt.arrival_ns ? ready_ns - pkt.arrival_ns : 0;
  latency_ns_[chain].record(latency);
  if (record_raw_latencies_) raw_latency_ns_[chain].push_back(latency);
  if (tracing_) {
    traces_.observe(pkt, ready_ns, static_cast<int>(chain));
  }
  pool_.release(std::move(pkt));  // Delivered: the buffer is dead.
}

void Testbed::to_server(net::Packet&& pkt, int server,
                        std::uint64_t ready_ns) {
  const Element host{Element::Kind::kServer, server};
  const Element link{Element::Kind::kLink, server};
  // Injected faults intercept the packet before it reaches the NIC/wire.
  if (server_dead_[static_cast<std::size_t>(server)] ||
      (faults_ != nullptr && faults_->down(host, ready_ns))) {
    fault_drop(std::move(pkt), net::HopPlatform::kServer, host);
    return;
  }
  if (faults_ != nullptr && faults_->down(link, ready_ns)) {
    fault_drop(std::move(pkt), net::HopPlatform::kWire, link);
    return;
  }
  if (faults_ != nullptr) {
    switch (faults_->wire_impairment(server, ready_ns)) {
      case FaultScheduler::Impairment::kCorrupt:
        fault_drop(std::move(pkt), net::HopPlatform::kWire,
                   {Element::Kind::kWire, server});
        return;
      case FaultScheduler::Impairment::kDuplicate: {
        // The clone is extra offered load (conservation: both copies are
        // charged somewhere). It bypasses the impairment coin so a
        // rate-1.0 duplication event cannot amplify without bound.
        net::Packet clone = pkt;
        const auto c = static_cast<std::size_t>(chain_of(pkt.aggregate_id));
        ++offered_packets_[c];
        offered_bytes_[c] += clone.size();
        inject_server(std::move(clone), server, ready_ns);
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
  inject_server(std::move(pkt), server, ready_ns);
}

void Testbed::inject_server(net::Packet&& pkt, int server,
                            std::uint64_t ready_ns) {
  auto& rt = servers_[static_cast<std::size_t>(server)];
  // In-line SmartNIC first: it runs the NF whose segment the packet's
  // NSH header names, if one is placed on it.
  NicNfRt* nic_nf = nullptr;
  if (!rt.nic.nfs.empty()) {
    const auto* layers = pkt.layers();
    if (layers != nullptr && layers->nsh) {
      for (auto& nf : rt.nic.nfs) {
        if (nf.artifact->spi_in == layers->nsh->spi &&
            nf.artifact->si_in == layers->nsh->si) {
          nic_nf = &nf;
          break;
        }
      }
    }
  }
  if (nic_nf != nullptr) {
    const auto& artifact = *nic_nf->artifact;
    const Element nic{Element::Kind::kSmartNic, artifact.smartnic};
    if (faults_ != nullptr && faults_->down(nic, ready_ns)) {
      fault_drop(std::move(pkt), net::HopPlatform::kSmartNic, nic);
      return;
    }
    // Engine occupancy: serialized packet processing.
    const std::uint64_t start = std::max(ready_ns, rt.nic.engine_free_ns);
    if (start - ready_ns > 1'000'000) {  // >1ms backlog: overload.
      drop(std::move(pkt), net::HopPlatform::kSmartNic,
           telemetry::DropCause::kQueueOverflow);
      return;
    }
    rt.nic.engine_free_ns = start + nic_nf->cost_ns;
    ++nic_nf->packets;
    // Traced before processing, so the hop carries the segment it runs.
    trace_hop(pkt, net::HopPlatform::kSmartNic,
              static_cast<std::uint16_t>(artifact.smartnic),
              rt.nic.engine_free_ns);
    rt.nic.device->process(pkt, nic_nf->cost_cycles);
    if (pkt.drop) {
      drop(std::move(pkt), net::HopPlatform::kSmartNic,
           telemetry::DropCause::kNfVerdict);
      return;
    }
    net::set_nsh(pkt, artifact.spi_out, artifact.si_out);
    ready_ns = rt.nic.engine_free_ns;
    if (!artifact.local_out) {
      to_switch_.emplace_back(ready_ns + bounce_ns_, std::move(pkt));
      return;
    }
  }
  trace_hop(pkt, net::HopPlatform::kServer,
            static_cast<std::uint16_t>(server), 0);
  if (rt.source->full()) {
    drop(std::move(pkt), net::HopPlatform::kWire,
         telemetry::DropCause::kQueueOverflow);
    return;
  }
  rt.source->push(std::move(pkt), ready_ns);
}

void Testbed::through_openflow(net::Packet&& pkt, std::uint64_t ready_ns) {
  const Element openflow{Element::Kind::kOpenFlow, 0};
  if (faults_ != nullptr && faults_->down(openflow, ready_ns)) {
    fault_drop(std::move(pkt), net::HopPlatform::kOpenFlow, openflow);
    return;
  }
  const metacompiler::OfArtifact* artifact = nullptr;
  const auto* layers = of_switch_ ? pkt.layers() : nullptr;
  if (layers != nullptr && layers->nsh) {
    for (const auto& a : artifacts_->of_rules) {
      if (a.spi_in == layers->nsh->spi && a.si_in == layers->nsh->si) {
        artifact = &a;
      }
    }
  }
  if (artifact == nullptr) {
    drop(std::move(pkt), net::HopPlatform::kOpenFlow,
         telemetry::DropCause::kRoutingMiss);
    return;
  }
  const std::uint64_t out_ns = ready_ns + 2 * bounce_ns_;
  // Traced before the VLAN rewrite, so the hop carries the segment it runs.
  trace_hop(pkt, net::HopPlatform::kOpenFlow, 0, out_ns);
  // NSH -> VLAN at the OF boundary (the OF ASIC has no NSH support).
  net::pop_nsh(pkt);
  net::push_vlan(pkt, artifact->vid_in);
  if (of_switch_->process(pkt).dropped) {
    drop(std::move(pkt), net::HopPlatform::kOpenFlow,
         telemetry::DropCause::kNfVerdict);
    return;
  }
  net::pop_vlan(pkt);
  net::push_nsh(pkt, artifact->spi_out, artifact->si_out);
  to_switch_.emplace_back(out_ns, std::move(pkt));
}

void Testbed::route_from_switch(net::Packet&& pkt,
                                std::uint32_t egress_port,
                                std::uint64_t ready_ns) {
  if (egress_port == kPorts.network_egress) {
    deliver(std::move(pkt), ready_ns);
  } else if (egress_port == kPorts.of_switch) {
    through_openflow(std::move(pkt), ready_ns);
  } else if (const auto it = server_of_port_.find(egress_port);
             it != server_of_port_.end()) {
    to_server(std::move(pkt), it->second, ready_ns + bounce_ns_);
  } else {
    drop(std::move(pkt), net::HopPlatform::kTor,
         telemetry::DropCause::kRoutingMiss);  // Unknown port.
  }
}

void Testbed::sample_queue_depths() {
  tor_backlog_->set(static_cast<double>(to_switch_.size()));
  for (const auto& rt : servers_) {
    rt.wire_depth.record(rt.source->depth());
    std::uint64_t queued = 0;
    for (const auto* queue : rt.queues) queued += queue->depth();
    rt.queue_depth.record(queued);
  }
}

void Testbed::sweep_module_drops() {
  auto sweep = [this](const bess::Module& module,
                      telemetry::DropCause cause) {
    for (const auto& [aggregate, n] : module.drops_by_aggregate()) {
      drop_ledger_.add(chain_of(aggregate), net::HopPlatform::kServer, cause,
                       n);
    }
  };
  for (const auto& rt : servers_) {
    if (rt.demux != nullptr) {
      sweep(*rt.demux, telemetry::DropCause::kRoutingMiss);
    }
    for (const auto* queue : rt.queues) {
      sweep(*queue, telemetry::DropCause::kQueueOverflow);
    }
    for (const auto& nf : rt.nfs) {
      sweep(*nf.module, telemetry::DropCause::kNfVerdict);
    }
  }
}

void Testbed::sweep_residuals(Measurement& out) {
  out.chain_residual.assign(chains_->size(), 0);
  auto credit = [&](std::uint32_t aggregate, std::uint64_t n) {
    out.chain_residual[static_cast<std::size_t>(chain_of(aggregate))] += n;
    out.residual_queued += n;
  };
  for (const auto& [ready, pkt] : to_switch_) credit(pkt.aggregate_id, 1);
  for (const auto& rt : servers_) {
    for (const auto& [aggregate, n] : rt.source->residents_by_aggregate()) {
      credit(aggregate, n);
    }
    for (const auto* queue : rt.queues) {
      for (const auto& [aggregate, n] : queue->residents_by_aggregate()) {
        credit(aggregate, n);
      }
    }
  }
}

std::vector<telemetry::MeasuredNfProfile> Testbed::measured_nf_profiles()
    const {
  // Aggregate replicas of the same (chain, node) into one row.
  std::map<std::pair<int, int>, telemetry::MeasuredNfProfile> rows;
  for (const auto& rt : servers_) {
    for (const auto& nf : rt.nfs) {
      if (nf.node < 0 || nf.module->packets_in() == 0) continue;
      auto& row = rows[{nf.chain, nf.node}];
      if (row.packets == 0) {
        row.chain = nf.chain;
        row.node = nf.node;
        row.type = nf.module->nf().type();
        row.name = (*chains_)[static_cast<std::size_t>(nf.chain)]
                       .graph.node(nf.node)
                       .instance_name;
        row.platform = net::HopPlatform::kServer;
      }
      const double total =
          row.cycles_per_packet * static_cast<double>(row.packets) +
          static_cast<double>(nf.module->cycles_charged());
      row.packets += nf.module->packets_in();
      row.cycles_per_packet = total / static_cast<double>(row.packets);
    }
  }
  std::vector<telemetry::MeasuredNfProfile> out;
  out.reserve(rows.size());
  for (auto& [key, row] : rows) out.push_back(std::move(row));
  // NIC-placed NFs: the engine charges the profiled cost exactly, so the
  // measured profile is the charge itself, at the NF's packet count.
  for (const auto& rt : servers_) {
    for (const auto& nf : rt.nic.nfs) {
      const auto& artifact = *nf.artifact;
      telemetry::MeasuredNfProfile row;
      row.chain = artifact.chain;
      row.node = artifact.node;
      row.type = artifact.type;
      row.name = (*chains_)[static_cast<std::size_t>(artifact.chain)]
                     .graph.node(artifact.node)
                     .instance_name;
      row.platform = net::HopPlatform::kSmartNic;
      row.packets = nf.packets;
      row.cycles_per_packet = static_cast<double>(nf.cost_cycles);
      out.push_back(std::move(row));
    }
  }
  return out;
}

Measurement Testbed::run(double duration_ms,
                         const std::vector<double>& offered_gbps) {
  Measurement out;
  if (!ok()) return out;

  // Offered load: the LP assignment plus headroom, unless overridden.
  std::vector<RateShapedSource> sources;
  for (std::size_t c = 0; c < chains_->size(); ++c) {
    ChainTrafficModel model((*chains_)[c], seed_ + 100 + c, flow_mode_);
    const double offered =
        c < offered_gbps.size()
            ? offered_gbps[c]
            : std::min(placement_->chains[c].assigned_gbps * kOfferedHeadroom,
                       (*chains_)[c].slo.t_max_gbps);
    sources.emplace_back(std::move(model), offered);
  }

  const std::uint64_t duration_ns =
      static_cast<std::uint64_t>(duration_ms * 1e6);
  constexpr std::uint64_t kQuantumNs = 100'000;  // 100 us.
  std::uint64_t now = 0;
  std::vector<net::Packet> fresh;  // Injection scratch, reused per quantum.
  // Extra drain quanta flush in-flight packets after injection stops.
  const std::uint64_t drain_until = duration_ns + 20 * kQuantumNs;

  while (now < drain_until) {
    const std::uint64_t quantum_end = now + kQuantumNs;
    // 0. Fault onsets take effect at the quantum boundary (a dying
    // server loses its resident packets immediately).
    apply_fault_onsets(now);
    // 1. Inject fresh traffic (within the measurement window only).
    if (now < duration_ns) {
      for (std::size_t c = 0; c < sources.size(); ++c) {
        fresh.clear();
        sources[c].emit_until(quantum_end, fresh, &pool_);
        for (auto& pkt : fresh) {
          const std::uint64_t t = pkt.arrival_ns;
          ++offered_packets_[c];
          offered_bytes_[c] += pkt.size();
          to_switch_.emplace_back(t, std::move(pkt));
        }
      }
    }
    // 2. ToR processing for everything that has arrived.
    std::deque<std::pair<std::uint64_t, net::Packet>> later;
    while (!to_switch_.empty()) {
      auto [ready, pkt] = std::move(to_switch_.front());
      to_switch_.pop_front();
      if (ready > quantum_end) {
        later.emplace_back(ready, std::move(pkt));
        continue;
      }
      // Admission control for shed chains: still offered, dropped at the
      // ToR with an explicit degradation cause.
      if (shed_[static_cast<std::size_t>(chain_of(pkt.aggregate_id))] != 0) {
        drop(std::move(pkt), net::HopPlatform::kTor,
             telemetry::DropCause::kAdmissionShed);
        continue;
      }
      const auto result = tor_->process(pkt);
      if (result.dropped) {
        drop(std::move(pkt), net::HopPlatform::kTor,
             result.drop_table < 0
                 ? telemetry::DropCause::kRoutingMiss
                 : tor_drop_cause_[static_cast<std::size_t>(
                       result.drop_table)]);
        continue;
      }
      trace_hop(pkt, net::HopPlatform::kTor, 0, ready);
      route_from_switch(std::move(pkt), result.egress_port, ready);
    }
    to_switch_ = std::move(later);
    // 3. Server dataplanes advance to the quantum boundary (dead servers
    // execute nothing).
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      if (server_dead_[s] == 0) {
        servers_[s].dataplane->run_until_ns(quantum_end);
      }
    }
    // 4. Server egress returns to the ToR after a bounce.
    for (auto& rt : servers_) {
      for (auto& [t, pkt] : rt.sink->drain()) {
        to_switch_.emplace_back(t + bounce_ns_, std::move(pkt));
      }
    }
    sample_queue_depths();
    // 5. The recovery controller observes this quantum's telemetry and,
    // when it decides to, swaps the plan in the gap between quanta.
    if (recovery_ != nullptr) {
      recovery_->on_quantum(*this, quantum_end);
      if (!ok()) break;  // A swap's build() failed; abort the run.
    }
    now = quantum_end;
  }

  sweep_module_drops();
  sweep_residuals(out);

  out.chain_gbps.resize(chains_->size());
  out.chain_latency_us.resize(chains_->size());
  out.chain_p50_us.resize(chains_->size());
  out.chain_p95_us.resize(chains_->size());
  out.chain_p99_us.resize(chains_->size());
  out.chain_max_us.resize(chains_->size());
  out.chain_offered.resize(chains_->size());
  out.chain_delivered.resize(chains_->size());
  out.chain_dropped.resize(chains_->size());
  std::vector<double> offered_gbps_v(chains_->size(), 0);
  for (std::size_t c = 0; c < chains_->size(); ++c) {
    // bits / ns == Gbps.
    out.chain_gbps[c] = static_cast<double>(delivered_bytes_[c]) * 8.0 /
                        (duration_ms * 1e6);
    out.aggregate_gbps += out.chain_gbps[c];
    const auto& hist = latency_ns_[c];
    out.chain_latency_us[c] = hist.mean() / 1000.0;
    if (hist.count() > 0) {
      out.chain_p50_us[c] = hist.quantile(0.50) / 1e3;
      out.chain_p95_us[c] = hist.quantile(0.95) / 1e3;
      out.chain_p99_us[c] = hist.quantile(0.99) / 1e3;
      out.chain_max_us[c] = static_cast<double>(hist.max()) / 1e3;
    }
    out.chain_offered[c] = offered_packets_[c];
    out.offered_packets += offered_packets_[c];
    out.chain_delivered[c] = hist.count();
    out.chain_dropped[c] =
        drop_ledger_.chain_total(static_cast<int>(c));
    out.delivered_packets += hist.count();
    offered_gbps_v[c] = static_cast<double>(offered_bytes_[c]) * 8.0 /
                        (duration_ms * 1e6);
  }
  // Legacy semantics: fabric drops only — in-server losses (NF verdicts,
  // queue overflow inside a pipeline) stay in unaccounted().
  out.dropped_packets = 0;
  for (const auto& [key, n] : drop_ledger_.cells()) {
    if (std::get<1>(key) != net::HopPlatform::kServer) {
      out.dropped_packets += n;
    }
  }
  out.drops = drop_ledger_;

  // Finalize the metrics registry.
  for (std::size_t c = 0; c < chains_->size(); ++c) {
    const std::string prefix = "chain" + std::to_string(c);
    metrics_.counter(prefix + ".offered_packets").add(offered_packets_[c]);
    metrics_.counter(prefix + ".delivered_packets").add(latency_ns_[c].count());
    metrics_.histogram(prefix + ".latency_ns").merge(latency_ns_[c]);
  }
  for (const auto& [key, n] : drop_ledger_.cells()) {
    metrics_
        .counter("chain" + std::to_string(std::get<0>(key)) + ".drops." +
                 net::to_string(std::get<1>(key)) + "." +
                 telemetry::to_string(std::get<2>(key)))
        .add(n);
  }

  // SLO compliance for the run.
  std::vector<const telemetry::LatencyHistogram*> hists;
  hists.reserve(chains_->size());
  for (const auto& hist : latency_ns_) hists.push_back(&hist);
  out.slo = telemetry::evaluate_slo(*chains_, *placement_, offered_gbps_v,
                                    out.chain_gbps, hists, traces_,
                                    drop_ledger_);
  if (recovery_ != nullptr) out.recovery = recovery_->events();
  return out;
}

std::string Testbed::stats_json(const Measurement& m) const {
  telemetry::JsonWriter w;
  w.begin_object();

  w.key("measurement");
  w.begin_object();
  w.kv("aggregate_gbps", m.aggregate_gbps);
  w.kv("offered_packets", m.offered_packets);
  w.kv("delivered_packets", m.delivered_packets);
  w.kv("dropped_packets", m.dropped_packets);
  w.kv("residual_queued", m.residual_queued);
  w.key("chains");
  w.begin_array();
  for (std::size_t c = 0; c < chains_->size(); ++c) {
    w.begin_object();
    w.kv("chain", static_cast<int>(c) + 1);
    w.kv("name", (*chains_)[c].name);
    w.kv("gbps", c < m.chain_gbps.size() ? m.chain_gbps[c] : 0);
    w.kv("latency_mean_us",
         c < m.chain_latency_us.size() ? m.chain_latency_us[c] : 0);
    w.kv("latency_p50_us", c < m.chain_p50_us.size() ? m.chain_p50_us[c] : 0);
    w.kv("latency_p95_us", c < m.chain_p95_us.size() ? m.chain_p95_us[c] : 0);
    w.kv("latency_p99_us", c < m.chain_p99_us.size() ? m.chain_p99_us[c] : 0);
    w.kv("latency_max_us", c < m.chain_max_us.size() ? m.chain_max_us[c] : 0);
    w.kv("offered", c < m.chain_offered.size() ? m.chain_offered[c] : 0);
    w.kv("delivered",
         c < m.chain_delivered.size() ? m.chain_delivered[c] : 0);
    w.kv("dropped", c < m.chain_dropped.size() ? m.chain_dropped[c] : 0);
    w.kv("residual", c < m.chain_residual.size() ? m.chain_residual[c] : 0);
    w.kv("slo_compliant", m.slo.compliant(static_cast<int>(c)));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("slo");
  w.begin_object();
  w.kv("compliant", m.slo.compliant());
  w.key("violations");
  w.begin_array();
  for (const auto& v : m.slo.violations) {
    w.begin_object();
    w.kv("chain", v.chain + 1);
    w.kv("kind", telemetry::to_string(v.kind));
    w.kv("observed", v.observed);
    w.kv("bound", v.bound);
    w.kv("responsible_hop", v.responsible_hop);
    w.kv("hop_share", v.hop_share);
    w.kv("detail", v.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("drops");
  w.begin_array();
  for (const auto& [key, n] : m.drops.cells()) {
    w.begin_object();
    w.kv("chain", std::get<0>(key) + 1);
    w.kv("platform", net::to_string(std::get<1>(key)));
    w.kv("cause", telemetry::to_string(std::get<2>(key)));
    w.kv("count", n);
    w.end_object();
  }
  w.end_array();

  w.key("hops");
  w.begin_array();
  for (const auto& [key, stats] : traces_.hops()) {
    w.begin_object();
    w.kv("chain", key.first + 1);
    w.kv("hop", telemetry::to_string(key.second));
    if (key.second.spi != 0) {
      w.kv("segment", segment_index_.label(key.second.spi, key.second.si));
    }
    w.kv("packets", stats.packets);
    w.kv("mean_ns", stats.mean_ns());
    w.kv("p99_ns", stats.residency_ns.quantile(0.99));
    w.kv("max_ns", stats.residency_ns.max());
    w.end_object();
  }
  w.end_array();

  if (!m.recovery.empty()) {
    w.key("recovery");
    w.begin_array();
    for (const auto& ev : m.recovery) {
      w.begin_object();
      w.kv("element", ev.element);
      w.kv("action", ev.action);
      w.kv("detected_ns", ev.detected_ns);
      w.kv("recovered_ns", ev.recovered_ns);
      w.kv("mttr_ns", ev.recovered_ns > ev.detected_ns
                          ? ev.recovered_ns - ev.detected_ns
                          : 0);
      w.kv("fault_window_drops", ev.fault_window_drops);
      w.kv("recovery_flush_drops", ev.recovery_flush_drops);
      w.kv("slo_violation_ns", ev.slo_violation_ns);
      w.kv("recovered", ev.recovered);
      w.key("replaced_chains");
      w.begin_array();
      for (const int c : ev.replaced_chains) w.value(c + 1);
      w.end_array();
      w.key("shed_chains");
      w.begin_array();
      for (const int c : ev.shed_chains) w.value(c + 1);
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }

  w.key("trace_health");
  w.begin_object();
  w.kv("traces_observed", traces_.traces_observed());
  w.kv("continuity_errors", traces_.continuity_errors());
  w.kv("first_continuity_error", traces_.first_continuity_error());
  w.end_object();

  w.key("measured_profiles");
  w.raw(telemetry::to_json(measured_nf_profiles()));

  w.key("metrics");
  w.raw(metrics_.to_json());

  w.end_object();
  return w.str();
}

}  // namespace lemur::runtime
