// The Testbed's run loop as one stage per rack element. Each stage owns
// its element's state and is built from the plan. A stage takes a packet
// with the virtual time it arrives (accept) and hands it on through the
// next stage's accept; everything else it charges to the shared Report.
// No stage reads another's members. The stage order of a quantum and the
// ordering invariants are in DESIGN.md "Run loop".
#pragma once

#include <algorithm>
#include <deque>

#include "src/bess/dataplane.h"
#include "src/bess/queue.h"
#include "src/metacompiler/metacompiler.h"
#include "src/nf/software/software_nf.h"
#include "src/nic/interpreter.h"
#include "src/openflow/of_switch.h"
#include "src/pisa/switch_sim.h"
#include "src/runtime/report.h"
#include "src/runtime/traffic.h"

namespace lemur::runtime {

/// A rack element that packets enter.
class Stage {
 public:
  virtual ~Stage() = default;
  /// Takes a packet that reaches this element at `ready_ns`.
  virtual void accept(net::Packet&& pkt, std::uint64_t ready_ns) = 0;
};

/// What the stages of one plan share besides the Report.
struct StageLinks {
  Report& report;
  FaultScheduler* const& faults;  ///< The Testbed's; null without faults.
  Stage& tor;                     ///< Where server and fabric egress go.
  std::uint64_t bounce_ns;        ///< One switch<->server hand-off.
};

/// Stateful-NF snapshots by (chain, node), carried across a plan swap.
using NfState = std::map<std::pair<int, int>, std::vector<std::uint8_t>>;

/// Each chain's rate-shaped traffic source, emitting into the ToR.
class Sources {
 public:
  /// `offered_gbps` overrides the per-chain offered load; past its end a
  /// chain offers its LP-assigned rate times `headroom`, capped at t_max.
  Sources(const std::vector<chain::ChainSpec>& chains,
          const placer::PlacementResult& placement,
          const std::vector<double>& offered_gbps, double headroom,
          std::uint64_t seed, FlowMode flow_mode) {
    for (std::size_t c = 0; c < chains.size(); ++c) {
      ChainTrafficModel model(chains[c], seed + 100 + c, flow_mode);
      sources_.emplace_back(
          std::move(model),
          c < offered_gbps.size()
              ? offered_gbps[c]
              : std::min(placement.chains[c].assigned_gbps * headroom,
                         chains[c].slo.t_max_gbps));
    }
  }
  /// Emits every packet due by `until_ns`, chain by chain, as offered.
  void emit(std::uint64_t until_ns, Stage& tor, Report& report) {
    for (std::size_t c = 0; c < sources_.size(); ++c) {
      fresh_.clear();
      sources_[c].emit_until(until_ns, fresh_, &report.pool);
      for (auto& pkt : fresh_) {
        report.offer(static_cast<int>(c), pkt);
        const std::uint64_t t = pkt.arrival_ns;
        tor.accept(std::move(pkt), t);
      }
    }
  }

 private:
  std::vector<RateShapedSource> sources_;
  std::vector<net::Packet> fresh_;  ///< Reused per quantum.
};

/// The ToR: its inbox, the loaded P4 program with each table's drop
/// cause, and admission shed. The inbox drains in insertion order, not
/// by ready time (DESIGN.md "Run loop").
class TorStage : public Stage {
 public:
  TorStage(Report& report, std::size_t chains)
      : report_(report), shed_(chains, 0) {}
  /// Loads a plan's program and entries; returns why the switch refused
  /// them (empty: loaded). The inbox and the shed chains carry over.
  std::string load(const metacompiler::P4Artifact& p4,
                   const topo::PisaSwitchSpec& spec);
  /// Routes to `openflow` and `servers` (indexed like PortMap::server).
  void connect(Stage* openflow, std::vector<Stage*> servers,
               std::uint64_t bounce_ns) {
    openflow_ = openflow;
    servers_ = std::move(servers);
    bounce_ns_ = bounce_ns;
  }
  void accept(net::Packet&& pkt, std::uint64_t ready_ns) override {
    inbox_.emplace_back(ready_ns, std::move(pkt));
  }
  /// Switches every packet ready by `quantum_end`; later ones wait.
  void advance(std::uint64_t quantum_end);
  /// Drops the NSH-tagged packets, which are mid-chain in a plan that is
  /// being replaced (cause=recovery-flush); returns how many.
  std::uint64_t flush_tagged();
  void set_shed(int chain, bool shed) {
    if (chain >= 0 && chain < static_cast<int>(shed_.size())) {
      shed_[static_cast<std::size_t>(chain)] = shed ? 1 : 0;
    }
  }
  void sample() const { backlog_->set(static_cast<double>(inbox_.size())); }
  /// Counts the inbox as residual.
  void finish() const {
    for (const auto& [ready, pkt] : inbox_) report_.residual(pkt);
  }
  [[nodiscard]] const pisa::PisaSwitch& device() const { return *switch_; }

 private:
  void route(net::Packet&& pkt, std::uint32_t port, std::uint64_t ready_ns);

  Report& report_;
  std::unique_ptr<pisa::PisaSwitch> switch_;
  /// Drop cause per ToR table, indexed like the program's tables.
  std::vector<telemetry::DropCause> drop_cause_;
  std::deque<std::pair<std::uint64_t, net::Packet>> inbox_;
  std::vector<char> shed_;  ///< Admission-shed chains.
  Stage* openflow_ = nullptr;
  std::vector<Stage*> servers_;
  std::uint64_t bounce_ns_ = 0;
  telemetry::Gauge* backlog_ = nullptr;
};

/// An in-line SmartNIC in front of a server: runs the program of the NF
/// whose segment the packet's NSH header names on one serialized engine,
/// and passes every other packet to the server's wire.
class NicStage : public Stage {
 public:
  NicStage(StageLinks links, Stage& wire) : links_(links), wire_(wire) {}
  /// Adds a NIC-placed NF with its own program, which the deployment
  /// verifier has checked (rule nic.program-verifies).
  void add(const metacompiler::NicArtifact& artifact,
           const topo::SmartNicSpec& spec, const topo::ServerSpec& server,
           const std::vector<chain::ChainSpec>& chains);
  void accept(net::Packet&& pkt, std::uint64_t ready_ns) override;
  void sample_nfs(std::vector<NfSample>& out) const {
    for (const auto& nf : nfs_) {
      const auto& a = *nf.artifact;
      out.push_back({a.chain, a.node, a.type, net::HopPlatform::kSmartNic,
                     nf.packets, nf.cost_cycles});
    }
  }

 private:
  /// A NIC-placed NF: its program (in the artifact), the keystream its
  /// kChaCha20 helper XORs, and its per-packet engine cost.
  struct Nf {
    const metacompiler::NicArtifact* artifact;
    nf::crypto::ChaCha20Keystream chacha;
    std::uint64_t cost_cycles;
    std::uint64_t cost_ns;
    std::uint64_t packets = 0;  ///< Packets the engine ran through this NF.
  };

  StageLinks links_;
  Stage& wire_;
  std::vector<Nf> nfs_;
  /// NF by (spi_in, si_in); the first NF added wins.
  std::map<std::pair<std::uint32_t, std::uint8_t>, std::size_t> by_nsh_;
  std::uint64_t engine_free_ns_ = 0;
};

/// A server behind its ToR link: fault interception (death, link down,
/// wire impairments), the in-line SmartNIC, the wire FIFO, the BESS
/// dataplane, the return sink and the depth series. Everything the loop
/// needs is resolved at construction: no module casts, name parsing or
/// metric name building per packet.
class ServerStage : public Stage {
 public:
  ServerStage(StageLinks links, int index,
              const std::vector<chain::ChainSpec>& chains,
              const metacompiler::ServerPlan& plan,
              const topo::ServerSpec& spec, std::uint64_t seed, bool dead);
  // The dataplane's ports and the SmartNIC hold addresses into the stage.
  ServerStage(const ServerStage&) = delete;
  ServerStage& operator=(const ServerStage&) = delete;

  void accept(net::Packet&& pkt, std::uint64_t ready_ns) override;
  [[nodiscard]] NicStage& nic() { return nic_; }
  [[nodiscard]] const bess::ServerDataplane& dataplane() const {
    return *dataplane_;
  }

  /// Runs the dataplane to `quantum_end` (a dead server runs nothing),
  /// returns its egress to the ToR one bounce later, samples its depths.
  void advance(std::uint64_t quantum_end) {
    if (!dead_) dataplane_->run_until_ns(quantum_end);
    for (auto& [t, pkt] : std::exchange(sink_.collected, {})) {
      links_.tor.accept(std::move(pkt), t + links_.bounce_ns);
    }
    std::uint64_t wire = 0;
    std::uint64_t queued = 0;
    walk([&](net::HopPlatform platform, const auto& fifo) {
      (platform == net::HopPlatform::kWire ? wire : queued) += fifo.size();
    });
    wire_depth_.record(wire);
    queue_depth_.record(queued);
  }
  /// Drops every resident packet, charging `cause`; returns how many.
  std::uint64_t flush(telemetry::DropCause cause) {
    std::uint64_t flushed = 0;
    walk([&](net::HopPlatform platform, auto& fifo) {
      for (auto& e : fifo) {
        links_.report.drop(std::move(packet_of(e)), platform, cause);
      }
      flushed += fifo.size();
      fifo.clear();
    });
    return flushed;
  }
  /// The server dies now: its residents are lost (cause=fault).
  void fail() {
    dead_ = true;
    if (const auto lost = flush(telemetry::DropCause::kFault); lost > 0) {
      links_.report.fault_counter({Element::Kind::kServer, index_}).add(lost);
    }
  }
  /// Charges the drops its BESS modules counted (queue overflow, NF
  /// verdicts, demux misses) to the ledger; due before the modules go,
  /// at run end or when a plan swap tears them down.
  void sweep_module_drops();
  /// Sweeps module drops and counts residents as residual.
  void finish();
  void export_state(NfState& out) const {
    // Replicas of the same logical NF append their blocks to one snapshot;
    // importers scan the concatenation and keep what is theirs (the NAT
    // filters by port partition).
    for (const auto& nf : nfs_) {
      if (nf.node >= 0 && nf.module->nf().has_state()) {
        nf.module->nf().export_state(out[{nf.chain, nf.node}]);
      }
    }
  }
  void import_state(const NfState& in) {
    for (const auto& nf : nfs_) {
      if (nf.node < 0 || !nf.module->nf().has_state()) continue;
      const auto it = in.find({nf.chain, nf.node});
      if (it == in.end() || it->second.empty()) continue;
      nf.module->nf().import_state(it->second.data(), it->second.size());
    }
  }
  /// This server's NF modules that saw packets, then its SmartNIC's NFs.
  void sample_nfs(std::vector<NfSample>& out) const {
    for (const auto& nf : nfs_) {
      if (nf.node < 0 || nf.module->packets_in() == 0) continue;
      out.push_back({nf.chain, nf.node, nf.module->nf().type(),
                     net::HopPlatform::kServer, nf.module->packets_in(),
                     nf.module->cycles_charged()});
    }
    nic_.sample_nfs(out);
  }

  /// Wire from the ToR to the server NIC: packets become visible to
  /// PortInc once their ready time passes. Accepting opens the server hop.
  class Wire : public bess::PacketSource, public Stage {
   public:
    Wire(Report& report, int server) : report_(report), server_(server) {}
    void accept(net::Packet&& pkt, std::uint64_t ready_ns) override {
      report_.trace_hop(pkt, net::HopPlatform::kServer,
                        static_cast<std::uint16_t>(server_), 0);
      if (fifo.size() >= kCapacity) {
        report_.drop(std::move(pkt), net::HopPlatform::kWire,
                     telemetry::DropCause::kQueueOverflow);
        return;
      }
      fifo.emplace_back(ready_ns, std::move(pkt));
    }
    std::size_t pull(net::PacketBatch& out, std::size_t max,
                     std::uint64_t now_ns) override {
      std::size_t n = 0;
      for (; n < max && !fifo.empty() && fifo.front().first <= now_ns; ++n) {
        out.push(std::move(fifo.front().second));
        fifo.pop_front();
      }
      return n;
    }
    [[nodiscard]] bool idle(std::uint64_t now_ns) const override {
      return fifo.empty() || fifo.front().first > now_ns;
    }
    std::deque<std::pair<std::uint64_t, net::Packet>> fifo;

   private:
    static constexpr std::size_t kCapacity = 16384;
    Report& report_;
    int server_;
  };

 private:
  /// Collects server egress for the ToR. Closes the open server hop: a
  /// hop's exit can never precede its enter, so per-core virtual-clock
  /// skew is clamped away rather than producing negative residencies.
  struct ReturnSink : bess::PacketSink {
    void push(net::PacketBatch&& batch, std::uint64_t now_ns) override {
      for (auto& pkt : batch) {
        if (!pkt.hops.empty() && pkt.hops.back().exit_ns == 0) {
          auto& hop = pkt.hops.back();
          hop.exit_ns = std::max(hop.enter_ns, now_ns);
        }
        collected.emplace_back(now_ns, std::move(pkt));
      }
    }
    std::vector<std::pair<std::uint64_t, net::Packet>> collected;
  };

  /// One sampled occupancy series: last value + max, and its histogram.
  struct DepthSeries {
    telemetry::Gauge* gauge = nullptr;
    telemetry::LatencyHistogram* histogram = nullptr;
    void record(std::uint64_t depth) const {
      gauge->set(static_cast<double>(depth));
      histogram->record(depth);
    }
  };

  /// An NF module with its chain graph coordinates; node -1 marks the
  /// metacompiler's generated steering, which is no chain NF.
  struct Nf {
    nf::NfModule* module;
    int chain;
    int node;
  };

  /// The one walk over this server's resident packets: `fn(platform,
  /// fifo)` for the wire FIFO (kWire), each BESS queue and the return
  /// sink (kServer).
  template <class Fn>
  void walk(Fn&& fn) {
    fn(net::HopPlatform::kWire, wire_.fifo);
    for (auto* queue : queues_) {
      fn(net::HopPlatform::kServer, queue->residents());
    }
    fn(net::HopPlatform::kServer, sink_.collected);
  }
  /// A FIFO entry's packet; the wire and the sink keep a time with it.
  static net::Packet& packet_of(net::Packet& pkt) { return pkt; }
  static net::Packet& packet_of(std::pair<std::uint64_t, net::Packet>& e) {
    return e.second;
  }

  StageLinks links_;
  int index_;
  bool dead_;  ///< Accepts and runs nothing.
  std::unique_ptr<bess::ServerDataplane> dataplane_;
  Wire wire_;
  NicStage nic_;
  ReturnSink sink_;
  /// The only pipeline module besides queues and NFs that can drop
  /// (unmapped NSH); encaps, steers and ports have every gate wired.
  bess::Module* demux_ = nullptr;
  std::vector<bess::Queue*> queues_;
  std::vector<Nf> nfs_;  ///< In module creation order.
  DepthSeries wire_depth_;
  DepthSeries queue_depth_;
};

/// The OpenFlow switch: NSH<->VLAN at its boundary, the plan's OF rules,
/// and back to the ToR.
class OpenFlowStage : public Stage {
 public:
  explicit OpenFlowStage(StageLinks links) : links_(links) {}
  /// Installs the plan's rules; returns why the switch refused one.
  std::string load(const std::vector<metacompiler::OfArtifact>& rules,
                   const std::optional<topo::OpenFlowSwitchSpec>& spec);
  void accept(net::Packet&& pkt, std::uint64_t ready_ns) override;

 private:
  StageLinks links_;
  std::unique_ptr<openflow::OpenFlowSwitch> switch_;  ///< Null: no rules.
  /// Artifact by (spi_in, si_in); the last one wins.
  std::map<std::pair<std::uint32_t, std::uint8_t>,
           const metacompiler::OfArtifact*>
      by_nsh_;
};

}  // namespace lemur::runtime
