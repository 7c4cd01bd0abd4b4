// The rack-scale deployment model Lemur places NF chains onto: one PISA
// top-of-rack switch, one or more x86 servers (each with sockets, cores,
// and NICs), optional SmartNICs and an optional OpenFlow switch.
//
// All capacity numbers default to the paper's testbed (section 5.1):
// an Edgecore 100BF-32X Tofino ToR (32x100G, 12 stages), a dual-socket
// 1.7 GHz Xeon Bronze 3106 NF server with a 40 Gbps NIC, a Netronome
// Agilio CX 1x40G SmartNIC, and an Edgecore AS5712-54X OpenFlow switch.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace lemur::topo {

/// Where an NF can execute.
enum class PlatformKind {
  kPisa,      ///< Programmable PISA (P4) switch.
  kServer,    ///< x86 server running the BESS dataplane.
  kSmartNic,  ///< eBPF-capable SmartNIC.
  kOpenFlow,  ///< Fixed-function OpenFlow switch.
};

[[nodiscard]] const char* to_string(PlatformKind kind);

/// A NIC port on a server. The link from the ToR to this NIC is the
/// capacity bottleneck the Placer's LP must respect.
struct NicSpec {
  std::string name = "nic0";
  double capacity_gbps = 40.0;
  int socket = 0;  ///< The CPU socket the NIC is attached to (NUMA).
};

/// An x86 server running BESS.
struct ServerSpec {
  std::string name = "server0";
  int sockets = 2;
  int cores_per_socket = 8;
  double clock_ghz = 1.7;
  /// Multiplicative cycle-cost factor when an NF runs on a different
  /// socket than the NIC (paper Table 4 shows ~4% same-vs-diff NUMA).
  double cross_numa_factor = 1.04;
  std::vector<NicSpec> nics = {NicSpec{}};
  /// Marked by the recovery controller after a fault: a failed server
  /// contributes zero cores and zero link capacity, and the deployment
  /// verifier rejects any placement that still assigns NFs to it.
  bool failed = false;

  [[nodiscard]] int total_cores() const { return sockets * cores_per_socket; }
  /// Packets per second one core sustains for a given cycles/packet cost.
  [[nodiscard]] double pps_per_core(double cycles_per_packet) const;
};

/// The PISA ToR switch and its compile-time resource budgets. Stage count
/// is the binding constraint in practice (section 4.2), but per-stage
/// table and memory budgets are modelled too.
struct PisaSwitchSpec {
  std::string name = "tofino0";
  int ports = 32;
  double port_gbps = 100.0;
  int stages = 12;
  int tables_per_stage = 8;
  long sram_bytes_per_stage = 1280 * 1024;  ///< 10 blocks x 128 KiB.
  long tcam_bytes_per_stage = 64 * 1024;
};

/// An eBPF SmartNIC attached between the ToR and a server.
struct SmartNicSpec {
  std::string name = "agilio0";
  double capacity_gbps = 40.0;
  int attached_server = 0;  ///< Index into Topology::servers.
  /// Effective speedup over one server core for NFs it can run (the
  /// paper measured >10x for ChaCha on the Agilio CX).
  double speedup_vs_core = 10.0;
  /// Marked failed after a fault; excluded from placement targets.
  bool failed = false;
};

/// A fixed-table-order OpenFlow switch.
struct OpenFlowSwitchSpec {
  std::string name = "as5712";
  double capacity_gbps = 40.0;
  /// The fixed pipeline order of table types this ASIC supports.
  std::vector<std::string> table_order = {"port", "vlan", "mac", "ip", "acl"};
  int max_flow_entries = 4096;
  /// Marked failed after a fault (link down); excluded from placement.
  bool failed = false;
};

/// The full rack. Lemur's unit of placement.
struct Topology {
  PisaSwitchSpec tor;
  std::vector<ServerSpec> servers = {ServerSpec{}};
  std::vector<SmartNicSpec> smartnics;
  std::optional<OpenFlowSwitchSpec> openflow;

  /// One-way switch<->server latency per bounce leg (propagation +
  /// transmission + queueing), microseconds. Used by the latency SLO model.
  double bounce_latency_us = 2.0;

  [[nodiscard]] int total_cores() const;

  /// The paper's testbed: one ToR, one dual-socket 8-core/socket server
  /// with one 40G NIC.
  static Topology lemur_testbed();

  /// Testbed plus the Netronome SmartNIC (Figure 3b experiments).
  static Topology lemur_testbed_with_smartnic();

  /// Testbed with the OpenFlow switch instead of full PISA offload
  /// (Figure 3c experiments).
  static Topology lemur_testbed_with_openflow();

  /// `n` identical servers with `cores` cores each (Figure 3a experiments,
  /// which use 8-core servers).
  static Topology multi_server(int n, int cores_per_server);
};

}  // namespace lemur::topo
