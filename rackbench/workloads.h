// The benchmark's workloads. Each is one seeded rack configuration: a
// chain mix with delta-scaled SLOs, a rack topology, a flow mode and, for
// failover, a fault schedule. README.md records why each exists.
#pragma once

#include <string>
#include <vector>

#include "src/runtime/traffic.h"
#include "src/topo/topology.h"

namespace lemur::rackbench {

/// Virtual injection window of every run. Testbed::run adds 2 ms of drain,
/// so a run is 220 quanta of 100 us and the per-quantum p95 has 11 quanta
/// beyond it.
inline constexpr double kWindowMs = 20.0;

struct Workload {
  std::string name;
  std::vector<int> chains;  ///< Canonical chain numbers (1..5).
  double delta = 1.0;       ///< t_min = delta x each chain's base rate.
  runtime::FlowMode flow_mode = runtime::FlowMode::kLongLived;
  std::string faults;       ///< Chaos spec; empty = no faults, no controller.
  topo::Topology (*topology)() = nullptr;

  [[nodiscard]] bool failover() const { return !faults.empty(); }
};

const std::vector<Workload>& workloads();

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

}  // namespace lemur::rackbench
