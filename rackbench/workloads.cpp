#include "rackbench/workloads.h"

namespace lemur::rackbench {
namespace {

topo::Topology two_servers() { return topo::Topology::multi_server(2, 8); }

// Six 8-core servers and one SmartNIC on server 0. Eight servers with a
// SmartNIC overflow the ToR's 256-entry lemur_steer table at deploy time.
topo::Topology pop_rack() {
  topo::Topology topo = topo::Topology::multi_server(6, 8);
  topo.smartnics.push_back(topo::SmartNicSpec{});
  return topo;
}

std::vector<int> repeated(const std::vector<int>& chains, int times) {
  std::vector<int> out;
  for (int i = 0; i < times; ++i) {
    out.insert(out.end(), chains.begin(), chains.end());
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"fig2-crypto", {1, 2, 3, 4}, 0.9, runtime::FlowMode::kLongLived, "",
       &topo::Topology::lemur_testbed},
      {"churn-stateful", {3, 4, 3, 4}, 1.0, runtime::FlowMode::kShortLived,
       "", &two_servers},
      {"pop-scale", repeated({2, 3, 4, 5}, 6), 0.5,
       runtime::FlowMode::kLongLived, "", &pop_rack},
      {"failover", {3, 5}, 1.0, runtime::FlowMode::kLongLived, "server:1@2",
       &two_servers},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace lemur::rackbench
