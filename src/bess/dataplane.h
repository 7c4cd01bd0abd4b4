// ServerDataplane: one simulated x86 server running BESS.
//
// Owns the module graph, the per-core virtual clocks, and the per-core
// schedulers, and interleaves core execution deterministically until a
// virtual-time horizon. NUMA is modelled with a per-core cycle-cost
// factor (cores on a different socket than the NIC pay
// ServerSpec::cross_numa_factor), consumed by NF modules via the context.
#pragma once

#include <memory>
#include <random>
#include <vector>

#include "src/bess/module.h"
#include "src/bess/scheduler.h"
#include "src/topo/topology.h"

namespace lemur::bess {

class ServerDataplane {
 public:
  explicit ServerDataplane(topo::ServerSpec spec, std::uint64_t seed = 1);

  /// Creates and owns a module; returns a non-owning handle valid for the
  /// dataplane's lifetime.
  template <typename T, typename... Args>
  T* add_module(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = owned.get();
    modules_.push_back(std::move(owned));
    return raw;
  }

  /// Registers a task on a core (0-based across sockets).
  void add_task(int core, Task task, RateLimit limit = {});

  [[nodiscard]] int num_cores() const { return spec_.total_cores(); }
  [[nodiscard]] const topo::ServerSpec& spec() const { return spec_; }

  /// Which socket a core belongs to (cores are numbered socket-major).
  [[nodiscard]] int socket_of_core(int core) const {
    return core / spec_.cores_per_socket;
  }

  /// Pool modules recycle discarded packets into (nullptr = none). Owned
  /// by the testbed; must outlive the dataplane's run calls.
  void set_packet_pool(net::PacketPool* pool) { pool_ = pool; }

  /// Cycle-cost multiplier for a core: cross_numa_factor when the core's
  /// socket differs from the NIC's socket.
  [[nodiscard]] double numa_factor(int core) const;

  /// Runs every core until its virtual clock reaches `horizon_ns`.
  /// Interleaves cores in short visits (20 us or 64 ticks) so cross-core
  /// queues flow.
  void run_until_ns(std::uint64_t horizon_ns);

  /// Virtual time of the slowest core, ns.
  [[nodiscard]] std::uint64_t now_ns() const;

  [[nodiscard]] std::uint64_t core_cycles(int core) const {
    return cycles_[static_cast<std::size_t>(core)];
  }
  [[nodiscard]] const CoreScheduler& scheduler(int core) const {
    return schedulers_[static_cast<std::size_t>(core)];
  }

  /// All modules in creation order (telemetry sweeps drop/occupancy state).
  [[nodiscard]] const std::vector<std::unique_ptr<Module>>& modules() const {
    return modules_;
  }

 private:
  topo::ServerSpec spec_;
  std::vector<std::unique_ptr<Module>> modules_;
  std::vector<CoreScheduler> schedulers_;
  std::vector<std::uint64_t> cycles_;
  std::mt19937_64 rng_;
  net::PacketPool* pool_ = nullptr;
};

}  // namespace lemur::bess
