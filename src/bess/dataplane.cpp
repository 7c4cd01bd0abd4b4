#include "src/bess/dataplane.h"

#include <algorithm>
#include <cassert>

namespace lemur::bess {

ServerDataplane::ServerDataplane(topo::ServerSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), rng_(seed) {
  schedulers_.resize(static_cast<std::size_t>(spec_.total_cores()));
  cycles_.assign(static_cast<std::size_t>(spec_.total_cores()), 0);
}

void ServerDataplane::add_task(int core, Task task, RateLimit limit) {
  assert(core >= 0 && core < num_cores());
  schedulers_[static_cast<std::size_t>(core)].add_task(task, limit);
}

double ServerDataplane::numa_factor(int core) const {
  const int nic_socket = spec_.nics.empty() ? 0 : spec_.nics.front().socket;
  return socket_of_core(core) == nic_socket ? 1.0 : spec_.cross_numa_factor;
}

void ServerDataplane::run_until_ns(std::uint64_t horizon_ns) {
  const double ghz = spec_.clock_ghz;
  const auto horizon_cycles = static_cast<std::uint64_t>(
      static_cast<double>(horizon_ns) * ghz);
  // Interleave cores in short visits so that queues between cores flow
  // with bounded virtual-time skew. Only the visiting core's clock moves
  // during a visit.
  bool any_behind = true;
  while (any_behind) {
    any_behind = false;
    for (int core = 0; core < num_cores(); ++core) {
      auto& cycles = cycles_[static_cast<std::size_t>(core)];
      if (cycles >= horizon_cycles) continue;
      any_behind = true;
      // One visit: ~20us of virtual time or 64 ticks, whichever first.
      const std::uint64_t visit_end = std::min(
          horizon_cycles,
          cycles + static_cast<std::uint64_t>(20000.0 * ghz));
      Context ctx(&cycles, ghz, &rng_, numa_factor(core), pool_);
      schedulers_[static_cast<std::size_t>(core)].run(ctx, visit_end, 64);
    }
  }
}

std::uint64_t ServerDataplane::now_ns() const {
  std::uint64_t min_cycles = ~0ull;
  for (std::uint64_t c : cycles_) min_cycles = std::min(min_cycles, c);
  if (cycles_.empty()) return 0;
  return static_cast<std::uint64_t>(static_cast<double>(min_cycles) /
                                    spec_.clock_ghz);
}

}  // namespace lemur::bess
