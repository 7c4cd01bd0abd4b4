#include "src/placer/core_alloc.h"

#include <algorithm>
#include <cmath>

namespace lemur::placer {
namespace {

/// Tracks free cores per server, honoring the demux-core reservation
/// (one core per active server, paper appendix A.1.2).
class CorePool {
 public:
  explicit CorePool(const topo::Topology& topo) {
    free_.reserve(topo.servers.size());
    for (const auto& s : topo.servers) {
      free_.push_back(s.failed ? 0 : s.total_cores());
    }
    active_.assign(topo.servers.size(), false);
  }

  /// Cores available on `s` for subgroup use right now.
  [[nodiscard]] int available(int s) const {
    const auto i = static_cast<std::size_t>(s);
    return free_[i] - (active_[i] ? 0 : 1);
  }

  bool take(int s, int n = 1) {
    const auto i = static_cast<std::size_t>(s);
    if (available(s) < n) return false;
    if (!active_[i]) {
      free_[i] -= 1;  // Demux core.
      active_[i] = true;
    }
    free_[i] -= n;
    return true;
  }

  /// Server with the most available cores (>= n), or -1.
  [[nodiscard]] int best_server(int n = 1) const {
    int best = -1;
    for (std::size_t s = 0; s < free_.size(); ++s) {
      const int avail = available(static_cast<int>(s));
      if (avail >= n &&
          (best < 0 || avail > available(best))) {
        best = static_cast<int>(s);
      }
    }
    return best;
  }

 private:
  std::vector<int> free_;
  std::vector<bool> active_;
};

/// Static per-chain rate ceiling: SLO t_max, switch line rate, and the
/// chain-alone link bound.
std::vector<double> chain_ceilings(const Deployment& deployment,
                                   const std::vector<chain::ChainSpec>& chains,
                                   const topo::Topology& topo,
                                   const PlacerOptions& options) {
  std::vector<double> out(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    double ceiling = std::min(chains[c].slo.t_max_gbps,
                              topo.tor.port_gbps);
    std::vector<Subgroup> chain_groups;
    for (const auto& g : deployment.subgroups) {
      if (g.chain == static_cast<int>(c)) chain_groups.push_back(g);
    }
    const auto analysis =
        analyze_paths(chains[c].graph, deployment.patterns[c], chain_groups,
                      topo, options);
    for (std::size_t s = 0; s < topo.servers.size(); ++s) {
      const double link = topo.servers[s].nics.empty() ||
                                  topo.servers[s].failed
                              ? 0.0
                              : topo.servers[s].nics.front().capacity_gbps;
      if (analysis.link_in_coeff[s] > 1e-12) {
        ceiling = std::min(ceiling, link / analysis.link_in_coeff[s]);
      }
      if (analysis.link_out_coeff[s] > 1e-12) {
        ceiling = std::min(ceiling, link / analysis.link_out_coeff[s]);
      }
    }
    out[c] = ceiling;
  }
  return out;
}

/// The chain's bottleneck subgroup index that is replicable and could
/// take another core, or -1.
int bottleneck_subgroup(const Deployment& deployment, int chain,
                        const topo::Topology& topo, const CorePool& pool) {
  int best = -1;
  double worst_rate = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < deployment.subgroups.size(); ++i) {
    const auto& g = deployment.subgroups[i];
    if (g.chain != chain || !g.replicable) continue;
    if (pool.available(g.server) < 1) continue;
    const auto& server = topo.servers[static_cast<std::size_t>(g.server)];
    const double rate = static_cast<double>(g.cores) * server.clock_ghz *
                        1e9 / static_cast<double>(g.cycles) /
                        g.traffic_fraction;
    if (rate < worst_rate) {
      worst_rate = rate;
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace

AllocOutcome allocate_cores(Deployment& deployment,
                            const std::vector<chain::ChainSpec>& chains,
                            const topo::Topology& topo,
                            const PlacerOptions& belief, AllocMode mode) {
  AllocOutcome out;
  CorePool pool(topo);

  // Core-sharing pre-pass (appendix A.1.3: multiple subgroups per core,
  // scheduled round-robin): non-replicable subgroups — which can never
  // use more than one core anyway — are first-fit-decreasing packed onto
  // shared cores by their t_min utilization, with headroom left for
  // bursting. Replicable subgroups keep dedicated cores for scale-out.
  const double f = topo.servers.front().clock_ghz * 1e9;
  auto utilization_at_tmin = [&](const Subgroup& g) {
    const double pps =
        gbps_to_pps(chains[static_cast<std::size_t>(g.chain)].slo.t_min_gbps) *
        g.traffic_fraction;
    return pps * static_cast<double>(g.cycles) / f;
  };
  constexpr double kShareBudget = 0.70;
  struct ShareGroup {
    double utilization = 0;
    std::vector<std::size_t> members;
  };
  std::vector<ShareGroup> share_groups;
  {
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < deployment.subgroups.size(); ++i) {
      const auto& g = deployment.subgroups[i];
      if (!g.replicable && utilization_at_tmin(g) < kShareBudget) {
        candidates.push_back(i);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](std::size_t a, std::size_t b) {
                return utilization_at_tmin(deployment.subgroups[a]) >
                       utilization_at_tmin(deployment.subgroups[b]);
              });
    for (std::size_t i : candidates) {
      const double u = utilization_at_tmin(deployment.subgroups[i]);
      bool placed = false;
      for (auto& group : share_groups) {
        if (group.utilization + u <= kShareBudget) {
          group.utilization += u;
          group.members.push_back(i);
          placed = true;
          break;
        }
      }
      if (!placed) share_groups.push_back(ShareGroup{u, {i}});
    }
    // A group of one is just a dedicated core; drop the sharing marker.
    std::erase_if(share_groups, [](const ShareGroup& group) {
      return group.members.size() < 2;
    });
  }
  int next_shared_id = 0;
  for (const auto& group : share_groups) {
    const int server = pool.best_server(1);
    if (server < 0) {
      out.reason = "not enough cores for shared subgroup cores";
      return out;
    }
    pool.take(server, 1);
    for (std::size_t i : group.members) {
      auto& g = deployment.subgroups[i];
      g.server = server;
      g.cores = 1;
      g.shared_core = next_shared_id;
    }
    ++next_shared_id;
  }

  // Mandatory packing: one core per remaining subgroup, biggest consumers
  // first so heavy subgroups land on roomy servers.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < deployment.subgroups.size(); ++i) {
    if (deployment.subgroups[i].shared_core < 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return deployment.subgroups[a].cycles > deployment.subgroups[b].cycles;
  });
  for (std::size_t i : order) {
    auto& g = deployment.subgroups[i];
    const int server = pool.best_server(1);
    if (server < 0) {
      out.reason = "not enough cores for one core per subgroup";
      return out;
    }
    g.server = server;
    g.cores = 1;
    pool.take(server, 1);
  }

  const auto ceilings = chain_ceilings(deployment, chains, topo, belief);
  auto capacity = [&](int chain) {
    return chain_capacity_gbps(deployment, chain, topo);
  };
  auto add_core = [&](int subgroup_index) {
    auto& g = deployment.subgroups[static_cast<std::size_t>(subgroup_index)];
    pool.take(g.server, 1);
    ++g.cores;
  };
  // Grows chain `c`'s bottleneck subgroup, one core at a time, until the
  // chain reaches `gbps` or its bottleneck cannot grow (evaluate() flags
  // a chain left under t_min).
  auto lift = [&](std::size_t c, double gbps) {
    while (capacity(static_cast<int>(c)) < gbps - 1e-9) {
      const int g =
          bottleneck_subgroup(deployment, static_cast<int>(c), topo, pool);
      if (g < 0) return;
      add_core(g);
    }
  };
  auto lift_to_t_min = [&] {
    for (std::size_t c = 0; c < chains.size(); ++c) {
      lift(c, chains[c].slo.t_min_gbps);
    }
  };

  switch (mode) {
    case AllocMode::kNone:
      break;

    case AllocMode::kMaximizeMarginal: {
      // Feasibility first: lift chains under t_min.
      lift_to_t_min();
      // Then spend spare cores where the clamped capacity gain is largest.
      while (true) {
        int best_subgroup = -1;
        double best_gain = 1e-6;
        for (std::size_t i = 0; i < deployment.subgroups.size(); ++i) {
          auto& g = deployment.subgroups[i];
          if (!g.replicable || pool.available(g.server) < 1) continue;
          const int c = g.chain;
          const double before =
              std::min(capacity(c), ceilings[static_cast<std::size_t>(c)]);
          ++g.cores;
          const double after =
              std::min(capacity(c), ceilings[static_cast<std::size_t>(c)]);
          --g.cores;
          const double gain = after - before;
          if (gain > best_gain) {
            best_gain = gain;
            best_subgroup = static_cast<int>(i);
          }
        }
        if (best_subgroup < 0) break;
        add_core(best_subgroup);
      }
      break;
    }

    case AllocMode::kEvenSpread: {
      // Round-robin one core at a time across replicable subgroups until
      // nothing can absorb more.
      bool progressed = true;
      while (progressed) {
        progressed = false;
        for (std::size_t i = 0; i < deployment.subgroups.size(); ++i) {
          auto& g = deployment.subgroups[i];
          if (!g.replicable || pool.available(g.server) < 1) continue;
          const int c = g.chain;
          if (capacity(c) >= ceilings[static_cast<std::size_t>(c)] - 1e-9) {
            continue;
          }
          add_core(static_cast<int>(i));
          progressed = true;
        }
      }
      break;
    }

    case AllocMode::kSequentialSlo: {
      // Phase 1: meet each chain's t_min in order.
      lift_to_t_min();
      // Phase 2: spare cores sequentially by chain index — the paper's
      // Greedy can starve later chains this way.
      for (std::size_t c = 0; c < chains.size(); ++c) lift(c, ceilings[c]);
      break;
    }
  }

  out.ok = true;
  return out;
}

}  // namespace lemur::placer
