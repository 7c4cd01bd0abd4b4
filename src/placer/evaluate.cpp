#include "src/placer/evaluate.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "src/solver/lp.h"

namespace lemur::placer {

Deployment make_deployment(const std::vector<chain::ChainSpec>& chains,
                           std::vector<Pattern> patterns,
                           const topo::Topology& topo,
                           const PlacerOptions& options) {
  Deployment out;
  out.patterns = std::move(patterns);
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const auto& server_spec = topo.servers.front();
    auto groups = form_subgroups(chains[c].graph, out.patterns[c],
                                 static_cast<int>(c), server_spec, options);
    for (auto& g : groups) out.subgroups.push_back(std::move(g));
    auto nics = nic_assignments(chains[c].graph, out.patterns[c],
                                static_cast<int>(c), options);
    for (auto& n : nics) out.nic_nfs.push_back(std::move(n));
  }
  return out;
}

double chain_capacity_gbps(const Deployment& deployment, int chain_index,
                           const topo::Topology& topo) {
  double capacity = topo.tor.port_gbps;  // Switch line rate ceiling.
  for (const auto& g : deployment.subgroups) {
    if (g.chain != chain_index || g.traffic_fraction <= 0) continue;
    const auto& server =
        topo.servers[static_cast<std::size_t>(g.server)];
    const double pps = static_cast<double>(g.cores) * server.clock_ghz *
                       1e9 / static_cast<double>(g.cycles);
    capacity =
        std::min(capacity, pps_to_gbps(pps) / g.traffic_fraction);
  }
  for (const auto& a : deployment.nic_nfs) {
    if (a.chain != chain_index || a.traffic_fraction <= 0) continue;
    const auto& nic =
        topo.smartnics[static_cast<std::size_t>(a.smartnic)];
    const auto& server =
        topo.servers[static_cast<std::size_t>(nic.attached_server)];
    const double pps = server.clock_ghz * nic.speedup_vs_core * 1e9 /
                       static_cast<double>(a.cycles);
    const double engine =
        pps_to_gbps(pps) / a.traffic_fraction;
    capacity = std::min(capacity,
                        std::min(engine, nic.capacity_gbps /
                                             a.traffic_fraction));
  }
  return capacity;
}

std::vector<int> cores_used_per_server(const Deployment& deployment,
                                       const topo::Topology& topo) {
  std::vector<int> used(topo.servers.size(), 0);
  std::vector<bool> active(topo.servers.size(), false);
  std::set<int> shared_counted;
  for (const auto& g : deployment.subgroups) {
    if (g.shared_core >= 0) {
      // A shared core is consumed once, by its whole group.
      if (shared_counted.insert(g.shared_core).second) {
        used[static_cast<std::size_t>(g.server)] += 1;
      }
    } else {
      used[static_cast<std::size_t>(g.server)] += g.cores;
    }
    active[static_cast<std::size_t>(g.server)] = true;
  }
  for (std::size_t s = 0; s < used.size(); ++s) {
    if (active[s]) ++used[s];
  }
  return used;
}

PlacementResult evaluate(const Deployment& deployment,
                         const std::vector<chain::ChainSpec>& chains,
                         const topo::Topology& topo,
                         const PlacerOptions& options) {
  PlacementResult out;
  out.subgroups = deployment.subgroups;
  out.nic_nfs = deployment.nic_nfs;
  out.chains.resize(chains.size());

  // Core budget.
  const auto used = cores_used_per_server(deployment, topo);
  for (std::size_t s = 0; s < used.size(); ++s) {
    out.cores_used += used[s];
    const int budget = topo.servers[s].failed
                           ? 0
                           : topo.servers[s].total_cores();
    if (used[s] > budget) {
      out.infeasible_reason = "server " + topo.servers[s].name +
                              (topo.servers[s].failed ? " (failed)" : "") +
                              " needs " + std::to_string(used[s]) +
                              " cores but has " + std::to_string(budget);
      return out;
    }
  }

  for (const auto& spec : chains) {
    out.aggregate_t_min_gbps += spec.slo.t_min_gbps;
  }

  // Per-chain structure: capacity, bounces, links, latency.
  std::vector<PathAnalysis> analyses(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const auto& spec = chains[c];
    // OpenFlow feasibility is pattern-level.
    if (!openflow_order_ok(spec.graph, deployment.patterns[c])) {
      out.infeasible_reason =
          spec.name + ": OpenFlow table order violated";
      return out;
    }
    std::vector<Subgroup> chain_groups;
    for (const auto& g : deployment.subgroups) {
      if (g.chain == static_cast<int>(c)) chain_groups.push_back(g);
    }
    analyses[c] = analyze_paths(spec.graph, deployment.patterns[c],
                                chain_groups, topo, options);
    auto& placement = out.chains[c];
    placement.nodes = deployment.patterns[c];
    placement.bounces = analyses[c].worst_bounces;
    placement.latency_us = analyses[c].worst_latency_us;
    placement.capacity_gbps =
        chain_capacity_gbps(deployment, static_cast<int>(c), topo);

    if (placement.capacity_gbps < spec.slo.t_min_gbps - 1e-9) {
      out.infeasible_reason =
          spec.name + ": capacity " +
          std::to_string(placement.capacity_gbps) + " Gbps < t_min " +
          std::to_string(spec.slo.t_min_gbps);
      return out;
    }
    if (spec.slo.has_latency_bound() &&
        placement.latency_us > spec.slo.d_max_us + 1e-9) {
      out.infeasible_reason =
          spec.name + ": latency " + std::to_string(placement.latency_us) +
          " us > d_max " + std::to_string(spec.slo.d_max_us);
      return out;
    }
  }

  // The rate-allocation LP. The objective defaults to the paper's
  // aggregate marginal throughput; kWeighted and kMaxMin implement the
  // finer-grained objectives the paper's footnote 2 defers.
  auto build_lp = [&](solver::LinearProgram& lp, std::vector<int>& rate_var,
                      const std::vector<double>& extra_floor) {
    for (std::size_t c = 0; c < chains.size(); ++c) {
      const auto& slo = chains[c].slo;
      const double upper =
          std::min(out.chains[c].capacity_gbps,
                   slo.t_max_gbps < chain::Slo::kUnbounded
                       ? slo.t_max_gbps
                       : out.chains[c].capacity_gbps);
      const double objective =
          options.objective == PlacerOptions::Objective::kWeighted
              ? chains[c].weight
              : 1.0;
      const double floor =
          slo.t_min_gbps + (c < extra_floor.size() ? extra_floor[c] : 0.0);
      rate_var[c] = lp.add_variable(objective, std::min(floor, upper), upper);
    }
  };
  // Shared rows: links, shared cores, OpenFlow capacity.
  auto add_rows = [&](solver::LinearProgram& lp,
                      const std::vector<int>& rate_var) {
    // Link capacity rows (per server, per direction).
    for (std::size_t s = 0; s < topo.servers.size(); ++s) {
      const double link = topo.servers[s].nics.empty() ||
                                  topo.servers[s].failed
                              ? 0.0
                              : topo.servers[s].nics.front().capacity_gbps;
      solver::LinearProgram::Terms in_terms;
      solver::LinearProgram::Terms out_terms;
      for (std::size_t c = 0; c < chains.size(); ++c) {
        const double in = analyses[c].link_in_coeff[s];
        const double outc = analyses[c].link_out_coeff[s];
        if (in > 1e-12) in_terms.push_back({rate_var[c], in});
        if (outc > 1e-12) out_terms.push_back({rate_var[c], outc});
      }
      if (!in_terms.empty()) lp.add_le(in_terms, link);
      if (!out_terms.empty()) lp.add_le(out_terms, link);
    }
    // Shared-core cycle budgets (round-robin scheduling of multiple
    // subgroups on one core): sum over members of
    // rate_pps x fraction x cycles <= core frequency.
    std::map<int, solver::LinearProgram::Terms> shared_rows;
    std::map<int, double> shared_budget;
    for (const auto& g : deployment.subgroups) {
      if (g.shared_core < 0) continue;
      const auto& server = topo.servers[static_cast<std::size_t>(g.server)];
      const double pps_per_gbps = gbps_to_pps(1.0);
      shared_rows[g.shared_core].push_back(
          {rate_var[static_cast<std::size_t>(g.chain)],
           pps_per_gbps * g.traffic_fraction *
               static_cast<double>(g.cycles)});
      shared_budget[g.shared_core] = server.clock_ghz * 1e9;
    }
    for (auto& [core, terms] : shared_rows) {
      lp.add_le(std::move(terms), shared_budget[core]);
    }
    // OpenFlow switch capacity.
    if (topo.openflow) {
      solver::LinearProgram::Terms terms;
      for (std::size_t c = 0; c < chains.size(); ++c) {
        if (analyses[c].openflow_coeff > 1e-12) {
          terms.push_back({rate_var[c], analyses[c].openflow_coeff});
        }
      }
      if (!terms.empty()) lp.add_le(terms, topo.openflow->capacity_gbps);
    }
  };

  // Max-min fairness runs a pre-phase: maximize the smallest per-chain
  // marginal (t), then re-optimize the sum with that floor locked in.
  std::vector<double> extra_floor;
  if (options.objective == PlacerOptions::Objective::kMaxMin) {
    solver::LinearProgram pre;
    std::vector<int> pre_rate(chains.size());
    for (std::size_t c = 0; c < chains.size(); ++c) {
      const auto& slo = chains[c].slo;
      const double upper =
          std::min(out.chains[c].capacity_gbps,
                   slo.t_max_gbps < chain::Slo::kUnbounded
                       ? slo.t_max_gbps
                       : out.chains[c].capacity_gbps);
      pre_rate[c] = pre.add_variable(0.0, slo.t_min_gbps, upper);
    }
    add_rows(pre, pre_rate);
    const int t = pre.add_variable(1.0, 0.0);
    for (std::size_t c = 0; c < chains.size(); ++c) {
      pre.add_ge({{pre_rate[c], 1.0}, {t, -1.0}},
                 chains[c].slo.t_min_gbps);
    }
    const auto pre_result = solver::solve(pre);
    if (!pre_result.optimal()) {
      out.infeasible_reason =
          "rate LP infeasible (link capacity cannot carry all t_min)";
      return out;
    }
    // Slight relaxation keeps the follow-up LP numerically feasible.
    const double fair_floor =
        std::max(0.0, pre_result.objective * (1.0 - 1e-6));
    extra_floor.assign(chains.size(), fair_floor);
  }

  solver::LinearProgram lp;
  std::vector<int> rate_var(chains.size());
  build_lp(lp, rate_var, extra_floor);
  add_rows(lp, rate_var);

  const auto lp_result = solver::solve(lp);
  if (!lp_result.optimal()) {
    out.infeasible_reason =
        "rate LP infeasible (link capacity cannot carry all t_min)";
    return out;
  }
  for (std::size_t c = 0; c < chains.size(); ++c) {
    out.chains[c].assigned_gbps =
        lp_result.values[static_cast<std::size_t>(rate_var[c])];
    out.aggregate_gbps += out.chains[c].assigned_gbps;
  }
  out.feasible = true;
  return out;
}

}  // namespace lemur::placer
