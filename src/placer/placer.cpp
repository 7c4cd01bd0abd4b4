#include "src/placer/placer.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "src/placer/caching_oracle.h"

namespace lemur::placer {
namespace {

/// Beam width per chain for the brute-force (Optimal) strategy; the joint
/// pattern space is the cross product of each chain's top-K patterns by
/// standalone marginal throughput.
constexpr std::size_t kOptimalBeamWidth = 8;

std::vector<std::vector<int>> pisa_nodes_of(
    const std::vector<Pattern>& patterns) {
  std::vector<std::vector<int>> out(patterns.size());
  for (std::size_t c = 0; c < patterns.size(); ++c) {
    for (std::size_t id = 0; id < patterns[c].size(); ++id) {
      if (patterns[c][id].target == Target::kPisa) {
        out[c].push_back(static_cast<int>(id));
      }
    }
  }
  return out;
}

std::vector<Pattern> hw_preferred_patterns(
    const std::vector<chain::ChainSpec>& chains, const topo::Topology& topo,
    const PlacerOptions& options) {
  std::vector<Pattern> out(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    out[c] = hw_preferred_pattern(chains[c], topo, options);
  }
  return out;
}

/// An infeasible result: `reason`, against the chains' summed t_min.
PlacementResult infeasible(const std::vector<chain::ChainSpec>& chains,
                           std::string reason) {
  PlacementResult out;
  out.infeasible_reason = std::move(reason);
  for (const auto& spec : chains) {
    out.aggregate_t_min_gbps += spec.slo.t_min_gbps;
  }
  return out;
}

/// Evaluates a candidate: allocation under belief, scoring under belief.
PlacementResult score_candidate(std::vector<Pattern> patterns,
                                AllocMode mode,
                                const std::vector<chain::ChainSpec>& chains,
                                const topo::Topology& topo,
                                const PlacerOptions& belief) {
  Deployment d = make_deployment(chains, std::move(patterns), topo, belief);
  auto alloc = allocate_cores(d, chains, topo, belief, mode);
  if (!alloc.ok) return infeasible(chains, alloc.reason);
  return evaluate(d, chains, topo, belief);
}

[[nodiscard]] bool better_result(const PlacementResult& a,
                                 const PlacementResult& b);

/// Scores a pattern set under both core-allocation searches (marginal-
/// gain greedy and SLO-sequential), keeping the better outcome.
PlacementResult score_best_alloc(const std::vector<Pattern>& patterns,
                                 const std::vector<chain::ChainSpec>& chains,
                                 const topo::Topology& topo,
                                 const PlacerOptions& belief) {
  auto a = score_candidate(patterns, AllocMode::kMaximizeMarginal, chains,
                           topo, belief);
  auto b = score_candidate(patterns, AllocMode::kSequentialSlo, chains, topo,
                           belief);
  return better_result(a, b) ? a : b;
}

/// Re-scores a decided deployment with true profiles: pattern and core
/// allocation are kept; subgroup cycle costs are rebuilt truthfully.
PlacementResult finalize(const PlacementResult& believed,
                         const std::vector<chain::ChainSpec>& chains,
                         const topo::Topology& topo,
                         const PlacerOptions& truth) {
  if (!believed.feasible) return believed;
  std::vector<Pattern> patterns(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    patterns[c] = believed.chains[c].nodes;
  }
  Deployment d = make_deployment(chains, std::move(patterns), topo, truth);
  // Copy the believed core allocation onto the true-profile subgroups
  // (subgroup structure is pattern-determined, so shapes match).
  for (auto& g : d.subgroups) {
    for (const auto& bg : believed.subgroups) {
      if (bg.chain == g.chain && bg.nodes == g.nodes) {
        g.server = bg.server;
        g.cores = bg.cores;
        g.shared_core = bg.shared_core;
        break;
      }
    }
  }
  return evaluate(d, chains, topo, truth);
}

[[nodiscard]] bool better_result(const PlacementResult& a,
                                 const PlacementResult& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (std::abs(a.marginal_gbps() - b.marginal_gbps()) > 1e-9) {
    return a.marginal_gbps() > b.marginal_gbps();
  }
  return a.aggregate_gbps > b.aggregate_gbps;
}

// --- The Lemur heuristic (section 3.2) --------------------------------------

struct CoalesceCandidate {
  int chain = 0;
  int node = 0;  ///< PISA node whose server offload coalesces neighbors.
};

std::vector<CoalesceCandidate> coalesce_candidates(
    const std::vector<Pattern>& patterns,
    const std::vector<chain::ChainSpec>& chains) {
  std::vector<CoalesceCandidate> out;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const auto& graph = chains[c].graph;
    for (const auto& node : graph.nodes()) {
      if (patterns[c][static_cast<std::size_t>(node.id)].target !=
          Target::kPisa) {
        continue;
      }
      const auto preds = graph.predecessors(node.id);
      const auto succs = graph.successors(node.id);
      if (preds.size() != 1 || succs.size() != 1) continue;
      const auto pred_target =
          patterns[c][static_cast<std::size_t>(preds[0])].target;
      const auto succ_target =
          patterns[c][static_cast<std::size_t>(succs[0])].target;
      if (pred_target == Target::kServer && succ_target == Target::kServer) {
        out.push_back({static_cast<int>(c), node.id});
      }
    }
  }
  return out;
}

enum class CoalesceRule { kStrict, kAggressive, kConservative };

/// Decides whether offloading `cand.node` to the server is worthwhile
/// under the given rule (belief profiles).
bool should_coalesce(const CoalesceCandidate& cand, CoalesceRule rule,
                     const std::vector<Pattern>& patterns,
                     const std::vector<chain::ChainSpec>& chains,
                     const topo::Topology& topo,
                     const PlacerOptions& belief) {
  const auto& spec = chains[static_cast<std::size_t>(cand.chain)];
  const auto& graph = spec.graph;
  const auto& server = topo.servers.front();
  const double f = server.clock_ghz * 1e9;

  const auto groups = form_subgroups(graph,
                                     patterns[static_cast<std::size_t>(
                                         cand.chain)],
                                     cand.chain, server, belief);
  const int pred = graph.predecessors(cand.node)[0];
  const int succ = graph.successors(cand.node)[0];
  const int gp = subgroup_of(groups, cand.chain, pred);
  const int gs = subgroup_of(groups, cand.chain, succ);
  if (gp < 0 || gs < 0 || gp == gs) return false;
  const auto& a = groups[static_cast<std::size_t>(gp)];
  const auto& b = groups[static_cast<std::size_t>(gs)];
  const std::uint64_t node_cycles =
      profiled_cycles(graph.node(cand.node), server, belief);
  // Coalesced cost: one NSH overhead instead of two.
  const double coalesced =
      static_cast<double>(a.cycles + b.cycles + node_cycles) -
      static_cast<double>(kNshOverheadCycles);
  const double separate_rate =
      std::min(f / static_cast<double>(a.cycles),
               f / static_cast<double>(b.cycles));
  const double coalesced_rate_2cores = 2.0 * f / coalesced;

  switch (rule) {
    case CoalesceRule::kStrict:
      return coalesced_rate_2cores > separate_rate;
    case CoalesceRule::kConservative:
      // Same total cores, chain throughput must not decrease; the chain
      // bottleneck may be elsewhere, in which case coalescing is safe.
      {
        double chain_bottleneck =
            std::numeric_limits<double>::infinity();
        for (const auto& g : groups) {
          chain_bottleneck =
              std::min(chain_bottleneck,
                       f / static_cast<double>(g.cycles) /
                           g.traffic_fraction);
        }
        const double after = std::min(
            coalesced_rate_2cores / a.traffic_fraction, chain_bottleneck);
        const double before =
            std::min(separate_rate / a.traffic_fraction, chain_bottleneck);
        return after >= before - 1e-9;
      }
    case CoalesceRule::kAggressive: {
      // Coalesce as long as the SLO stays satisfiable: the coalesced
      // subgroup, maximally replicated (1 core if non-replicable), must
      // still carry its share of t_min.
      const bool replicable =
          a.replicable && b.replicable &&
          nf::spec_of(graph.node(cand.node).type).replicable &&
          !graph.is_branch_or_merge(cand.node);
      const int k_max = replicable ? server.total_cores() : 1;
      const double max_rate = static_cast<double>(k_max) * f / coalesced;
      const double needed_pps =
          gbps_to_pps(spec.slo.t_min_gbps) * a.traffic_fraction;
      return max_rate >= needed_pps;
    }
  }
  return false;
}

void apply_coalesce(std::vector<Pattern>& patterns,
                    const CoalesceCandidate& cand) {
  patterns[static_cast<std::size_t>(cand.chain)]
          [static_cast<std::size_t>(cand.node)]
              .target = Target::kServer;
}

/// Steps 1-3 of the Lemur heuristic from `patterns`, where only `movable`
/// chains are demoted or coalesced: fit the switch (step 1, updating
/// `patterns` in place), build the two coalescing variants (step 2), and
/// score every variant under each core-allocation search (step 3),
/// raising `best` to the best outcome. Returns false when the movable
/// chains cannot shrink the switch program enough to fit.
bool lemur_search(std::vector<Pattern>& patterns,
                  const std::vector<bool>& movable, AllocMode alloc_mode,
                  const std::vector<chain::ChainSpec>& chains,
                  const topo::Topology& topo, const PlacerOptions& belief,
                  SwitchOracle& oracle, PlacementResult& best) {
  if (fit_to_switch(patterns, movable, chains, topo, belief, oracle) < 0) {
    return false;
  }

  // Step 2: coalescing variants. Offloads only remove switch NFs, so the
  // stage constraint keeps holding.
  auto build_variant = [&](CoalesceRule extra) {
    std::vector<Pattern> variant = patterns;
    // Iterate until no candidate coalesces (offloading one NF can expose
    // another candidate).
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& cand : coalesce_candidates(variant, chains)) {
        if (!movable[static_cast<std::size_t>(cand.chain)]) continue;
        if (should_coalesce(cand, CoalesceRule::kStrict, variant, chains,
                            topo, belief) ||
            should_coalesce(cand, extra, variant, chains, topo, belief)) {
          apply_coalesce(variant, cand);
          changed = true;
        }
      }
    }
    return variant;
  };
  const std::vector<Pattern> aggressive =
      build_variant(CoalesceRule::kAggressive);
  const std::vector<Pattern> conservative =
      build_variant(CoalesceRule::kConservative);

  // Step 3: search core allocations per variant (the heuristic's step 3
  // "generates core allocations, runs the LP ... picks the configuration
  // with the highest marginal throughput"): both the marginal-gain greedy
  // and the SLO-sequential filler are tried, since link coupling can make
  // either win.
  const std::vector<AllocMode> alloc_modes =
      alloc_mode == AllocMode::kNone
          ? std::vector<AllocMode>{AllocMode::kNone}
          : std::vector<AllocMode>{AllocMode::kMaximizeMarginal,
                                   AllocMode::kSequentialSlo};
  for (const auto& variant : {patterns, aggressive, conservative}) {
    for (const auto mode : alloc_modes) {
      auto result = score_candidate(variant, mode, chains, topo, belief);
      if (better_result(result, best)) best = result;
    }
  }
  return true;
}

PlacementResult run_lemur(const std::vector<chain::ChainSpec>& chains,
                          const topo::Topology& topo,
                          const PlacerOptions& belief, SwitchOracle& oracle,
                          AllocMode alloc_mode) {
  // Every chain starts hardware-preferred and may move.
  std::vector<Pattern> baseline = hw_preferred_patterns(chains, topo, belief);
  PlacementResult best = infeasible(chains, "no variant scored");
  if (!lemur_search(baseline, std::vector<bool>(chains.size(), true),
                    alloc_mode, chains, topo, belief, oracle, best)) {
    return infeasible(chains,
                      "switch-pinned NFs alone exceed the pipeline stages");
  }

  // Latency repair: when a chain carries a d_max, explore low-bounce
  // patterns for it (fewer switch<->server transitions cost throughput
  // but buy latency — section 5.3's 45us-vs-25us trade-off).
  bool any_latency_bound = false;
  for (const auto& spec : chains) {
    if (spec.slo.has_latency_bound()) any_latency_bound = true;
  }
  if (any_latency_bound) {
    std::vector<Pattern> repaired = baseline;
    for (std::size_t c = 0; c < chains.size(); ++c) {
      const auto& spec = chains[c];
      if (!spec.slo.has_latency_bound()) continue;
      double best_latency = std::numeric_limits<double>::infinity();
      int best_hw = -1;
      for (auto& pattern : enumerate_patterns(spec, topo, belief)) {
        auto groups = form_subgroups(spec.graph, pattern,
                                     static_cast<int>(c),
                                     topo.servers.front(), belief);
        const auto analysis =
            analyze_paths(spec.graph, pattern, groups, topo, belief);
        if (analysis.worst_latency_us > spec.slo.d_max_us) continue;
        int hw = 0;
        for (const auto& p : pattern) {
          if (p.target != Target::kServer) ++hw;
        }
        if (analysis.worst_latency_us < best_latency - 1e-9 ||
            (analysis.worst_latency_us < best_latency + 1e-9 &&
             hw > best_hw)) {
          best_latency = analysis.worst_latency_us;
          best_hw = hw;
          repaired[c] = std::move(pattern);
        }
      }
    }
    if (oracle.check(chains, pisa_nodes_of(repaired)).fits) {
      auto result =
          score_candidate(repaired, alloc_mode, chains, topo, belief);
      if (better_result(result, best)) best = result;
    }
  }
  return best;
}

// --- Optimal (brute force over a pattern beam) -------------------------------

PlacementResult run_optimal(const std::vector<chain::ChainSpec>& chains,
                            const topo::Topology& topo,
                            const PlacerOptions& belief,
                            SwitchOracle& oracle) {
  // Enumerate per-chain patterns; score each solo to build a beam.
  struct Scored {
    Pattern pattern;
    double score;
  };
  std::vector<std::vector<Scored>> beams(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    std::vector<chain::ChainSpec> solo = {chains[c]};
    for (auto& pattern : enumerate_patterns(chains[c], topo, belief)) {
      std::vector<Pattern> patterns = {pattern};
      auto result = score_candidate(patterns, AllocMode::kMaximizeMarginal,
                                    solo, topo, belief);
      const double score =
          (result.feasible ? 1e6 : 0) + result.aggregate_gbps;
      beams[c].push_back({std::move(pattern), score});
    }
    std::sort(beams[c].begin(), beams[c].end(),
              [](const Scored& x, const Scored& y) {
                return x.score > y.score;
              });
    if (beams[c].size() > kOptimalBeamWidth) {
      beams[c].resize(kOptimalBeamWidth);
    }
  }

  // Joint search over the beam cross product, oracle-checked. Repeat
  // combinations are deduplicated by the CachingOracle wrapper place()
  // installs, shared with the heuristic path that seeds this search.
  PlacementResult best =
      infeasible(chains, "no pattern combination fits the switch");

  std::vector<std::size_t> index(chains.size(), 0);
  const std::size_t kComboCap = 5000;
  std::size_t combos = 0;
  while (combos < kComboCap) {
    ++combos;
    std::vector<Pattern> patterns(chains.size());
    for (std::size_t c = 0; c < chains.size(); ++c) {
      patterns[c] = beams[c][index[c]].pattern;
    }
    if (oracle.check(chains, pisa_nodes_of(patterns)).fits) {
      auto result = score_best_alloc(patterns, chains, topo, belief);
      if (better_result(result, best)) best = result;
    }
    // Advance the mixed-radix counter.
    std::size_t c = 0;
    for (; c < chains.size(); ++c) {
      if (++index[c] < beams[c].size()) break;
      index[c] = 0;
    }
    if (c == chains.size()) break;
  }
  return best;
}

// --- Minimum Bounce ------------------------------------------------------------

PlacementResult run_min_bounce(const std::vector<chain::ChainSpec>& chains,
                               const topo::Topology& topo,
                               const PlacerOptions& belief,
                               SwitchOracle& oracle) {
  std::vector<Pattern> patterns(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const auto& spec = chains[c];
    int best_bounces = std::numeric_limits<int>::max();
    int best_hw = -1;
    for (auto& pattern : enumerate_patterns(spec, topo, belief)) {
      auto groups = form_subgroups(spec.graph, pattern, static_cast<int>(c),
                                   topo.servers.front(), belief);
      const auto analysis =
          analyze_paths(spec.graph, pattern, groups, topo, belief);
      int hw = 0;
      for (const auto& p : pattern) {
        if (p.target != Target::kServer) ++hw;
      }
      if (analysis.worst_bounces < best_bounces ||
          (analysis.worst_bounces == best_bounces && hw > best_hw)) {
        best_bounces = analysis.worst_bounces;
        best_hw = hw;
        patterns[c] = std::move(pattern);
      }
    }
  }
  const auto check = oracle.check(chains, pisa_nodes_of(patterns));
  if (!check.fits) {
    return infeasible(chains, "min-bounce placement: " + check.error);
  }
  return score_best_alloc(patterns, chains, topo, belief);
}

}  // namespace

Pattern hw_preferred_pattern(const chain::ChainSpec& spec,
                             const topo::Topology& topo,
                             const PlacerOptions& options) {
  Pattern out(spec.graph.nodes().size());
  int live_nic = 0;
  for (std::size_t n = 0; n < topo.smartnics.size(); ++n) {
    if (!topo.smartnics[n].failed) {
      live_nic = static_cast<int>(n);
      break;
    }
  }
  for (const auto& node : spec.graph.nodes()) {
    const auto targets = allowed_targets(
        node, topo, options, spec.graph.is_branch_or_merge(node.id));
    auto& p = out[static_cast<std::size_t>(node.id)];
    p.target = targets.front();
    if (p.target == Target::kSmartNic) p.smartnic = live_nic;
  }
  return out;
}

Pattern sw_pattern(const chain::ChainSpec& spec) {
  return Pattern(spec.graph.nodes().size());  // Default target: kServer.
}

int fit_to_switch(std::vector<Pattern>& patterns,
                  const std::vector<bool>& movable,
                  const std::vector<chain::ChainSpec>& chains,
                  const topo::Topology& topo, const PlacerOptions& options,
                  SwitchOracle& oracle) {
  while (true) {
    const auto check = oracle.check(chains, pisa_nodes_of(patterns));
    if (check.fits) return check.stages_required;
    // Demote the cheapest PISA-placed NF of a movable chain: the switch is
    // line-rate for whatever fits, so evicting low-cost NFs loses the
    // least server capacity (section 3.2, step 1). NFs with no legal
    // off-switch target (e.g. the evaluation's P4-only IPv4Fwd) cannot be
    // demoted.
    NodePlacement* best = nullptr;
    Target demoted = Target::kServer;
    std::uint64_t best_cycles = ~0ull;
    for (std::size_t c = 0; c < chains.size(); ++c) {
      if (!movable[c]) continue;
      for (const auto& node : chains[c].graph.nodes()) {
        auto& placed = patterns[c][static_cast<std::size_t>(node.id)];
        if (placed.target != Target::kPisa) continue;
        const auto targets = allowed_targets(
            node, topo, options, chains[c].graph.is_branch_or_merge(node.id));
        if (targets.size() < 2) continue;  // PISA-only: pinned.
        const auto cycles =
            profiled_cycles(node, topo.servers.front(), options);
        if (cycles < best_cycles) {
          best_cycles = cycles;
          best = &placed;
          // The next-preferred allowed target after PISA.
          demoted = *std::find_if(targets.begin(), targets.end(),
                                  [](Target t) { return t != Target::kPisa; });
        }
      }
    }
    if (best == nullptr) return -1;  // Only pinned NFs left: cannot fit.
    best->target = demoted;
  }
}

std::vector<Pattern> enumerate_patterns(const chain::ChainSpec& spec,
                                        const topo::Topology& topo,
                                        const PlacerOptions& options,
                                        std::size_t limit) {
  std::vector<std::vector<Target>> choices;
  choices.reserve(spec.graph.nodes().size());
  for (const auto& node : spec.graph.nodes()) {
    choices.push_back(allowed_targets(
        node, topo, options, spec.graph.is_branch_or_merge(node.id)));
  }
  std::vector<Pattern> out;
  Pattern current(choices.size());
  std::function<void(std::size_t)> recurse = [&](std::size_t i) {
    if (out.size() >= limit) return;
    if (i == choices.size()) {
      out.push_back(current);
      return;
    }
    for (const auto t : choices[i]) {
      current[i].target = t;
      recurse(i + 1);
    }
  };
  recurse(0);
  return out;
}

PlacementResult place(Strategy strategy,
                      const std::vector<chain::ChainSpec>& chains,
                      const topo::Topology& topo,
                      const PlacerOptions& options, SwitchOracle& oracle) {
  const auto start = std::chrono::steady_clock::now();

  // The final scoring undoes the no-profiling ablation's uniform-cost
  // belief, but keeps profile_scale: erroneous profiles are the Placer's
  // whole world-model (the profiling-error experiment judges the
  // resulting *configuration* by executing it, as the paper does).
  PlacerOptions truth = options;
  truth.no_profiling = false;

  PlacerOptions belief = options;

  // All strategy paths query the switch through one shared memo table,
  // so e.g. kOptimal's heuristic seeding and its beam search never pay
  // for the same oracle query twice.
  CachingOracle cached_oracle(oracle);

  PlacementResult decided;
  switch (strategy) {
    case Strategy::kLemur:
      decided = run_lemur(chains, topo, belief, cached_oracle,
                          AllocMode::kMaximizeMarginal);
      break;
    case Strategy::kNoProfiling:
      belief.no_profiling = true;
      decided = run_lemur(chains, topo, belief, cached_oracle,
                          AllocMode::kMaximizeMarginal);
      break;
    case Strategy::kNoCoreAllocation:
      decided = run_lemur(chains, topo, belief, cached_oracle,
                          AllocMode::kNone);
      break;
    case Strategy::kOptimal: {
      // The brute force enumerates a superset of the heuristic's
      // placements; the bounded beam may miss some, so seed the search
      // with the heuristic's solution to preserve Optimal >= Lemur.
      decided = run_lemur(chains, topo, belief, cached_oracle,
                          AllocMode::kMaximizeMarginal);
      auto searched = run_optimal(chains, topo, belief, cached_oracle);
      if (better_result(searched, decided)) decided = searched;
      break;
    }
    case Strategy::kMinimumBounce:
      decided = run_min_bounce(chains, topo, belief, cached_oracle);
      break;
    case Strategy::kHwPreferred:
    case Strategy::kGreedy: {
      // Both keep every chain hardware-preferred; they differ only in how
      // cores are handed out.
      const bool greedy = strategy == Strategy::kGreedy;
      auto patterns = hw_preferred_patterns(chains, topo, belief);
      const auto check = cached_oracle.check(chains, pisa_nodes_of(patterns));
      if (!check.fits) {
        decided = infeasible(chains, std::string(greedy ? "greedy"
                                                        : "hw-preferred") +
                                         " placement: " + check.error);
        break;
      }
      decided = score_candidate(
          std::move(patterns),
          greedy ? AllocMode::kSequentialSlo : AllocMode::kEvenSpread, chains,
          topo, belief);
      break;
    }
    case Strategy::kSwPreferred: {
      std::vector<Pattern> patterns(chains.size());
      for (std::size_t c = 0; c < chains.size(); ++c) {
        patterns[c] = sw_pattern(chains[c]);
      }
      decided = score_candidate(std::move(patterns),
                                AllocMode::kMaximizeMarginal, chains, topo,
                                belief);
      break;
    }
  }

  PlacementResult out = finalize(decided, chains, topo, truth);
  out.strategy = strategy;
  out.stats = cached_oracle.stats();
  out.placement_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

PlacementResult replace_incremental(const std::vector<chain::ChainSpec>& chains,
                                    const topo::Topology& degraded_topo,
                                    const PlacementResult& previous,
                                    const std::vector<int>& affected_chains,
                                    const PlacerOptions& options,
                                    SwitchOracle& oracle) {
  const auto start = std::chrono::steady_clock::now();
  PlacerOptions truth = options;
  truth.no_profiling = false;
  const PlacerOptions& belief = options;

  std::vector<bool> affected(chains.size(), false);
  for (const int c : affected_chains) {
    if (c >= 0 && c < static_cast<int>(chains.size())) {
      affected[static_cast<std::size_t>(c)] = true;
    }
  }

  // Unaffected chains keep the patterns the previous placement decided;
  // only affected chains restart from the hardware-preferred pattern on
  // the degraded topology, and only they may move. Because the kept node
  // sets are byte-identical to the previous run's, every oracle probe they
  // participate in hits a persistent CachingOracle.
  std::vector<Pattern> baseline(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const bool reusable =
        !affected[c] && c < previous.chains.size() &&
        previous.chains[c].nodes.size() == chains[c].graph.nodes().size();
    baseline[c] = reusable ? previous.chains[c].nodes
                           : hw_preferred_pattern(chains[c], degraded_topo,
                                                  belief);
  }
  PlacementResult best = infeasible(chains, "no incremental variant scored");
  if (!lemur_search(baseline, affected, AllocMode::kMaximizeMarginal, chains,
                    degraded_topo, belief, oracle, best)) {
    PlacementResult out = infeasible(
        chains,
        "incremental re-place: affected chains cannot shrink the switch "
        "program further");
    out.strategy = previous.strategy;
    return out;
  }

  PlacementResult out = finalize(best, chains, degraded_topo, truth);
  out.strategy = previous.strategy;
  out.placement_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

}  // namespace lemur::placer
