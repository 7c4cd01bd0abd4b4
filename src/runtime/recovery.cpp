#include "src/runtime/recovery.h"

#include <algorithm>
#include <cstdio>

namespace lemur::runtime {
namespace {

/// "fault.<element>.drops" -> "<element>"; empty when the name is not a
/// fault counter.
std::string fault_element_of(const std::string& counter_name) {
  constexpr const char* kPrefix = "fault.";
  constexpr const char* kSuffix = ".drops";
  if (counter_name.rfind(kPrefix, 0) != 0) return {};
  const std::size_t prefix_len = 6, suffix_len = 6;
  if (counter_name.size() <= prefix_len + suffix_len) return {};
  if (counter_name.compare(counter_name.size() - suffix_len, suffix_len,
                           kSuffix) != 0) {
    return {};
  }
  return counter_name.substr(
      prefix_len, counter_name.size() - prefix_len - suffix_len);
}

}  // namespace

RecoveryController::RecoveryController(
    std::vector<chain::ChainSpec> chains,
    const placer::PlacementResult& initial_placement,
    const topo::Topology& topo, placer::PlacerOptions placer_options,
    placer::SwitchOracle& oracle, Options options)
    : initial_chains_(std::move(chains)),
      initial_placement_(&initial_placement),
      initial_topo_(topo),
      placer_options_(placer_options),
      cache_(oracle),
      options_(options) {}

RecoveryController::~RecoveryController() = default;

const std::vector<chain::ChainSpec>& RecoveryController::current_chains()
    const {
  return generations_.empty() ? initial_chains_ : generations_.back()->chains;
}

const topo::Topology& RecoveryController::current_topo() const {
  return generations_.empty() ? initial_topo_ : generations_.back()->topo;
}

const placer::PlacementResult& RecoveryController::current_placement()
    const {
  return generations_.empty() ? *initial_placement_
                              : generations_.back()->placement;
}

std::vector<RecoveryEvent> RecoveryController::events() const {
  return events_;
}

std::vector<int> RecoveryController::affected_chains(
    const std::string& element) const {
  int server = -1, nic = -1;
  bool openflow = false;
  if (std::sscanf(element.c_str(), "server%d", &server) == 1) {
  } else if (std::sscanf(element.c_str(), "link%d", &server) == 1) {
    // A severed ToR link isolates the server: same placement consequence
    // as the server dying.
  } else if (std::sscanf(element.c_str(), "smartnic%d", &nic) == 1) {
  } else if (element == "openflow") {
    openflow = true;
  }
  const auto& placement = current_placement();
  std::set<int> affected;
  for (std::size_t c = 0; c < placement.chains.size(); ++c) {
    for (const auto& np : placement.chains[c].nodes) {
      const bool hit =
          (server >= 0 && np.target == placer::Target::kServer &&
           np.server == server) ||
          (nic >= 0 && np.target == placer::Target::kSmartNic &&
           np.smartnic == nic) ||
          (openflow && np.target == placer::Target::kOpenFlow);
      if (hit) {
        affected.insert(static_cast<int>(c));
        break;
      }
    }
  }
  // Subgroups carry the server assignment for PISA-adjacent chains whose
  // node list alone may not show it.
  if (server >= 0) {
    for (const auto& g : placement.subgroups) {
      if (g.server == server) affected.insert(g.chain);
    }
  }
  return {affected.begin(), affected.end()};
}

int RecoveryController::pick_shed_victim(
    const std::vector<chain::ChainSpec>& chains) const {
  const auto& placement = current_placement();
  int victim = -1;
  double victim_marginal = 0, victim_t_min = 0;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    if (shed_.count(static_cast<int>(c)) != 0) continue;
    const double t_min = chains[c].slo.t_min_gbps;
    const double assigned =
        c < placement.chains.size() ? placement.chains[c].assigned_gbps : 0;
    const double marginal = assigned - t_min;
    // Lowest marginal loses least aggregate throughput; ties go to the
    // weakest guarantee, then the lowest index (determinism).
    const bool better =
        victim < 0 || marginal < victim_marginal ||
        (marginal == victim_marginal && t_min < victim_t_min);
    if (better) {
      victim = static_cast<int>(c);
      victim_marginal = marginal;
      victim_t_min = t_min;
    }
  }
  return victim;
}

void RecoveryController::detect(Testbed& testbed, std::uint64_t now_ns) {
  for (const auto& [name, counter] : testbed.metrics().counters()) {
    const std::string element = fault_element_of(name);
    if (element.empty()) continue;
    const std::uint64_t value = counter.value();
    std::uint64_t& last = last_counter_[name];
    const bool grew = value > last;
    last = value;

    // Wire impairments (corruption) are transient: no re-placement, just
    // an event that closes when the counter quiesces.
    if (element.rfind("wire", 0) == 0) {
      auto it = ride_throughs_.find(element);
      if (it == ride_throughs_.end()) {
        if (!grew) continue;
        RecoveryEvent ev;
        ev.element = element;
        ev.action = "impairment-ride-through";
        ev.detected_ns = now_ns;
        ev.fault_window_drops = value;
        events_.push_back(ev);
        ride_throughs_.emplace(element,
                               RideThrough{events_.size() - 1, 0});
        continue;
      }
      auto& rt = it->second;
      auto& ev = events_[rt.event_index];
      if (ev.recovered) continue;  // Already closed; a flap re-opens below.
      ev.fault_window_drops = value;
      rt.quiet_quanta = grew ? 0 : rt.quiet_quanta + 1;
      if (rt.quiet_quanta >= options_.impairment_quiet_quanta) {
        ev.recovered = true;
        ev.recovered_ns = now_ns;
        ev.slo_violation_ns = now_ns - ev.detected_ns;
      }
      continue;
    }

    if (!grew || handled_.count(element) != 0) continue;
    const bool queued =
        std::any_of(pending_.begin(), pending_.end(),
                    [&](const Pending& p) { return p.element == element; });
    if (queued) continue;
    pending_.push_back(
        Pending{element, now_ns, now_ns + options_.control_delay_ns});
  }
}

void RecoveryController::execute(Testbed& testbed, const Pending& pending,
                                 std::uint64_t now_ns) {
  const std::string& element = pending.element;
  handled_.insert(element);

  RecoveryEvent ev;
  ev.element = element;
  ev.detected_ns = pending.detected_ns;

  // Mark the element failed in a fresh topology copy.
  topo::Topology topo = current_topo();
  int index = -1;
  if (std::sscanf(element.c_str(), "server%d", &index) == 1 ||
      std::sscanf(element.c_str(), "link%d", &index) == 1) {
    if (index >= 0 && index < static_cast<int>(topo.servers.size())) {
      topo.servers[static_cast<std::size_t>(index)].failed = true;
    }
  } else if (std::sscanf(element.c_str(), "smartnic%d", &index) == 1) {
    if (index >= 0 && index < static_cast<int>(topo.smartnics.size())) {
      topo.smartnics[static_cast<std::size_t>(index)].failed = true;
    }
  } else if (element == "openflow") {
    if (topo.openflow.has_value()) topo.openflow->failed = true;
  }

  ev.replaced_chains = affected_chains(element);

  // Incremental re-placement, degrading via admission shed until the
  // remaining rack can carry what remains.
  std::vector<chain::ChainSpec> chains = current_chains();
  auto result = placer::replace_incremental(chains, topo,
                                            current_placement(),
                                            ev.replaced_chains,
                                            placer_options_, cache_);
  std::vector<int> shed_now;
  while (!result.feasible) {
    const int victim = pick_shed_victim(chains);
    if (victim < 0) break;
    // Zero guarantees: the placer keeps the chain (mandatory single
    // core) but assigns it no rate; the Testbed drops its traffic at
    // ToR admission with an explicit ledger cause.
    chains[static_cast<std::size_t>(victim)].slo.t_min_gbps = 0;
    chains[static_cast<std::size_t>(victim)].slo.t_max_gbps = 0;
    shed_.insert(victim);
    shed_now.push_back(victim);
    result = placer::replace_incremental(chains, topo, current_placement(),
                                         ev.replaced_chains,
                                         placer_options_, cache_);
  }

  const auto fault_counter_name = "fault." + element + ".drops";
  const auto counter_it =
      testbed.metrics().counters().find(fault_counter_name);
  ev.fault_window_drops = counter_it != testbed.metrics().counters().end()
                              ? counter_it->second.value()
                              : 0;

  if (!result.feasible) {
    for (const int c : shed_now) shed_.erase(c);
    ev.recovered = false;
    ev.recovered_ns = now_ns;
    ev.action = "unrecovered: " + result.infeasible_reason;
    events_.push_back(std::move(ev));
    return;
  }

  auto gen = std::make_unique<Generation>();
  gen->chains = std::move(chains);
  gen->topo = std::move(topo);
  gen->placement = std::move(result);
  // swap_plan() is the verify gate; verifying here too would only repeat
  // it on the same artifacts.
  gen->artifacts = metacompiler::compile(gen->chains, gen->placement,
                                         gen->topo, {.run_verifier = false});

  const std::uint64_t flushed_before = testbed.recovery_flush_drops();
  std::string swap_error;
  const bool swapped =
      testbed.swap_plan(gen->chains, gen->placement, gen->artifacts,
                        gen->topo, now_ns, &swap_error);
  if (!swapped) {
    for (const int c : shed_now) shed_.erase(c);
    ev.recovered = false;
    ev.recovered_ns = now_ns;
    ev.action = "unrecovered: " + swap_error;
    events_.push_back(std::move(ev));
    return;
  }
  for (const int c : shed_now) testbed.set_chain_shed(c, true);
  generations_.push_back(std::move(gen));

  ev.recovered = true;
  ev.recovered_ns = now_ns;
  ev.slo_violation_ns = now_ns - ev.detected_ns;
  ev.recovery_flush_drops = testbed.recovery_flush_drops() - flushed_before;
  ev.shed_chains = shed_now;
  ev.action = "replaced";
  for (const int c : shed_now) {
    ev.action += "+shed-chain-" + std::to_string(c + 1);
  }
  events_.push_back(std::move(ev));
}

void RecoveryController::on_quantum(Testbed& testbed,
                                    std::uint64_t now_ns) {
  detect(testbed, now_ns);
  // Execute matured recoveries (detection + control delay elapsed).
  std::vector<Pending> still_waiting;
  for (auto& p : pending_) {
    if (p.execute_at_ns <= now_ns) {
      execute(testbed, p, now_ns);
    } else {
      still_waiting.push_back(p);
    }
  }
  pending_ = std::move(still_waiting);
}

}  // namespace lemur::runtime
