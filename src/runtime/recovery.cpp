#include "src/runtime/recovery.h"

#include <algorithm>

namespace lemur::runtime {

RecoveryController::RecoveryController(
    std::vector<chain::ChainSpec> chains,
    const placer::PlacementResult& initial_placement,
    const topo::Topology& topo, placer::PlacerOptions placer_options,
    placer::SwitchOracle& oracle)
    : initial_chains_(std::move(chains)),
      initial_placement_(&initial_placement),
      initial_topo_(topo),
      placer_options_(placer_options),
      cache_(oracle) {}

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

std::vector<int> RecoveryController::affected_chains(Element element) const {
  using Kind = Element::Kind;
  // A severed ToR link isolates the server: same placement consequence as
  // the server dying.
  const int server =
      element.kind == Kind::kServer || element.kind == Kind::kLink
          ? element.index
          : -1;
  const int nic = element.kind == Kind::kSmartNic ? element.index : -1;
  const bool openflow = element.kind == Kind::kOpenFlow;
  const auto& placement = current_placement();
  std::set<int> affected;
  for (std::size_t c = 0; c < placement.chains.size(); ++c) {
    for (const auto& np : placement.chains[c].nodes) {
      const bool hit =
          (nic >= 0 && np.target == placer::Target::kSmartNic &&
           np.smartnic == nic) ||
          (openflow && np.target == placer::Target::kOpenFlow);
      if (hit) {
        affected.insert(static_cast<int>(c));
        break;
      }
    }
  }
  // A server NF runs on its subgroup's server.
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
  for (const auto& [element, counter] : testbed.fault_counters()) {
    const std::uint64_t value = counter->value();
    std::uint64_t& last = last_counter_[element];
    const bool grew = value > last;
    last = value;

    // Wire impairments (corruption) are transient: no re-placement, just
    // an event that closes when the counter quiesces.
    if (element.kind == Element::Kind::kWire) {
      auto it = ride_throughs_.find(element);
      if (it == ride_throughs_.end()) {
        if (!grew) continue;
        RecoveryEvent ev;
        ev.element = element.name();
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
      if (rt.quiet_quanta >= kImpairmentQuietQuanta) {
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
    pending_.push_back(Pending{element, now_ns, now_ns + kControlDelayNs});
  }
}

void RecoveryController::execute(Testbed& testbed, const Pending& pending,
                                 std::uint64_t now_ns) {
  const Element element = pending.element;
  handled_.insert(element);

  RecoveryEvent ev;
  ev.element = element.name();
  ev.detected_ns = pending.detected_ns;

  // Mark the element failed in a fresh topology copy.
  topo::Topology topo = current_topo();
  const auto index = static_cast<std::size_t>(element.index);
  switch (element.kind) {
    case Element::Kind::kServer:
    case Element::Kind::kLink:
      if (index < topo.servers.size()) topo.servers[index].failed = true;
      break;
    case Element::Kind::kSmartNic:
      if (index < topo.smartnics.size()) topo.smartnics[index].failed = true;
      break;
    case Element::Kind::kOpenFlow:
      if (topo.openflow.has_value()) topo.openflow->failed = true;
      break;
    case Element::Kind::kWire:  // Ridden through in detect(), never here.
      break;
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

  // detect() queued the element off this counter, so it exists.
  ev.fault_window_drops = testbed.fault_counters().at(element)->value();

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
