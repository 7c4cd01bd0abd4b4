#include "src/runtime/testbed.h"

#include "src/verify/verifier.h"

namespace lemur::runtime {
namespace {

/// "[rule] locus: message" of a report's first error-severity finding.
std::string first_error(const verify::Report& report) {
  for (const auto& d : report.diagnostics) {
    if (d.severity == verify::Severity::kError) {
      return "[" + d.rule + "] " + d.locus + ": " + d.message;
    }
  }
  return {};
}

}  // namespace

Testbed::Testbed(const std::vector<chain::ChainSpec>& chains,
                 const placer::PlacementResult& placement,
                 const metacompiler::CompiledArtifacts& artifacts,
                 const topo::Topology& topo, std::uint64_t seed,
                 FlowMode flow_mode)
    : chains_(&chains),
      placement_(&placement),
      artifacts_(&artifacts),
      topo_(&topo),
      flow_mode_(flow_mode),
      seed_(seed),
      report_(chains.size()),
      tor_(report_, chains.size()) {
  if (!artifacts.ok) {
    error_ = "artifacts not compiled: " + artifacts.error;
    return;
  }
  // Re-run the deployment verifier on the artifacts as handed to us (not
  // the report stored at compile time — artifacts may have been modified
  // since). Error-severity findings mean misrouted traffic or
  // overcommitted resources, so deployment is refused outright.
  const auto report = verify::verify_artifacts(chains, placement, artifacts,
                                               topo);
  if (report.has_errors()) {
    error_ = "deployment verifier found " +
             std::to_string(report.count(verify::Severity::kError)) +
             " error(s); first: " + first_error(report);
    return;
  }
  build();
}

Testbed::~Testbed() = default;

void Testbed::build() {
  // The ToR routes to no stage of the old plan from here on.
  tor_.connect(nullptr, {}, 0);
  servers_.clear();
  openflow_.reset();
  report_.set_chains(*chains_);
  // resize, not assign: servers already marked dead stay dead across a
  // swap (the degraded plan routes nothing at them anyway).
  server_dead_.resize(topo_->servers.size(), 0);
  error_ = tor_.load(artifacts_->p4, topo_->tor);
  if (!error_.empty()) return;

  const StageLinks links{
      report_, faults_, tor_,
      static_cast<std::uint64_t>(topo_->bounce_latency_us * 1000)};
  std::vector<Stage*> servers;
  for (std::size_t s = 0; s < topo_->servers.size(); ++s) {
    servers_.push_back(std::make_unique<ServerStage>(
        links, static_cast<int>(s), *chains_, artifacts_->server_plans[s],
        topo_->servers[s], seed_ + s, server_dead_[s] != 0));
    servers.push_back(servers_.back().get());
  }
  for (const auto& artifact : artifacts_->nic_programs) {
    const auto& nic =
        topo_->smartnics[static_cast<std::size_t>(artifact.smartnic)];
    const auto server = static_cast<std::size_t>(nic.attached_server);
    servers_[server]->nic().add(artifact, nic, topo_->servers[server],
                                *chains_);
  }
  openflow_ = std::make_unique<OpenFlowStage>(links);
  error_ = openflow_->load(artifacts_->of_rules, topo_->openflow);
  if (!error_.empty()) return;
  tor_.connect(openflow_.get(), std::move(servers), links.bounce_ns);
}

void Testbed::apply_fault_onsets(std::uint64_t now_ns) {
  if (faults_ == nullptr) return;
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    const Element server{Element::Kind::kServer, static_cast<int>(s)};
    if (server_dead_[s] != 0 || !faults_->down(server, now_ns)) continue;
    server_dead_[s] = 1;
    servers_[s]->fail();
  }
}

bool Testbed::swap_plan(const std::vector<chain::ChainSpec>& chains,
                        const placer::PlacementResult& placement,
                        const metacompiler::CompiledArtifacts& artifacts,
                        const topo::Topology& topo, std::uint64_t now_ns,
                        std::string* error) {
  // Verify first, and only here: a plan that fails verification must
  // never evict the one that is running, and build() trusts this check.
  std::string refused;
  if (!artifacts.ok) {
    refused = "artifacts not compiled: " + artifacts.error;
  } else if (const auto report = verify::verify_artifacts(
                 chains, placement, artifacts, topo);
             report.has_errors()) {
    refused = "swap refused: " + first_error(report);
  }
  if (!refused.empty()) {
    if (error != nullptr) *error = std::move(refused);
    return false;
  }

  // Capture stateful NF state from the live replicas before teardown.
  exported_state_.clear();
  for (const auto& server : servers_) server->export_state(exported_state_);

  // Flush in-flight packets, charged to the ledger (cause=recovery-flush)
  // so conservation still holds, and charge the drops the old modules
  // counted before build() destroys them.
  recovery_flush_drops_ += tor_.flush_tagged();
  for (auto& server : servers_) {
    recovery_flush_drops_ += server->flush(telemetry::DropCause::kRecovery);
    server->sweep_module_drops();
  }

  // Atomic cutover: repoint the live plan and rebuild the rack. build()
  // can only fail on a platform compile regression — surfaced via
  // error_/ok() like a ctor failure.
  chains_ = &chains;
  placement_ = &placement;
  artifacts_ = &artifacts;
  topo_ = &topo;
  build();
  if (!ok()) {
    if (error != nullptr) *error = error_;
    return false;
  }
  for (auto& server : servers_) server->import_state(exported_state_);
  ++plan_generation_;
  report_.metrics.counter("recovery.plan_swaps").add(1);
  report_.metrics.gauge("recovery.last_swap_ns")
      .set(static_cast<double>(now_ns));
  return true;
}

bool Testbed::capture_egress_to(const std::string& path) {
  auto writer = std::make_unique<net::PcapWriter>(path);
  if (!writer->ok()) return false;
  report_.egress_capture = std::move(writer);
  return true;
}

std::vector<telemetry::MeasuredNfProfile> Testbed::measured_nf_profiles()
    const {
  std::vector<NfSample> samples;
  for (const auto& server : servers_) server->sample_nfs(samples);
  return measured_profiles(samples, *chains_);
}

std::string Testbed::stats_json(const Measurement& m) const {
  return report_.stats_json(m, *chains_,
                            metacompiler::SegmentIndex(artifacts_->routings),
                            measured_nf_profiles());
}

Measurement Testbed::run(double duration_ms,
                         const std::vector<double>& offered_gbps) {
  if (ran_) error_ = "run() already measured this testbed";
  if (!ok()) return {};
  ran_ = true;

  Sources sources(*chains_, *placement_, offered_gbps, kOfferedHeadroom,
                  seed_, flow_mode_);
  const std::uint64_t duration_ns =
      static_cast<std::uint64_t>(duration_ms * 1e6);
  constexpr std::uint64_t kQuantumNs = 100'000;  // 100 us.
  // Extra drain quanta flush in-flight packets after injection stops.
  const std::uint64_t drain_until = duration_ns + 20 * kQuantumNs;

  for (std::uint64_t now = 0; now < drain_until; now += kQuantumNs) {
    const std::uint64_t quantum_end = now + kQuantumNs;
    // 0. Fault onsets take effect at the quantum boundary (a dying
    // server loses its resident packets immediately).
    apply_fault_onsets(now);
    // 1. Inject fresh traffic (within the measurement window only).
    if (now < duration_ns) sources.emit(quantum_end, tor_, report_);
    // 2. ToR processing for everything that has arrived.
    tor_.advance(quantum_end);
    // 3. Servers advance to the quantum boundary; their egress returns
    // to the ToR after a bounce.
    for (auto& server : servers_) server->advance(quantum_end);
    tor_.sample();
    // 4. The recovery controller observes this quantum's telemetry and,
    // when it decides to, swaps the plan in the gap between quanta.
    if (recovery_ != nullptr) {
      recovery_->on_quantum(*this, quantum_end);
      if (!ok()) break;  // A swap's build() failed; abort the run.
    }
  }

  tor_.finish();
  for (auto& server : servers_) server->finish();
  Measurement out = report_.measure(duration_ms, *chains_, *placement_);
  if (recovery_ != nullptr) out.recovery = recovery_->events();
  return out;
}

}  // namespace lemur::runtime
