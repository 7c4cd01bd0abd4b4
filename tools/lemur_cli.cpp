// lemur_cli — operator front-end for the Lemur pipeline.
//
// Place NF chains across a simulated rack, inspect the generated
// artifacts, and optionally execute the deployment:
//
//   lemur_cli --chain 1 --chain 3 --delta 1.0 --measure 10
//   lemur_cli --spec my_chain.lemur --t-min 2 --print-p4
//   lemur_cli --chain 5 --smartnic --strategy optimal
//   lemur_cli verify --chain 2 --delta 0.5
//   lemur_cli stats --chain 1 --chain 3 --measure 10 --json out.json
//   lemur_cli chaos --chain 3 --chain 5 --servers 2 --cores 8
//             --seed 42 --faults "server:1@2;corrupt:0@1+1@0.25"
//
// Subcommands:
//   verify           compile the placement's artifacts and print the
//                    deployment verifier's diagnostic report (exit 1 on
//                    error-severity findings)
//   stats            deploy, measure (default 5 ms), and emit the full
//                    telemetry snapshot as JSON: per-chain percentiles,
//                    SLO compliance report, drop attribution, per-hop
//                    latency table, measured NF profiles, raw metrics
//   chaos            deploy with a fault scheduler (--faults, grammar in
//                    src/runtime/faults.h) and the live recovery
//                    controller attached, run (default 10 ms), and emit
//                    a JSON recovery report: per-event MTTR, loss, SLO
//                    violation, re-placed/shed chains, conservation.
//                    Exit 1 on any unrecovered fault or conservation
//                    mismatch. --seed fixes the run (bit-identical
//                    replay), --json writes the report to a file.
//
// Options:
//   --spec FILE      chain spec file (dataflow language); repeatable
//   --chain N        canonical chain 1..5 (paper Table 2); repeatable
//   --delta D        t_min = D x base rate for every chain (default 1.0)
//   --t-min G        explicit t_min in Gbps (overrides --delta)
//   --t-max G        burst cap in Gbps (default 100)
//   --d-max US       latency bound in microseconds
//   --strategy S     lemur|optimal|hw|sw|minbounce|greedy (default lemur)
//   --servers N      number of servers (default 1)
//   --cores N        cores per server (default 16)
//   --smartnic       attach an eBPF SmartNIC
//   --openflow       attach an OpenFlow switch
//   --no-pisa-nfs    ToR coordinates only (no NF offload)
//   --measure MS     deploy and measure for MS milliseconds
//   --pcap FILE      capture egress traffic to a pcap during --measure
//   --seed N         seed of the measured run (default 7)
//   --print-p4       dump the unified P4 program
//   --print-bess     dump the per-server BESS scripts
//   --json FILE      (stats) write the JSON snapshot to FILE, not stdout
//   --no-trace       (stats) disable per-hop tracing (drop attribution
//                    and latency histograms stay on)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/chain/parser.h"
#include "src/metacompiler/pisa_oracle.h"
#include "src/pisa/p4_printer.h"
#include "src/placer/placer.h"
#include "src/runtime/recovery.h"
#include "src/runtime/testbed.h"
#include "src/telemetry/json.h"
#include "src/verify/verifier.h"

namespace {

using namespace lemur;

struct CliOptions {
  std::vector<std::string> spec_files;
  std::vector<int> canonical;
  double delta = 1.0;
  double t_min = -1;
  double t_max = 100.0;
  double d_max = -1;
  placer::Strategy strategy = placer::Strategy::kLemur;
  int servers = 1;
  int cores = 16;
  bool smartnic = false;
  bool openflow = false;
  bool no_pisa_nfs = false;
  double measure_ms = 0;
  std::string pcap_path;
  bool print_p4 = false;
  bool print_bess = false;
  bool verify = false;
  bool stats = false;
  bool chaos = false;
  std::string fault_spec;
  std::uint64_t seed = 7;
  std::string json_path;
  bool no_trace = false;
};

int usage(const char* argv0) {
  std::printf("usage: %s [--spec FILE | --chain N]... [options]\n"
              "see the header of tools/lemur_cli.cpp for the full list\n",
              argv0);
  return 2;
}

bool parse_strategy(const std::string& name, placer::Strategy* out) {
  if (name == "lemur") *out = placer::Strategy::kLemur;
  else if (name == "optimal") *out = placer::Strategy::kOptimal;
  else if (name == "hw") *out = placer::Strategy::kHwPreferred;
  else if (name == "sw") *out = placer::Strategy::kSwPreferred;
  else if (name == "minbounce") *out = placer::Strategy::kMinimumBounce;
  else if (name == "greedy") *out = placer::Strategy::kGreedy;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "verify" && i == 1) {
      cli.verify = true;
    } else if (arg == "stats" && i == 1) {
      cli.stats = true;
    } else if (arg == "chaos" && i == 1) {
      cli.chaos = true;
    } else if (arg == "--faults") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cli.fault_spec = v;
    } else if (arg == "--seed") {
      cli.seed = static_cast<std::uint64_t>(
          std::atoll(next() ? argv[i] : "7"));
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cli.json_path = v;
    } else if (arg == "--no-trace") {
      cli.no_trace = true;
    } else if (arg == "--spec") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cli.spec_files.push_back(v);
    } else if (arg == "--chain") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cli.canonical.push_back(std::atoi(v));
    } else if (arg == "--delta") {
      cli.delta = std::atof(next() ? argv[i] : "1");
    } else if (arg == "--t-min") {
      cli.t_min = std::atof(next() ? argv[i] : "0");
    } else if (arg == "--t-max") {
      cli.t_max = std::atof(next() ? argv[i] : "100");
    } else if (arg == "--d-max") {
      cli.d_max = std::atof(next() ? argv[i] : "0");
    } else if (arg == "--strategy") {
      const char* v = next();
      if (v == nullptr || !parse_strategy(v, &cli.strategy)) {
        return usage(argv[0]);
      }
    } else if (arg == "--servers") {
      cli.servers = std::atoi(next() ? argv[i] : "1");
    } else if (arg == "--cores") {
      cli.cores = std::atoi(next() ? argv[i] : "16");
    } else if (arg == "--smartnic") {
      cli.smartnic = true;
    } else if (arg == "--openflow") {
      cli.openflow = true;
    } else if (arg == "--no-pisa-nfs") {
      cli.no_pisa_nfs = true;
    } else if (arg == "--measure") {
      cli.measure_ms = std::atof(next() ? argv[i] : "10");
    } else if (arg == "--pcap") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cli.pcap_path = v;
    } else if (arg == "--print-p4") {
      cli.print_p4 = true;
    } else if (arg == "--print-bess") {
      cli.print_bess = true;
    } else {
      std::printf("unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (cli.spec_files.empty() && cli.canonical.empty()) {
    return usage(argv[0]);
  }

  // Topology.
  topo::Topology topo = cli.servers == 1 && cli.cores == 16
                            ? topo::Topology::lemur_testbed()
                            : topo::Topology::multi_server(cli.servers,
                                                           cli.cores);
  if (cli.smartnic) topo.smartnics.push_back(topo::SmartNicSpec{});
  if (cli.openflow) topo.openflow = topo::OpenFlowSwitchSpec{};

  placer::PlacerOptions options;
  options.disable_pisa_nfs = cli.no_pisa_nfs;

  // Chains.
  std::vector<chain::ChainSpec> chains;
  for (int n : cli.canonical) {
    if (n < 1 || n > 5) {
      std::printf("canonical chains are numbered 1..5\n");
      return 2;
    }
    auto set = chain::canonical_chains({n});
    chains.push_back(std::move(set[0]));
  }
  for (const auto& path : cli.spec_files) {
    std::ifstream file(path);
    if (!file) {
      std::printf("cannot open '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << file.rdbuf();
    auto parsed = chain::parse_chain(text.str());
    if (!parsed.ok) {
      std::printf("%s: %s\n", path.c_str(), parsed.error.c_str());
      return 2;
    }
    chain::ChainSpec spec;
    spec.name = path;
    spec.graph = std::move(parsed.graph);
    chains.push_back(std::move(spec));
  }
  for (std::size_t c = 0; c < chains.size(); ++c) {
    chains[c].aggregate_id = static_cast<std::uint32_t>(c + 1);
    chains[c].slo = chain::Slo::elastic_pipe(0, cli.t_max);
  }
  if (cli.t_min >= 0) {
    for (auto& spec : chains) spec.slo.t_min_gbps = cli.t_min;
  } else {
    placer::apply_delta(chains, cli.delta, topo.servers.front(), options);
  }
  if (cli.d_max > 0) {
    for (auto& spec : chains) spec.slo = spec.slo.with_latency(cli.d_max);
  }

  // Place.
  metacompiler::CompilerOracle oracle(topo);
  auto placement =
      placer::place(cli.strategy, chains, topo, options, oracle);
  // `stats`/`chaos` with JSON on stdout keep stdout machine-readable;
  // the placement narrative would corrupt it.
  const bool quiet = (cli.stats || cli.chaos) && cli.json_path.empty();
  if (!quiet) {
    std::printf("strategy %s on %zu chain(s), %d server(s) x %d cores%s%s\n",
                placer::to_string(cli.strategy), chains.size(), cli.servers,
                cli.cores, cli.smartnic ? " + SmartNIC" : "",
                cli.openflow ? " + OpenFlow" : "");
  }
  if (!placement.feasible) {
    std::fprintf(stderr, "INFEASIBLE: %s\n",
                 placement.infeasible_reason.c_str());
    return 1;
  }
  if (!quiet) {
    for (std::size_t c = 0; c < chains.size(); ++c) {
      std::printf("\n%s (t_min %.2f, t_max %.2f):\n", chains[c].name.c_str(),
                  chains[c].slo.t_min_gbps, chains[c].slo.t_max_gbps);
      for (const auto& node : chains[c].graph.nodes()) {
        std::printf("  %-20s -> %s\n", node.instance_name.c_str(),
                    placer::to_string(
                        placement.chains[c]
                            .nodes[static_cast<std::size_t>(node.id)]
                            .target));
      }
      std::printf("  assigned %.2f Gbps, %d bounce(s), latency %.1f us\n",
                  placement.chains[c].assigned_gbps,
                  placement.chains[c].bounces,
                  placement.chains[c].latency_us);
    }
    std::printf("\naggregate %.2f Gbps (marginal %.2f), %d cores, placed in "
                "%.3f s\n",
                placement.aggregate_gbps, placement.marginal_gbps(),
                placement.cores_used, placement.placement_seconds);
  }

  if (cli.verify) {
    auto artifacts = metacompiler::compile(chains, placement, topo);
    if (!artifacts.ok) {
      std::printf("metacompiler error: %s\n", artifacts.error.c_str());
      return 1;
    }
    std::printf("\ncompiled: %d P4 stage(s), %zu server plan(s), "
                "%zu NIC program(s), %zu OF rule set(s)\n",
                artifacts.p4.compiled.stats.stages_used,
                artifacts.server_plans.size(),
                artifacts.nic_programs.size(), artifacts.of_rules.size());
    std::printf("%s", artifacts.verification.to_string().c_str());
    return artifacts.verification.has_errors() ? 1 : 0;
  }

  if (cli.chaos) {
    if (cli.fault_spec.empty()) {
      std::fprintf(stderr, "chaos requires --faults <spec> (grammar in "
                           "src/runtime/faults.h)\n");
      return 2;
    }
    if (cli.measure_ms <= 0) cli.measure_ms = 10.0;
    std::string parse_error;
    auto fault_events =
        runtime::FaultScheduler::parse(cli.fault_spec, &parse_error);
    if (!fault_events.has_value()) {
      std::fprintf(stderr, "bad --faults spec: %s\n", parse_error.c_str());
      return 2;
    }
    auto artifacts = metacompiler::compile(chains, placement, topo);
    if (!artifacts.ok) {
      std::fprintf(stderr, "metacompiler error: %s\n",
                   artifacts.error.c_str());
      return 1;
    }
    runtime::FaultScheduler faults(*fault_events, cli.seed);
    metacompiler::CompilerOracle recovery_oracle(topo);
    runtime::RecoveryController controller(chains, placement, topo, options,
                                           recovery_oracle);
    runtime::Testbed testbed(chains, placement, artifacts, topo, cli.seed);
    if (!testbed.ok()) {
      std::fprintf(stderr, "deployment error: %s\n",
                   testbed.error().c_str());
      return 1;
    }
    testbed.set_fault_scheduler(&faults);
    testbed.set_recovery_hook(&controller);
    if (cli.no_trace) testbed.set_tracing(false);
    auto m = testbed.run(cli.measure_ms);

    bool ok = true;
    std::string verdict;
    for (const auto& ev : m.recovery) {
      if (!ev.recovered) {
        ok = false;
        verdict += (verdict.empty() ? "" : "; ") + ev.element + " " +
                   ev.action;
      }
    }
    for (std::size_t c = 0; c < m.chain_offered.size(); ++c) {
      if (m.chain_offered[c] != m.chain_delivered[c] + m.chain_dropped[c] +
                                    m.chain_residual[c]) {
        ok = false;
        verdict += (verdict.empty() ? "" : "; ") + std::string("chain ") +
                   std::to_string(c + 1) + " conservation mismatch";
      }
    }

    telemetry::JsonWriter w;
    w.begin_object();
    w.kv("report", "chaos");
    w.kv("seed", cli.seed);
    w.kv("faults", cli.fault_spec);
    w.kv("duration_ms", cli.measure_ms);
    w.kv("plan_generations", testbed.plan_generation());
    w.key("events");
    runtime::write_recovery_events(w, m.recovery);
    w.key("chains");
    w.begin_array();
    for (std::size_t c = 0; c < m.chain_offered.size(); ++c) {
      w.begin_object();
      w.kv("chain", static_cast<int>(c) + 1);
      w.kv("offered", m.chain_offered[c]);
      w.kv("delivered", m.chain_delivered[c]);
      w.kv("dropped", m.chain_dropped[c]);
      w.kv("residual", m.chain_residual[c]);
      w.kv("fault_drops", m.drops.cause_total(
                              static_cast<int>(c),
                              telemetry::DropCause::kFault));
      w.kv("recovery_flush_drops",
           m.drops.cause_total(static_cast<int>(c),
                               telemetry::DropCause::kRecovery));
      w.kv("admission_shed_drops",
           m.drops.cause_total(static_cast<int>(c),
                               telemetry::DropCause::kAdmissionShed));
      w.kv("shed", controller.shed_chains().count(static_cast<int>(c)) != 0);
      w.end_object();
    }
    w.end_array();
    w.kv("pass", ok);
    if (!ok) w.kv("verdict", verdict);
    w.end_object();
    const std::string json = w.str();
    if (!cli.json_path.empty()) {
      std::ofstream out(cli.json_path);
      if (!out) {
        std::fprintf(stderr, "cannot open '%s'\n", cli.json_path.c_str());
        return 1;
      }
      out << json << '\n';
      std::printf("chaos report written to %s (%s)\n",
                  cli.json_path.c_str(), ok ? "PASS" : "FAIL");
    } else {
      std::printf("%s\n", json.c_str());
    }
    if (!ok) {
      std::fprintf(stderr, "CHAOS FAIL: %s\n", verdict.c_str());
    }
    return ok ? 0 : 1;
  }

  if (cli.stats && cli.measure_ms <= 0) cli.measure_ms = 5.0;
  if (!cli.print_p4 && !cli.print_bess && cli.measure_ms <= 0) return 0;

  auto artifacts = metacompiler::compile(chains, placement, topo);
  if (!artifacts.ok) {
    std::fprintf(stderr, "metacompiler error: %s\n", artifacts.error.c_str());
    return 1;
  }
  if (!quiet) {
    std::printf("compiled: %d P4 stage(s)\n",
                artifacts.p4.compiled.stats.stages_used);
  }
  if (cli.print_p4) {
    std::printf("\n===== unified P4 program =====\n%s",
                pisa::print_program(artifacts.p4.program).c_str());
  }
  if (cli.print_bess) {
    for (const auto& plan : artifacts.server_plans) {
      if (plan.segments.empty()) continue;
      std::printf("\n===== BESS script, server %d =====\n%s", plan.server,
                  plan.print_script(chains).c_str());
    }
  }
  if (cli.measure_ms > 0) {
    runtime::Testbed testbed(chains, placement, artifacts, topo, cli.seed);
    if (!testbed.ok()) {
      std::fprintf(stderr, "deployment error: %s\n",
                   testbed.error().c_str());
      return 1;
    }
    if (cli.no_trace) testbed.set_tracing(false);
    if (!cli.pcap_path.empty() &&
        !testbed.capture_egress_to(cli.pcap_path)) {
      std::fprintf(stderr, "cannot open pcap '%s'\n", cli.pcap_path.c_str());
      return 1;
    }
    auto m = testbed.run(cli.measure_ms);

    if (cli.stats) {
      const std::string json = testbed.stats_json(m);
      if (!cli.json_path.empty()) {
        std::ofstream out(cli.json_path);
        if (!out) {
          std::fprintf(stderr, "cannot open '%s'\n", cli.json_path.c_str());
          return 1;
        }
        out << json << '\n';
        std::printf("\ntelemetry snapshot written to %s (%zu bytes)\n",
                    cli.json_path.c_str(), json.size() + 1);
      } else {
        std::printf("%s\n", json.c_str());
      }
      // Human-readable compliance verdict on stderr, where it never
      // pollutes the JSON stream.
      std::fprintf(stderr, "%s\n", m.slo.to_string().c_str());
      return 0;
    }

    std::printf("\nmeasured over %.1f ms:\n", cli.measure_ms);
    for (std::size_t c = 0; c < chains.size(); ++c) {
      std::printf("  %-20s %8.2f Gbps, latency %6.1f us "
                  "(p50 %.1f, p99 %.1f, max %.1f)\n",
                  chains[c].name.c_str(), m.chain_gbps[c],
                  m.chain_latency_us[c], m.chain_p50_us[c],
                  m.chain_p99_us[c], m.chain_max_us[c]);
    }
    std::printf("  aggregate %.2f Gbps (%llu packets, %llu dropped, "
                "%llu queued at end)\n",
                m.aggregate_gbps,
                static_cast<unsigned long long>(m.delivered_packets),
                static_cast<unsigned long long>(m.dropped_packets),
                static_cast<unsigned long long>(m.residual_queued));
    for (const auto& [key, count] : m.drops.cells()) {
      const auto& [drop_chain, platform, cause] = key;
      std::printf("    drop: chain %d @ %s, %s: %llu\n", drop_chain + 1,
                  std::string(net::to_string(platform)).c_str(),
                  telemetry::to_string(cause),
                  static_cast<unsigned long long>(count));
    }
    std::printf("%s\n", m.slo.to_string().c_str());
  }
  return 0;
}
