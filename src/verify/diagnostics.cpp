#include "src/verify/diagnostics.h"

#include <sstream>

namespace lemur::verify {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

bool Report::has_errors() const { return count(Severity::kError) > 0; }

int Report::count(Severity severity) const {
  int n = 0;
  for (const auto& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

bool Report::fired(const std::string& rule) const {
  return find(rule) != nullptr;
}

const Diagnostic* Report::find(const std::string& rule) const {
  for (const auto& d : diagnostics) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

void Report::add(Severity severity, std::string rule, std::string locus,
                 std::string message) {
  diagnostics.push_back(Diagnostic{severity, std::move(rule),
                                   std::move(locus), std::move(message)});
}

std::string Report::to_string() const {
  std::ostringstream out;
  const int errors = count(Severity::kError);
  const int warnings = count(Severity::kWarning);
  if (diagnostics.empty()) {
    out << "deployment verifier: clean (" << rules_checked
        << " rules checked, no findings)\n";
    return out.str();
  }
  out << "deployment verifier: " << errors << " error(s), " << warnings
      << " warning(s) across " << rules_checked << " rules\n";
  for (const auto& d : diagnostics) {
    out << "  " << lemur::verify::to_string(d.severity) << "  [" << d.rule
        << "]  "
        << d.locus << ": " << d.message << "\n";
  }
  return out.str();
}

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> kCatalogue = {
      {"nsh.dangling-exit", Severity::kError,
       "every segment exit targets a live (segment, entry) pair"},
      {"nsh.missing-entry", Severity::kError,
       "every segment has at least one NSH entry point"},
      {"nsh.spi-mismatch", Severity::kError,
       "the SPI is constant across all segments of a chain"},
      {"nsh.si-order", Severity::kError,
       "the service index strictly decreases along every path"},
      {"nsh.orphan-segment", Severity::kError,
       "every segment is reachable from the chain's ingress segment"},
      {"nsh.no-egress", Severity::kError,
       "every reachable segment can reach chain egress"},
      {"handoff.spi-si-mismatch", Severity::kError,
       "NIC/OF artifact spi/si in/out match the routing's hand-offs"},
      {"handoff.unknown-device", Severity::kError,
       "every NIC artifact targets a SmartNIC of the topology that is "
       "attached to one of its servers"},
      {"handoff.vid-overflow", Severity::kError,
       "SPI/SI fit the 12-bit OpenFlow VLAN vid without losing bits"},
      {"handoff.vid-mismatch", Severity::kError,
       "stored VLAN vids equal the lossless packing of their SPI/SI"},
      {"nic.program-verifies", Severity::kError,
       "every NIC artifact's eBPF program passes the SmartNIC verifier "
       "(size, forward-only jumps, stack bounds, known helpers, exit)"},
      {"p4.compile-failed", Severity::kError,
       "the unified P4 program compiles against the ToR resource model"},
      {"p4.dependency-divergence", Severity::kError,
       "independently recomputed table dependency edges match the "
       "platform compiler's count"},
      {"p4.dependency-order", Severity::kError,
       "the stage assignment honors every recomputed dependency edge"},
      {"p4.stage-overbudget", Severity::kError,
       "per-stage table/SRAM/TCAM sums re-add correctly and fit the "
       "switch budgets"},
      {"p4.entry-unknown-table", Severity::kError,
       "every runtime table entry names a table and action that exist"},
      {"p4.table-capacity", Severity::kError,
       "no table holds more runtime entries than its provisioned size"},
      {"bess.broken-pipeline", Severity::kError,
       "every BESS module is reachable from its segment entry along "
       "chain edges"},
      {"bess.core-overallocation", Severity::kError,
       "core assignments on each server, plus core 0's shared "
       "demultiplexer, fit the server's core count; no worker runs on "
       "core 0, and each dedicated replica and each shared group has a "
       "core of its own"},
      {"bess.core-group-conflict", Severity::kError,
       "core sharing in the plan matches what the Placer authorized"},
      {"bess.exit-unknown-endpoint", Severity::kError,
       "every BESS exit re-encapsulates to a live (SPI, SI) endpoint"},
      {"place.failed-element", Severity::kError,
       "no NF, subgroup, server plan or NIC program lands on an element "
       "marked failed after a fault"},
      {"slo.latency-budget", Severity::kWarning,
       "the placement's latency lower bound stays within d_max"},
      {"slo.tmin-capacity", Severity::kWarning,
       "t_min does not exceed the placed capacity or assigned rate"},
  };
  return kCatalogue;
}

}  // namespace lemur::verify
