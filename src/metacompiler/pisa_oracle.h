// The production SwitchOracle: answers the Placer's "does this fit?"
// question by actually composing the unified P4 program for the proposed
// switch placement and invoking the platform compiler — the paper's key
// workaround for PISA switches exposing no feasibility API.
//
// The oracle is stateless: it recompiles on every check. Callers that
// probe repeatedly wrap it in placer::CachingOracle (place() does per
// call, the recovery controller across re-placements).
#pragma once

#include "src/metacompiler/p4_compose.h"
#include "src/placer/oracle.h"

namespace lemur::metacompiler {

class CompilerOracle : public placer::SwitchOracle {
 public:
  explicit CompilerOracle(topo::Topology topo) : topo_(std::move(topo)) {}

  Check check(const std::vector<chain::ChainSpec>& chains,
              const std::vector<std::vector<int>>& pisa_nodes) override;

  /// Number of checks answered so far (each one composes and compiles).
  [[nodiscard]] int compile_invocations() const { return invocations_; }

 private:
  topo::Topology topo_;
  int invocations_ = 0;
};

}  // namespace lemur::metacompiler
