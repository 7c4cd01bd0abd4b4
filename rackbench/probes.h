// Pass-through probes that time a layer from outside by sitting on one of
// its public extension points. Neither changes what it wraps: the oracle
// forwards every check() verbatim and the hook forwards every on_quantum(),
// so the rack's virtual results are bit-identical with or without them.
#pragma once

#include <cstdint>
#include <vector>

#include "src/placer/oracle.h"
#include "src/runtime/testbed.h"
#include "rackbench/spans.h"

namespace lemur::rackbench {

/// Times each compile-oracle check() (the metacompiler's P4 compile of a
/// candidate switch program) and, when tracing, records it as a child
/// span of `parent`.
class TimedOracle final : public placer::SwitchOracle {
 public:
  /// `span_name` labels this oracle's check() spans.
  TimedOracle(placer::SwitchOracle& inner, const char* span_name)
      : inner_(inner), span_name_(span_name) {}

  Check check(const std::vector<chain::ChainSpec>& chains,
              const std::vector<std::vector<int>>& pisa_nodes) override;

  /// Spans for subsequent calls (nullptr: none).
  void trace_into(SpanRecorder* spans, int parent) {
    spans_ = spans;
    parent_ = parent;
  }

 private:
  placer::SwitchOracle& inner_;
  const char* span_name_;
  SpanRecorder* spans_ = nullptr;
  int parent_ = -1;
};

/// Timestamps every 100 us virtual quantum boundary of Testbed::run and
/// times the wrapped recovery hook's on_quantum (nullptr = no controller).
class QuantumClock final : public runtime::RecoveryHook {
 public:
  explicit QuantumClock(runtime::RecoveryHook* inner) : inner_(inner) {}

  /// Call immediately before Testbed::run: the first quantum is timed
  /// from here. With `spans`, each quantum and each controller call is
  /// recorded as a child of `run_span`.
  void start(SpanRecorder* spans, int run_span);

  void on_quantum(runtime::Testbed& testbed, std::uint64_t now_ns) override;
  [[nodiscard]] std::vector<runtime::RecoveryEvent> events() const override;

  /// Host nanoseconds per quantum, in order; each includes that
  /// quantum's controller call.
  [[nodiscard]] const std::vector<std::int64_t>& quantum_ns() const {
    return quantum_ns_;
  }
  /// Host time of the controller call after which the testbed ran a new
  /// plan; -1 when no swap happened.
  [[nodiscard]] std::int64_t swap_call_ns() const { return swap_call_ns_; }

 private:
  runtime::RecoveryHook* inner_;
  SpanRecorder* spans_ = nullptr;
  int run_span_ = -1;
  std::int64_t last_ns_ = 0;
  std::vector<std::int64_t> quantum_ns_;
  std::int64_t swap_call_ns_ = -1;
};

}  // namespace lemur::rackbench
