#include "rackbench/probes.h"

namespace lemur::rackbench {

placer::SwitchOracle::Check TimedOracle::check(
    const std::vector<chain::ChainSpec>& chains,
    const std::vector<std::vector<int>>& pisa_nodes) {
  const std::int64_t start = now_ns();
  Check result = inner_.check(chains, pisa_nodes);
  const std::int64_t end = now_ns();
  if (spans_ != nullptr) spans_->add(span_name_, parent_, start, end);
  return result;
}

void QuantumClock::start(SpanRecorder* spans, int run_span) {
  spans_ = spans;
  run_span_ = run_span;
  quantum_ns_.clear();
  swap_call_ns_ = -1;
  last_ns_ = now_ns();
}

void QuantumClock::on_quantum(runtime::Testbed& testbed,
                              std::uint64_t now_ns_virtual) {
  const std::int64_t boundary = now_ns();
  std::int64_t end = boundary;
  if (inner_ != nullptr) {
    const int generation = testbed.plan_generation();
    inner_->on_quantum(testbed, now_ns_virtual);
    end = now_ns();
    if (testbed.plan_generation() != generation) {
      swap_call_ns_ = end - boundary;
    }
  }
  if (spans_ != nullptr) {
    // The quantum span covers its controller call.
    const int quantum = spans_->add("runtime.quantum", run_span_, last_ns_,
                                    end);
    if (inner_ != nullptr) {
      spans_->add("recovery.on_quantum", quantum, boundary, end);
    }
  }
  quantum_ns_.push_back(end - last_ns_);
  last_ns_ = end;
}

std::vector<runtime::RecoveryEvent> QuantumClock::events() const {
  return inner_ != nullptr ? inner_->events()
                           : std::vector<runtime::RecoveryEvent>{};
}

}  // namespace lemur::rackbench
