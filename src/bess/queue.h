// Bounded FIFO queue connecting pipeline segments that run on different
// cores (or decoupling a producer from a scheduler task). Enqueue happens
// via the Module interface; dequeue via pull(), used by QueueInc tasks.
#pragma once

#include <deque>

#include "src/bess/module.h"

namespace lemur::bess {

class Queue : public Module {
 public:
  explicit Queue(std::size_t capacity = 1024) : capacity_(capacity) {}

  void process(Context& ctx, net::PacketBatch&& batch) override;

  /// Dequeues up to `max` packets into `out`; returns how many.
  std::size_t pull(net::PacketBatch& out, std::size_t max);

  [[nodiscard]] std::size_t depth() const { return fifo_.size(); }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// The queued packets, for a dataplane swap or fault flush (the
  /// residents must be re-charged to the drop ledger so per-chain
  /// conservation survives a mid-run rebuild) and the end-of-run count.
  [[nodiscard]] std::deque<net::Packet>& residents() { return fifo_; }

 private:
  std::size_t capacity_;
  std::deque<net::Packet> fifo_;
  std::uint64_t drops_ = 0;
};

}  // namespace lemur::bess
