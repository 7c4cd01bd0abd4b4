// BESS's hierarchical scheduler, reduced to what Lemur's metacompiler
// emits (appendix A.1.3): per-core round-robin over tasks, each task
// optionally wrapped in a rate limiter (used to enforce t_max).
//
// A task is a pullable entity: either a PortInc (polls the NIC) or a
// QueueInc (drains an inter-subgroup queue into a pipeline head). Each
// scheduling quantum moves at most one batch.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/bess/port.h"
#include "src/bess/queue.h"

namespace lemur::bess {

/// Token-bucket rate limit in bits of wire traffic per second of virtual
/// time. zero = unlimited.
struct RateLimit {
  double bits_per_sec = 0;
  double burst_bits = 1e6;

  [[nodiscard]] bool limited() const { return bits_per_sec > 0; }
};

/// A schedulable unit.
class Task {
 public:
  /// A NIC polling task.
  explicit Task(PortInc* port) : port_(port) {}

  /// A queue-draining task feeding `head`.
  Task(Queue* queue, Module* head) : queue_(queue), head_(head) {}

  /// Runs one quantum; returns packets moved and adds their wire bytes to
  /// `bytes_out`.
  std::size_t run(Context& ctx, std::uint64_t& bytes_out);

  /// Idle poll cost when the task has no traffic.
  static constexpr std::uint64_t kIdleCycles = 30;

 private:
  PortInc* port_ = nullptr;
  Queue* queue_ = nullptr;
  Module* head_ = nullptr;
};

/// Round-robin scheduler for one core.
class CoreScheduler {
 public:
  void add_task(Task task, RateLimit limit = {});

  /// Runs the next runnable task (round-robin); returns packets moved.
  /// Always advances the virtual clock, even when idle.
  std::size_t tick(Context& ctx);

 private:
  struct TaskState {
    Task task;
    RateLimit limit;
    double tokens_bits = 0;
    std::uint64_t last_refill_ns = 0;
  };

  [[nodiscard]] bool runnable(TaskState& ts, std::uint64_t now_ns) const;

  std::vector<TaskState> tasks_;
  std::size_t next_ = 0;
};

}  // namespace lemur::bess
