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
  /// `bytes_out`. An idle task charges idle_cycles() and calls into no
  /// module.
  std::size_t run(Context& ctx, std::uint64_t& bytes_out);

  /// True only if a run at `now_ns` would move nothing: the port's source
  /// has nothing ready, or the queue is empty.
  [[nodiscard]] bool idle(std::uint64_t now_ns) const {
    return port_ != nullptr ? port_->idle(now_ns) : queue_->depth() == 0;
  }

  /// What an idle run charges: the port's poll, or the queue check.
  [[nodiscard]] std::uint64_t idle_cycles() const {
    return port_ != nullptr ? PortInc::kPollCyclesPerBatch : kIdleCycles;
  }

  [[nodiscard]] bool polls_port() const { return port_ != nullptr; }

  /// Idle poll cost of a queue task, and of a core with nothing runnable.
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

  /// Runs ticks until `max_ticks` have run or the core's clock reaches
  /// `end_cycles`; returns packets moved. Each tick runs the next
  /// runnable task (round-robin) and always advances the virtual clock,
  /// even when idle. While the core is quiescent (every queue empty, every
  /// port's source idle, every limited bucket full) a tick only charges
  /// the idle cost of the task at the cursor and moves the cursor on, so
  /// those ticks run without calling into any task.
  std::size_t run(Context& ctx, std::uint64_t end_cycles, int max_ticks);

  /// One tick of run().
  std::size_t tick(Context& ctx) {
    return run(ctx, ~std::uint64_t{0}, 1);
  }

  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  /// A task's token bucket, bits (its burst when the task is unlimited).
  [[nodiscard]] double tokens_bits(std::size_t task) const {
    return tasks_[task].tokens_bits;
  }

 private:
  struct TaskState {
    Task task;
    RateLimit limit;
    double tokens_bits = 0;
    std::uint64_t last_refill_ns = 0;

    /// Runnable, and left unchanged by any refill: min(burst, burst + x)
    /// is burst for every x >= 0, so skipping a refill is unobservable.
    [[nodiscard]] bool bucket_full() const {
      return !limit.limited() ||
             (tokens_bits >= limit.burst_bits && tokens_bits > 0);
    }
  };

  /// One tick over a non-empty task list.
  std::size_t step(Context& ctx);
  [[nodiscard]] bool quiescent(std::uint64_t now_ns) const;
  [[nodiscard]] bool runnable(TaskState& ts, std::uint64_t now_ns) const;

  std::vector<TaskState> tasks_;
  std::size_t next_ = 0;
  std::size_t ports_ = 0;  ///< Tasks that poll a port.
};

}  // namespace lemur::bess
