#include "src/bess/scheduler.h"

#include <algorithm>

namespace lemur::bess {

std::size_t Task::run(Context& ctx, std::uint64_t& bytes_out) {
  if (idle(ctx.now_ns())) {
    ctx.charge(idle_cycles());
    return 0;
  }
  if (port_ != nullptr) return port_->run_once(ctx);
  net::PacketBatch batch;
  const std::size_t n = queue_->pull(batch, net::PacketBatch::kMaxBatch);
  bytes_out += batch.total_bytes();
  head_->process(ctx, std::move(batch));
  return n;
}

void CoreScheduler::add_task(Task task, RateLimit limit) {
  if (task.polls_port()) ++ports_;
  TaskState ts{task, limit, limit.burst_bits, 0};
  tasks_.push_back(ts);
}

bool CoreScheduler::runnable(TaskState& ts, std::uint64_t now_ns) const {
  if (!ts.limit.limited()) return true;
  // Refill the bucket from elapsed virtual time.
  const std::uint64_t elapsed =
      now_ns > ts.last_refill_ns ? now_ns - ts.last_refill_ns : 0;
  ts.tokens_bits =
      std::min(ts.limit.burst_bits,
               ts.tokens_bits + ts.limit.bits_per_sec *
                                    static_cast<double>(elapsed) * 1e-9);
  ts.last_refill_ns = now_ns;
  return ts.tokens_bits > 0;
}

std::size_t CoreScheduler::run(Context& ctx, std::uint64_t end_cycles,
                               int max_ticks) {
  int ticks = 0;
  const auto more = [&] {
    return ticks < max_ticks && ctx.cycles() < end_cycles;
  };
  std::size_t moved = 0;
  while (more()) {
    if (!quiescent(ctx.now_ns())) {
      moved += step(ctx);
      ++ticks;
      continue;
    }
    // Each tick now picks the task at the cursor (every bucket is full),
    // finds it idle and charges its idle cost. Nothing else runs on this
    // core, so only a port's source turning ready as the clock advances
    // ends the streak.
    if (ports_ == 0) {
      // No port: every tick costs kIdleCycles until the end or the cap.
      const std::uint64_t left = end_cycles - ctx.cycles();
      const std::uint64_t n = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(max_ticks - ticks),
          left / Task::kIdleCycles + (left % Task::kIdleCycles != 0));
      ctx.charge(n * Task::kIdleCycles);
      if (!tasks_.empty()) next_ = (next_ + n) % tasks_.size();
      break;
    }
    do {
      ctx.charge(tasks_[next_].task.idle_cycles());
      if (++next_ == tasks_.size()) next_ = 0;
      ++ticks;
    } while (more() && tasks_[next_].task.idle(ctx.now_ns()));
  }
  return moved;
}

bool CoreScheduler::quiescent(std::uint64_t now_ns) const {
  return std::all_of(tasks_.begin(), tasks_.end(), [&](const TaskState& ts) {
    return ts.bucket_full() && ts.task.idle(now_ns);
  });
}

std::size_t CoreScheduler::step(Context& ctx) {
  const std::uint64_t now = ctx.now_ns();
  // Round-robin: find the next runnable task.
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    auto& ts = tasks_[(next_ + i) % tasks_.size()];
    if (!runnable(ts, now)) continue;
    next_ = (next_ + i + 1) % tasks_.size();
    std::uint64_t bytes = 0;
    const std::size_t n = ts.task.run(ctx, bytes);
    if (ts.limit.limited()) {
      ts.tokens_bits -= static_cast<double>(bytes) * 8.0;
    }
    return n;
  }
  // Every task is rate-throttled: idle until tokens refill.
  ctx.charge(Task::kIdleCycles);
  return 0;
}

}  // namespace lemur::bess
