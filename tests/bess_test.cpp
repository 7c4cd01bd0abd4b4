// Tests for the BESS-like server dataplane: modules, queues, ports,
// NSH coordination modules, the per-core scheduler, and cycle accounting.
#include <gtest/gtest.h>

#include "src/bess/dataplane.h"
#include "src/bess/nsh_modules.h"
#include "src/bess/port.h"
#include "src/bess/queue.h"
#include "src/bess/scheduler.h"
#include "src/net/packet_builder.h"
#include "src/runtime/stages.h"

namespace lemur::bess {
namespace {

net::PacketBatch make_batch(std::size_t n, std::size_t frame = 100) {
  net::PacketBatch batch;
  for (std::size_t i = 0; i < n; ++i) {
    batch.push(net::PacketBuilder().frame_size(frame).build());
  }
  return batch;
}

struct TestEnv {
  std::uint64_t cycles = 0;
  std::mt19937_64 rng{42};
  Context ctx{&cycles, 1.7, &rng};
};

TEST(Module, ConnectAndEmitRouting) {
  TestEnv env;
  Queue q1;
  Queue q2;
  LoadBalanceSteer steer(2);
  steer.connect(0, &q1);
  steer.connect(1, &q2);
  steer.process(env.ctx, make_batch(10));
  EXPECT_EQ(q1.depth() + q2.depth(), 10u);
  EXPECT_EQ(q1.depth(), 5u);  // Round-robin split.
}

TEST(Module, EmitToUnconnectedGateDropsSilently) {
  TestEnv env;
  LoadBalanceSteer steer(3);  // No gates connected.
  steer.process(env.ctx, make_batch(6));
  // No crash; packets gone.
  EXPECT_EQ(steer.packets_in(), 6u);
}

TEST(Queue, FifoOrderAndTailDrop) {
  TestEnv env;
  Queue q(4);
  net::PacketBatch batch;
  for (int i = 0; i < 6; ++i) {
    auto pkt = net::PacketBuilder().frame_size(64).build();
    pkt.aggregate_id = static_cast<std::uint32_t>(i);
    batch.push(std::move(pkt));
  }
  q.process(env.ctx, std::move(batch));
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.drops(), 2u);
  net::PacketBatch out;
  EXPECT_EQ(q.pull(out, 10), 4u);
  EXPECT_EQ(out[0].aggregate_id, 0u);
  EXPECT_EQ(out[3].aggregate_id, 3u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(Queue, PullRespectsMax) {
  TestEnv env;
  Queue q;
  q.process(env.ctx, make_batch(10));
  net::PacketBatch out;
  EXPECT_EQ(q.pull(out, 3), 3u);
  EXPECT_EQ(q.depth(), 7u);
}

class VectorSource : public PacketSource {
 public:
  explicit VectorSource(std::size_t total) : remaining_(total) {}
  std::size_t pull(net::PacketBatch& out, std::size_t max,
                   std::uint64_t) override {
    const std::size_t n = std::min(max, remaining_);
    for (std::size_t i = 0; i < n; ++i) {
      out.push(net::PacketBuilder().frame_size(100).build());
    }
    remaining_ -= n;
    return n;
  }

 private:
  std::size_t remaining_;
};

TEST(Port, PortIncPullsAndCharges) {
  TestEnv env;
  VectorSource src(40);
  PortInc inc(&src);
  Sink sink;
  inc.connect(0, &sink);
  EXPECT_EQ(inc.run_once(env.ctx), 32u);  // One full batch.
  EXPECT_EQ(inc.run_once(env.ctx), 8u);
  EXPECT_EQ(inc.run_once(env.ctx), 0u);  // Source exhausted.
  EXPECT_EQ(sink.packets(), 40u);
  EXPECT_EQ(env.cycles, 3 * PortInc::kPollCyclesPerBatch);
}

TEST(Port, PortOutCountsAndMeasuresLatency) {
  std::uint64_t cycles = 1700;  // 1000 ns at 1.7 GHz.
  std::mt19937_64 rng(1);
  Context ctx(&cycles, 1.7, &rng);
  PortOut out;
  net::PacketBatch batch;
  auto pkt = net::PacketBuilder().frame_size(200).arrival_ns(400).build();
  batch.push(std::move(pkt));
  out.process(ctx, std::move(batch));
  EXPECT_EQ(out.packets(), 1u);
  EXPECT_EQ(out.bytes(), 200u);
  EXPECT_NEAR(out.mean_latency_ns(), 600.0, 30.0);  // 1000 - 400, +tx cost.
}

TEST(Port, PortOutSkipsDroppedPackets) {
  TestEnv env;
  PortOut out;
  net::PacketBatch batch = make_batch(3);
  batch[1].drop = true;
  out.process(env.ctx, std::move(batch));
  EXPECT_EQ(out.packets(), 2u);
}

TEST(Nsh, DecapSteersBySpiSi) {
  TestEnv env;
  NshDecap decap;
  Queue qa;
  Queue qb;
  decap.map(1, 255, 0);
  decap.map(1, 254, 1);
  decap.connect(0, &qa);
  decap.connect(1, &qb);
  net::PacketBatch batch;
  for (int i = 0; i < 4; ++i) {
    auto pkt = net::PacketBuilder().frame_size(100).build();
    net::push_nsh(pkt, 1, i % 2 == 0 ? 255 : 254);
    batch.push(std::move(pkt));
  }
  decap.process(env.ctx, std::move(batch));
  EXPECT_EQ(qa.depth(), 2u);
  EXPECT_EQ(qb.depth(), 2u);
  // NSH must be stripped.
  net::PacketBatch out;
  qa.pull(out, 1);
  EXPECT_FALSE(net::ParsedLayers::parse(out[0])->nsh.has_value());
}

TEST(Nsh, DecapDropsUnmappedAndBare) {
  TestEnv env;
  NshDecap decap;
  Queue q;
  decap.map(1, 255, 0);
  decap.connect(0, &q);
  net::PacketBatch batch;
  auto tagged = net::PacketBuilder().frame_size(100).build();
  net::push_nsh(tagged, 9, 9);  // Unmapped SPI.
  batch.push(std::move(tagged));
  batch.push(net::PacketBuilder().frame_size(100).build());  // No NSH.
  decap.process(env.ctx, std::move(batch));
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(decap.unmapped_drops(), 2u);
}

TEST(Nsh, EncapTagsWithConfiguredPath) {
  TestEnv env;
  NshEncap encap(7, 42);
  Queue q;
  encap.connect(0, &q);
  encap.process(env.ctx, make_batch(1));
  net::PacketBatch out;
  q.pull(out, 1);
  auto layers = net::ParsedLayers::parse(out[0]);
  ASSERT_TRUE(layers->nsh.has_value());
  EXPECT_EQ(layers->nsh->spi, 7u);
  EXPECT_EQ(layers->nsh->si, 42);
}

TEST(Nsh, EncapDecapChargesPaperOverhead) {
  TestEnv env;
  NshEncap encap(1, 1);
  NshDecap decap;
  decap.map(1, 1, 0);
  encap.connect(0, &decap);
  encap.process(env.ctx, make_batch(1));
  EXPECT_EQ(env.cycles, NshEncap::kEncapCyclesPerPacket +
                            NshDecap::kDecapCyclesPerPacket);
  EXPECT_EQ(env.cycles, 220u);  // The paper's measured overhead.
}

TEST(Steer, SingleReplicaIsFree) {
  TestEnv env;
  LoadBalanceSteer steer(1);
  Queue q;
  steer.connect(0, &q);
  steer.process(env.ctx, make_batch(5));
  EXPECT_EQ(env.cycles, 0u);
  EXPECT_EQ(q.depth(), 5u);
}

TEST(Steer, MultiReplicaCharges180Cycles) {
  TestEnv env;
  LoadBalanceSteer steer(2);
  Queue qa, qb;
  steer.connect(0, &qa);
  steer.connect(1, &qb);
  steer.process(env.ctx, make_batch(4));
  EXPECT_EQ(env.cycles, 4 * LoadBalanceSteer::kSteerCyclesPerPacket);
}

TEST(Scheduler, RoundRobinAcrossTasks) {
  TestEnv env;
  Queue qa, qb;
  Sink sink_a, sink_b;
  qa.process(env.ctx, make_batch(64));
  qb.process(env.ctx, make_batch(64));
  CoreScheduler sched;
  sched.add_task(Task(&qa, &sink_a));
  sched.add_task(Task(&qb, &sink_b));
  // Two ticks should serve one batch from each queue.
  sched.tick(env.ctx);
  sched.tick(env.ctx);
  EXPECT_EQ(sink_a.packets(), 32u);
  EXPECT_EQ(sink_b.packets(), 32u);
}

TEST(Scheduler, RateLimitThrottles) {
  std::uint64_t cycles = 0;
  std::mt19937_64 rng(7);
  Queue q;
  Sink sink;
  {
    Context ctx(&cycles, 1.7, &rng);
    q.process(ctx, make_batch(64, 1000));  // 64 KB of traffic.
  }
  CoreScheduler sched;
  RateLimit limit;
  limit.bits_per_sec = 1e9;  // 1 Gbps.
  limit.burst_bits = 8 * 1000 * 32;  // One batch worth.
  sched.add_task(Task(&q, &sink), limit);
  // First tick: burst allows one batch.
  Context ctx(&cycles, 1.7, &rng);
  sched.tick(ctx);
  EXPECT_EQ(sink.packets(), 32u);
  // Immediately after, tokens are exhausted: idle tick.
  sched.tick(ctx);
  EXPECT_EQ(sink.packets(), 32u);
  // Advance virtual time by 1 ms -> 1 Mbit of tokens -> capped at burst.
  cycles += static_cast<std::uint64_t>(1e6 * 1.7);
  Context later(&cycles, 1.7, &rng);
  sched.tick(later);
  EXPECT_EQ(sink.packets(), 64u);
}

TEST(Scheduler, IdleTickAdvancesClock) {
  TestEnv env;
  CoreScheduler sched;
  Queue q;
  Sink sink;
  sched.add_task(Task(&q, &sink));
  const std::uint64_t before = env.cycles;
  sched.tick(env.ctx);
  EXPECT_GT(env.cycles, before);
}

TEST(Dataplane, NumaFactorBySocket) {
  topo::ServerSpec spec;  // 2 sockets x 8 cores; NIC on socket 0.
  ServerDataplane dp(spec);
  EXPECT_DOUBLE_EQ(dp.numa_factor(0), 1.0);
  EXPECT_DOUBLE_EQ(dp.numa_factor(7), 1.0);
  EXPECT_DOUBLE_EQ(dp.numa_factor(8), spec.cross_numa_factor);
  EXPECT_DOUBLE_EQ(dp.numa_factor(15), spec.cross_numa_factor);
}

// End-to-end: a rate-unlimited pipeline's delivered throughput matches
// f / cycles_per_packet within a small tolerance.
class FixedCostModule : public Module {
 public:
  explicit FixedCostModule(std::uint64_t cycles_per_packet)
      : cost_(cycles_per_packet) {}
  void process(Context& ctx, net::PacketBatch&& batch) override {
    count_in(batch);
    ctx.charge_scaled(cost_ * batch.size());
    emit(ctx, 0, std::move(batch));
  }

 private:
  std::uint64_t cost_;
};

class InfiniteSource : public PacketSource {
 public:
  std::size_t pull(net::PacketBatch& out, std::size_t max,
                   std::uint64_t) override {
    for (std::size_t i = 0; i < max; ++i) {
      out.push(net::PacketBuilder().frame_size(1500).build());
    }
    return max;
  }
};

TEST(Dataplane, ThroughputMatchesCycleModel) {
  topo::ServerSpec spec;
  spec.sockets = 1;
  spec.cores_per_socket = 1;
  ServerDataplane dp(spec);
  InfiniteSource src;
  auto* inc = dp.add_module<PortInc>(&src);
  auto* cost = dp.add_module<FixedCostModule>(8500);
  auto* out = dp.add_module<PortOut>();
  inc->connect(0, cost);
  cost->connect(0, out);
  dp.add_task(0, Task(inc));
  const std::uint64_t horizon_ns = 10'000'000;  // 10 ms.
  dp.run_until_ns(horizon_ns);
  // Expected pps = 1.7e9 / (8500 + small per-batch overheads).
  const double pps = static_cast<double>(out->packets()) /
                     (static_cast<double>(horizon_ns) * 1e-9);
  const double expected = 1.7e9 / 8500.0;
  EXPECT_NEAR(pps / expected, 1.0, 0.05);
}

TEST(Dataplane, TwoCoresDoubleThroughput) {
  topo::ServerSpec spec;
  spec.sockets = 1;
  spec.cores_per_socket = 2;
  ServerDataplane dp(spec);
  InfiniteSource src_a, src_b;
  auto* inc_a = dp.add_module<PortInc>(&src_a);
  auto* inc_b = dp.add_module<PortInc>(&src_b);
  auto* cost_a = dp.add_module<FixedCostModule>(8500);
  auto* cost_b = dp.add_module<FixedCostModule>(8500);
  auto* out = dp.add_module<PortOut>();
  inc_a->connect(0, cost_a);
  inc_b->connect(0, cost_b);
  cost_a->connect(0, out);
  cost_b->connect(0, out);
  dp.add_task(0, Task(inc_a));
  dp.add_task(1, Task(inc_b));
  dp.run_until_ns(10'000'000);
  const double pps = static_cast<double>(out->packets()) / 10e-3;
  EXPECT_NEAR(pps / (2 * 1.7e9 / 8500.0), 1.0, 0.05);
}

// --- Differential check: ServerDataplane against the per-tick loop. ---
//
// The reference below is the dataplane loop as it ran before quiescent
// cores were fast-forwarded: every poll, idle or not, is one full
// CoreScheduler::tick through Task::run. The library must run the same
// ticks, so every core clock, every token bucket and every delivery
// (core, clock) must match it exactly on seeded random dataplanes.

class RefTask {
 public:
  explicit RefTask(PortInc* port) : port_(port) {}
  RefTask(Queue* queue, Module* head) : queue_(queue), head_(head) {}

  std::size_t run(Context& ctx, std::uint64_t& bytes_out) {
    if (port_ != nullptr) return port_->run_once(ctx);
    net::PacketBatch batch;
    const std::size_t n = queue_->pull(batch, net::PacketBatch::kMaxBatch);
    if (n == 0) {
      ctx.charge(Task::kIdleCycles);
      return 0;
    }
    bytes_out += batch.total_bytes();
    head_->process(ctx, std::move(batch));
    return n;
  }

 private:
  PortInc* port_ = nullptr;
  Queue* queue_ = nullptr;
  Module* head_ = nullptr;
};

class RefScheduler {
 public:
  void add_task(RefTask task, RateLimit limit) {
    tasks_.push_back({task, limit, limit.burst_bits, 0});
  }

  std::size_t tick(Context& ctx) {
    if (tasks_.empty()) {
      ctx.charge(Task::kIdleCycles);
      return 0;
    }
    const std::uint64_t now = ctx.now_ns();
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
    ctx.charge(Task::kIdleCycles);
    return 0;
  }

  [[nodiscard]] double tokens_bits(std::size_t task) const {
    return tasks_[task].tokens_bits;
  }

 private:
  struct TaskState {
    RefTask task;
    RateLimit limit;
    double tokens_bits = 0;
    std::uint64_t last_refill_ns = 0;
  };

  static bool runnable(TaskState& ts, std::uint64_t now_ns) {
    if (!ts.limit.limited()) return true;
    const std::uint64_t elapsed =
        now_ns > ts.last_refill_ns ? now_ns - ts.last_refill_ns : 0;
    ts.tokens_bits =
        std::min(ts.limit.burst_bits,
                 ts.tokens_bits + ts.limit.bits_per_sec *
                                      static_cast<double>(elapsed) * 1e-9);
    ts.last_refill_ns = now_ns;
    return ts.tokens_bits > 0;
  }

  std::vector<TaskState> tasks_;
  std::size_t next_ = 0;
};

class RefDataplane {
 public:
  RefDataplane(topo::ServerSpec spec, std::uint64_t seed)
      : spec_(std::move(spec)),
        schedulers_(static_cast<std::size_t>(spec_.total_cores())),
        cycles_(static_cast<std::size_t>(spec_.total_cores()), 0),
        rng_(seed) {}

  template <typename T, typename... Args>
  T* add_module(Args&&... args) {
    modules_.push_back(std::make_unique<T>(std::forward<Args>(args)...));
    return static_cast<T*>(modules_.back().get());
  }
  void add_task(int core, RefTask task, RateLimit limit) {
    schedulers_[static_cast<std::size_t>(core)].add_task(task, limit);
  }
  [[nodiscard]] int num_cores() const { return spec_.total_cores(); }
  [[nodiscard]] std::uint64_t core_cycles(int core) const {
    return cycles_[static_cast<std::size_t>(core)];
  }
  [[nodiscard]] const RefScheduler& scheduler(int core) const {
    return schedulers_[static_cast<std::size_t>(core)];
  }

  void run_until_ns(std::uint64_t horizon_ns) {
    const double ghz = spec_.clock_ghz;
    const auto horizon_cycles = static_cast<std::uint64_t>(
        static_cast<double>(horizon_ns) * ghz);
    bool any_behind = true;
    while (any_behind) {
      any_behind = false;
      for (int core = 0; core < num_cores(); ++core) {
        auto& cycles = cycles_[static_cast<std::size_t>(core)];
        if (cycles >= horizon_cycles) continue;
        any_behind = true;
        const std::uint64_t quantum_end = std::min(
            horizon_cycles,
            cycles + static_cast<std::uint64_t>(20000.0 * ghz));
        Context ctx(&cycles, ghz, &rng_, numa_factor(core), nullptr);
        int ticks = 0;
        while (cycles < quantum_end && ticks < 64) {
          schedulers_[static_cast<std::size_t>(core)].tick(ctx);
          ++ticks;
        }
        if (ticks >= 64 && cycles < quantum_end) continue;
        if (cycles < quantum_end) cycles = quantum_end;
      }
    }
  }

 private:
  double numa_factor(int core) const {
    const int nic_socket = spec_.nics.empty() ? 0 : spec_.nics.front().socket;
    return core / spec_.cores_per_socket == nic_socket
               ? 1.0
               : spec_.cross_numa_factor;
  }

  topo::ServerSpec spec_;
  std::vector<std::unique_ptr<Module>> modules_;
  std::vector<RefScheduler> schedulers_;
  std::vector<std::uint64_t> cycles_;
  std::mt19937_64 rng_;
};

struct Delivery {
  int core;
  std::uint64_t cycles;
  std::uint32_t id;
  bool operator==(const Delivery&) const = default;
};

/// Terminal module: logs which core delivered each packet, and when.
class Recorder : public Module {
 public:
  Recorder(int core, std::vector<Delivery>* log) : core_(core), log_(log) {}
  void process(Context& ctx, net::PacketBatch&& batch) override {
    count_in(batch);
    for (const auto& pkt : batch) {
      log_->push_back({core_, ctx.cycles(), pkt.aggregate_id});
    }
  }

 private:
  int core_;
  std::vector<Delivery>* log_;
};

/// Charges a per-packet cost plus a per-batch jitter from the dataplane's
/// RNG, so both loops must also draw in the same order.
class JitterCost : public Module {
 public:
  explicit JitterCost(std::uint64_t cycles_per_packet)
      : cost_(cycles_per_packet) {}
  void process(Context& ctx, net::PacketBatch&& batch) override {
    count_in(batch);
    ctx.charge_scaled(cost_ * batch.size() + ctx.rng()() % 64);
    emit(ctx, 0, std::move(batch));
  }

 private:
  std::uint64_t cost_;
};

/// A source that never reports idle: supplies one packet on every
/// `period`-th pull and nothing otherwise.
class TrickleSource : public PacketSource {
 public:
  TrickleSource(std::uint32_t first_id, int period)
      : next_id_(first_id), period_(period) {}
  std::size_t pull(net::PacketBatch& out, std::size_t,
                   std::uint64_t now_ns) override {
    if (++pulls_ % period_ != 0) return 0;
    out.push(net::PacketBuilder()
                 .frame_size(256)
                 .aggregate_id(next_id_++)
                 .arrival_ns(now_ns)
                 .build());
    return 1;
  }

 private:
  std::uint32_t next_id_;
  int period_;
  int pulls_ = 0;
};

/// One random dataplane, built identically (same draws, same order) into
/// the library's ServerDataplane or the reference.
template <class Dataplane, class TaskT>
struct Rig {
  Rig(const topo::ServerSpec& spec, std::uint64_t seed)
      : dp(spec, seed), report(1) {
    std::mt19937_64 draw(seed * 7919 + 1);
    const auto pick = [&](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(draw);
    };
    const auto limit = [&] {
      RateLimit l;
      if (pick(0, 1) == 0) return l;
      l.bits_per_sec = 2e8 * pick(1, 100);
      static constexpr double kBursts[] = {1, 512, 12000, 96000};
      l.burst_bits = kBursts[pick(0, 3)];
      return l;
    };
    // Each core gets 0-6 task slots: a queue's drain task or a port.
    std::vector<std::pair<int, bool>> slots;  // (core, is_queue)
    for (int core = 0; core < dp.num_cores(); ++core) {
      for (int k = pick(0, 6); k > 0; --k) {
        slots.emplace_back(core, pick(0, 9) < 4);
      }
    }
    std::vector<Queue*> queues;
    for (const auto& [core, is_queue] : slots) {
      if (is_queue) {
        static constexpr std::size_t kCaps[] = {16, 256, 1024};
        queues.push_back(dp.template add_module<Queue>(kCaps[pick(0, 2)]));
      }
    }
    // Each task's pipeline: a cost module, then a recorder on the task's
    // core or a queue drained elsewhere (later queues only, so no cycles).
    std::size_t queue_index = 0;
    for (const auto& [core, is_queue] : slots) {
      auto* cost = dp.template add_module<JitterCost>(
          static_cast<std::uint64_t>(pick(1, 300) * 10));
      const int first_out = is_queue ? static_cast<int>(queue_index) + 1 : 0;
      const int last_out = static_cast<int>(queues.size()) - 1;
      if (first_out <= last_out && pick(0, 2) != 0) {
        cost->connect(0, queues[static_cast<std::size_t>(
                             pick(first_out, last_out))]);
      } else {
        cost->connect(0, dp.template add_module<Recorder>(core, &log));
      }
      if (is_queue) {
        dp.add_task(core, TaskT(queues[queue_index++], cost), limit());
        continue;
      }
      PacketSource* source = nullptr;
      if (const int kind = pick(0, 9); kind < 7) {
        wires.push_back(std::make_unique<runtime::ServerStage::Wire>(
            report, static_cast<int>(wires.size())));
        source = wires.back().get();
      } else if (kind < 8) {
        trickles.push_back(std::make_unique<TrickleSource>(
            (1u << 30) + 10000u * static_cast<std::uint32_t>(trickles.size()),
            pick(5, 40)));
        source = trickles.back().get();
      }
      auto* inc = dp.template add_module<PortInc>(source);
      inc->connect(0, cost);
      dp.add_task(core, TaskT(inc), limit());
    }
  }

  Dataplane dp;
  runtime::Report report;
  std::vector<std::unique_ptr<runtime::ServerStage::Wire>> wires;
  std::vector<std::unique_ptr<TrickleSource>> trickles;
  std::vector<Delivery> log;
};

TEST(Dataplane, RunMatchesPerTickReferenceOnRandomDataplanes) {
  std::size_t delivered = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    std::mt19937_64 draw(seed);
    const auto pick = [&](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(draw);
    };
    topo::ServerSpec spec;
    const int cores = pick(1, 8);
    spec.sockets = cores % 2 == 0 && pick(0, 1) == 1 ? 2 : 1;
    spec.cores_per_socket = cores / spec.sockets;
    static constexpr double kGhz[] = {1.0, 1.7, 2.6};
    spec.clock_ghz = kGhz[pick(0, 2)];
    Rig<ServerDataplane, Task> lib(spec, seed);
    Rig<RefDataplane, RefTask> ref(spec, seed);
    ASSERT_EQ(lib.wires.size(), ref.wires.size());

    std::uint32_t next_id = 0;
    std::uint64_t horizon = 0;
    for (int step = 0; step < 20; ++step) {
      const std::uint64_t span = static_cast<std::uint64_t>(pick(2, 40)) * 1000;
      // The ToR's hand-off: packets ready at drawn times, mostly inside
      // the coming window (so mid-visit), some later, a few out of order.
      for (std::size_t w = 0; w < lib.wires.size(); ++w) {
        for (int k = pick(0, 12); k > 0; --k) {
          const std::uint64_t ready =
              pick(0, 9) == 0 && horizon > 0
                  ? horizon - 1
                  : horizon + static_cast<std::uint64_t>(
                                  pick(0, static_cast<int>(span * 3 / 2)));
          const std::size_t frame = pick(0, 1) == 0 ? 64 : 1500;
          const std::uint32_t id = next_id++;
          for (auto* rig_wire : {lib.wires[w].get(), ref.wires[w].get()}) {
            rig_wire->accept(net::PacketBuilder()
                                 .frame_size(frame)
                                 .aggregate_id(id)
                                 .arrival_ns(horizon)
                                 .build(),
                             ready);
          }
        }
      }
      horizon += span;
      lib.dp.run_until_ns(horizon);
      ref.dp.run_until_ns(horizon);

      SCOPED_TRACE("seed " + std::to_string(seed) + ", horizon " +
                   std::to_string(horizon) + " ns");
      for (int core = 0; core < spec.total_cores(); ++core) {
        ASSERT_EQ(lib.dp.core_cycles(core), ref.dp.core_cycles(core))
            << "core " << core;
        const auto& sched = lib.dp.scheduler(core);
        for (std::size_t t = 0; t < sched.task_count(); ++t) {
          ASSERT_EQ(sched.tokens_bits(t), ref.dp.scheduler(core).tokens_bits(t))
              << "core " << core << " task " << t;
        }
      }
      ASSERT_EQ(lib.log, ref.log);
    }
    delivered += lib.log.size();
  }
  EXPECT_GT(delivered, 1000u);  // The rigs carry traffic, not just polls.
}

}  // namespace
}  // namespace lemur::bess
