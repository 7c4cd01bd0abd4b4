// Tests for the BESS-like server dataplane: modules, queues, ports,
// NSH coordination modules, the per-core scheduler, and cycle accounting.
#include <gtest/gtest.h>

#include "src/bess/dataplane.h"
#include "src/bess/nsh_modules.h"
#include "src/bess/port.h"
#include "src/bess/queue.h"
#include "src/bess/scheduler.h"
#include "src/net/packet_builder.h"

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

}  // namespace
}  // namespace lemur::bess
