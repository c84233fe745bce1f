// Microbenchmarks of CONGA's per-packet primitives (the operations the §4
// ASIC implements in ~2.4M gates) and the simulator's own hot paths.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/conga_lb.hpp"
#include "core/congestion_tables.hpp"
#include "core/dre.hpp"
#include "core/flowlet_table.hpp"
#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "sim/scheduler.hpp"

using namespace conga;

namespace {

void BM_DreAddAndQuantize(benchmark::State& state) {
  core::Dre dre(core::DreConfig{}, 40e9);
  sim::TimeNs t = 0;
  for (auto _ : state) {
    dre.add(1500, t);
    benchmark::DoNotOptimize(dre.quantized(t));
    t += 300;
  }
}
BENCHMARK(BM_DreAddAndQuantize);

void BM_FlowletLookupHit(benchmark::State& state) {
  core::FlowletTable table(core::FlowletTableConfig{});
  net::FlowKey key{1, 2, 3, 4};
  table.install(key, 5, 0);
  sim::TimeNs t = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(key, t));
    ++t;  // refreshes liveness; stays a hit
  }
}
BENCHMARK(BM_FlowletLookupHit);

void BM_FlowletInstall(benchmark::State& state) {
  core::FlowletTable table(core::FlowletTableConfig{});
  std::uint16_t port = 0;
  for (auto _ : state) {
    net::FlowKey key{1, 2, ++port, 4};
    table.install(key, port % 4, 0);
  }
}
BENCHMARK(BM_FlowletInstall);

void BM_CongestionTableUpdate(benchmark::State& state) {
  core::CongestionTableConfig cfg;
  cfg.num_leaves = 8;
  cfg.num_uplinks = 12;
  core::CongestionFromLeafTable table(cfg);
  int i = 0;
  for (auto _ : state) {
    table.update(i % 8, i % 12, static_cast<std::uint8_t>(i % 8), i);
    ++i;
  }
}
BENCHMARK(BM_CongestionTableUpdate);

void BM_FeedbackPick(benchmark::State& state) {
  core::CongestionTableConfig cfg;
  cfg.num_leaves = 8;
  cfg.num_uplinks = 12;
  core::CongestionFromLeafTable table(cfg);
  for (int l = 0; l < 8; ++l) {
    for (int u = 0; u < 12; ++u) {
      table.update(l, u, static_cast<std::uint8_t>(u), 0);
    }
  }
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.pick_feedback(i % 8, i));
    ++i;
  }
}
BENCHMARK(BM_FeedbackPick);

struct SelectFixture {
  sim::Scheduler sched;
  net::Fabric fabric;
  SelectFixture() : fabric(sched, net::testbed_baseline(), 1) {}
};

void BM_EcmpSelect(benchmark::State& state) {
  SelectFixture fx;
  fx.fabric.install_lb(lb::ecmp());
  auto* balancer = fx.fabric.leaf(0).load_balancer();
  net::Packet pkt;
  pkt.flow = net::FlowKey{0, 40, 1, 2};
  std::uint16_t p = 0;
  for (auto _ : state) {
    pkt.flow.src_port = ++p;
    benchmark::DoNotOptimize(balancer->select_uplink(pkt, 1, 0));
  }
}
BENCHMARK(BM_EcmpSelect);

void BM_CongaSelectNewFlowlet(benchmark::State& state) {
  SelectFixture fx;
  fx.fabric.install_lb(core::conga());
  auto* balancer = fx.fabric.leaf(0).load_balancer();
  net::Packet pkt;
  pkt.flow = net::FlowKey{0, 40, 1, 2};
  std::uint16_t p = 0;
  for (auto _ : state) {
    pkt.flow.src_port = ++p;  // new 5-tuple (almost) every call
    benchmark::DoNotOptimize(balancer->select_uplink(pkt, 1, 0));
  }
}
BENCHMARK(BM_CongaSelectNewFlowlet);

void BM_CongaSelectCached(benchmark::State& state) {
  SelectFixture fx;
  fx.fabric.install_lb(core::conga());
  auto* balancer = fx.fabric.leaf(0).load_balancer();
  net::Packet pkt;
  pkt.flow = net::FlowKey{0, 40, 1, 2};
  sim::TimeNs t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(balancer->select_uplink(pkt, 1, t));
    t += 100;  // well within the flowlet gap
  }
}
BENCHMARK(BM_CongaSelectCached);

// One schedule plus one dispatch on an otherwise empty queue: the
// callback is built in its slot and run there, and the heap is one node.
void BM_SchedulerScheduleDispatch(benchmark::State& state) {
  sim::Scheduler sched;
  sim::TimeNs t = 0;
  for (auto _ : state) {
    sched.schedule_at(++t, [] {});
    sched.run_until(t);
  }
}
BENCHMARK(BM_SchedulerScheduleDispatch);

// The trace hook must cost one predictable branch when unset; this is the
// hook-enabled companion to BM_SchedulerScheduleDispatch, so the delta is
// the whole observability overhead (satellite: zero-cost when disabled).
void BM_SchedulerScheduleDispatchTraced(benchmark::State& state) {
  sim::Scheduler sched;
  std::uint64_t sink = 0;
  sched.set_trace_hook(
      [&sink](sim::TimeNs t, sim::EventId id) { sink ^= t ^ id; });
  sim::TimeNs t = 0;
  for (auto _ : state) {
    sched.schedule_at(++t, [] {});
    sched.run_until(t);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SchedulerScheduleDispatchTraced);

// Schedule then cancel without dispatching. Cancel removes the node at
// once, so the heap stays empty and each iteration is a slot acquire and
// release plus a push and a removal at the heap's last index.
void BM_ScheduleCancelChurn(benchmark::State& state) {
  sim::Scheduler sched;
  sim::TimeNs t = 0;
  for (auto _ : state) {
    const sim::EventId id = sched.schedule_at(++t + 1000, [] {});
    sched.cancel(id);
    benchmark::DoNotOptimize(id);
  }
  sched.run();
}
BENCHMARK(BM_ScheduleCancelChurn);

// The TCP-timer re-arm pattern (TcpSender::arm_rto on every ACK): cancel
// the armed far-future timer and arm a new one, against 1k standing events.
// The heap stays at 1,001 nodes however long the benchmark runs.
void BM_ScheduleCancelChurnBacklog1k(benchmark::State& state) {
  sim::Scheduler sched;
  for (int i = 0; i < 1000; ++i) {
    sched.schedule_at(1'000'000 + i, [] {});
  }
  sim::TimeNs t = 0;
  sim::EventId timer = sim::kInvalidEventId;
  for (auto _ : state) {
    sched.cancel(timer);
    timer = sched.schedule_at(2'000'000 + ++t, [] {});
    benchmark::DoNotOptimize(timer);
  }
  sched.run();
}
BENCHMARK(BM_ScheduleCancelChurnBacklog1k);

// Dispatch against a standing backlog so sift operations have real depth.
// The event is scheduled from outside any callback, so each iteration is a
// push (sift-up) plus a pop (sift-down), not a replace-top.
void BM_SchedulerDispatchDepth1k(benchmark::State& state) {
  sim::Scheduler sched;
  for (int i = 0; i < 1000; ++i) {
    sched.schedule_at(1'000'000'000 + i, [] {});
  }
  sim::TimeNs t = 0;
  for (auto _ : state) {
    sched.schedule_at(++t, [] {});
    sched.run_until(t);
  }
}
BENCHMARK(BM_SchedulerDispatchDepth1k);

// The simulator's steady state: each dispatched event schedules one
// successor (a link's tx-complete or delivery does) over 300 standing
// events, the peak pending count of perfbench's enterprise cell. The
// successor takes over the running event's root (replace-top: one
// sift-down), and successor delays are spread so it sinks to varying
// depths. stop() makes each run() dispatch exactly one event.
struct Reschedule {
  sim::Scheduler* sched;
  std::uint64_t* rng;
  void operator()() const {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    sched->schedule_after(1000 + static_cast<sim::TimeNs>(*rng % 4096),
                          *this);
    sched->stop();
  }
};

void BM_SchedulerRescheduleDepth300(benchmark::State& state) {
  sim::Scheduler sched;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 300; ++i) {
    sched.schedule_at(i * 17, Reschedule{&sched, &rng});
  }
  for (auto _ : state) sched.run();
  benchmark::DoNotOptimize(sched.events_dispatched());
}
BENCHMARK(BM_SchedulerRescheduleDepth300);

// Steady-state packet cost: each iteration acquires from and releases to
// the thread-local pool — no allocator traffic after the first chunk.
void BM_PacketAlloc(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::make_packet());
  }
  state.counters["pool_chunk_allocs"] = static_cast<double>(
      net::packet_pool_stats().chunk_allocs);
}
BENCHMARK(BM_PacketAlloc);

// Pool behaviour with a realistic number of packets in flight.
void BM_PacketAllocInFlight(benchmark::State& state) {
  std::vector<net::PacketPtr> in_flight;
  in_flight.reserve(64);
  std::size_t next = 0;
  for (int i = 0; i < 64; ++i) in_flight.push_back(net::make_packet());
  for (auto _ : state) {
    in_flight[next] = net::make_packet();  // releases the old, acquires new
    next = (next + 1) % in_flight.size();
  }
}
BENCHMARK(BM_PacketAllocInFlight);

void BM_EndToEndPacketForwarding(benchmark::State& state) {
  // Whole-fabric cost of one inter-leaf packet (encap, CONGA decision,
  // 4 link hops, feedback harvest, decap, delivery).
  sim::Scheduler sched;
  net::Fabric fabric(sched, net::testbed_baseline(), 1);
  fabric.install_lb(core::conga());
  std::uint16_t p = 0;
  for (auto _ : state) {
    net::PacketPtr pkt = net::make_packet();
    pkt->flow = net::FlowKey{0, 40, ++p, 7};
    pkt->size_bytes = 1500;
    fabric.host(0).send(std::move(pkt));
    sched.run();
  }
}
BENCHMARK(BM_EndToEndPacketForwarding);

}  // namespace

BENCHMARK_MAIN();
