// Tests for flow-size distributions, the Poisson traffic generator, the
// Incast/HDFS workloads, and the flowlet trace study.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "tcp/flow.hpp"
#include "workload/experiment.hpp"
#include "workload/flow_size_dist.hpp"
#include "workload/flowlet_study.hpp"
#include "workload/hdfs_gen.hpp"
#include "workload/incast_gen.hpp"
#include "workload/traffic_gen.hpp"

namespace conga::workload {
namespace {

TEST(FlowSizeDist, CdfIsMonotoneAndEndsAtOne) {
  for (const FlowSizeDist* d :
       {&enterprise(), &data_mining(), &web_search()}) {
    double prev = 0;
    for (double s = 10; s < 2e9; s *= 2) {
      const double c = d->cdf(s);
      EXPECT_GE(c, prev) << d->name() << " at " << s;
      EXPECT_LE(c, 1.0);
      prev = c;
    }
    EXPECT_DOUBLE_EQ(d->cdf(2e9), 1.0) << d->name();
  }
}

TEST(FlowSizeDist, QuantileInvertsCdf) {
  const FlowSizeDist& d = data_mining();
  for (double u : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double s = d.quantile(u);
    EXPECT_NEAR(d.cdf(s), u, 0.01) << "u=" << u;
  }
}

TEST(FlowSizeDist, SampleMeanMatchesAnalyticMean) {
  sim::Rng rng(21);
  const FlowSizeDist& d = web_search();
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(d.sample(rng));
  EXPECT_NEAR(sum / n / d.mean_bytes(), 1.0, 0.05);
}

TEST(FlowSizeDist, EnterpriseHalfOfBytesBelow35MB) {
  // The paper's headline statistic for Fig 8(a): ~50% of bytes from flows
  // smaller than 35 MB.
  EXPECT_NEAR(enterprise().byte_cdf(35e6), 0.5, 0.15);
}

TEST(FlowSizeDist, DataMiningIsMuchHeavier) {
  // Fig 8(b): flows smaller than 35 MB carry only ~5% of bytes.
  EXPECT_LT(data_mining().byte_cdf(35e6), 0.2);
  EXPECT_LT(data_mining().byte_cdf(35e6), enterprise().byte_cdf(35e6) / 2);
}

TEST(FlowSizeDist, CoeffOfVariationOrdersWorkloads) {
  // Theorem 2: the data-mining workload is harder to balance — its flow-size
  // coefficient of variation must dominate the enterprise workload's.
  EXPECT_GT(data_mining().coeff_of_variation(),
            enterprise().coeff_of_variation());
  EXPECT_GT(enterprise().coeff_of_variation(), 1.0);
}

TEST(FlowSizeDist, NameTableAcceptsEverySpelling) {
  for (const char* name : {"datamining", "data-mining"}) {
    ASSERT_TRUE(dist_by_name(name)) << name;
    EXPECT_EQ(dist_by_name(name)->mean_bytes(), data_mining().mean_bytes());
  }
  for (const char* name : {"websearch", "web-search"}) {
    ASSERT_TRUE(dist_by_name(name)) << name;
    EXPECT_EQ(dist_by_name(name)->mean_bytes(), web_search().mean_bytes());
  }
  ASSERT_TRUE(dist_by_name("enterprise"));
  EXPECT_EQ(dist_by_name("enterprise")->mean_bytes(),
            enterprise().mean_bytes());
  ASSERT_TRUE(dist_by_name("fixed:500000"));
  EXPECT_DOUBLE_EQ(dist_by_name("fixed:500000")->mean_bytes(), 500'000);
  for (const char* bad : {"", "Enterprise", "web_search", "fixed:", "fixed:0",
                          "fixed:abc", "fixed"}) {
    EXPECT_FALSE(dist_by_name(bad)) << bad;
  }
}

TEST(FlowSizeDist, FixedSizeHasZeroVariance) {
  const FlowSizeDist d = fixed_size(5000);
  EXPECT_DOUBLE_EQ(d.mean_bytes(), 5000);
  EXPECT_NEAR(d.coeff_of_variation(), 0.0, 1e-9);
  sim::Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(rng), 5000u);
}

TEST(FlowSizeDist, ByteCdfIsMonotone) {
  const FlowSizeDist& d = enterprise();
  double prev = 0;
  for (double s = 100; s <= 5e8; s *= 3) {
    const double b = d.byte_cdf(s);
    EXPECT_GE(b, prev - 1e-12);
    prev = b;
  }
  EXPECT_NEAR(d.byte_cdf(5e8), 1.0, 1e-9);
}

// --- traffic generator ---

net::TopologyConfig gen_topo() {
  net::TopologyConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = 2;
  cfg.hosts_per_leaf = 8;
  cfg.host_link_bps = 10e9;
  cfg.fabric_link_bps = 40e9;
  return cfg;
}

TEST(TrafficGen, ArrivalRateMatchesLoad) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, gen_topo(), 4);
  fabric.install_lb(lb::ecmp());
  TrafficGenConfig cfg;
  cfg.load = 0.5;
  const FlowSizeDist dist = fixed_size(100'000);
  TrafficGenerator gen(fabric, tcp::make_tcp_flow_factory({}), dist, cfg);
  // load * 2 leaves * 80 Gbps / 8 / 100 KB = 1e10 B/s / 1e5 B = 1e5 flows/s.
  EXPECT_NEAR(gen.arrival_rate(), 1e5, 1.0);
}

TEST(TrafficGen, RejectsNonPositiveOrNonFiniteLoad) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, gen_topo(), 4);
  fabric.install_lb(lb::ecmp());
  const FlowSizeDist dist = fixed_size(100'000);
  for (const double load : {0.0, -0.5, std::nan(""), HUGE_VAL}) {
    TrafficGenConfig cfg;
    cfg.load = load;
    EXPECT_THROW(TrafficGenerator(fabric, tcp::make_tcp_flow_factory({}),
                                  dist, cfg),
                 std::invalid_argument)
        << "load " << load;
  }
}

TEST(TrafficGen, GeneratesAndCompletesFlows) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, gen_topo(), 4);
  fabric.install_lb(lb::ecmp());
  TrafficGenConfig cfg;
  cfg.load = 0.2;
  cfg.stop = sim::milliseconds(10);
  cfg.measure_start = sim::milliseconds(1);
  cfg.measure_stop = sim::milliseconds(9);
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.min_rto = sim::milliseconds(10);
  TrafficGenerator gen(fabric, tcp::make_tcp_flow_factory(tcp_cfg),
                       fixed_size(50'000), cfg);
  gen.start();
  const bool drained = run_with_drain(sched, gen, cfg.stop,
                                      sim::milliseconds(200));
  EXPECT_TRUE(drained);
  EXPECT_GT(gen.flows_started(), 100u);
  EXPECT_GT(gen.measured_started(), 50u);
  EXPECT_EQ(gen.measured_completed(), gen.measured_started());
  EXPECT_EQ(gen.collector().count(), gen.measured_started());
}

TEST(TrafficGen, OfferedLoadReachesUplinks) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, gen_topo(), 4);
  fabric.install_lb(core::conga());
  TrafficGenConfig cfg;
  cfg.load = 0.4;
  cfg.stop = sim::milliseconds(20);
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.min_rto = sim::milliseconds(10);
  TrafficGenerator gen(fabric, tcp::make_tcp_flow_factory(tcp_cfg),
                       fixed_size(200'000), cfg);
  gen.start();
  sched.run_until(sim::milliseconds(20));
  // Measure delivered bytes on leaf0's uplinks: should be ~load (40%).
  std::uint64_t bytes = 0;
  for (const auto& up : fabric.leaf(0).uplinks()) {
    bytes += up.link->bytes_sent();
  }
  const double util =
      bytes * 8.0 / 0.020 / fabric.config().leaf_uplink_capacity_bps();
  EXPECT_NEAR(util, 0.4, 0.12);
}

TEST(TrafficGen, AllTrafficCrossesTheFabric) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, gen_topo(), 4);
  fabric.install_lb(lb::ecmp());
  TrafficGenConfig cfg;
  cfg.load = 0.1;
  cfg.stop = sim::milliseconds(5);
  TrafficGenerator gen(fabric, tcp::make_tcp_flow_factory({}),
                       fixed_size(10'000), cfg);
  gen.start();
  sched.run_until(sim::milliseconds(10));
  EXPECT_GT(fabric.leaf(0).packets_to_fabric() +
                fabric.leaf(1).packets_to_fabric(),
            0u);
}

TEST(TrafficGen, OptimalFctIsLowerBound) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, gen_topo(), 4);
  fabric.install_lb(core::conga());
  TrafficGenConfig cfg;
  cfg.load = 0.3;
  cfg.stop = sim::milliseconds(10);
  cfg.measure_start = 0;
  cfg.measure_stop = sim::milliseconds(10);
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.min_rto = sim::milliseconds(10);
  TrafficGenerator gen(fabric, tcp::make_tcp_flow_factory(tcp_cfg),
                       enterprise(), cfg);
  gen.start();
  run_with_drain(sched, gen, cfg.stop, sim::milliseconds(500));
  ASSERT_GT(gen.collector().count(), 0u);
  for (const auto& r : gen.collector().records()) {
    EXPECT_GE(r.fct, r.optimal_fct * 9 / 10)
        << "size " << r.size_bytes;  // 10% slack for rounding
  }
  EXPECT_GE(gen.collector().avg_normalized_fct(), 0.9);
}

// --- incast ---

TEST(Incast, SingleServerApproachesLineRate) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, gen_topo(), 4);
  fabric.install_lb(core::conga());
  IncastConfig cfg;
  cfg.client = 0;
  cfg.servers = {8};  // one server on the other leaf
  cfg.total_bytes = 10'000'000;
  cfg.rounds = 3;
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.min_rto = sim::milliseconds(10);
  IncastGenerator gen(fabric, tcp::make_tcp_flow_factory(tcp_cfg), cfg);
  gen.start();
  sched.run();
  ASSERT_TRUE(gen.finished());
  EXPECT_GT(gen.goodput_fraction(), 0.8);
}

TEST(Incast, ModerateFanInStillGood) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, gen_topo(), 4);
  fabric.install_lb(core::conga());
  IncastConfig cfg;
  cfg.client = 0;
  cfg.servers = {8, 9, 10, 11, 12, 13, 14, 15};
  cfg.total_bytes = 10'000'000;
  cfg.rounds = 3;
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.min_rto = sim::milliseconds(1);
  IncastGenerator gen(fabric, tcp::make_tcp_flow_factory(tcp_cfg), cfg);
  gen.start();
  sched.run();
  ASSERT_TRUE(gen.finished());
  EXPECT_GT(gen.goodput_fraction(), 0.5);
}

TEST(Incast, RoundsAreSequential) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, gen_topo(), 4);
  fabric.install_lb(core::conga());
  IncastConfig cfg;
  cfg.client = 0;
  cfg.servers = {8, 9};
  cfg.total_bytes = 1'000'000;
  cfg.rounds = 5;
  IncastGenerator gen(fabric, tcp::make_tcp_flow_factory({}), cfg);
  gen.start();
  sched.run();
  EXPECT_TRUE(gen.finished());
  EXPECT_EQ(gen.rounds_done(), 5);
  EXPECT_GT(gen.elapsed(), 0);
}

// --- HDFS ---

TEST(Hdfs, JobCompletes) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, gen_topo(), 4);
  fabric.install_lb(core::conga());
  HdfsConfig cfg;
  cfg.writers = {0, 1, 8, 9};
  cfg.bytes_per_writer = 8'000'000;
  cfg.block_bytes = 2'000'000;
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.min_rto = sim::milliseconds(10);
  HdfsJob job(fabric, tcp::make_tcp_flow_factory(tcp_cfg), cfg);
  job.start();
  sched.run();
  ASSERT_TRUE(job.finished());
  EXPECT_GT(job.completion_time(), 0);
  // 4 writers x 8 MB x 2 pipeline stages over a fabric with ample capacity:
  // a writer's serial chain is ~2 x 8 MB at <=10G ~= 13 ms + overheads.
  EXPECT_LT(job.completion_time(), sim::milliseconds(200));
}

TEST(Hdfs, ReplicationFactorOneIsLocal) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, gen_topo(), 4);
  fabric.install_lb(core::conga());
  HdfsConfig cfg;
  cfg.writers = {0};
  cfg.bytes_per_writer = 4'000'000;
  cfg.block_bytes = 1'000'000;
  cfg.replicas = 1;
  HdfsJob job(fabric, tcp::make_tcp_flow_factory({}), cfg);
  job.start();
  sched.run();
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(fabric.leaf(0).packets_to_fabric(), 0u);  // nothing on the wire
}

// --- experiment harness ---

TEST(Experiment, RunsOneCellEndToEnd) {
  ExperimentConfig cfg;
  cfg.topo = gen_topo();
  cfg.dist = fixed_size(100'000);
  cfg.load = 0.3;
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(10);
  cfg.transport = tcp::make_tcp_flow_factory(t);
  cfg.lb = core::conga();
  cfg.warmup = sim::milliseconds(5);
  cfg.measure = sim::milliseconds(20);
  cfg.max_drain = sim::seconds(1.0);
  const ExperimentResult r = run_fct_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.flows, 50u);
  EXPECT_GE(r.avg_norm_fct, 1.0);
  EXPECT_GE(r.median_norm_fct, 0.95);
  EXPECT_LE(r.median_norm_fct, r.p99_norm_fct + 1e-9);
  EXPECT_DOUBLE_EQ(r.completed_fraction, 1.0);
  EXPECT_EQ(r.small_flows, 0u);  // all flows are 100 KB (== boundary)
}

TEST(Experiment, DeterministicAcrossRuns) {
  ExperimentConfig cfg;
  cfg.topo = gen_topo();
  cfg.dist = enterprise();
  cfg.load = 0.4;
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(10);
  cfg.transport = tcp::make_tcp_flow_factory(t);
  cfg.lb = core::conga();
  cfg.warmup = sim::milliseconds(5);
  cfg.measure = sim::milliseconds(15);
  const ExperimentResult a = run_fct_experiment(cfg);
  const ExperimentResult b = run_fct_experiment(cfg);
  EXPECT_EQ(a.flows, b.flows);
  EXPECT_DOUBLE_EQ(a.avg_norm_fct, b.avg_norm_fct);
}

TEST(Experiment, HigherLoadHurtsFct) {
  auto run_at = [&](double load) {
    ExperimentConfig cfg;
    cfg.topo = gen_topo();
    cfg.dist = fixed_size(500'000);
    cfg.load = load;
    tcp::TcpConfig t;
    t.min_rto = sim::milliseconds(10);
    cfg.transport = tcp::make_tcp_flow_factory(t);
    cfg.lb = lb::ecmp();
    cfg.warmup = sim::milliseconds(5);
    cfg.measure = sim::milliseconds(25);
    return run_fct_experiment(cfg).median_norm_fct;
  };
  EXPECT_LT(run_at(0.1), run_at(0.8));
}

// --- flowlet study ---

TEST(FlowletStudy, TraceIsNonEmptyAndOrdered) {
  BurstyTraceConfig cfg;
  cfg.duration = sim::milliseconds(200);
  cfg.flow_arrival_per_sec = 500;
  const auto trace = generate_bursty_trace(enterprise(), cfg);
  ASSERT_GT(trace.size(), 1000u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace[i].flow_id == trace[i - 1].flow_id) {
      EXPECT_GE(trace[i].time, trace[i - 1].time);
    }
  }
}

TEST(FlowletStudy, HugeGapReturnsWholeFlows) {
  BurstyTraceConfig cfg;
  cfg.duration = sim::milliseconds(100);
  cfg.flow_arrival_per_sec = 300;
  const auto trace = generate_bursty_trace(enterprise(), cfg);
  const auto flows = split_flowlets(trace, sim::seconds(10.0));
  // Transfer count == number of distinct flows in the trace.
  std::size_t distinct = trace.empty() ? 0 : 1;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace[i].flow_id != trace[i - 1].flow_id) ++distinct;
  }
  EXPECT_EQ(flows.size(), distinct);
}

TEST(FlowletStudy, SmallerGapsGiveMoreSmallerTransfers) {
  BurstyTraceConfig cfg;
  cfg.duration = sim::milliseconds(300);
  const auto trace = generate_bursty_trace(enterprise(), cfg);
  const auto whole = split_flowlets(trace, sim::milliseconds(250));
  const auto f500 = split_flowlets(trace, sim::microseconds(500));
  const auto f100 = split_flowlets(trace, sim::microseconds(100));
  EXPECT_GE(f500.size(), whole.size());
  EXPECT_GE(f100.size(), f500.size());
  EXPECT_LE(bytes_median_size(f500), bytes_median_size(whole));
  EXPECT_LE(bytes_median_size(f100), bytes_median_size(f500));
}

TEST(FlowletStudy, ByteConservationAcrossSplits) {
  BurstyTraceConfig cfg;
  cfg.duration = sim::milliseconds(100);
  const auto trace = generate_bursty_trace(enterprise(), cfg);
  std::uint64_t total = 0;
  for (const auto& p : trace) total += p.bytes;
  for (sim::TimeNs gap : {sim::microseconds(100), sim::microseconds(500),
                          sim::milliseconds(250)}) {
    const auto parts = split_flowlets(trace, gap);
    std::uint64_t sum = 0;
    for (auto s : parts) sum += s;
    EXPECT_EQ(sum, total);
  }
}

TEST(FlowletStudy, BytesCdfIsMonotoneIn01) {
  BurstyTraceConfig cfg;
  cfg.duration = sim::milliseconds(100);
  const auto trace = generate_bursty_trace(enterprise(), cfg);
  const auto parts = split_flowlets(trace, sim::microseconds(500));
  const std::vector<double> queries{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};
  const auto cdf = bytes_cdf_at(parts, queries);
  double prev = 0;
  for (double v : cdf) {
    EXPECT_GE(v, prev);
    EXPECT_LE(v, 1.0);
    prev = v;
  }
  EXPECT_NEAR(cdf.back(), 1.0, 1e-9);
}

TEST(FlowletStudy, ConcurrentFlowCountsAreBounded) {
  BurstyTraceConfig cfg;
  cfg.duration = sim::milliseconds(100);
  cfg.flow_arrival_per_sec = 1000;
  const auto trace = generate_bursty_trace(enterprise(), cfg);
  const auto counts = concurrent_flows(trace, sim::milliseconds(1));
  ASSERT_FALSE(counts.empty());
  for (std::size_t c : counts) EXPECT_LT(c, 5000u);
}

}  // namespace
}  // namespace conga::workload
