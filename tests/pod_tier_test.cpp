// Tests for the Fabric's core tier: 3-tier pod fabrics (§7 "Larger
// topologies").
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "tcp/flow.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/telemetry.hpp"

namespace conga::net {
namespace {

TopologyConfig small_pods() {
  TopologyConfig cfg;
  cfg.num_pods = 2;
  cfg.num_leaves = 4;  // 2 per pod
  cfg.num_spines = 2;  // per pod
  cfg.hosts_per_leaf = 4;
  cfg.num_cores = 2;
  return cfg;
}

tcp::TcpConfig dc_tcp() {
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(10);
  return t;
}

TEST(PodTopology, ValidatesConfig) {
  TopologyConfig cfg = small_pods();
  EXPECT_TRUE(cfg.validate().empty());
  cfg.num_cores = 0;
  EXPECT_FALSE(cfg.validate().empty());
  cfg = small_pods();
  cfg.core_overrides.push_back({5, 0, 0, 0.0});
  EXPECT_FALSE(cfg.validate().empty());
  cfg = small_pods();
  cfg.num_leaves = 5;  // does not split into 2 pods
  EXPECT_FALSE(cfg.validate().empty());
  cfg = small_pods();
  cfg.num_pods = 1;  // a core tier needs pods
  EXPECT_FALSE(cfg.validate().empty());
  cfg = small_pods();
  cfg.overrides.push_back({0, 2, 0, 0.0});  // spine 2 sits in pod 1
  EXPECT_FALSE(cfg.validate().empty());
  cfg.overrides.back().spine = 1;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(PodFabric, WiresExpectedCounts) {
  sim::Scheduler sched;
  Fabric fabric(sched, small_pods(), 3);
  EXPECT_EQ(fabric.num_hosts(), 16);
  EXPECT_EQ(fabric.leaf(0).uplinks().size(), 2u);  // one per pod spine
  // Every spine has 2 core uplinks; every core has 2 links into each pod.
  EXPECT_NE(fabric.spine_to_core(0, 0, 0), nullptr);
  EXPECT_NE(fabric.spine_to_core(1, 1, 1), nullptr);
  EXPECT_NE(fabric.core_to_spine(0, 1, 0), nullptr);
  // Global spine ids: leaf 2 (pod 1) uplinks to spines 2 and 3 only.
  EXPECT_EQ(fabric.num_spines(), 4);
  EXPECT_EQ(fabric.leaf(2).uplinks()[0].spine, 2);
  EXPECT_NE(fabric.up_link(2, 3, 0), nullptr);
  EXPECT_EQ(fabric.up_link(2, 0, 0), nullptr);
  EXPECT_EQ(fabric.down_link(1, 2, 0), nullptr);
}

TEST(PodFabric, DirectoryAndPodMapping) {
  sim::Scheduler sched;
  Fabric fabric(sched, small_pods(), 3);
  EXPECT_EQ(fabric.leaf_of(0), 0);
  EXPECT_EQ(fabric.leaf_of(5), 1);   // hosts 4..7 on leaf 1
  EXPECT_EQ(fabric.leaf_of(12), 3);  // hosts 12..15 on leaf 3
  EXPECT_EQ(fabric.pod_of_leaf(0), 0);
  EXPECT_EQ(fabric.pod_of_leaf(1), 0);
  EXPECT_EQ(fabric.pod_of_leaf(2), 1);
  EXPECT_EQ(fabric.pod_of_leaf(3), 1);
}

TEST(PodFabric, IntraPodTrafficStaysInPod) {
  sim::Scheduler sched;
  Fabric fabric(sched, small_pods(), 3);
  fabric.install_lb(core::conga());
  PacketPtr p = make_packet();
  p->flow.src_host = 0;  // leaf 0, pod 0
  p->flow.dst_host = 4;  // leaf 1, pod 0
  p->flow.src_port = 1;
  p->flow.dst_port = 2;
  p->size_bytes = 1000;
  bool got = false;
  fabric.host(4).set_default_handler([&](PacketPtr) { got = true; });
  fabric.host(0).send(std::move(p));
  sched.run();
  EXPECT_TRUE(got);
  // No core link carried anything.
  for (int pod = 0; pod < 2; ++pod) {
    for (int s = 0; s < 2; ++s) {
      for (int c = 0; c < 2; ++c) {
        EXPECT_EQ(fabric.spine_to_core(pod, s, c)->packets_sent(), 0u);
      }
    }
  }
}

TEST(PodFabric, InterPodTrafficTraversesCore) {
  sim::Scheduler sched;
  Fabric fabric(sched, small_pods(), 3);
  fabric.install_lb(core::conga());
  PacketPtr p = make_packet();
  p->flow.src_host = 0;   // pod 0
  p->flow.dst_host = 12;  // pod 1
  p->flow.src_port = 1;
  p->flow.dst_port = 2;
  p->size_bytes = 1000;
  bool got = false;
  fabric.host(12).set_default_handler([&](PacketPtr pkt) {
    got = true;
    EXPECT_FALSE(pkt->overlay.valid);
  });
  fabric.host(0).send(std::move(p));
  sched.run();
  EXPECT_TRUE(got);
  std::uint64_t core_pkts = 0;
  for (int s = 0; s < 2; ++s) {
    for (int c = 0; c < 2; ++c) {
      core_pkts += fabric.spine_to_core(0, s, c)->packets_sent();
    }
  }
  EXPECT_EQ(core_pkts, 1u);
}

TEST(PodFabric, TcpWorksAcrossPods) {
  sim::Scheduler sched;
  Fabric fabric(sched, small_pods(), 3);
  fabric.install_lb(core::conga());
  net::FlowKey key;
  key.src_host = 0;
  key.dst_host = 12;
  key.src_port = 100;
  key.dst_port = 200;
  tcp::TcpFlow flow(sched, fabric.host(0), fabric.host(12), key, 5'000'000,
                    dc_tcp(), tcp::FlowCompleteFn{});
  flow.start();
  sched.run();
  ASSERT_TRUE(flow.complete());
  EXPECT_EQ(flow.sink().delivered(), 5'000'000u);
  const double gbps = 5'000'000 * 8.0 / sim::to_seconds(flow.fct()) / 1e9;
  EXPECT_GT(gbps, 8.0);
}

TEST(PodFabric, FailedCoreLinkRemovedAndRouted) {
  TopologyConfig cfg = small_pods();
  // Pod 0's spine 0 loses BOTH core uplinks: inter-pod traffic through that
  // spine is impossible, and the leaves must know.
  cfg.core_overrides.push_back({0, 0, 0, 0.0});
  cfg.core_overrides.push_back({0, 0, 1, 0.0});
  sim::Scheduler sched;
  Fabric fabric(sched, cfg, 3);
  fabric.install_lb(core::conga());
  EXPECT_EQ(fabric.spine_to_core(0, 0, 0), nullptr);

  // Leaf 0's uplink 0 (spine 0) cannot reach remote leaves, but still
  // reaches the local pod.
  EXPECT_FALSE(fabric.leaf(0).uplink_reaches(0, 2));
  EXPECT_TRUE(fabric.leaf(0).uplink_reaches(0, 1));
  EXPECT_TRUE(fabric.leaf(0).uplink_reaches(1, 2));

  // End to end: inter-pod flows still complete via spine 1.
  net::FlowKey key;
  key.src_host = 0;
  key.dst_host = 12;
  key.src_port = 100;
  key.dst_port = 200;
  tcp::TcpFlow flow(sched, fabric.host(0), fabric.host(12), key, 1'000'000,
                    dc_tcp(), tcp::FlowCompleteFn{});
  flow.start();
  sched.run();
  EXPECT_TRUE(flow.complete());
  EXPECT_EQ(fabric.spine(0).dropped_no_route(), 0u);
}

TEST(PodFabric, CongaAvoidsCongestedCorePath) {
  // Degrade pod0-spine1's core links to 10%: CONGA at the source leaf sees
  // the CE marks from the slow core path and shifts inter-pod flowlets to
  // spine 0, even though only the first hop is CONGA-controlled.
  TopologyConfig cfg = small_pods();
  cfg.core_overrides.push_back({0, 1, 0, 0.1});
  cfg.core_overrides.push_back({0, 1, 1, 0.1});
  sim::Scheduler sched;
  Fabric fabric(sched, cfg, 3);
  fabric.install_lb(core::conga());

  tcp::TcpConfig t = dc_tcp();
  t.min_rto = sim::milliseconds(5);
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  for (int i = 0; i < 4; ++i) {
    net::FlowKey key;
    key.src_host = i;        // leaf 0, pod 0
    key.dst_host = 12 + i;   // leaf 3, pod 1
    key.src_port = static_cast<std::uint16_t>(3000 + 16 * i);
    key.dst_port = 80;
    flows.push_back(std::make_unique<tcp::TcpFlow>(
        sched, fabric.host(i), fabric.host(12 + i), key,
        std::uint64_t{1} << 40, t, tcp::FlowCompleteFn{}));
    flows.back()->start();
  }
  sched.run_until(sim::milliseconds(60));
  const auto& ups = fabric.leaf(0).uplinks();
  const double to_s0 = static_cast<double>(ups[0].link->bytes_sent());
  const double to_s1 = static_cast<double>(ups[1].link->bytes_sent());
  EXPECT_GT(to_s0 / (to_s0 + to_s1), 0.7)
      << "CONGA must route around the degraded core path";
}

TEST(PodFabric, EcmpSplitsBlindlyAcrossDegradedCore) {
  TopologyConfig cfg = small_pods();
  cfg.core_overrides.push_back({0, 1, 0, 0.1});
  cfg.core_overrides.push_back({0, 1, 1, 0.1});
  sim::Scheduler sched;
  Fabric fabric(sched, cfg, 3);
  fabric.install_lb(lb::ecmp());
  tcp::TcpConfig t = dc_tcp();
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  for (int i = 0; i < 8; ++i) {
    net::FlowKey key;
    key.src_host = i % 4;
    key.dst_host = 12 + (i % 4);
    key.src_port = static_cast<std::uint16_t>(4000 + 16 * i);
    key.dst_port = 80;
    flows.push_back(std::make_unique<tcp::TcpFlow>(
        sched, fabric.host(key.src_host), fabric.host(key.dst_host), key,
        std::uint64_t{1} << 40, t, tcp::FlowCompleteFn{}));
    flows.back()->start();
  }
  sched.run_until(sim::milliseconds(60));
  const auto& ups = fabric.leaf(0).uplinks();
  const double to_s0 = static_cast<double>(ups[0].link->bytes_sent());
  const double to_s1 = static_cast<double>(ups[1].link->bytes_sent());
  // ECMP's flow split ignores the degradation entirely (bytes through the
  // degraded spine are throttled by TCP, so byte share < 0.5 — but nothing
  // like CONGA's decisive shift; flows stay pinned).
  EXPECT_GT(to_s1, 0.0);
  EXPECT_LT(to_s0 / (to_s0 + to_s1), 0.95);
}


TEST(PodFabric, CoreLinksGetProbesAndConservePackets) {
  // The core tier rides the Fabric's one wiring path, so a pod fabric gets
  // the standard probe set and telemetry without extra code.
  sim::Scheduler sched;
  Fabric fabric(sched, small_pods(), 3);
  fabric.install_lb(core::conga());
  telemetry::TraceSink sink;
  fabric.attach_telemetry(&sink);

  Link* core_up = fabric.spine_to_core(0, 1, 1);
  Link* core_down = fabric.core_to_spine(1, 1, 0);
  ASSERT_NE(core_up, nullptr);
  ASSERT_NE(core_down, nullptr);
  const auto& fab = fabric.fabric_links();
  // 4 leaves x 2 spines x 2 directions, plus 4 spines x 2 cores x 2.
  EXPECT_EQ(fab.size(), 16u + 16u);
  EXPECT_NE(std::find(fab.begin(), fab.end(), core_up), fab.end());
  EXPECT_NE(std::find(fab.begin(), fab.end(), core_down), fab.end());
  const telemetry::ProbeRegistry& probes = sink.probes();
  EXPECT_GE(probes.find(core_up->name() + "/queue_bytes"), 0);
  EXPECT_GE(probes.find(core_down->name() + "/tx_bytes"), 0);

  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  for (int i = 0; i < 4; ++i) {
    net::FlowKey key;
    key.src_host = i;          // pod 0
    key.dst_host = 8 + 2 * i;  // pod 1
    key.src_port = static_cast<std::uint16_t>(5000 + 16 * i);
    key.dst_port = 80;
    flows.push_back(std::make_unique<tcp::TcpFlow>(
        sched, fabric.host(key.src_host), fabric.host(key.dst_host), key,
        1'000'000, dc_tcp(), tcp::FlowCompleteFn{}));
    flows.back()->start();
  }
  sched.run();
  std::uint64_t core_bytes = 0;
  for (const auto& f : flows) EXPECT_TRUE(f->complete());
  for (Link* l : fab) {
    EXPECT_TRUE(l->conserves_packets()) << l->name();
    if (l->name().rfind("core-", 0) == 0) core_bytes += l->bytes_sent();
  }
  for (HostId h = 0; h < fabric.num_hosts(); ++h) {
    EXPECT_TRUE(fabric.host_to_leaf(h)->conserves_packets());
    EXPECT_TRUE(fabric.leaf_to_host(h)->conserves_packets());
  }
  // 4 MB of payload, each byte over one core-up and one core-down link.
  EXPECT_GT(core_bytes, 8'000'000u);
  const int tx = probes.find(core_up->name() + "/tx_bytes");
  ASSERT_GE(tx, 0);
  EXPECT_EQ(probes.probe(tx).counter(), core_up->bytes_sent());
}

}  // namespace
}  // namespace conga::net
