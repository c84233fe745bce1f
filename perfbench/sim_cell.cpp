#include "sim_cell.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "lb/load_balancer.hpp"
#include "lb_ext/policies.hpp"
#include "net/fabric.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "stats/digest.hpp"
#include "tcp/flow.hpp"
#include "trace.hpp"
#include "workload/traffic_gen.hpp"

namespace perfbench {

using namespace conga;

namespace {

/// Forwards every LoadBalancer call to the real balancer, counting and
/// timing the three per-packet ones.
class TimedLb final : public lb::LoadBalancer {
 public:
  TimedLb(std::unique_ptr<lb::LoadBalancer> inner, Probes& probes)
      : inner_(std::move(inner)), probes_(probes) {}

  int select_uplink(const net::Packet& pkt, net::LeafId dst_leaf,
                    sim::TimeNs now) override {
    const std::uint64_t t0 = ticks_now();
    const int uplink = inner_->select_uplink(pkt, dst_leaf, now);
    probes_.select.add(ticks_now() - t0);
    return uplink;
  }
  void on_fabric_receive(const net::Packet& pkt, sim::TimeNs now) override {
    const std::uint64_t t0 = ticks_now();
    inner_->on_fabric_receive(pkt, now);
    probes_.feedback.add(ticks_now() - t0);
  }
  void annotate(net::Packet& pkt, int uplink, sim::TimeNs now) override {
    const std::uint64_t t0 = ticks_now();
    inner_->annotate(pkt, uplink, now);
    probes_.annotate.add(ticks_now() - t0);
  }
  void on_probe_packet(net::PacketPtr pkt, sim::TimeNs now) override {
    inner_->on_probe_packet(std::move(pkt), now);
  }
  void attach_telemetry(telemetry::TraceSink* sink) override {
    inner_->attach_telemetry(sink);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<lb::LoadBalancer> inner_;
  Probes& probes_;
};

net::Fabric::LbFactory timed_lb_factory(net::Fabric::LbFactory inner,
                                        Probes& probes) {
  return [inner = std::move(inner), &probes](
             net::LeafSwitch& leaf, const net::TopologyConfig& cfg,
             std::uint64_t seed) -> std::unique_ptr<lb::LoadBalancer> {
    return std::make_unique<TimedLb>(inner(leaf, cfg, seed), probes);
  };
}

/// Times flow construction and harvests each TCP flow's sender counters
/// when it completes, before the generator's own completion handler runs.
tcp::FlowFactory timed_flow_factory(tcp::FlowFactory inner, Probes& probes) {
  return [inner = std::move(inner), &probes](
             sim::Scheduler& sched, net::Host& src, net::Host& dst,
             const net::FlowKey& key, std::uint64_t size,
             tcp::FlowCompleteFn on_complete) {
    tcp::FlowCompleteFn harvest = [&probes, done = std::move(on_complete)](
                                      tcp::FlowHandle& flow) {
      if (const auto* t = dynamic_cast<const tcp::TcpFlow*>(&flow)) {
        probes.retransmits += t->sender().retransmits();
        probes.timeouts += t->sender().timeouts();
        probes.bytes_acked += t->sender().bytes_acked();
        probes.bytes_sent += t->sender().bytes_sent_total();
      }
      done(flow);
    };
    const std::uint64_t t0 = ticks_now();
    auto flow = inner(sched, src, dst, key, size, std::move(harvest));
    probes.create.add(ticks_now() - t0);
    return flow;
  };
}

tcp::FlowFactory transport_of(const CellSpec& spec) {
  tcp::TcpConfig t;
  t.min_rto = spec.min_rto;
  return tcp::make_tcp_flow_factory(t);
}

workload::TrafficGenConfig gen_config_of(const CellSpec& spec) {
  workload::TrafficGenConfig g;
  g.load = spec.load;
  g.stop = spec.warmup + spec.measure;
  g.measure_start = spec.warmup;
  g.measure_stop = spec.warmup + spec.measure;
  g.seed = spec.traffic_seed;
  return g;
}

/// The FCT summary, computed exactly as run_fct_experiment computes it.
workload::ExperimentResult summarize(net::Fabric& fabric,
                                     workload::TrafficGenerator& gen,
                                     bool drained) {
  workload::ExperimentResult r;
  r.drained = drained;
  if (!r.drained) gen.account_unfinished();
  const stats::FctCollector& c = gen.collector();
  r.avg_norm_fct = c.avg_normalized_fct();
  r.median_norm_fct = c.median_normalized_fct();
  r.p99_norm_fct = c.p99_normalized_fct();
  r.avg_fct_small = c.avg_fct_small();
  r.avg_fct_large = c.avg_fct_large();
  r.avg_fct_overall = c.avg_fct_overall();
  r.flows = c.count();
  r.small_flows = c.count_in(0, stats::FctCollector::kSmallFlowBytes);
  r.large_flows = c.count_in(stats::FctCollector::kLargeFlowBytes, UINT64_MAX);
  r.completed_fraction =
      gen.measured_started() == 0
          ? 1.0
          : static_cast<double>(gen.measured_completed()) /
                static_cast<double>(gen.measured_started());
  r.unfinished_flows = c.unfinished_count();
  r.bytes_outstanding = c.bytes_outstanding();
  r.fct_digest = stats::fct_digest(c);
  r.reorder_segments = c.reorder_segments();
  r.reorder_max_distance = c.reorder_max_distance();
  r.reordered_flows = c.reordered_flows();
  for (int l = 0; l < fabric.num_leaves(); ++l) {
    r.probes_sent += fabric.leaf(l).probes_to_fabric();
    r.probes_received += fabric.leaf(l).probes_from_fabric();
  }
  return r;
}

void add_link(CellRun& out, const net::Link& link) {
  out.packet_hops += link.packets_sent();
  out.packets_offered += link.packets_offered();
  const net::LinkDropStats& d = link.drop_stats();
  out.packets_dropped += link.queue().stats().dropped_pkts +
                         d.admin_down_pkts + d.gray_pkts + d.corrupt_pkts;
  out.conserves = out.conserves && link.conserves_packets();
}

}  // namespace

workload::ExperimentConfig experiment_config(const CellSpec& spec) {
  workload::ExperimentConfig cfg;
  cfg.topo = spec.topo;
  cfg.dist = spec.dist;
  cfg.load = spec.load;
  cfg.transport = transport_of(spec);
  cfg.lb = lb_ext::make_policy(spec.policy);
  cfg.warmup = spec.warmup;
  cfg.measure = spec.measure;
  cfg.max_drain = spec.max_drain;
  cfg.fabric_seed = spec.fabric_seed;
  cfg.traffic_seed = spec.traffic_seed;
  return cfg;
}

CellRun run_cell(const CellSpec& spec, Probes* probes, Tracer* tracer,
                 telemetry::TraceSink* sink) {
  CellRun out;
  ScopedSpan cell_span(tracer, "cell");
  const double wall0 = wall_now();
  const double cpu0 = process_cpu_now();
  const std::uint64_t chunks0 = net::packet_pool_stats().chunk_allocs;

  net::Fabric::LbFactory lb = lb_ext::make_policy(spec.policy);
  tcp::FlowFactory transport = transport_of(spec);
  if (probes != nullptr) {
    lb = timed_lb_factory(std::move(lb), *probes);
    transport = timed_flow_factory(std::move(transport), *probes);
  }
  const workload::TrafficGenConfig gen_cfg = gen_config_of(spec);

  sim::Scheduler sched;
  std::unique_ptr<net::Fabric> fabric;
  {
    ScopedSpan s(tracer, "fabric_build");
    const double t = wall_now();
    fabric = std::make_unique<net::Fabric>(sched, spec.topo, spec.fabric_seed);
    out.fabric_build_wall = wall_now() - t;
  }
  {
    ScopedSpan s(tracer, "lb_install");
    const double t = wall_now();
    fabric->install_lb(lb);
    if (sink != nullptr) fabric->attach_telemetry(sink);
    out.lb_install_wall = wall_now() - t;
  }
  std::unique_ptr<workload::TrafficGenerator> gen;
  {
    ScopedSpan s(tracer, "gen_start");
    const double t = wall_now();
    gen = std::make_unique<workload::TrafficGenerator>(*fabric, transport,
                                                       spec.dist, gen_cfg);
    gen->start();
    out.gen_start_wall = wall_now() - t;
  }
  out.setup_wall = wall_now() - wall0;

  if (probes != nullptr) {
    sched.set_trace_hook([&sched, probes](sim::TimeNs, sim::EventId) {
      probes->peak_pending = std::max<std::uint64_t>(probes->peak_pending,
                                                     sched.pending());
    });
  }
  bool drained = false;
  {
    ScopedSpan s(tracer, "run_with_drain");
    drained = workload::run_with_drain(sched, *gen, gen_cfg.stop,
                                       spec.max_drain);
  }
  {
    ScopedSpan s(tracer, "summary");
    const double t = wall_now();
    out.result = summarize(*fabric, *gen, drained);
    out.summary_wall = wall_now() - t;
  }

  out.events = sched.events_dispatched();
  out.sim_ms = static_cast<double>(sched.now()) / 1e6;
  for (net::HostId h = 0; h < fabric->num_hosts(); ++h) {
    add_link(out, *fabric->host_to_leaf(h));
    add_link(out, *fabric->leaf_to_host(h));
  }
  for (const net::Link* link : fabric->fabric_links()) add_link(out, *link);
  out.pool_chunk_allocs = net::packet_pool_stats().chunk_allocs - chunks0;

  gen.reset();
  fabric.reset();
  out.total_cpu = process_cpu_now() - cpu0;
  out.total_wall = wall_now() - wall0;
  return out;
}

double setup_only(const CellSpec& spec) {
  const double t0 = wall_now();
  sim::Scheduler sched;
  net::Fabric fabric(sched, spec.topo, spec.fabric_seed);
  fabric.install_lb(lb_ext::make_policy(spec.policy));
  workload::TrafficGenerator gen(fabric, transport_of(spec), spec.dist,
                                 gen_config_of(spec));
  gen.start();
  return wall_now() - t0;
}

bool same_result(const workload::ExperimentResult& a,
                 const workload::ExperimentResult& b) {
  return a.avg_norm_fct == b.avg_norm_fct &&
         a.median_norm_fct == b.median_norm_fct &&
         a.p99_norm_fct == b.p99_norm_fct &&
         a.avg_fct_small == b.avg_fct_small &&
         a.avg_fct_large == b.avg_fct_large &&
         a.avg_fct_overall == b.avg_fct_overall && a.flows == b.flows &&
         a.small_flows == b.small_flows && a.large_flows == b.large_flows &&
         a.completed_fraction == b.completed_fraction &&
         a.drained == b.drained && a.unfinished_flows == b.unfinished_flows &&
         a.bytes_outstanding == b.bytes_outstanding &&
         a.fct_digest == b.fct_digest &&
         a.reorder_segments == b.reorder_segments &&
         a.reorder_max_distance == b.reorder_max_distance &&
         a.reordered_flows == b.reordered_flows &&
         a.probes_sent == b.probes_sent &&
         a.probes_received == b.probes_received;
}

}  // namespace perfbench
