// One simulation cell, built from outside the program through its public
// entry points: net::Fabric + Fabric::install_lb + workload::TrafficGenerator
// + workload::run_with_drain, then the same FCT summary run_fct_experiment
// computes. The traced variant wraps the lb::LoadBalancer and tcp::FlowFactory
// interfaces in forwarding decorators and sets the scheduler's trace hook;
// none of them changes what the simulation computes.
#pragma once

#include <cstdint>
#include <string>

#include "clock.hpp"
#include "sim/time.hpp"
#include "net/topology.hpp"
#include "workload/experiment.hpp"
#include "workload/flow_size_dist.hpp"

namespace conga::telemetry {
class TraceSink;
}  // namespace conga::telemetry

namespace perfbench {

class Tracer;

struct CellSpec {
  conga::net::TopologyConfig topo;
  conga::workload::FlowSizeDist dist = conga::workload::enterprise();
  std::string policy = "conga";  ///< a registry policy without spine mode
  double load = 0.6;
  conga::sim::TimeNs min_rto = conga::sim::milliseconds(10);
  conga::sim::TimeNs warmup = conga::sim::milliseconds(2);
  conga::sim::TimeNs measure = conga::sim::milliseconds(10);
  conga::sim::TimeNs max_drain = conga::sim::seconds(5.0);
  std::uint64_t fabric_seed = 1;
  std::uint64_t traffic_seed = 7;
};

/// The same cell as an ExperimentConfig, for run_fct_experiment.
conga::workload::ExperimentConfig experiment_config(const CellSpec& spec);

/// What the traced run's decorators and trace hook collect. Hook times are
/// in ticks (clock.hpp); TCP counters are harvested as each flow completes.
struct Probes {
  CallStats select;    ///< LoadBalancer::select_uplink
  CallStats feedback;  ///< LoadBalancer::on_fabric_receive
  CallStats annotate;  ///< LoadBalancer::annotate
  CallStats create;    ///< FlowFactory calls (flow construction)
  std::uint64_t peak_pending = 0;  ///< max Scheduler::pending() at dispatch
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t bytes_acked = 0;
  std::uint64_t bytes_sent = 0;
};

/// Outcome of one cell: the program's result, exact simulator statistics
/// read from public getters afterwards, and host times per phase.
struct CellRun {
  conga::workload::ExperimentResult result;
  std::uint64_t events = 0;           ///< Scheduler::events_dispatched
  std::uint64_t packet_hops = 0;      ///< sum of Link::packets_sent
  std::uint64_t packets_offered = 0;  ///< sum of Link::packets_offered
  std::uint64_t packets_dropped = 0;  ///< queue + link drops, every cause
  std::uint64_t pool_chunk_allocs = 0;  ///< packet-pool growth in this cell
  bool conserves = true;     ///< Link::conserves_packets on every link
  double sim_ms = 0;         ///< simulated span, drain included

  // Host seconds.
  double fabric_build_wall = 0;
  double lb_install_wall = 0;
  double gen_start_wall = 0;
  double setup_wall = 0;    ///< the three above, together
  double summary_wall = 0;  ///< FCT summary + fct_digest
  double total_wall = 0, total_cpu = 0;  ///< the whole cell
};

/// Runs one cell. `probes` non-null attaches the decorators and the trace
/// hook; `tracer` non-null records the cell's spans; `sink` non-null is
/// attached with Fabric::attach_telemetry after install_lb.
CellRun run_cell(const CellSpec& spec, Probes* probes, Tracer* tracer,
                 conga::telemetry::TraceSink* sink);

/// Builds the cell's fabric, balancers and generator and starts it, without
/// simulating: the set-up phase alone, for repeated set-up samples. Returns
/// host wall seconds.
double setup_only(const CellSpec& spec);

/// True when every field of two results is identical.
bool same_result(const conga::workload::ExperimentResult& a,
                 const conga::workload::ExperimentResult& b);

}  // namespace perfbench
