// Reusable FCT-experiment harness: one (topology, workload, load, scheme,
// transport, fault plan) cell of the paper's evaluation grid, with warmup, a
// measurement window, and a bounded drain. Built here: the fig09/10/11/15
// grid cells, campaign cells, the determinism and chaos audits, and
// conga_sim.
#pragma once

#include <cstdint>
#include <optional>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "net/fabric.hpp"
#include "sim/scheduler.hpp"
#include "stats/fct_collector.hpp"
#include "tcp/flow.hpp"
#include "workload/flow_size_dist.hpp"
#include "workload/traffic_gen.hpp"

namespace conga::workload {

struct ExperimentConfig {
  net::TopologyConfig topo;
  FlowSizeDist dist = fixed_size(100'000);
  double load = 0.6;
  tcp::FlowFactory transport;  ///< defaults to plain TCP if empty
  net::Fabric::LbFactory lb;   ///< required
  /// Spines forward with DRILL's queue-aware two-choices as well
  /// (lb_ext::PolicyInfo::spine_drill of the policy behind `lb`).
  bool spine_drill = false;
  sim::TimeNs warmup = sim::milliseconds(10);
  sim::TimeNs measure = sim::milliseconds(40);
  sim::TimeNs max_drain = sim::seconds(1.0);
  std::uint64_t fabric_seed = 1;
  std::uint64_t traffic_seed = 7;
  /// Fault campaign armed once traffic has started (empty = no injector; the
  /// run is then bit-identical to one without fault support). Spec times are
  /// absolute simulated times.
  fault::FaultPlan faults;
  std::uint64_t fault_seed = 11;
};

struct ExperimentResult {
  double avg_norm_fct = 0;    ///< overall mean FCT / optimal
  double median_norm_fct = 0; ///< tail-robust companion to the mean
  double p99_norm_fct = 0;
  double avg_fct_small = 0;   ///< seconds, flows < 100 KB
  double avg_fct_large = 0;   ///< seconds, flows > 10 MB
  double avg_fct_overall = 0; ///< seconds
  std::size_t flows = 0;
  std::size_t small_flows = 0;
  std::size_t large_flows = 0;
  double completed_fraction = 0;  ///< measured flows that finished in time
  bool drained = false;           ///< all measured flows completed
  std::size_t unfinished_flows = 0;     ///< measured flows still live
  std::uint64_t bytes_outstanding = 0;  ///< their undelivered bytes
  std::uint64_t fct_digest = 0;  ///< order-insensitive digest of the records

  // Reordering ledger over measured flows (receiver-side cost of
  // per-packet / per-flowcell schemes).
  std::uint64_t reorder_segments = 0;
  std::uint64_t reorder_max_distance = 0;
  std::uint64_t reordered_flows = 0;

  // Probe-plane overhead: control packets the leaves injected / consumed
  // (zero for every policy without a probe plane).
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_received = 0;
};

/// One experiment cell, built but not yet run. The constructor wires the
/// scheduler, fabric, load balancer and traffic generator from the config;
/// callers attach a trace hook, telemetry sink or flow monitor through the
/// accessors before run(), and inspect the fabric and collector after it.
class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& cfg);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Starts the traffic, arms the fault plan, runs the window and the drain,
  /// and summarises the measured flows. Call once.
  ExperimentResult run();

  sim::Scheduler& scheduler() { return sched_; }
  net::Fabric& fabric() { return fabric_; }
  TrafficGenerator& generator() { return gen_; }

  /// Fault transitions applied so far (0 for an empty plan).
  std::uint64_t fault_transitions() const {
    return injector_ ? injector_->transitions() : 0;
  }

 private:
  sim::Scheduler sched_;
  net::Fabric fabric_;
  TrafficGenerator gen_;
  fault::FaultPlan faults_;
  std::uint64_t fault_seed_;
  sim::TimeNs stop_;
  sim::TimeNs max_drain_;
  std::optional<fault::FaultInjector> injector_;
};

/// Runs one experiment cell to completion and summarizes it:
/// Experiment(cfg).run().
ExperimentResult run_fct_experiment(const ExperimentConfig& cfg);

}  // namespace conga::workload
