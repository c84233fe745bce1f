// Fabric: builds and owns a complete Leaf-Spine network instance.
//
// Construction wires hosts, leaves, spines and every (unidirectional) link
// per the TopologyConfig, applying failure/degradation overrides. Load
// balancers are installed afterwards via a factory, so one topology can be
// re-created identically for each scheme under comparison.
//
// With TopologyConfig::num_pods > 1 the same build adds the core tier of
// paper §7 ("Larger topologies"): each pod is a Leaf-Spine Clos, every pod
// spine links to every core switch, spines hand inter-pod traffic to the
// core by ECMP and cores ECMP into the destination pod's spines. The source
// leaf's load balancer (CONGA included) still decides only the first hop,
// but the CE field keeps accumulating across the core hops, so its
// leaf-to-leaf feedback reflects the whole path. Spine ids are global (pod p
// owns spines p * num_spines ..), so accessors taking a spine work unchanged
// and slots pairing a leaf with another pod's spine are nullptr.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "lb/load_balancer.hpp"
#include "net/host.hpp"
#include "net/leaf_switch.hpp"
#include "net/link.hpp"
#include "net/spine_switch.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace conga::net {

class Fabric {
 public:
  /// A factory producing one LoadBalancer per leaf. The leaf is fully wired
  /// (all uplinks present) when invoked.
  using LbFactory = std::function<std::unique_ptr<lb::LoadBalancer>(
      LeafSwitch& leaf, const TopologyConfig& cfg, std::uint64_t seed)>;

  Fabric(sim::Scheduler& sched, const TopologyConfig& cfg,
         std::uint64_t seed = 1);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Installs a load balancer on every leaf.
  void install_lb(const LbFactory& factory);

  /// Switches every spine between ECMP (default) and DRILL forwarding for
  /// the spine -> leaf stage (power-of-two-choices over parallel downlink
  /// queue depths; see SpineSwitch::enable_drill). The policy registry
  /// (src/lb_ext/policies.hpp) flips this when installing "drill".
  void set_spine_drill(bool enabled);

  /// Routes the whole fabric's telemetry to `sink` (nullptr detaches):
  /// every link (queue + DRE included), every installed load balancer, and
  /// the scheduler's ambient pointer (which TCP senders read). Also
  /// registers the standard probe set: per-fabric-link queue_bytes gauges
  /// and tx_bytes counters, per-leaf packet counters, and per-leaf
  /// rx_host_bytes (sum of attached hosts' received bytes). Call after
  /// install_lb(); calling install_lb() later re-attaches the new balancers.
  void attach_telemetry(telemetry::TraceSink* sink);
  telemetry::TraceSink* telemetry() const { return tele_; }

  // --- accessors ---
  sim::Scheduler& scheduler() { return sched_; }
  const TopologyConfig& config() const { return cfg_; }

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  Host& host(HostId h) { return *hosts_[static_cast<std::size_t>(h)]; }
  LeafSwitch& leaf(int l) { return *leaves_[static_cast<std::size_t>(l)]; }
  SpineSwitch& spine(int s) { return *spines_[static_cast<std::size_t>(s)]; }
  int num_leaves() const { return static_cast<int>(leaves_.size()); }
  /// Spines across every pod.
  int num_spines() const { return static_cast<int>(spines_.size()); }
  int pod_of_leaf(int leaf) const {
    return leaf / (cfg_.num_leaves / cfg_.num_pods);
  }

  /// The leaf a host attaches to.
  LeafId leaf_of(HostId h) const { return directory_[static_cast<std::size_t>(h)]; }
  const std::vector<LeafId>& directory() const { return directory_; }

  /// The spine -> leaf link for (spine, leaf, parallel); nullptr if failed.
  Link* down_link(int spine, int leaf, int parallel);
  /// The leaf -> spine link for (leaf, spine, parallel); nullptr if it was
  /// removed at build time. The fault injector drives per-link hooks
  /// (rate scale, gray failure, CE suppression) through this.
  Link* up_link(int leaf, int spine, int parallel);
  /// Pod fabrics only: the spine -> core link for (pod, spine within the
  /// pod, core) and its reverse; nullptr if failed at build time.
  Link* spine_to_core(int pod, int spine, int core);
  Link* core_to_spine(int core, int pod, int spine);
  /// The host's access links.
  Link* host_to_leaf(HostId h) { return host_up_[static_cast<std::size_t>(h)]; }
  Link* leaf_to_host(HostId h) { return host_down_[static_cast<std::size_t>(h)]; }

  /// All fabric (leaf<->spine and spine<->core) links that exist, for
  /// fleet-wide stats (Fig 16 reports queue lengths at every fabric port).
  const std::vector<Link*>& fabric_links() const { return fabric_links_; }

  /// Fails a live leaf<->spine link pair at runtime (packets blackhole
  /// immediately); after `detection_delay` the routing layer notices and
  /// withdraws the link from the leaf's and spine's forwarding state.
  /// Models the failure-detection window real fabrics have.
  ///
  /// Re-entrancy: fail/restore calls may overlap an earlier call's detection
  /// window (a flapping link). Each call bumps the triple's epoch and only
  /// the most recent call's detection handler applies — superseded handlers
  /// no-op, and a handler whose target state is already in place (e.g.
  /// fail→fail) does nothing, so forwarding state is never double-flipped.
  void fail_fabric_link(int leaf, int spine, int parallel,
                        sim::TimeNs detection_delay = 0);

  /// Restores a previously failed link pair (forwarding state is reinstated
  /// after `detection_delay`). Same last-call-wins epoch semantics as
  /// fail_fabric_link().
  void restore_fabric_link(int leaf, int spine, int parallel,
                           sim::TimeNs detection_delay = 0);

  /// One-way host-to-host latency across the spine for a single packet of
  /// `bytes` on an idle fabric (store-and-forward serialization at each of
  /// the 4 hops plus propagation). In a pod fabric this is the intra-pod
  /// figure; inter-pod paths add two core hops.
  sim::TimeNs one_way_latency(std::uint32_t bytes) const;

  /// Base round-trip time host-to-host across the spine with empty queues
  /// (serialization of a `bytes` packet at each hop + propagation, plus the
  /// return of a `kAckBytes` ACK). Used for optimal-FCT normalization.
  sim::TimeNs base_rtt(std::uint32_t bytes) const;

 private:
  void build();
  /// Recomputes every leaf's per-destination reachability from the spines'
  /// current downlink state (runtime failures change it) and, for leaves in
  /// other pods, from the static core wiring.
  void recompute_reachability();
  /// True if `spine` has a core uplink into some core that has at least one
  /// link down into `pod`.
  bool core_path(int spine, int pod) const;
  /// Flat index into core_up_/core_down_ for (global spine, core).
  std::size_t core_index(int spine, int core) const {
    return static_cast<std::size_t>(spine) *
               static_cast<std::size_t>(cfg_.num_cores) +
           static_cast<std::size_t>(core);
  }
  int uplink_index(int leaf, Link* link) const;
  /// Flat index into down_live_ for (spine, leaf, parallel).
  std::size_t live_index(int spine, int leaf, int parallel) const {
    return (static_cast<std::size_t>(spine) *
                static_cast<std::size_t>(cfg_.num_leaves) +
            static_cast<std::size_t>(leaf)) *
               static_cast<std::size_t>(cfg_.links_per_spine) +
           static_cast<std::size_t>(parallel);
  }
  /// Registers the standard probe set with the attached sink.
  void register_probes();

  sim::Scheduler& sched_;
  TopologyConfig cfg_;
  sim::Rng rng_;
  std::vector<LeafId> directory_;
  // Per-switch shared buffer pools (empty when static buffering is used).
  std::vector<std::unique_ptr<SharedBufferPool>> leaf_pools_;
  std::vector<std::unique_ptr<SharedBufferPool>> spine_pools_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<LeafSwitch>> leaves_;
  std::vector<std::unique_ptr<SpineSwitch>> spines_;
  std::vector<std::unique_ptr<CoreSwitch>> cores_;  // empty unless pods > 1
  std::vector<std::unique_ptr<Link>> links_;  // owns every link
  std::vector<Link*> host_up_;
  std::vector<Link*> host_down_;
  std::vector<Link*> fabric_links_;
  // [spine][leaf][parallel] -> link or nullptr
  std::vector<std::vector<std::vector<Link*>>> down_links_;
  // [leaf][spine][parallel] -> link or nullptr
  std::vector<std::vector<std::vector<Link*>>> up_links_;
  // Spine -> core and core -> spine links by core_index(); nullptr if failed.
  std::vector<Link*> core_up_;
  std::vector<Link*> core_down_;
  // Control-plane liveness of spine->leaf downlinks, flat-indexed by
  // live_index(): 1 iff the link exists and is not runtime-failed
  // (post-detection). Flipped by the fail/restore detection handlers, so
  // recompute_reachability() reads a flag instead of scanning a list of
  // failed triples for every (spine, leaf, parallel) combination.
  std::vector<std::uint8_t> down_live_;
  // Per-triple epoch counter, bumped by every fail/restore call. Detection
  // handlers capture the epoch of their call and no-op if a later call
  // superseded them, so overlapping fail/restore sequences (link flaps
  // faster than the detection window) resolve to the last call's state.
  std::vector<std::uint64_t> fault_epoch_;
  telemetry::TraceSink* tele_ = nullptr;
};

}  // namespace conga::net
