// Topology description for Leaf-Spine (Clos) fabrics, optionally grouped
// into pods under a core tier.
//
// Covers every configuration the paper evaluates: the 64-server testbed
// (2 leaves x 32 hosts, 2 spines, 2x40G uplinks each — Fig 7a), its link-
// failure variant (Fig 7b), the large-scale simulations (up to 8 leaves / 12
// spines / 384 hosts, varying oversubscription — §5.5), and the 288-port
// multi-failure fabric of Fig 16 (6 leaves x 4 spines x 3 parallel 40G links).
// With num_pods > 1 it describes §7's "Larger topologies": num_pods 2-tier
// pods whose spines all link to a tier of num_cores core switches.
//
// Asymmetry is expressed with LinkOverride entries: a rate factor of 0 fails
// the leaf<->spine link pair entirely (removed from forwarding tables, the
// usual outcome of link-down detection); other factors rescale its capacity
// (e.g. 0.5 models the degraded link-aggregation group of Fig 2).
// CoreLinkOverride does the same for a spine<->core link pair.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dre.hpp"
#include "sim/time.hpp"

namespace conga::net {

struct LinkOverride {
  int leaf = 0;
  int spine = 0;             ///< global spine id (in the leaf's pod)
  int parallel = 0;          ///< which of the parallel links (0-based)
  double rate_factor = 0.0;  ///< 0 = failed; 0.5 = half capacity; etc.
};

struct CoreLinkOverride {
  int pod = 0;
  int spine = 0;             ///< spine index within the pod
  int core = 0;
  double rate_factor = 0.0;  ///< 0 = failed; other factors rescale
};

struct TopologyConfig {
  int num_leaves = 2;  ///< all leaves, across every pod
  int num_spines = 2;  ///< spines per pod (each leaf links to its pod's)
  int hosts_per_leaf = 32;
  int links_per_spine = 1;  ///< parallel links between each leaf-spine pair

  double host_link_bps = 10e9;
  double fabric_link_bps = 40e9;
  sim::TimeNs host_link_delay = sim::microseconds(1);
  sim::TimeNs fabric_link_delay = sim::microseconds(1);

  /// Switch egress buffer toward a host (where Incast bursts land).
  std::uint64_t edge_queue_bytes = 512 * 1024;
  /// Fabric (leaf<->spine) port buffers.
  std::uint64_t fabric_queue_bytes = 2 * 1024 * 1024;
  /// Host NIC/qdisc queue (host -> leaf). Must exceed the TCP window cap so
  /// a sender never drops its own packets locally (Linux's qdisc + TSQ make
  /// the local path effectively lossless).
  std::uint64_t nic_queue_bytes = 16 * 1024 * 1024;

  core::DreConfig dre;  ///< DRE parameters used on every link

  /// CE path aggregation on fabric links: max (default, the paper) or
  /// clamped sum (§7 ablation).
  bool ce_sum = false;

  /// ECN marking threshold on every switch queue (DCTCP's K); 0 disables.
  /// Used with tcp::TcpConfig::dctcp for the CONGA+DCTCP extension.
  std::uint64_t ecn_threshold_bytes = 0;

  /// Dynamic shared buffering per switch (the testbed ASICs' model): when
  /// > 0, every egress port of a leaf/spine draws from one pool of this many
  /// bytes, admitted while the port stays below
  /// shared_buffer_alpha * (free pool). Port queues keep
  /// edge/fabric_queue_bytes as hard caps (set them large to let the pool
  /// govern). 0 = static per-port buffers only.
  std::uint64_t shared_buffer_bytes = 0;
  double shared_buffer_alpha = 2.0;

  std::vector<LinkOverride> overrides;

  /// Core tier (paper §7): with num_pods > 1 the leaves split evenly into
  /// pods (leaf l sits in pod l / (num_leaves / num_pods)), pod p owns
  /// spines p * num_spines .. (p + 1) * num_spines - 1, and every spine
  /// links to each of num_cores core switches at fabric_link_bps. Spines
  /// send inter-pod traffic to the core by ECMP; CONGA still runs leaf to
  /// leaf. num_cores must be 0 exactly when num_pods == 1.
  int num_pods = 1;
  int num_cores = 0;
  std::vector<CoreLinkOverride> core_overrides;

  int num_hosts() const { return num_leaves * hosts_per_leaf; }
  int uplinks_per_leaf() const { return num_spines * links_per_spine; }

  /// Total leaf->fabric capacity of one leaf with no overrides, in bits/s.
  double leaf_uplink_capacity_bps() const {
    return fabric_link_bps * uplinks_per_leaf();
  }

  /// Validates invariants (counts positive, leaves split evenly into pods,
  /// overrides in range, LBTag fits in 4 bits); returns a description of the
  /// first problem, or empty if OK.
  std::string validate() const;
};

/// The paper's baseline testbed (Fig 7a): 2 leaves x 32 x 10G hosts,
/// 2 spines, 2 x 40G uplinks per leaf-spine pair (2:1 oversubscription).
TopologyConfig testbed_baseline();

/// Fig 7b: the baseline with one of the Leaf1-Spine1 links failed.
TopologyConfig testbed_link_failure();

}  // namespace conga::net
