// The host's speed at the moment, gauged with a fixed reference kernel.
//
// On a shared VM the host's speed drifts by 20-40% over minutes with its
// other tenants' load, the same way for every workload, and no run of tens of
// seconds averages that out. So each measuring process times a fixed kernel,
// independent of the simulator, between its units (a burst of a few runs
// after a unit, at most one burst per 0.1 s, on as many threads as the
// units keep busy), and the end-to-end times are
// reported scaled to the kernel's nominal speed: median time x
// kNominalGaugeS / median kernel time of the same run. A change to the
// program moves the unit times and not the kernel, so the scaled times still
// show it. The kernel keeps almost nothing resident, so peak_rss_mb is
// unaffected.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// The kernel's CPU seconds the scaled times are referred to: they read as
/// seconds on a host where one kernel run takes this long. The 4-vCPU KVM
/// Xeon (GCC 12.2, Release) the benchmark was defined on measured 0.65-1.25
/// ms as its speed drifted.
inline constexpr double kNominalGaugeS = 0.0012;

class HostGauge {
 public:
  /// `scratch_path` is a file the kernel writes once and reads repeatedly.
  explicit HostGauge(std::string scratch_path);
  ~HostGauge();
  HostGauge(const HostGauge&) = delete;
  HostGauge& operator=(const HostGauge&) = delete;

  /// Call after each unit: unless a burst ran less than 0.1 s ago, runs the
  /// kernel a few times on each of `threads` threads at once and appends
  /// each run's thread CPU seconds to `out`. A unit that keeps several vCPUs
  /// busy is gauged with as many threads: the host slows a fully busy guest
  /// differently from one busy vCPU.
  void tick(std::vector<double>& out, int threads = 1);

 private:
  /// Thread CPU seconds of one kernel run: a binary heap of timestamps,
  /// small file reads and small allocations — the kinds of work the
  /// workloads do.
  double kernel() const;

  std::string path_;
  double next_ = 0;
};

}  // namespace perfbench
