// Parallel measurement lanes for the single-threaded workloads.
//
// The host's speed drifts by about 15% over tens of seconds, and
// independently per vCPU, so one process's median depends on which vCPU it
// ran on and when. An untraced run therefore measures in `lanes` forked
// child processes at once (one per vCPU, min(nproc, 4)), each repeating the
// workload's timed unit for the whole run, and reports medians over every
// lane's samples. Each lane is one independent single-threaded simulation
// process, so the unit measured is still one cell (or pass); the lanes only
// add samples from every vCPU within the same time window.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// What one lane measured.
struct LaneSamples {
  std::vector<double> wall, cpu, setup;  ///< host seconds per unit / set-up
  std::vector<double> gauge;  ///< HostGauge kernel CPU seconds
  double peak_rss_mb = 0;                ///< the lane process's own peak
  std::uint64_t attempted = 0;           ///< timed units attempted
  std::uint64_t failed = 0;              ///< units that failed a check
  std::vector<std::string> problems;     ///< what failed (first few)
  std::string identity;  ///< values every lane must agree on ("" = none)

  void unit(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (problems.size() < 5) problems.push_back(what);
    }
  }

  /// Set-up samples taken after a unit of `unit_wall` seconds: `once()`
  /// repeated for about 1% of that time, 1 to 50 times, so that set-up is
  /// sampled across the whole run. Each sample starts on a trimmed heap
  /// (malloc_trim), as in a fresh process: on whatever heap the last call
  /// left, one process's set-up times switch between two modes 3x apart
  /// (0.24 and 0.75 ms on the data-mining cell), and the median with them.
  void sample_setup(double unit_wall, const std::function<double()>& once);
};

/// Forks `lanes` child processes that each run `body` at the same time, and
/// returns what each one measured. A lane that crashes or cannot report
/// comes back with one failed unit. Call before the process starts threads.
std::vector<LaneSamples> run_lanes(
    int lanes, const std::string& work_dir,
    const std::function<void(LaneSamples&)>& body);

class Report;

/// Folds the lanes into `report`: their units and problems, a check that
/// every lane reports the same identity, and the end-to-end metrics —
/// wall_s, cpu_s and setup_s as medians over every lane's samples, scaled
/// to the gauge's nominal host speed (see gauge.hpp), and peak_rss_mb as
/// the median of the lanes' own peaks.
void report_lanes(const std::vector<LaneSamples>& lanes, Report& report);

}  // namespace perfbench
