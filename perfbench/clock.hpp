// Host clocks for the benchmark. Every time the benchmark reports is host
// time (what the simulator costs to run), never simulated time.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

/// Monotonic wall seconds.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds (user + sys) of the whole process, all threads included.
inline double process_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds (user + sys) of the calling thread.
inline double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident memory of this process image in MB: VmHWM from
/// /proc/self/status. getrusage's ru_maxrss is not used because Linux carries
/// it across execve, so it would report a larger parent's peak (such as the
/// Python launcher's).
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  return 0;
}

/// A cheap tick counter for timing per-packet calls in the traced run. On
/// x86 it is the (invariant) TSC, converted to ns with a rate the caller
/// calibrates against steady_clock over the same interval; elsewhere it is
/// steady_clock nanoseconds and the rate is 1.
inline std::uint64_t ticks_now() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Count + accumulated ticks of one kind of hooked call.
struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t ticks = 0;
  void add(std::uint64_t t) {
    ++calls;
    ticks += t;
  }
};

}  // namespace perfbench
