#include "gauge.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <queue>
#include <thread>

#include "clock.hpp"

namespace perfbench {

HostGauge::HostGauge(std::string scratch_path)
    : path_(std::move(scratch_path)) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (f != nullptr) {
    const std::string blob(8192, 'x');
    std::fwrite(blob.data(), 1, blob.size(), f);
    std::fclose(f);
  }
}

HostGauge::~HostGauge() {
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

void HostGauge::tick(std::vector<double>& out, int threads) {
  const double now = wall_now();
  if (now < next_) return;
  constexpr int kRuns = 4;
  std::vector<double> runs(static_cast<std::size_t>(threads * kRuns));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([this, &runs, t] {
      for (int k = 0; k < kRuns; ++k) {
        runs[static_cast<std::size_t>(t * kRuns + k)] = kernel();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  out.insert(out.end(), runs.begin(), runs.end());
  next_ = wall_now() + 0.1;
}

double HostGauge::kernel() const {
  const double c0 = thread_cpu_now();
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  for (int i = 0; i < 4096; ++i) heap.push(next() >> 20);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t t = heap.top();
    heap.pop();
    heap.push(t + (next() & 0xffff));
  }

  char buf[8192];
  std::uint64_t bytes = 0;
  for (int i = 0; i < 50; ++i) {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    if (f == nullptr) continue;
    bytes += std::fread(buf, 1, sizeof buf, f);
    std::fclose(f);
  }

  std::vector<std::unique_ptr<std::string>> live(64);
  for (int i = 0; i < 3000; ++i) {
    live[static_cast<std::size_t>(i) % live.size()] =
        std::make_unique<std::string>(16 + (i * 37) % 2000, 'y');
  }
  const double dt = thread_cpu_now() - c0;
  // Keep the work observable so the compiler cannot drop it.
  if (heap.top() + bytes + live[0]->size() == 0) std::abort();
  return dt;
}

}  // namespace perfbench
