#include "fingerprint.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>

#include "campaign/fingerprint.hpp"

namespace perfbench {

namespace {

int nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        // Keep the value JSON-safe without an escaper.
        std::replace(v.begin(), v.end(), '"', '\'');
        std::replace(v.begin(), v.end(), '\\', '/');
        return v;
      }
    }
  }
  return "unknown";
}

}  // namespace

int campaign_jobs() { return std::min(nproc(), 4); }

std::string fingerprint_json() {
#ifdef NDEBUG
  const char* ndebug = "true";
#else
  const char* ndebug = "false";
#endif
#ifdef CONGA_TELEMETRY
  const char* telemetry = "true";
#else
  const char* telemetry = "false";
#endif
  return std::string("{\"compiler\": \"") + CONGA_BENCH_CXX_ID + " " +
         CONGA_BENCH_CXX_VERSION + "\", \"build_type\": \"" +
         CONGA_BENCH_BUILD_TYPE + "\", \"ndebug\": " + ndebug +
         ", \"telemetry\": " + telemetry +
         ", \"nproc\": " + std::to_string(nproc()) +
         ", \"campaign_jobs\": " + std::to_string(campaign_jobs()) +
         ", \"source_digest\": \"" + conga::campaign::source_digest() +
         "\", \"cpu\": \"" + cpu_model() + "\"}";
}

}  // namespace perfbench
