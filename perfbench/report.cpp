#include "report.hpp"

#include <cmath>

namespace perfbench {

std::string describe(const std::vector<double>& samples) {
  char buf[256];
  const std::size_t n = samples.size();
  const int written = std::snprintf(
      buf, sizeof buf, "n=%zu median=%.6g q1=%.6g q3=%.6g", n,
      median(samples), quantile(samples, 0.25), quantile(samples, 0.75));
  std::string out(buf, static_cast<std::size_t>(std::max(written, 0)));
  // The highest whole percentile with at least ten samples beyond it.
  if (n >= 11) {
    const double p = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n)));
    if (p >= 50) {
      std::snprintf(buf, sizeof buf, " p%.0f=%.6g", p,
                    quantile(samples, p / 100.0));
      out += buf;
    }
  } else {
    out += " (too few samples for a tail percentile)";
  }
  return out;
}

void Report::timing(const std::string& name,
                    const std::vector<double>& samples,
                    const std::string& unit) {
  metric(name, median(samples), unit, samples.size());
  note(name + " [" + unit + "]: " + describe(samples));
}

void add_self_fracs(Report& report, double total,
                    const std::vector<std::pair<std::string, double>>& parts) {
  double rest = total;
  for (const auto& [layer, seconds] : parts) {
    report.metric("self." + layer + "_frac", seconds / total, "ratio");
    rest -= seconds;
  }
  report.metric("self.unattributed_frac", rest / total, "ratio");
}

void Report::print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const Metric& m : metrics_) {
    if (m.samples > 0) {
      std::printf("metric %-28s %16.6f %-8s (median of %zu)\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    } else {
      std::printf("metric %-28s %16.6f %-8s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& p : problems_) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // %.17g keeps every digit of the measured value.
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
