// What one benchmark run reports: named metrics with units and sample
// counts, the output checks behind `correct` / `attempted` / `failed`, and
// the human-readable lines printed before the final JSON line.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `v` (0 for an empty vector).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile q in [0, 1] of `v`.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// "n=.. median=.. q1=.. q3=.. pNN=.." for `samples`.
std::string describe(const std::vector<double>& samples);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 for exact counts
};

class Report {
 public:
  /// Records a metric for the final JSON line (and the human table).
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0) {
    metrics_.push_back({name, value, unit, samples});
  }

  /// A timing summary: the median goes to the JSON line under `name`; the
  /// human line adds the sample count, quartiles, and the highest percentile
  /// that still has at least ten samples beyond it.
  void timing(const std::string& name, const std::vector<double>& samples,
              const std::string& unit);

  /// One timed unit (or other checked unit) was attempted; `ok` false counts
  /// it as failed and records `what`.
  void unit(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      problem(what);
    }
  }

  /// `attempted` units measured elsewhere (a lane), `failed` of which
  /// failed for the reasons in `problems`.
  void add_units(std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<std::string>& problems) {
    attempted_ += attempted;
    failed_ += failed;
    for (const std::string& p : problems) problem(p);
  }

  /// A whole-run output check (not a timed unit). Failing makes the run
  /// incorrect without changing attempted/failed.
  void check(bool ok, const std::string& what) {
    if (!ok) problem(what);
  }

  /// Free-form line printed in the human-readable part.
  void note(const std::string& line) { notes_.push_back(line); }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return problems_.empty(); }

  /// Prints notes, the metric table and problems, then the final JSON line.
  void print() const;

 private:
  void problem(const std::string& what) {
    if (problems_.size() < 20) problems_.push_back(what);
  }

  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Records self.<layer>_frac for every layer in `parts` (layer name, self
/// CPU seconds), plus self.unattributed_frac for
/// what `total` leaves over; the fractions sum to 1.
void add_self_fracs(Report& report, double total,
                    const std::vector<std::pair<std::string, double>>& parts);

}  // namespace perfbench
