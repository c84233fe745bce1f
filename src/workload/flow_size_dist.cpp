#include "workload/flow_size_dist.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace conga::workload {

namespace {

/// Mean of the size over one log-linear CDF segment, times its probability
/// mass: integral of s0*(s1/s0)^x over x in [0,1], scaled by (c1-c0).
double segment_mean(double s0, double s1, double dc) {
  if (dc <= 0) return 0;
  if (s1 <= s0) return dc * s0;
  return dc * (s1 - s0) / std::log(s1 / s0);
}

double segment_mean_sq(double s0, double s1, double dc) {
  if (dc <= 0) return 0;
  if (s1 <= s0) return dc * s0 * s0;
  return dc * (s1 * s1 - s0 * s0) / (2.0 * std::log(s1 / s0));
}

}  // namespace

FlowSizeDist::FlowSizeDist(std::string name, std::vector<CdfPoint> points)
    : name_(std::move(name)), points_(std::move(points)) {
  assert(points_.size() >= 1);
  assert(points_.back().cdf == 1.0);
  double mean = segment_mean(points_[0].size_bytes, points_[0].size_bytes,
                             points_[0].cdf);
  double mean_sq = segment_mean_sq(points_[0].size_bytes,
                                   points_[0].size_bytes, points_[0].cdf);
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const auto& a = points_[i - 1];
    const auto& b = points_[i];
    assert(b.size_bytes >= a.size_bytes && b.cdf >= a.cdf);
    mean += segment_mean(a.size_bytes, b.size_bytes, b.cdf - a.cdf);
    mean_sq += segment_mean_sq(a.size_bytes, b.size_bytes, b.cdf - a.cdf);
  }
  mean_ = mean;
  stddev_ = std::sqrt(std::max(0.0, mean_sq - mean * mean));
}

double FlowSizeDist::quantile(double u) const {
  u = std::clamp(u, 0.0, 1.0);
  if (u <= points_.front().cdf) return points_.front().size_bytes;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const auto& a = points_[i - 1];
    const auto& b = points_[i];
    if (u <= b.cdf) {
      if (b.cdf == a.cdf || b.size_bytes <= a.size_bytes) return b.size_bytes;
      const double frac = (u - a.cdf) / (b.cdf - a.cdf);
      return a.size_bytes *
             std::pow(b.size_bytes / a.size_bytes, frac);
    }
  }
  return points_.back().size_bytes;
}

std::uint64_t FlowSizeDist::sample(sim::Rng& rng) const {
  const double s = quantile(rng.uniform());
  return static_cast<std::uint64_t>(std::max(1.0, std::round(s)));
}

double FlowSizeDist::cdf(double size_bytes) const {
  if (size_bytes <= points_.front().size_bytes) {
    return size_bytes < points_.front().size_bytes ? 0.0
                                                   : points_.front().cdf;
  }
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const auto& a = points_[i - 1];
    const auto& b = points_[i];
    if (size_bytes <= b.size_bytes) {
      if (b.size_bytes <= a.size_bytes) return b.cdf;
      const double frac =
          std::log(size_bytes / a.size_bytes) /
          std::log(b.size_bytes / a.size_bytes);
      return a.cdf + (b.cdf - a.cdf) * frac;
    }
  }
  return 1.0;
}

double FlowSizeDist::byte_cdf(double size_bytes) const {
  // E[S ; S <= s] / E[S], accumulating closed-form partial segments.
  double acc = 0.0;
  if (size_bytes >= points_.front().size_bytes) {
    acc += points_.front().cdf * points_.front().size_bytes;
  }
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const auto& a = points_[i - 1];
    const auto& b = points_[i];
    if (size_bytes >= b.size_bytes) {
      acc += segment_mean(a.size_bytes, b.size_bytes, b.cdf - a.cdf);
    } else if (size_bytes > a.size_bytes) {
      const double c_at = cdf(size_bytes);
      acc += segment_mean(a.size_bytes, size_bytes, c_at - a.cdf);
      break;
    } else {
      break;
    }
  }
  return acc / mean_;
}

const FlowSizeDist& enterprise() {
  static const FlowSizeDist dist(
      "enterprise",
      {{100, 0.10},   {200, 0.25},   {400, 0.40},  {1e3, 0.55},
       {2e3, 0.62},   {5e3, 0.70},   {2e4, 0.78},  {1e5, 0.85},
       {5e5, 0.90},   {2e6, 0.94},   {1e7, 0.97},  {3.5e7, 0.99},
       {1e8, 1.0}});
  return dist;
}

const FlowSizeDist& data_mining() {
  static const FlowSizeDist dist(
      "data-mining",
      {{100, 0.03},   {180, 0.10},   {250, 0.20},   {560, 0.30},
       {900, 0.40},   {1100, 0.50},  {1870, 0.60},  {3160, 0.70},
       {1e4, 0.80},   {4e5, 0.90},   {3.16e6, 0.95}, {1e8, 0.98},
       {1e9, 1.0}});
  return dist;
}

const FlowSizeDist& web_search() {
  static const FlowSizeDist dist(
      "web-search",
      {{6e3, 0.15},   {1.3e4, 0.20}, {1.9e4, 0.30}, {3.3e4, 0.40},
       {5.3e4, 0.53}, {1.33e5, 0.60}, {6.67e5, 0.70}, {1.333e6, 0.80},
       {3.333e6, 0.90}, {6.667e6, 0.95}, {2e7, 1.0}});
  return dist;
}

FlowSizeDist fixed_size(double bytes) {
  return FlowSizeDist("fixed", {{bytes, 1.0}});
}

std::optional<FlowSizeDist> dist_by_name(const std::string& name) {
  if (name == "enterprise") return enterprise();
  if (name == "datamining" || name == "data-mining") return data_mining();
  if (name == "websearch" || name == "web-search") return web_search();
  if (name.rfind("fixed:", 0) == 0) {
    const double bytes = std::strtod(name.c_str() + 6, nullptr);
    if (bytes >= 1) return fixed_size(bytes);
  }
  return std::nullopt;
}

}  // namespace conga::workload
