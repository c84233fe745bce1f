#include "core/congestion_tables.hpp"

#include <cassert>

#include "telemetry/telemetry.hpp"

namespace conga::core {

namespace {
/// Packs (leaf, lbtag) into the event's `a` payload.
std::uint64_t pack_cell(net::LeafId leaf, int lbtag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(leaf)) << 8) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(lbtag) & 0xff);
}
}  // namespace

std::uint8_t aged_value(const MetricCell& cell, sim::TimeNs now,
                        sim::TimeNs age_after) {
  if (cell.updated < 0) return 0;
  const sim::TimeNs age = now - cell.updated;
  if (age <= age_after) return cell.value;
  if (age >= 2 * age_after) return 0;
  // Linear decay to zero over the second age_after period.
  const double frac = static_cast<double>(2 * age_after - age) /
                      static_cast<double>(age_after);
  return static_cast<std::uint8_t>(static_cast<double>(cell.value) * frac);
}

CongestionToLeafTable::CongestionToLeafTable(const CongestionTableConfig& cfg)
    : cfg_(cfg),
      cells_(static_cast<std::size_t>(cfg.num_leaves) * cfg.num_uplinks) {}

void CongestionToLeafTable::update(net::LeafId dst_leaf, int lbtag,
                                   std::uint8_t metric, sim::TimeNs now) {
  assert(dst_leaf >= 0 && dst_leaf < cfg_.num_leaves);
  assert(lbtag >= 0 && lbtag < cfg_.num_uplinks);
  MetricCell& c = cells_[static_cast<std::size_t>(dst_leaf) * cfg_.num_uplinks +
                         lbtag];
  c.value = metric;
  c.updated = now;
  telemetry::emit(tele_, telemetry::EventType::kCongaToLeafUpdate, tele_comp_,
                  now, pack_cell(dst_leaf, lbtag), metric);
}

std::uint8_t CongestionToLeafTable::metric(net::LeafId dst_leaf, int uplink,
                                           sim::TimeNs now) const {
  assert(dst_leaf >= 0 && dst_leaf < cfg_.num_leaves);
  assert(uplink >= 0 && uplink < cfg_.num_uplinks);
  const MetricCell& c =
      cells_[static_cast<std::size_t>(dst_leaf) * cfg_.num_uplinks + uplink];
  return aged_value(c, now, cfg_.age_after);
}

CongestionFromLeafTable::CongestionFromLeafTable(
    const CongestionTableConfig& cfg)
    : cfg_(cfg),
      cells_(static_cast<std::size_t>(cfg.num_leaves) * cfg.num_uplinks),
      rr_next_(static_cast<std::size_t>(cfg.num_leaves), 0),
      any_(static_cast<std::size_t>(cfg.num_leaves), false) {}

void CongestionFromLeafTable::update(net::LeafId src_leaf, int lbtag,
                                     std::uint8_t ce, sim::TimeNs now) {
  assert(src_leaf >= 0 && src_leaf < cfg_.num_leaves);
  assert(lbtag >= 0 && lbtag < cfg_.num_uplinks);
  MetricCell& c = cells_[static_cast<std::size_t>(src_leaf) * cfg_.num_uplinks +
                         lbtag];
  if (c.value != ce || c.updated < 0) c.changed = true;
  c.value = ce;
  c.updated = now;
  any_[static_cast<std::size_t>(src_leaf)] = true;
  telemetry::emit(tele_, telemetry::EventType::kCongaFromLeafUpdate,
                  tele_comp_, now, pack_cell(src_leaf, lbtag), ce);
}

std::uint8_t CongestionFromLeafTable::raw(net::LeafId src_leaf,
                                          int lbtag) const {
  return cells_[static_cast<std::size_t>(src_leaf) * cfg_.num_uplinks + lbtag]
      .value;
}

std::optional<CongestionFromLeafTable::Feedback>
CongestionFromLeafTable::pick_feedback(net::LeafId dst_leaf, sim::TimeNs now) {
  assert(dst_leaf >= 0 && dst_leaf < cfg_.num_leaves);
  const auto leaf = static_cast<std::size_t>(dst_leaf);
  if (!any_[leaf]) return std::nullopt;

  const int n = cfg_.num_uplinks;
  MetricCell* row = &cells_[leaf * static_cast<std::size_t>(n)];
  int& cursor = rr_next_[leaf];

  auto take = [&](int i) -> Feedback {
    MetricCell& c = row[i];
    c.changed = false;
    cursor = i + 1 == n ? 0 : i + 1;
    return Feedback{static_cast<std::uint8_t>(i),
                    aged_value(c, now, cfg_.age_after)};
  };

  // Both passes walk round-robin from the cursor (always in [0, n)),
  // wrapping with a compare rather than a per-step `% n`.
  // First pass: the next *changed* entry.
  if (cfg_.favor_changed) {
    for (int k = 0, i = cursor; k < n; ++k, i = i + 1 == n ? 0 : i + 1) {
      if (row[i].updated >= 0 && row[i].changed) return take(i);
    }
  }
  // Otherwise: the next ever-written entry.
  for (int k = 0, i = cursor; k < n; ++k, i = i + 1 == n ? 0 : i + 1) {
    if (row[i].updated >= 0) return take(i);
  }
  return std::nullopt;
}

}  // namespace conga::core
