// Determinism trial runner (correctness tooling).
//
// Runs one experiment cell with a digest-instrumented scheduler and returns
// two fingerprints of the run:
//  * an order-insensitive digest of the per-flow FCT records (did the run
//    produce the same *results*?), and
//  * an order-sensitive digest of the dispatch stream (did it produce them
//    via the same *schedule*?).
// Running the same scenario twice with the same seeds must yield identical
// digests of both kinds; a trace mismatch with matching FCTs pinpoints a
// hidden ordering dependence (wall clock, pointer order, unordered-container
// iteration) before it grows into a results divergence.
//
// Shared by tools/determinism_audit (the CI gate) and the determinism
// regression test.
#pragma once

#include <cstdint>

#include "workload/experiment.hpp"

namespace conga::debug {

/// How much telemetry an audited run attaches. The trial's FCT/trace digests
/// must be identical across all three (the sink is passive); the telemetry
/// digest itself is only comparable between runs using the same mode.
enum class TelemetryMode {
  kOff,     ///< no sink attached (what perf timing uses)
  kMasked,  ///< sink attached, every category masked off
  kFull,    ///< sink attached, all categories enabled
};

struct RunDigests {
  std::uint64_t fct = 0;     ///< order-insensitive FCT-record digest
  std::uint64_t trace = 0;   ///< order-sensitive event-trace digest
  std::uint64_t events = 0;  ///< events dispatched (quick divergence hint)
  std::uint64_t flows = 0;   ///< measured flows recorded
  /// Telemetry stream digest (0 in kOff mode): fingerprints every recorded
  /// event, so an instrumentation-order divergence is caught even when the
  /// packet schedule digests still agree.
  std::uint64_t telemetry = 0;
  bool drained = false;      ///< all measured flows completed

  friend bool operator==(const RunDigests&, const RunDigests&) = default;
};

/// Builds the cell `cfg` as a workload::Experiment, attaches the trace hook
/// and (per `telemetry`) a sink, runs it to completion, and digests it.
RunDigests run_digest_trial(const workload::ExperimentConfig& cfg,
                            TelemetryMode telemetry = TelemetryMode::kFull);

}  // namespace conga::debug
