#include "debug/determinism.hpp"

#include "stats/digest.hpp"
#include "telemetry/telemetry.hpp"

namespace conga::debug {

RunDigests run_digest_trial(const workload::ExperimentConfig& cfg,
                            TelemetryMode telemetry) {
  // Small rings: the audit only needs the streaming digest (which covers
  // every event, retained or not), so don't hold event history per link.
  telemetry::TraceSinkConfig sink_cfg;
  sink_cfg.ring_capacity = 64;
  telemetry::TraceSink sink(sink_cfg);
  stats::TraceDigest trace;

  workload::Experiment exp(cfg);
  exp.scheduler().set_trace_hook([&trace](sim::TimeNs t, sim::EventId id) {
    trace.add(static_cast<std::uint64_t>(t));
    trace.add(id);
  });
  if (telemetry != TelemetryMode::kOff) {
    if (telemetry == TelemetryMode::kMasked) sink.set_category_mask(0);
    exp.fabric().attach_telemetry(&sink);
  }

  const workload::ExperimentResult res = exp.run();
  RunDigests r;
  r.drained = res.drained;
  r.fct = res.fct_digest;
  r.trace = trace.value();
  r.events = exp.scheduler().events_dispatched();
  r.flows = res.flows;
  if (telemetry != TelemetryMode::kOff) r.telemetry = sink.digest();
  return r;
}

}  // namespace conga::debug
