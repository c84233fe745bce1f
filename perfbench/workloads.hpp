// The benchmark's four workloads. Each takes the run options, measures, checks
// the program's outputs and fills a Report.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";  ///< stores, spans, scratch
  std::string serve_exe;  ///< conga_serve, the supervised-campaign child
};

/// enterprise_conga / datamining_asym_conga.
bool is_sim_workload(const std::string& name);
void run_sim_workload(const Options& opts, Report& report);

/// campaign_cold / campaign_warm.
bool is_campaign_workload(const std::string& name);
void run_campaign_workload(const Options& opts, Report& report);

/// Passivity and fidelity test on short cells of both sim workloads: the
/// externally built cell reproduces run_fct_experiment, and the decorated,
/// traced and telemetry-attached cells reproduce the bare one. Returns the
/// number of failures (0 = pass).
int sim_self_test();

/// Writes the tracer's spans to `<work_dir>/<workload>-seed<n>.spans.json`.
class Tracer;
void write_spans(const Options& opts, const Tracer& tracer, Report& report);

}  // namespace perfbench
