// campaign_cold and campaign_warm: one campaign pass repeated — store open,
// campaign::run_campaign (which fingerprints and expands the grid itself) and
// campaign::report_json. Set-up (fingerprint + expansion + store open) is
// timed on its own, between passes.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/store.hpp"
#include "campaign/supervisor.hpp"
#include "clock.hpp"
#include "fingerprint.hpp"
#include "gauge.hpp"
#include "lanes.hpp"
#include "trace.hpp"
#include "workload/experiment.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace conga;
namespace fs = std::filesystem;

namespace {

/// The grid: {ecmp, conga, letflow} x {70, 40}% x 2 seeds on the baseline
/// testbed with short windows, the campaign defaults otherwise. Flows are a
/// fixed 100 KB: with the heavy-tailed enterprise CDF one cell's drain
/// decided the pass (grid work 10.0-13.1 CPU-s across seeds, wall spread 32%
/// over ten seeds), while fixed-size flows make each cell's work a count of
/// 800-1,400 flows. So the seed can vary both fabric and traffic seeds.
campaign::CampaignSpec grid_spec(std::uint64_t seed) {
  campaign::CampaignSpec c;
  c.name = "perfbench-grid";
  c.dist = "fixed:100000";
  c.policies = {"ecmp", "conga", "letflow"};
  // 70 before 40: the canonical expansion follows the axes' order, and the
  // runner hands cells out in that order, so the heavier cells start first
  // and the pass does not end waiting on one late 70% cell.
  c.loads_pct = {70, 40};
  c.seeds = {{2 * seed, 2 * seed}, {2 * seed + 1, 2 * seed + 1}};
  c.warmup_ns = sim::milliseconds(2);
  c.measure_ns = sim::milliseconds(5);
  return c;
}

struct Pass {
  bool ok = false;
  std::string err;
  double report_wall = 0;  ///< report_json
  double wall = 0, cpu = 0;  ///< the whole pass
  std::string report;
  campaign::CampaignRun run;
  std::size_t failed_cells = 0;
};

/// One campaign pass against the store at `root`. `tracer` non-null records
/// campaign -> {store_open, run, report} spans.
Pass campaign_pass(const campaign::CampaignSpec& spec, const std::string& root,
                   int jobs, Tracer* tracer) {
  Pass p;
  ScopedSpan pass_span(tracer, "campaign");
  const double w0 = wall_now();
  const double c0 = process_cpu_now();
  std::unique_ptr<campaign::ResultStore> store;
  {
    ScopedSpan s(tracer, "store_open");
    store = std::make_unique<campaign::ResultStore>(root);
  }
  {
    // run_campaign fingerprints and expands the grid, looks every cell up,
    // runs the misses on its worker threads and stores them.
    ScopedSpan s(tracer, "run");
    campaign::RunOptions ro;
    ro.jobs = jobs;
    ro.store = store.get();
    p.ok = campaign::run_campaign(spec, ro, p.run, p.err);
  }
  {
    ScopedSpan s(tracer, "report");
    const double t = wall_now();
    if (p.ok) p.report = campaign::report_json(p.run);
    p.report_wall = wall_now() - t;
  }
  p.cpu = process_cpu_now() - c0;
  p.wall = wall_now() - w0;
  for (const campaign::CellOrigin o : p.run.origins) {
    if (o == campaign::CellOrigin::kFailed) ++p.failed_cells;
  }
  return p;
}

/// Host time of one set-up: fingerprint + expansion (`expand_*`), then
/// store open (`wall` covers both).
struct Setup {
  double wall = 0, expand_wall = 0, expand_cpu = 0;
  bool ok = false;  ///< the expansion is not empty
};

Setup setup_only(const campaign::CampaignSpec& spec, const std::string& root) {
  Setup s;
  const double w0 = wall_now();
  const double c0 = process_cpu_now();
  const std::vector<campaign::Cell> cells =
      campaign::expand_campaign(spec, campaign::code_fingerprint());
  s.expand_cpu = process_cpu_now() - c0;
  s.expand_wall = wall_now() - w0;
  const campaign::ResultStore store(root);
  s.wall = wall_now() - w0;
  s.ok = !cells.empty();
  return s;
}

/// What is wrong with a pass, "" when nothing: it failed, a cell failed, the
/// hit/miss split is not `expect_hits`' (all hits or all misses), or its
/// report differs from `reference` (when given).
std::string pass_problem(const Pass& p, bool expect_hits,
                         const std::string& reference) {
  if (!p.ok) return "run_campaign failed: " + p.err;
  if (p.failed_cells != 0) return "kFailed cells";
  const std::size_t n = p.run.cells.size();
  if (expect_hits && (p.run.stats.hits != n || p.run.stats.misses != 0)) {
    return "warm pass had misses";
  }
  if (!expect_hits && p.run.stats.misses != n) return "cold pass had hits";
  if (!reference.empty() && p.report != reference) {
    return "report differs from the reference report";
  }
  return "";
}

/// Fills the warm store in a child process, so the warm process's peak RSS
/// and CPU are its own. Returns the cold report ("" on failure).
std::string prefill(const campaign::CampaignSpec& spec, const std::string& root,
                    const std::string& report_path) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    const Pass p = campaign_pass(spec, root, campaign_jobs(), nullptr);
    int rc = 1;
    if (pass_problem(p, false, "").empty()) {
      std::ofstream out(report_path, std::ios::binary);
      out << p.report;
      rc = out.good() ? 0 : 1;
    }
    _exit(rc);
  }
  if (pid < 0) return "";
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return "";
  }
  std::ifstream in(report_path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Median host time of one store call: wall microseconds and CPU seconds.
struct PerCall {
  double us = 0, cpu_s = 0;
};

/// Times ResultStore::load of every cell on a filled store, `rounds` times.
PerCall lookup_cost(const Pass& filled, const std::string& root, int rounds) {
  const campaign::ResultStore store(root);
  std::vector<double> us, cpu;
  for (int r = 0; r < rounds; ++r) {
    for (const campaign::Cell& cell : filled.run.cells) {
      workload::ExperimentResult out;
      std::string err;
      const double w = wall_now();
      const double c = process_cpu_now();
      store.load(cell.key, out, err);
      cpu.push_back(process_cpu_now() - c);
      us.push_back((wall_now() - w) * 1e6);
    }
  }
  return {median(us), median(cpu)};
}

/// Times ResultStore::put of every cell's result into a fresh store,
/// `rounds` times.
PerCall put_cost(const Pass& filled, const std::string& root, int rounds) {
  std::vector<double> us, cpu;
  for (int r = 0; r < rounds; ++r) {
    fs::remove_all(root);
    campaign::ResultStore store(root);
    for (std::size_t i = 0; i < filled.run.cells.size(); ++i) {
      const campaign::Cell& cell = filled.run.cells[i];
      const std::string canonical = campaign::canonical_json(cell.spec);
      std::string err;
      const double w = wall_now();
      const double c = process_cpu_now();
      store.put(cell.key, filled.run.fingerprint, canonical,
                filled.run.results[i], err);
      cpu.push_back(process_cpu_now() - c);
      us.push_back((wall_now() - w) * 1e6);
    }
  }
  fs::remove_all(root);
  return {median(us), median(cpu)};
}

/// Passes repeated for the run's seconds, each checked against `reference`
/// (the first pass's report when empty) and followed by set-up and gauge
/// samples. Cold passes use a fresh store each; warm passes share
/// `warm_root`.
void measure_passes(const Options& opts, const campaign::CampaignSpec& spec,
                    const std::string& work, bool warm,
                    const std::string& warm_root, std::string reference,
                    LaneSamples& s) {
  const int jobs = campaign_jobs();
  const std::string setup_root = warm ? warm_root : work + "/setup";
  auto setup_once = [&] {
    const Setup st = setup_only(spec, setup_root);
    if (!st.ok) s.unit(false, "empty expansion");
    return st.wall;
  };
  HostGauge gauge(work + "/gauge-" +
                  std::to_string(static_cast<long>(getpid())));
  const double t0 = wall_now();
  double last = 0;
  for (int rep = 0; rep < 3 || wall_now() - t0 + last <= opts.seconds; ++rep) {
    const std::string root =
        warm ? warm_root : work + "/cold-" + std::to_string(rep);
    const Pass p = campaign_pass(spec, root, jobs, nullptr);
    last = p.wall;
    if (!warm) fs::remove_all(root);
    s.wall.push_back(p.wall);
    s.cpu.push_back(p.cpu);
    s.sample_setup(p.wall, setup_once);
    // A cold pass keeps `jobs` vCPUs busy, a warm one (in a lane) one.
    gauge.tick(s.gauge, warm ? 1 : jobs);
    // Every pass must produce the reference report byte for byte.
    if (reference.empty() && p.ok) reference = p.report;
    const std::string why = pass_problem(p, warm, reference);
    s.unit(why.empty(), "pass " + std::to_string(rep) + ": " + why);
    if (wall_now() - t0 > 120) break;
  }
  s.peak_rss_mb = peak_rss_mb();
}

void untraced_run(const Options& opts, const campaign::CampaignSpec& spec,
                  const std::string& work, Report& report) {
  report.note("campaign worker threads: " + std::to_string(campaign_jobs()));
  if (opts.workload == "campaign_cold") {
    // Already parallel inside (the runner's worker threads): one process.
    LaneSamples s;
    measure_passes(opts, spec, work, false, "", "", s);
    report_lanes({s}, report);
    return;
  }
  // Warm passes are single-threaded: parallel lanes over one shared,
  // prefilled store.
  const std::string warm_root = work + "/warm-store";
  const std::string reference =
      prefill(spec, warm_root, work + "/cold-report.json");
  report.check(!reference.empty(), "warm store prefill failed");
  report_lanes(run_lanes(campaign_jobs(), work,
                         [&](LaneSamples& s) {
                           measure_passes(opts, spec, work, true, warm_root,
                                          reference, s);
                         }),
               report);
}

void traced_run(const Options& opts, const campaign::CampaignSpec& spec,
                const std::string& work, Report& report) {
  const bool warm = opts.workload == "campaign_warm";
  const int jobs = campaign_jobs();
  const std::string warm_root = work + "/warm-store";
  std::string reference;
  if (warm) {
    reference = prefill(spec, warm_root, work + "/cold-report.json");
    report.check(!reference.empty(), "warm store prefill failed");
  }

  // Interleaved untraced (U) and traced (T) passes, alternating order, and
  // one set-up between rounds for the expansion's own cost.
  Tracer tracer;
  std::vector<double> u_wall, u_cpu, t_cpu, report_s, expand_s, expand_cpu;
  Pass last;
  const double t0 = wall_now();
  for (int round = 0; round < 2 || wall_now() - t0 < opts.seconds; ++round) {
    for (int k = 0; k < 2; ++k) {
      const bool traced = (round % 2 == 0) == (k == 1);
      const std::string root =
          warm ? warm_root
               : work + "/cold-" + std::to_string(round) + "-" +
                     std::to_string(k);
      Pass p = campaign_pass(spec, root, jobs, traced ? &tracer : nullptr);
      if (!warm && reference.empty() && p.ok) reference = p.report;
      const std::string why = pass_problem(p, warm, reference);
      report.unit(why.empty(), std::string(traced ? "traced" : "untraced") +
                                   " pass: " + why);
      if (traced) {
        t_cpu.push_back(p.cpu);
        report_s.push_back(p.report_wall);
      } else {
        u_wall.push_back(p.wall);
        u_cpu.push_back(p.cpu);
      }
      if (!warm) {
        // Keep the last cold store for the lookup timings below.
        fs::remove_all(work + "/last-cold");
        fs::rename(root, work + "/last-cold");
      }
      last = std::move(p);
    }
    const Setup st = setup_only(spec, warm ? warm_root : work + "/setup");
    report.check(st.ok, "empty expansion");
    expand_s.push_back(st.expand_wall);
    expand_cpu.push_back(st.expand_cpu);
    if (wall_now() - t0 > 90) break;  // never near the 180 s limit
  }
  const std::string filled_root = warm ? warm_root : work + "/last-cold";
  const std::size_t n = last.run.cells.size();

  // Store costs per cell: verified lookups on a filled store, and writes.
  const PerCall lookup = lookup_cost(last, filled_root, 20);
  const PerCall put = put_cost(last, work + "/put-store", 5);

  // Each cell alone, single-threaded: the runner's reference (cold only).
  double alone_sum = 0, alone_max = 0;
  if (!warm) {
    for (const campaign::Cell& cell : last.run.cells) {
      workload::ExperimentConfig cfg;
      std::string err;
      const bool ok = campaign::to_experiment_config(cell.spec, cfg, err);
      report.check(ok, "to_experiment_config: " + err);
      const double c = process_cpu_now();
      if (ok) workload::run_fct_experiment(cfg);
      const double dt = process_cpu_now() - c;
      alone_sum += dt;
      alone_max = std::max(alone_max, dt);
    }
  }

  // The same grid under the supervised runner, conga_serve as the child.
  double supervised_wall = 0;
  if (!opts.serve_exe.empty()) {
    const std::string root = warm ? warm_root : work + "/supervised";
    campaign::ResultStore store(root);
    campaign::RunOptions ro;
    ro.jobs = jobs;
    ro.store = &store;
    campaign::SupervisorOptions so;
    so.exe = opts.serve_exe;
    so.store_root = root;
    so.jobs = jobs;
    campaign::CampaignRun run;
    campaign::SuperviseOutcome outcome{};
    std::string err;
    const double t = wall_now();
    const bool ok = campaign::run_campaign_supervised(
        spec, ro, so, nullptr, nullptr, run, outcome, err);
    supervised_wall = wall_now() - t;
    report.unit(ok && outcome == campaign::SuperviseOutcome::kComplete &&
                    run.failed.empty() &&
                    campaign::report_json(run) == reference,
                "supervised pass: " + err);
    if (!warm) fs::remove_all(root);
  } else {
    report.check(false, "no conga_serve path (--serve) for the supervised pass");
  }

  // Self CPU of the traced passes by layer. Store open and report assembly
  // are the campaign layer. run_campaign's span holds its fingerprint and
  // expansion, the store lookups, the misses' simulations on the runner's
  // worker threads (process CPU counts every thread) and their store
  // writes. A warm pass has no misses, so all of it is the campaign layer.
  // On a cold pass the expansion and the writes, at their separately
  // measured CPU per call, go to the campaign layer and the rest (the
  // parallel runner and the cells' simulations) to the runtime layer.
  double total = 0;
  for (const Span& s : tracer.spans()) {
    if (s.name == "campaign") total += s.cpu();
  }
  const double passes = static_cast<double>(t_cpu.size());
  const double run_s = tracer.self_cpu_named("run");
  const double run_campaign_s =
      warm ? run_s
           : std::min(run_s, passes * (median(expand_cpu) +
                                       static_cast<double>(n) * put.cpu_s));
  const double campaign_s = tracer.self_cpu_named("store_open") +
                            tracer.self_cpu_named("report") + run_campaign_s;
  const double runtime_s = run_s - run_campaign_s;
  char buf[300];
  std::snprintf(buf, sizeof buf,
                "self CPU over %zu traced passes (%.4f s): runtime %.4f, "
                "campaign %.4f, unattributed %.4f",
                t_cpu.size(), total, runtime_s, campaign_s,
                total - runtime_s - campaign_s);
  report.note(buf);
  report.note("untraced pass wall_s " + describe(u_wall) + "; cpu_s " +
              describe(u_cpu));

  const double u_wall_med = median(u_wall);
  if (!warm) {
    std::snprintf(buf, sizeof buf,
                  "cells alone: sum %.4f s CPU, longest %.4f s; cold pass "
                  "%.4f s wall, %.4f s CPU; supervised %.4f s wall",
                  alone_sum, alone_max, u_wall_med, median(u_cpu),
                  supervised_wall);
    report.note(buf);
    report.metric("runtime.speedup", alone_sum / u_wall_med, "ratio");
    report.metric("runtime.cpu_inflation", median(u_cpu) / alone_sum, "ratio");
    report.metric("runtime.makespan_bound", alone_max / u_wall_med, "ratio");
  }
  report.metric("campaign.expand_s", median(expand_s), "s", expand_s.size());
  report.metric("campaign.lookup_us_per_cell", lookup.us, "us");
  report.metric("campaign.put_us_per_cell", put.us, "us");
  report.metric("campaign.report_s", median(report_s), "s", report_s.size());
  report.metric("campaign.hit_ratio",
                n == 0 ? 0.0
                       : static_cast<double>(last.run.stats.hits) /
                             static_cast<double>(n),
                "ratio");
  report.metric("campaign.supervised_wall_s", supervised_wall, "s");
  add_self_fracs(report, total,
                 {{"runtime", runtime_s}, {"campaign", campaign_s}});
  report.metric("trace.overhead_frac", median(t_cpu) / median(u_cpu) - 1.0,
                "ratio", t_cpu.size());
  write_spans(opts, tracer, report);
  fs::remove_all(work + "/last-cold");
}

}  // namespace

bool is_campaign_workload(const std::string& name) {
  return name == "campaign_cold" || name == "campaign_warm";
}

void run_campaign_workload(const Options& opts, Report& report) {
  const campaign::CampaignSpec spec = grid_spec(opts.seed);
  const std::string work = opts.work_dir + "/" + opts.workload + "-" +
                           std::to_string(static_cast<long>(getpid()));
  fs::remove_all(work);
  fs::create_directories(work);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "grid: {ecmp, conga, letflow} x {70, 40}%% x seeds "
                "{%llu, %llu}, 100 KB flows, window 2+5 ms, %s store",
                static_cast<unsigned long long>(spec.seeds[0].fabric),
                static_cast<unsigned long long>(spec.seeds[1].fabric),
                opts.workload == "campaign_warm" ? "prefilled" : "empty");
  report.note(buf);
  if (opts.trace) {
    traced_run(opts, spec, work, report);
  } else {
    untraced_run(opts, spec, work, report);
  }
  fs::remove_all(work);
}

}  // namespace perfbench
