// perf_baseline — machine-readable performance baseline (BENCH_core.json).
//
// Times the simulator's hot-path primitives, a single-simulation events/sec
// figure, the wall-clock of a small scheme x load grid sequentially vs under
// the parallel experiment runner, telemetry overhead, and the campaign
// cache's cold-vs-warm cell latency, then writes everything as JSON so the
// perf trajectory is visible (and diffable) PR-over-PR. The grid phase
// doubles as a determinism check: per-cell FCT and event-trace digests must
// be identical between --jobs 1 and --jobs N; the campaign phase doubles as
// a cache check: the warm pass must be 100% hits.
//
// BENCH_core.json is a *trajectory* (conga-bench-core-v2): a "runs" array,
// one entry per recorded run. --append parses the existing file and appends
// this run instead of overwriting, so the history of a branch accumulates in
// one reviewable artifact. --label names the run (defaults to "dev").
//
// Flags:
//   --out PATH     output file                   [default BENCH_core.json]
//   --jobs N       parallel grid worker count    [default: CONGA_BENCH_JOBS
//                                                 or hardware concurrency]
//   --append       append to --out instead of replacing it
//   --label NAME   run label recorded in the entry
//   --full         longer measurement windows (for by-hand investigations)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "campaign/campaign.hpp"
#include "campaign/fingerprint.hpp"
#include "debug/determinism.hpp"
#include "json/json.hpp"
#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "runtime/parallel_runner.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/experiment.hpp"

using namespace conga;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct MicroResult {
  std::string name;
  double ns_per_op = 0;
  std::uint64_t iterations = 0;
};

/// Runs `op(batch)` with growing batches until at least `min_time` seconds
/// of work has been timed, then reports ns/op over the largest batch.
template <typename Op>
MicroResult time_micro(const std::string& name, Op op,
                       double min_time = 0.25) {
  std::uint64_t batch = 1024;
  for (;;) {
    const Clock::time_point start = Clock::now();
    op(batch);
    const double elapsed = seconds_since(start);
    if (elapsed >= min_time || batch >= (1ULL << 30)) {
      MicroResult r;
      r.name = name;
      r.ns_per_op = elapsed * 1e9 / static_cast<double>(batch);
      r.iterations = batch;
      return r;
    }
    const double scale = elapsed > 0 ? min_time / elapsed * 1.4 : 16.0;
    batch = static_cast<std::uint64_t>(static_cast<double>(batch) *
                                       (scale > 16.0 ? 16.0 : scale)) +
            1;
  }
}

std::vector<MicroResult> run_micro_suite() {
  std::vector<MicroResult> out;

  out.push_back(time_micro("scheduler_schedule_dispatch", [](std::uint64_t n) {
    sim::Scheduler sched;
    sim::TimeNs t = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      sched.schedule_at(++t, [] {});
      sched.run_until(t);
    }
  }));

  // TCP timer re-arm pattern: schedule then cancel, never dispatching.
  out.push_back(time_micro("scheduler_schedule_cancel", [](std::uint64_t n) {
    sim::Scheduler sched;
    for (std::uint64_t i = 0; i < n; ++i) {
      const sim::EventId id =
          sched.schedule_after(1000 + static_cast<sim::TimeNs>(i % 64), [] {});
      sched.cancel(id);
    }
  }));

  // Dispatch with a populated queue (sift depth > 0), closer to a busy sim.
  out.push_back(time_micro("scheduler_dispatch_depth1k", [](std::uint64_t n) {
    sim::Scheduler sched;
    sim::TimeNs t = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(1'000'000'000 + i, [] {});  // standing backlog
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      sched.schedule_at(++t, [] {});
      sched.run_until(t);
    }
    sched.run();
  }));

  out.push_back(time_micro("packet_acquire_release", [](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      net::PacketPtr p = net::make_packet();
      (void)p;
    }
  }));

  out.push_back(
      time_micro("end_to_end_packet_forwarding", [](std::uint64_t n) {
        sim::Scheduler sched;
        net::Fabric fabric(sched, net::testbed_baseline(), 1);
        fabric.install_lb(core::conga());
        std::uint16_t port = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
          net::PacketPtr pkt = net::make_packet();
          pkt->flow = net::FlowKey{0, 40, ++port, 7};
          pkt->size_bytes = 1500;
          fabric.host(0).send(std::move(pkt));
          sched.run();
        }
      }));

  return out;
}

struct SingleSimResult {
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t flows = 0;
  double events_per_sec = 0;
};

workload::ExperimentConfig fig09_cell(double load, std::uint64_t seed,
                                      bool full) {
  workload::ExperimentConfig s;
  s.topo = net::testbed_baseline();
  s.topo.hosts_per_leaf = 16;
  s.lb = core::conga();
  s.dist = workload::enterprise();
  s.load = load;
  s.warmup = sim::milliseconds(full ? 10 : 2);
  s.measure = sim::milliseconds(full ? 50 : 10);
  s.fabric_seed = seed;
  s.traffic_seed = seed * 31 + 7;
  return s;
}

// Timing phases run without a sink so events/sec stays comparable with
// pre-telemetry baselines; the telemetry_overhead phase below measures the
// masked/full cost explicitly.
constexpr debug::TelemetryMode kTimingTelemetry = debug::TelemetryMode::kOff;

SingleSimResult run_single_sim(bool full) {
  const Clock::time_point start = Clock::now();
  const debug::RunDigests d =
      debug::run_digest_trial(fig09_cell(0.6, 1, full), kTimingTelemetry);
  SingleSimResult r;
  r.wall_s = seconds_since(start);
  r.events = d.events;
  r.flows = d.flows;
  r.events_per_sec =
      r.wall_s > 0 ? static_cast<double>(d.events) / r.wall_s : 0;
  return r;
}

struct GridResult {
  std::size_t cells = 0;
  int jobs = 1;
  double wall_s_jobs1 = 0;
  double wall_s_jobsN = 0;
  double speedup = 0;
  std::uint64_t total_events = 0;
  bool deterministic = false;
};

GridResult run_grid_phase(int jobs, bool full) {
  // The scaled fig09 grid shape: scheme x load, each cell an independent
  // simulation with its own seeds.
  struct Cell {
    bool conga;
    double load;
  };
  std::vector<Cell> cells;
  for (const bool conga : {false, true}) {
    for (const double load : {0.3, 0.6, 0.9}) cells.push_back({conga, load});
  }

  auto run_cell = [&](std::size_t i) {
    workload::ExperimentConfig s =
        fig09_cell(cells[i].load, 2 + static_cast<std::uint64_t>(i), full);
    if (!cells[i].conga) s.lb = lb::ecmp();
    return debug::run_digest_trial(s, kTimingTelemetry);
  };

  GridResult g;
  g.cells = cells.size();
  g.jobs = jobs;

  Clock::time_point start = Clock::now();
  const std::vector<debug::RunDigests> seq =
      runtime::parallel_map<debug::RunDigests>(cells.size(), 1, run_cell);
  g.wall_s_jobs1 = seconds_since(start);

  start = Clock::now();
  const std::vector<debug::RunDigests> par =
      runtime::parallel_map<debug::RunDigests>(cells.size(), jobs, run_cell);
  g.wall_s_jobsN = seconds_since(start);

  g.speedup = g.wall_s_jobsN > 0 ? g.wall_s_jobs1 / g.wall_s_jobsN : 0;
  g.deterministic = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    g.total_events += seq[i].events;
    if (!(seq[i] == par[i])) g.deterministic = false;
  }
  return g;
}

struct TelemetryOverheadResult {
  double eps_off = 0;     ///< events/sec, no sink attached
  double eps_masked = 0;  ///< sink attached, every category masked off
  double eps_full = 0;    ///< sink attached, everything recorded
  bool within_budget = false;  ///< masked >= 95% of off
};

/// Best-of-`trials` events/sec for one scenario (best-of filters scheduler
/// noise, which at these run lengths dwarfs the masked-telemetry cost).
double best_events_per_sec(const workload::ExperimentConfig& s,
                           debug::TelemetryMode mode, int trials) {
  double best = 0;
  for (int i = 0; i < trials; ++i) {
    const Clock::time_point start = Clock::now();
    const debug::RunDigests d = debug::run_digest_trial(s, mode);
    const double wall = seconds_since(start);
    if (wall > 0) {
      best = std::max(best, static_cast<double>(d.events) / wall);
    }
  }
  return best;
}

TelemetryOverheadResult run_telemetry_overhead(bool full) {
  const int trials = full ? 5 : 3;
  const workload::ExperimentConfig s = fig09_cell(0.6, 1, full);
  TelemetryOverheadResult r;
  r.eps_off = best_events_per_sec(s, debug::TelemetryMode::kOff, trials);
  r.eps_masked =
      best_events_per_sec(s, debug::TelemetryMode::kMasked, trials);
  r.eps_full = best_events_per_sec(s, debug::TelemetryMode::kFull, trials);
  // The gate this PR promises: telemetry compiled in but runtime-disabled
  // must cost < 5% events/sec.
  r.within_budget = r.eps_masked >= 0.95 * r.eps_off;
  return r;
}

struct CampaignCacheResult {
  std::size_t cells = 0;
  double cold_s = 0;          ///< wall-clock of the cache-miss pass
  double warm_s = 0;          ///< wall-clock of the all-hits pass
  double cold_cell_s = 0;
  double warm_cell_s = 0;
  double speedup = 0;
  bool warm_all_hits = false;
  bool reports_identical = false;
};

/// Cold-vs-warm latency of the campaign cache on the builtin smoke
/// campaign, against a throwaway store. The warm pass must be 100% hits and
/// must assemble a byte-identical report — the campaign layer's core
/// promise, re-checked here where the trajectory records what it costs.
CampaignCacheResult run_campaign_cache_phase() {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("conga_perf_store." + std::to_string(::getpid()));
  campaign::ResultStore store(root.string());
  const campaign::CampaignSpec spec = campaign::make_smoke_campaign();
  campaign::RunOptions opts;
  opts.jobs = 1;  // latency per cell, not throughput
  opts.store = &store;

  CampaignCacheResult r;
  campaign::CampaignRun cold;
  campaign::CampaignRun warm;
  std::string err;

  Clock::time_point start = Clock::now();
  const bool cold_ok = campaign::run_campaign(spec, opts, cold, err);
  r.cold_s = seconds_since(start);
  start = Clock::now();
  const bool warm_ok = campaign::run_campaign(spec, opts, warm, err);
  r.warm_s = seconds_since(start);

  std::error_code ec;
  fs::remove_all(root, ec);
  if (!cold_ok || !warm_ok) {
    std::fprintf(stderr, "perf_baseline: campaign phase failed: %s\n",
                 err.c_str());
    return r;
  }
  r.cells = cold.stats.cells;
  if (r.cells > 0) {
    r.cold_cell_s = r.cold_s / static_cast<double>(r.cells);
    r.warm_cell_s = r.warm_s / static_cast<double>(r.cells);
  }
  r.speedup = r.warm_s > 0 ? r.cold_s / r.warm_s : 0;
  r.warm_all_hits = warm.stats.hits == warm.stats.cells &&
                    warm.stats.misses == 0 && cold.stats.hits == 0;
  r.reports_identical =
      campaign::report_json(cold) == campaign::report_json(warm);
  return r;
}

json::Json json_of_run(const std::string& label, bool full,
                           const std::vector<MicroResult>& micro,
                           const net::PacketPoolStats& pool,
                           const SingleSimResult& single,
                           const GridResult& grid,
                           const TelemetryOverheadResult& tele,
                           const CampaignCacheResult& cache) {
  using json::Json;
  Json run = Json::object();
  run.set("label", Json::string(label));
  run.set("mode", Json::string(full ? "full" : "scaled"));

  Json build = Json::object();
  build.set("compiler", Json::string(__VERSION__));
#ifdef NDEBUG
  build.set("ndebug", Json::boolean(true));
#else
  build.set("ndebug", Json::boolean(false));
#endif
  // The machine's real core count — NOT runtime::default_jobs(), which
  // CONGA_BENCH_JOBS overrides (earlier baselines recorded that override as
  // if it were the hardware, making cross-host comparisons lie).
  build.set("hardware_concurrency",
            Json::uinteger(std::thread::hardware_concurrency()));
  build.set("default_jobs",
            Json::integer(static_cast<std::int64_t>(runtime::default_jobs())));
  build.set("source_digest", Json::string(campaign::source_digest()));
  run.set("build", std::move(build));

  Json micro_obj = Json::object();
  for (const MicroResult& m : micro) {
    Json e = Json::object();
    e.set("ns_per_op", Json::number(m.ns_per_op));
    e.set("ops_per_sec",
          Json::number(m.ns_per_op > 0 ? 1e9 / m.ns_per_op : 0.0));
    e.set("iterations", Json::uinteger(m.iterations));
    micro_obj.set(m.name, std::move(e));
  }
  run.set("micro", std::move(micro_obj));

  Json pool_obj = Json::object();
  pool_obj.set("acquired", Json::uinteger(pool.acquired));
  pool_obj.set("released", Json::uinteger(pool.released));
  pool_obj.set("chunk_allocs", Json::uinteger(pool.chunk_allocs));
  pool_obj.set("allocs_per_million_packets",
               Json::number(pool.acquired > 0
                                ? static_cast<double>(pool.chunk_allocs) *
                                      1e6 / static_cast<double>(pool.acquired)
                                : 0.0));
  run.set("packet_pool", std::move(pool_obj));

  Json single_obj = Json::object();
  single_obj.set(
      "scenario",
      Json::string("fig09 enterprise cell, conga, 60% load (scaled)"));
  single_obj.set("wall_s", Json::number(single.wall_s));
  single_obj.set("events", Json::uinteger(single.events));
  single_obj.set("flows", Json::uinteger(single.flows));
  single_obj.set("events_per_sec", Json::number(single.events_per_sec));
  run.set("single_sim", std::move(single_obj));

  Json grid_obj = Json::object();
  grid_obj.set("scenario",
               Json::string("fig09 grid: {ecmp,conga} x {30,60,90}% (scaled)"));
  grid_obj.set("cells", Json::uinteger(grid.cells));
  grid_obj.set("jobs", Json::integer(grid.jobs));
  grid_obj.set("wall_s_jobs1", Json::number(grid.wall_s_jobs1));
  grid_obj.set("wall_s_jobsN", Json::number(grid.wall_s_jobsN));
  grid_obj.set("speedup", Json::number(grid.speedup));
  grid_obj.set("total_events", Json::uinteger(grid.total_events));
  grid_obj.set("deterministic_across_jobs", Json::boolean(grid.deterministic));
  run.set("grid", std::move(grid_obj));

  Json tele_obj = Json::object();
  tele_obj.set(
      "scenario",
      Json::string("fig09 enterprise cell, conga, 60% load (best-of-N)"));
  tele_obj.set("compiled_in", Json::boolean(telemetry::compiled_in()));
  tele_obj.set("events_per_sec_off", Json::number(tele.eps_off));
  tele_obj.set("events_per_sec_masked", Json::number(tele.eps_masked));
  tele_obj.set("events_per_sec_full", Json::number(tele.eps_full));
  tele_obj.set("overhead_masked_pct",
               Json::number(tele.eps_off > 0
                                ? (1.0 - tele.eps_masked / tele.eps_off) * 100.0
                                : 0.0));
  tele_obj.set("overhead_full_pct",
               Json::number(tele.eps_off > 0
                                ? (1.0 - tele.eps_full / tele.eps_off) * 100.0
                                : 0.0));
  tele_obj.set("masked_within_5pct", Json::boolean(tele.within_budget));
  run.set("telemetry_overhead", std::move(tele_obj));

  Json cache_obj = Json::object();
  cache_obj.set("scenario",
                Json::string("builtin smoke campaign, cold vs warm store"));
  cache_obj.set("cells", Json::uinteger(cache.cells));
  cache_obj.set("cold_s", Json::number(cache.cold_s));
  cache_obj.set("warm_s", Json::number(cache.warm_s));
  cache_obj.set("cold_cell_s", Json::number(cache.cold_cell_s));
  cache_obj.set("warm_cell_s", Json::number(cache.warm_cell_s));
  cache_obj.set("speedup", Json::number(cache.speedup));
  cache_obj.set("warm_all_hits", Json::boolean(cache.warm_all_hits));
  cache_obj.set("reports_identical", Json::boolean(cache.reports_identical));
  run.set("campaign_cache", std::move(cache_obj));

  return run;
}

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  out.clear();
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    out.append(buf, n);
    if (n < sizeof(buf)) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_core.json";
  std::string label = "dev";
  int jobs = runtime::default_jobs();
  bool append = false;
  const bool full = bench::full_mode(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else if (std::strcmp(argv[i], "--append") == 0) {
      append = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      const int n = std::atoi(argv[++i]);
      if (n > 0) jobs = n;
    }
  }

  std::fprintf(stderr, "perf_baseline: micro suite...\n");
  const std::vector<MicroResult> micro = run_micro_suite();
  const net::PacketPoolStats pool = net::packet_pool_stats();

  std::fprintf(stderr, "perf_baseline: single-sim events/sec...\n");
  const SingleSimResult single = run_single_sim(full);

  std::fprintf(stderr, "perf_baseline: grid wall-clock (jobs=1 vs jobs=%d)...\n",
               jobs);
  const GridResult grid = run_grid_phase(jobs, full);

  std::fprintf(stderr, "perf_baseline: telemetry overhead (off/masked/full)...\n");
  const TelemetryOverheadResult tele = run_telemetry_overhead(full);

  std::fprintf(stderr, "perf_baseline: campaign cache cold vs warm...\n");
  const CampaignCacheResult cache = run_campaign_cache_phase();

  json::Json doc = json::Json::object();
  if (append) {
    std::string existing;
    std::string err;
    json::Json parsed;
    if (!read_file(out_path, existing)) {
      std::fprintf(stderr,
                   "perf_baseline: --append but cannot read %s; starting a "
                   "fresh trajectory\n",
                   out_path.c_str());
    } else if (!json::Json::parse(existing, parsed, err)) {
      std::fprintf(stderr, "perf_baseline: cannot append to %s: %s\n",
                   out_path.c_str(), err.c_str());
      return 2;
    } else {
      const json::Json* schema = parsed.find("schema");
      if (!parsed.is_object() || schema == nullptr || !schema->is_string() ||
          schema->as_string() != "conga-bench-core-v2" ||
          parsed.find("runs") == nullptr ||
          !parsed.find("runs")->is_array()) {
        std::fprintf(stderr,
                     "perf_baseline: %s is not a conga-bench-core-v2 "
                     "trajectory; refusing to append\n",
                     out_path.c_str());
        return 2;
      }
      doc = std::move(parsed);
    }
  }
  if (doc.find("schema") == nullptr) {
    doc.set("schema", json::Json::string("conga-bench-core-v2"));
    doc.set("runs", json::Json::array());
  }
  // members() gives no mutable access; rebuild the doc with the run
  // appended (trajectories are small).
  json::Json runs = json::Json::array();
  for (const json::Json& r : doc.find("runs")->items()) {
    json::Json copy = r;
    runs.push_back(std::move(copy));
  }
  runs.push_back(
      json_of_run(label, full, micro, pool, single, grid, tele, cache));
  json::Json out_doc = json::Json::object();
  out_doc.set("schema", json::Json::string("conga-bench-core-v2"));
  out_doc.set("runs", std::move(runs));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_baseline: cannot open %s\n", out_path.c_str());
    return 2;
  }
  const std::string bytes = out_doc.dump_pretty() + "\n";
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  if (!wrote) {
    std::fprintf(stderr, "perf_baseline: short write to %s\n",
                 out_path.c_str());
    return 2;
  }

  std::fprintf(stderr,
               "perf_baseline: wrote %s (single-sim %.2fM events/s; grid "
               "speedup %.2fx with %d jobs; %s; telemetry masked overhead "
               "%.1f%%%s; campaign warm/cold %.0fx%s)\n",
               out_path.c_str(), single.events_per_sec / 1e6, grid.speedup,
               grid.jobs,
               grid.deterministic ? "deterministic across jobs"
                                  : "NON-DETERMINISTIC",
               tele.eps_off > 0
                   ? (1.0 - tele.eps_masked / tele.eps_off) * 100.0
                   : 0.0,
               tele.within_budget ? "" : " OVER BUDGET",
               cache.speedup,
               cache.warm_all_hits && cache.reports_identical
                   ? ""
                   : " CACHE BROKEN");
  return (grid.deterministic && tele.within_budget && cache.warm_all_hits &&
          cache.reports_identical)
             ? 0
             : 1;
}
