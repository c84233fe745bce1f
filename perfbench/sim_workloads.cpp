// enterprise_conga and datamining_asym_conga: one simulation cell repeated.

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "clock.hpp"
#include "fingerprint.hpp"
#include "gauge.hpp"
#include "lanes.hpp"
#include "net/topology.hpp"
#include "sim_cell.hpp"
#include "telemetry/telemetry.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace conga;

namespace {

/// The traffic trace of both sim workloads: conga_sim's traffic seed for
/// its default --seed 1. The benchmark seed varies the fabric seed (ECMP
/// hash salts, balancer tie-breaks), so every seed simulates the same
/// offered flows over different paths, drops and retransmissions. Varying
/// the trace instead changes a cell's work up to six-fold between seeds
/// (README.md), more than any per-run median can absorb.
constexpr std::uint64_t kTrafficSeed = 38;

CellSpec sim_spec(const std::string& workload, std::uint64_t seed) {
  CellSpec c;
  if (workload == "enterprise_conga") {
    c.topo = net::testbed_baseline();
    c.dist = workload::enterprise();
  } else {
    c.topo = net::testbed_link_failure();
    c.dist = workload::data_mining();
  }
  c.policy = "conga";
  c.load = 0.6;
  c.min_rto = sim::milliseconds(10);
  c.warmup = sim::milliseconds(2);
  c.measure = sim::milliseconds(10);
  c.max_drain = sim::seconds(5.0);
  c.fabric_seed = seed;
  c.traffic_seed = kTrafficSeed;
  return c;
}

/// The values a speed-only change must leave untouched.
struct Identity {
  std::uint64_t fct_digest = 0;
  std::uint64_t events = 0;
  std::uint64_t packet_hops = 0;
  bool operator==(const Identity&) const = default;
};

Identity identity_of(const CellRun& r) {
  return {r.result.fct_digest, r.events, r.packet_hops};
}

std::string identity_line(const Identity& id) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "fct_digest=%016llx sim.events=%llu "
                "net.packet_hops=%llu",
                static_cast<unsigned long long>(id.fct_digest),
                static_cast<unsigned long long>(id.events),
                static_cast<unsigned long long>(id.packet_hops));
  return buf;
}

/// The per-cell output checks: the drain finished, every measured flow
/// completed, and every link conserves packets.
std::string cell_problem(const CellRun& r) {
  if (!r.result.drained) return "cell did not drain";
  if (r.result.completed_fraction != 1.0) return "completed_fraction < 1";
  if (!r.conserves) return "a link does not conserve packets";
  return "";
}

double ticks_to_s(std::uint64_t ticks, double ticks_per_s) {
  return static_cast<double>(ticks) / ticks_per_s;
}

/// One lane of the untraced run: the cell repeated for the run's seconds,
/// each repetition checked and followed by set-up and gauge samples.
void measure_cells(const Options& opts, const CellSpec& spec, LaneSamples& s) {
  HostGauge gauge(opts.work_dir + "/gauge-" +
                  std::to_string(static_cast<long>(getpid())));
  Identity first;
  const double t0 = wall_now();
  double last = 0;
  for (int rep = 0; rep < 3 || wall_now() - t0 + last <= opts.seconds; ++rep) {
    const double r0 = wall_now();
    const CellRun r = run_cell(spec, nullptr, nullptr, nullptr);
    last = wall_now() - r0;
    s.wall.push_back(r.total_wall);
    s.cpu.push_back(r.total_cpu);
    std::string why = cell_problem(r);
    if (rep == 0) {
      first = identity_of(r);
      char buf[64];
      std::snprintf(buf, sizeof buf, " simulated_ms=%.3f", r.sim_ms);
      s.identity = identity_line(first) + buf;
    } else if (!(identity_of(r) == first) && why.empty()) {
      why = "identity values differ from the first repetition";
    }
    s.unit(why.empty(), "rep " + std::to_string(rep) + ": " + why);
    s.sample_setup(last, [&] { return setup_only(spec); });
    gauge.tick(s.gauge);
    if (wall_now() - t0 > 120) break;  // never near the 180 s limit
  }
  s.peak_rss_mb = peak_rss_mb();
}

void untraced_run(const Options& opts, const CellSpec& spec, Report& report) {
  report_lanes(run_lanes(campaign_jobs(), opts.work_dir,
                         [&](LaneSamples& s) { measure_cells(opts, spec, s); }),
               report);
}

void traced_run(const Options& opts, const CellSpec& spec, Report& report) {
  // The first cell in the process: its packet-pool growth is the cold cost.
  const CellRun base = run_cell(spec, nullptr, nullptr, nullptr);
  const Identity id = identity_of(base);
  report.note("identity " + identity_line(id));
  report.unit(cell_problem(base).empty(), "untraced: " + cell_problem(base));

  // Fidelity: the externally built cell is the program's own cell.
  const workload::ExperimentResult ref =
      workload::run_fct_experiment(experiment_config(spec));
  report.unit(same_result(base.result, ref),
              "external cell differs from run_fct_experiment");

  // Interleaved rounds of untraced (U), traced (T) and masked-telemetry (M)
  // cells; the order alternates each round so drift cancels.
  Tracer tracer;
  std::vector<double> u_cpu, t_cpu, m_cpu;
  std::vector<double> fabric_build, lb_install, gen_start, summary;
  std::vector<double> ns_per_event;
  Probes probes;  // the last traced cell's (every traced cell is the same
                  // simulation, so its counts are every cell's counts)
  std::vector<std::uint64_t> lb_ticks, tcp_ticks;  // per traced cell
  const std::uint64_t tick0 = ticks_now();
  const double wall0 = wall_now();
  {
    ScopedSpan workload_span(&tracer, "workload");
    const double t0 = wall_now();
    for (int round = 0; round < 2 || wall_now() - t0 < opts.seconds;
         ++round) {
      for (int k = 0; k < 3; ++k) {
        const int which = round % 2 == 0 ? k : 2 - k;
        if (which == 0) {
          CellRun r;
          {
            ScopedSpan s(&tracer, "cell_untraced");
            r = run_cell(spec, nullptr, nullptr, nullptr);
          }
          u_cpu.push_back(r.total_cpu);
          report.unit(identity_of(r) == id, "untraced identity differs");
        } else if (which == 1) {
          Probes p;
          // run_cell opens the "cell" span and its phase children.
          const CellRun r = run_cell(spec, &p, &tracer, nullptr);
          t_cpu.push_back(r.total_cpu);
          report.unit(identity_of(r) == id,
                      "traced identity differs from untraced");
          fabric_build.push_back(r.fabric_build_wall);
          lb_install.push_back(r.lb_install_wall);
          gen_start.push_back(r.gen_start_wall);
          summary.push_back(r.summary_wall);
          lb_ticks.push_back(p.select.ticks + p.feedback.ticks +
                             p.annotate.ticks);
          tcp_ticks.push_back(p.create.ticks);
          probes = p;
        } else {
          telemetry::TraceSinkConfig masked;
          masked.category_mask = 0;
          telemetry::TraceSink sink(masked);
          CellRun r;
          {
            ScopedSpan s(&tracer, "cell_masked");
            r = run_cell(spec, nullptr, nullptr, &sink);
          }
          m_cpu.push_back(r.total_cpu);
          report.unit(identity_of(r) == id,
                      "masked-telemetry identity differs");
        }
      }
      if (wall_now() - t0 > 120) break;
    }
  }
  // Calibrate hook ticks against steady_clock over the whole traced phase.
  const double ticks_per_s =
      static_cast<double>(ticks_now() - tick0) / (wall_now() - wall0);

  // Self CPU of the traced cells, split by layer. The lb and tcp hooks run
  // inside run_with_drain, so they come off its self time; what is left of
  // it is the event loop with links, queues, switches and TCP processing.
  double traced_total = 0, sim_s = 0, lb_s = 0, tcp_s = 0;
  std::size_t cell = 0;
  for (const Span& s : tracer.spans()) {
    if (s.name == "cell") traced_total += s.cpu();
    if (s.name != "run_with_drain" || cell >= lb_ticks.size()) continue;
    const double lb = ticks_to_s(lb_ticks[cell], ticks_per_s);
    const double tcp = ticks_to_s(tcp_ticks[cell], ticks_per_s);
    const double self = tracer.self_cpu(s.id) - lb - tcp;
    ns_per_event.push_back(self / static_cast<double>(id.events) * 1e9);
    sim_s += self;
    lb_s += lb;
    tcp_s += tcp;
    ++cell;
  }
  const double workload_s = tracer.self_cpu_named("fabric_build") +
                            tracer.self_cpu_named("lb_install") +
                            tracer.self_cpu_named("gen_start");
  const double stats_s = tracer.self_cpu_named("summary");
  const double unattributed =
      traced_total - sim_s - lb_s - tcp_s - workload_s - stats_s;

  auto per_call_ns = [&](const CallStats& c) {
    return c.calls == 0 ? 0.0
                        : ticks_to_s(c.ticks, ticks_per_s) /
                              static_cast<double>(c.calls) * 1e9;
  };
  const double u_med = median(u_cpu);

  report.note("traced cells " + std::to_string(t_cpu.size()) +
              ", untraced " + std::to_string(u_cpu.size()) + ", masked " +
              std::to_string(m_cpu.size()) + "; untraced cpu_s " +
              describe(u_cpu) + "; traced cpu_s " + describe(t_cpu));
  char buf[400];
  std::snprintf(buf, sizeof buf,
                "self CPU over %zu traced cells (%.4f s): sim %.4f, lb %.4f, "
                "tcp %.4f, workload %.4f, stats %.4f, unattributed %.4f",
                t_cpu.size(), traced_total, sim_s, lb_s, tcp_s, workload_s,
                stats_s, unattributed);
  report.note(buf);

  const double ev = static_cast<double>(id.events);
  const double hops = static_cast<double>(id.packet_hops);
  report.metric("sim.events", ev, "count");
  report.metric("sim.events_per_hop", ev / hops, "ratio");
  report.metric("sim.peak_pending", static_cast<double>(probes.peak_pending),
                "count");
  report.metric("sim.ns_per_event", median(ns_per_event), "ns",
                ns_per_event.size());
  report.metric("net.packet_hops", hops, "count");
  report.metric("net.drop_frac",
                static_cast<double>(base.packets_dropped) /
                    static_cast<double>(base.packets_offered),
                "ratio");
  report.metric("net.hops_per_cpu_s", hops / u_med, "1/s", u_cpu.size());
  report.metric("net.pool_chunk_allocs",
                static_cast<double>(base.pool_chunk_allocs), "count");
  report.metric("lb.select_calls", static_cast<double>(probes.select.calls),
                "count");
  report.metric("lb.select_ns", per_call_ns(probes.select), "ns");
  report.metric("lb.feedback_calls",
                static_cast<double>(probes.feedback.calls), "count");
  report.metric("lb.feedback_ns", per_call_ns(probes.feedback), "ns");
  report.metric("lb.annotate_ns", per_call_ns(probes.annotate), "ns");
  report.metric("lb.share", lb_s / traced_total, "ratio");
  report.metric("tcp.flows", static_cast<double>(probes.create.calls),
                "count");
  report.metric("tcp.flow_create_ns", per_call_ns(probes.create), "ns");
  report.metric("tcp.retransmits", static_cast<double>(probes.retransmits),
                "count");
  report.metric("tcp.timeouts", static_cast<double>(probes.timeouts),
                "count");
  report.metric("tcp.goodput_ratio",
                probes.bytes_sent == 0
                    ? 0.0
                    : static_cast<double>(probes.bytes_acked) /
                          static_cast<double>(probes.bytes_sent),
                "ratio");
  report.metric("workload.fabric_build_s", median(fabric_build), "s",
                fabric_build.size());
  report.metric("workload.lb_install_s", median(lb_install), "s",
                lb_install.size());
  report.metric("workload.gen_start_s", median(gen_start), "s",
                gen_start.size());
  report.metric("stats.summary_s", median(summary), "s", summary.size());
  report.metric("telemetry.masked_ratio", median(m_cpu) / u_med, "ratio",
                m_cpu.size());
  add_self_fracs(report, traced_total, {{"sim", sim_s},
                                        {"lb", lb_s},
                                        {"tcp", tcp_s},
                                        {"workload", workload_s},
                                        {"stats", stats_s}});
  report.metric("trace.overhead_frac", median(t_cpu) / u_med - 1.0, "ratio",
                t_cpu.size());
  write_spans(opts, tracer, report);
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "enterprise_conga" || name == "datamining_asym_conga";
}

void run_sim_workload(const Options& opts, Report& report) {
  const CellSpec spec = sim_spec(opts.workload, opts.seed);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "cell: %s, conga, load 0.6, min-RTO 10 ms, window 2+10 ms, "
                "fabric seed %llu, traffic seed %llu",
                opts.workload == "enterprise_conga"
                    ? "baseline testbed, enterprise CDF"
                    : "link-failure testbed, data-mining CDF",
                static_cast<unsigned long long>(spec.fabric_seed),
                static_cast<unsigned long long>(spec.traffic_seed));
  report.note(buf);
  if (opts.trace) {
    traced_run(opts, spec, report);
  } else {
    untraced_run(opts, spec, report);
  }
}

int sim_self_test() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what, std::uint64_t seed,
                            const char* wl) {
    std::printf("%s %s seed %llu: %s\n", ok ? "ok  " : "FAIL", wl,
                static_cast<unsigned long long>(seed), what);
    if (!ok) ++failures;
  };
  for (const char* wl : {"enterprise_conga", "datamining_asym_conga"}) {
    for (std::uint64_t seed : {1, 2}) {
      CellSpec spec = sim_spec(wl, seed);
      spec.measure = sim::milliseconds(3);
      const CellRun bare = run_cell(spec, nullptr, nullptr, nullptr);
      expect(cell_problem(bare).empty(), "bare cell passes output checks",
             seed, wl);
      const workload::ExperimentResult ref =
          workload::run_fct_experiment(experiment_config(spec));
      expect(same_result(bare.result, ref),
             "external cell == run_fct_experiment (result + fct_digest)", seed,
             wl);
      Probes probes;
      Tracer tracer;
      const CellRun traced = run_cell(spec, &probes, &tracer, nullptr);
      expect(identity_of(traced) == identity_of(bare) &&
                 same_result(traced.result, bare.result),
             "traced cell == bare cell (fct_digest, events, hops)", seed, wl);
      expect(probes.select.calls > 0 && probes.create.calls > 0,
             "decorators saw the cell's calls", seed, wl);
      telemetry::TraceSinkConfig masked;
      masked.category_mask = 0;
      telemetry::TraceSink sink(masked);
      const CellRun tele = run_cell(spec, nullptr, nullptr, &sink);
      expect(identity_of(tele) == identity_of(bare),
             "masked-telemetry cell == bare cell", seed, wl);
    }
  }
  return failures;
}

}  // namespace perfbench
