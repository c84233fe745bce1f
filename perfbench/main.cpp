// conga_bench — the repo benchmark's measuring program (see README.md).
//
//   conga_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--work-dir DIR] [--serve PATH]
//   conga_bench --self-test
//
// Workloads: enterprise_conga, datamining_asym_conga, campaign_cold,
// campaign_warm. --trace 0 measures the end-to-end metrics with nothing
// attached; --trace 1 is the separate traced run that reports the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// Exit status: 0 when the run completed (correct or not), 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "fingerprint.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

void write_spans(const Options& opts, const Tracer& tracer, Report& report) {
  const std::string path = opts.work_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".spans.json";
  report.check(tracer.write_json(path), "cannot write spans to " + path);
  report.note("spans: " + path + " (" +
              std::to_string(tracer.spans().size()) + " spans)");
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "conga_bench: %s\nusage: conga_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--serve PATH]\n"
               "       conga_bench --self-test\n",
               msg.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      opts.workload = value();
    } else if (a == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      opts.trace = value() == "1";
    } else if (a == "--work-dir") {
      opts.work_dir = value();
    } else if (a == "--serve") {
      opts.serve_exe = value();
    } else if (a == "--self-test") {
      self_test = true;
    } else {
      usage("unknown flag " + a);
    }
  }
  if (self_test) {
    const int failures = perfbench::sim_self_test();
    std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
                failures);
    return failures == 0 ? 0 : 1;
  }
  if (opts.seed == 0) usage("--seed must be a positive integer");
  if (!(opts.seconds > 0)) usage("--seconds must be positive");
  std::filesystem::create_directories(opts.work_dir);

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  std::printf("fingerprint %s\n", perfbench::fingerprint_json().c_str());
  std::fflush(stdout);

  perfbench::Report report;
  if (perfbench::is_sim_workload(opts.workload)) {
    perfbench::run_sim_workload(opts, report);
  } else if (perfbench::is_campaign_workload(opts.workload)) {
    perfbench::run_campaign_workload(opts, report);
  } else {
    usage("unknown workload '" + opts.workload + "'");
  }
  report.print();
  return 0;
}
