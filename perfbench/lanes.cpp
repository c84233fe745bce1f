#include "lanes.hpp"

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "clock.hpp"
#include "gauge.hpp"
#include "report.hpp"

namespace perfbench {

void LaneSamples::sample_setup(double unit_wall,
                               const std::function<double()>& once) {
  const double t0 = wall_now();
  for (int k = 0; k < 50 && (k == 0 || wall_now() - t0 < 0.01 * unit_wall);
       ++k) {
    malloc_trim(0);
    setup.push_back(once());
  }
}

namespace {

std::vector<double> scaled(std::vector<double> v, double factor) {
  for (double& x : v) x *= factor;
  return v;
}

bool write_samples(const LaneSamples& s, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const double v : s.wall) std::fprintf(f, "wall %.17g\n", v);
  for (const double v : s.cpu) std::fprintf(f, "cpu %.17g\n", v);
  for (const double v : s.setup) std::fprintf(f, "setup %.17g\n", v);
  for (const double v : s.gauge) std::fprintf(f, "gauge %.17g\n", v);
  std::fprintf(f, "rss %.17g\n", s.peak_rss_mb);
  std::fprintf(f, "attempted %llu\nfailed %llu\n",
               static_cast<unsigned long long>(s.attempted),
               static_cast<unsigned long long>(s.failed));
  std::fprintf(f, "identity %s\n", s.identity.c_str());
  for (const std::string& p : s.problems) std::fprintf(f, "problem %s\n", p.c_str());
  return std::fclose(f) == 0;
}

bool read_samples(const std::string& path, LaneSamples& s) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t sp = line.find(' ');
    const std::string key = line.substr(0, sp);
    const std::string val = sp == std::string::npos ? "" : line.substr(sp + 1);
    if (key == "wall") s.wall.push_back(std::stod(val));
    else if (key == "cpu") s.cpu.push_back(std::stod(val));
    else if (key == "setup") s.setup.push_back(std::stod(val));
    else if (key == "gauge") s.gauge.push_back(std::stod(val));
    else if (key == "rss") s.peak_rss_mb = std::stod(val);
    else if (key == "attempted") s.attempted = std::stoull(val);
    else if (key == "failed") s.failed = std::stoull(val);
    else if (key == "identity") s.identity = val;
    else if (key == "problem") s.problems.push_back(val);
  }
  return true;
}

}  // namespace

std::vector<LaneSamples> run_lanes(
    int lanes, const std::string& work_dir,
    const std::function<void(LaneSamples&)>& body) {
  std::fflush(stdout);
  std::vector<pid_t> pids;
  std::vector<std::string> paths;
  for (int k = 0; k < lanes; ++k) {
    paths.push_back(work_dir + "/lane-" + std::to_string(getpid()) + "-" +
                    std::to_string(k) + ".txt");
    const pid_t pid = fork();
    if (pid == 0) {
      // A lane must not outlive a killed parent.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      LaneSamples s;
      int rc = 1;
      try {
        body(s);
        rc = write_samples(s, paths.back()) ? 0 : 1;
      } catch (...) {
        rc = 1;
      }
      _exit(rc);
    }
    pids.push_back(pid);
  }
  std::vector<LaneSamples> out(static_cast<std::size_t>(lanes));
  for (int k = 0; k < lanes; ++k) {
    LaneSamples& s = out[static_cast<std::size_t>(k)];
    int status = 0;
    const bool exited = pids[static_cast<std::size_t>(k)] > 0 &&
                        waitpid(pids[static_cast<std::size_t>(k)], &status,
                                0) == pids[static_cast<std::size_t>(k)] &&
                        WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!exited || !read_samples(paths[static_cast<std::size_t>(k)], s)) {
      s = LaneSamples{};
      s.unit(false, "lane " + std::to_string(k) + " did not report");
    }
    std::filesystem::remove(paths[static_cast<std::size_t>(k)]);
  }
  return out;
}

void report_lanes(const std::vector<LaneSamples>& lanes, Report& report) {
  std::vector<double> wall, cpu, setup, gauge, rss;
  std::string counts;
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    const LaneSamples& s = lanes[k];
    report.add_units(s.attempted, s.failed, s.problems);
    report.check(s.identity == lanes.front().identity,
                 "lane " + std::to_string(k) + " identity differs: " +
                     s.identity);
    wall.insert(wall.end(), s.wall.begin(), s.wall.end());
    cpu.insert(cpu.end(), s.cpu.begin(), s.cpu.end());
    setup.insert(setup.end(), s.setup.begin(), s.setup.end());
    gauge.insert(gauge.end(), s.gauge.begin(), s.gauge.end());
    rss.push_back(s.peak_rss_mb);
    counts += (k == 0 ? "" : ", ") + std::to_string(s.wall.size());
  }
  if (!lanes.empty() && !lanes.front().identity.empty()) {
    report.note("identity " + lanes.front().identity);
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%zu lanes (units per lane: %s); failed_frac %.4f "
                "(%llu of %llu)",
                lanes.size(), counts.c_str(),
                report.attempted() == 0
                    ? 1.0
                    : static_cast<double>(report.failed()) /
                          static_cast<double>(report.attempted()),
                static_cast<unsigned long long>(report.failed()),
                static_cast<unsigned long long>(report.attempted()));
  report.note(buf);
  report.note("gauge [s]: " + describe(gauge));
  report.note("unscaled wall_s " + describe(wall) + "; cpu_s " +
              describe(cpu) + "; setup_s " + describe(setup));
  report.check(!gauge.empty(), "no gauge samples");
  const double factor = kNominalGaugeS / median(gauge);
  std::snprintf(buf, sizeof buf, "host speed factor %.6f (%.6g / %.6g s)",
                factor, kNominalGaugeS, median(gauge));
  report.note(buf);
  report.timing("wall_s", scaled(wall, factor), "s");
  report.timing("cpu_s", scaled(cpu, factor), "s");
  report.timing("setup_s", scaled(setup, factor), "s");
  report.metric("peak_rss_mb", median(rss), "MB", rss.size());
}

}  // namespace perfbench
