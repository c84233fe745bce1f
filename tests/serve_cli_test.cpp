// End-to-end CLI tests for conga_serve, driving the real binary
// (CONGA_SERVE_BIN): supervised containment of crashing and hanging cells,
// SIGTERM / SIGKILL interruption + rerun, store gc/stat maintenance,
// graceful store degradation, the documented 0/1/2 exit codes, and the
// in-process and supervised runners agreeing byte-for-byte.
//
// Every scenario that needs a child failure injects it deterministically
// through CONGA_CELL_FAULT; nothing here depends on timing beyond "a
// hanging child does not finish on its own".
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/store.hpp"
#include "campaign/supervisor.hpp"
#include "json/json.hpp"
#include "net/topology.hpp"

namespace conga::campaign {
namespace {

namespace fs = std::filesystem;
using json::Json;

constexpr const char* kBin = CONGA_SERVE_BIN;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("conga_serve_cli_test." + tag + "." +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string sub(const std::string& name) const {
    return (path / name).string();
  }
};

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

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

/// Runs a shell command to completion; returns its exit code (-1 if it
/// died on a signal).
int run_cmd(const std::string& cmd) {
  const int st = std::system(cmd.c_str());
  if (st == -1) return -1;
  return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

/// Launches a shell command as a direct child (sh exec's the binary, so
/// signals sent to the returned pid reach conga_serve itself).
pid_t spawn_cmd(const std::string& cmd) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl("/bin/sh", "sh", "-c", ("exec " + cmd).c_str(),
            static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  return pid;
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 50) {
    if (pred()) return true;
    ::usleep(50 * 1000);
  }
  return pred();
}

/// A fast campaign: one shrunken-testbed case, `policies` cells.
CampaignSpec tiny_campaign(const std::vector<std::string>& policies) {
  CampaignSpec c;
  c.name = "tiny";
  c.policies = policies;
  c.loads_pct = {30};
  net::TopologyConfig topo = net::testbed_baseline();
  topo.hosts_per_leaf = 4;
  c.cases.push_back({"t", topo});
  c.warmup_ns = sim::milliseconds(1);
  c.measure_ns = sim::milliseconds(2);
  c.max_drain_ns = sim::milliseconds(300);
  return c;
}

void write_tiny_request(const std::string& path,
                        const std::vector<std::string>& policies) {
  write_file(path, json_of_campaign(tiny_campaign(policies)).dump() + "\n");
}

ResultStore::StoreStat store_stat(const std::string& root) {
  ResultStore::StoreStat st;
  std::string err;
  EXPECT_TRUE(ResultStore(root).stat(st, err)) << err;
  return st;
}

Json parse_or_die(const std::string& path) {
  std::string text;
  EXPECT_TRUE(read_file(path, text)) << path;
  Json doc;
  std::string err;
  EXPECT_TRUE(Json::parse(text, doc, err)) << path << ": " << err;
  return doc;
}

/// report "cells" entries indexed by cache key, serialized — the unit of
/// the "undisturbed cells are byte-identical" comparisons.
std::vector<std::pair<std::string, std::string>> cells_by_key(
    const Json& report) {
  std::vector<std::pair<std::string, std::string>> out;
  const Json* cells = report.find("cells");
  if (cells == nullptr) return out;
  for (const Json& e : cells->items()) {
    out.emplace_back(e.find("key")->as_string(), e.dump());
  }
  return out;
}

TEST(ServeCli, ExitCodesAndErrorReporting) {
  TempDir tmp("exitcodes");
  const std::string err_path = tmp.sub("err.txt");
  std::string err_text;

  // 0: success.
  EXPECT_EQ(run_cmd(std::string(kBin) +
                    " expand --builtin smoke >/dev/null 2>/dev/null"),
            0);

  // 2: unknown subcommand, named in the error.
  EXPECT_EQ(run_cmd(std::string(kBin) + " frobnicate >/dev/null 2>" +
                    err_path),
            2);
  ASSERT_TRUE(read_file(err_path, err_text));
  EXPECT_NE(err_text.find("unknown subcommand 'frobnicate'"),
            std::string::npos)
      << err_text;

  // 2: unknown flag, quoted in the error.
  EXPECT_EQ(run_cmd(std::string(kBin) + " run --bogus >/dev/null 2>" +
                    err_path),
            2);
  ASSERT_TRUE(read_file(err_path, err_text));
  EXPECT_NE(err_text.find("unknown flag '--bogus'"), std::string::npos)
      << err_text;

  // 2: missing required value / bad subcommand of store.
  EXPECT_EQ(run_cmd(std::string(kBin) +
                    " store frobnicate >/dev/null 2>" + err_path),
            2);
  ASSERT_TRUE(read_file(err_path, err_text));
  EXPECT_NE(err_text.find("unknown store subcommand 'frobnicate'"),
            std::string::npos)
      << err_text;
  EXPECT_EQ(run_cmd(std::string(kBin) + " store gc 2>/dev/null"), 2);

  // 2: there is no `serve` subcommand and no retry flag: rejected, not
  // silently ignored.
  EXPECT_EQ(run_cmd(std::string(kBin) + " serve --spool " + tmp.sub("s") +
                    " >/dev/null 2>/dev/null"),
            2);
  EXPECT_EQ(run_cmd(std::string(kBin) +
                    " run --supervise --max-attempts 2 >/dev/null 2>" +
                    err_path),
            2);
  ASSERT_TRUE(read_file(err_path, err_text));
  EXPECT_NE(err_text.find("unknown flag '--max-attempts'"), std::string::npos)
      << err_text;

  // 1: a failed cell fails the run without killing it.
  const std::string req = tmp.sub("req.json");
  write_tiny_request(req, {"ecmp"});
  EXPECT_EQ(run_cmd("CONGA_CELL_FAULT=crash:0 " + std::string(kBin) +
                    " run --campaign " + req +
                    " --supervise >/dev/null 2>/dev/null"),
            1);

  // 1: so does a torn store write — the child dies before its rename.
  EXPECT_EQ(run_cmd("CONGA_CELL_FAULT=tear:0 " + std::string(kBin) +
                    " run --campaign " + req + " --supervise --store " +
                    tmp.sub("store") + " >/dev/null 2>/dev/null"),
            1);
  EXPECT_EQ(store_stat(tmp.sub("store")).entries, 0u);
  EXPECT_EQ(store_stat(tmp.sub("store")).tmp_files, 1u);
}

TEST(ServeCli, ContainmentCrashAndHang) {
  TempDir tmp("containment");
  const std::string req = tmp.sub("req.json");
  write_tiny_request(req, {"ecmp", "conga", "letflow"});

  // Reference: the same request, undisturbed.
  const std::string ref_report = tmp.sub("ref.json");
  ASSERT_EQ(run_cmd(std::string(kBin) + " run --campaign " + req +
                    " --supervise --store " + tmp.sub("refstore") +
                    " --out " + ref_report + " 2>/dev/null"),
            0);

  // Faulted: cell 0 aborts, cell 1 hangs. Each runs once.
  const std::string store = tmp.sub("store");
  const std::string report = tmp.sub("report.json");
  const std::string stats = tmp.sub("stats.json");
  ASSERT_EQ(
      run_cmd("CONGA_CELL_FAULT=crash:0,hang:1 " + std::string(kBin) +
              " run --campaign " + req + " --supervise --store " + store +
              " --out " + report + " --stats-out " + stats +
              " --jobs 2 --deadline-ms 1500 2>/dev/null"),
      1);

  // The supervisor survived and wrote a complete report with an explicit
  // failed_cells block.
  const Json rep = parse_or_die(report);
  const Json* failed = rep.find("failed_cells");
  ASSERT_NE(failed, nullptr);
  ASSERT_EQ(failed->items().size(), 2u);
  const Json& crash = failed->items()[0];
  EXPECT_EQ(crash.find("coordinate")->as_string(), "t|ecmp|30|1|7|none|1");
  EXPECT_EQ(crash.find("outcome")->as_string(), "signal");
  EXPECT_EQ(crash.find("signal")->as_int(), SIGABRT);
  EXPECT_EQ(crash.find("attempts"), nullptr);
  const Json& hang = failed->items()[1];
  EXPECT_EQ(hang.find("coordinate")->as_string(), "t|conga|30|1|7|none|1");
  EXPECT_EQ(hang.find("outcome")->as_string(), "timeout");
  EXPECT_EQ(hang.find("signal")->as_int(), SIGKILL);

  // The failed_cells entry is the whole record: no poison files.
  EXPECT_EQ(crash.find("quarantine"), nullptr);
  EXPECT_FALSE(fs::exists(fs::path(store) / "quarantine"));

  // The undisturbed cell is byte-identical to the reference run's.
  const auto ref_cells = cells_by_key(parse_or_die(ref_report));
  const auto got_cells = cells_by_key(rep);
  ASSERT_EQ(ref_cells.size(), 3u);
  ASSERT_EQ(got_cells.size(), 1u);
  bool matched = false;
  for (const auto& [key, bytes] : ref_cells) {
    if (key == got_cells[0].first) {
      EXPECT_EQ(bytes, got_cells[0].second);
      matched = true;
    }
  }
  EXPECT_TRUE(matched);

  // Stats tell the failure story.
  const Json st = parse_or_die(stats);
  EXPECT_EQ(st.find("failed")->as_uint(), 2u);
  EXPECT_EQ(st.find("retries"), nullptr);
  EXPECT_EQ(st.find("timeouts")->as_uint(), 1u);
  EXPECT_EQ(st.find("store_writes")->as_uint(), 1u);
  EXPECT_EQ(st.find("store")->as_string(), "ok");
}

/// Interrupts a supervised run with `sig` while cell 2 hangs and cells 0
/// and 1 are stored, then reruns it: no report and no torn state from the
/// interrupted run, and a rerun byte-identical to an undisturbed run that
/// reuses exactly the two stored cells.
void interrupt_and_rerun(int sig, const std::string& tag) {
  TempDir tmp(tag);
  const std::string req = tmp.sub("req.json");
  const std::string store = tmp.sub("store");
  write_tiny_request(req, {"ecmp", "conga", "letflow"});

  // Reference: same request, never interrupted.
  const std::string ref_report = tmp.sub("ref.json");
  ASSERT_EQ(run_cmd(std::string(kBin) + " run --campaign " + req +
                    " --supervise --store " + tmp.sub("refstore") +
                    " --out " + ref_report + " 2>/dev/null"),
            0);

  const std::string report = tmp.sub("report.json");
  const pid_t pid = spawn_cmd(
      "env CONGA_CELL_FAULT=hang:2 " + std::string(kBin) + " run --campaign " +
      req + " --supervise --store " + store + " --out " + report +
      " --deadline-ms 60000 2>/dev/null");
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_until([&] { return store_stat(store).entries >= 2; },
                         60000));

  ASSERT_EQ(::kill(pid, sig), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  if (sig == SIGKILL) {
    ASSERT_TRUE(WIFSIGNALED(status));
  } else {
    // SIGTERM: in-flight children are killed, exit 2, no report.
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
  }
  EXPECT_FALSE(fs::exists(report));

  // No torn entries: the store's tmp+rename discipline leaves the two
  // completed cells whole and nothing half-written.
  const ResultStore::StoreStat st = store_stat(store);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.tmp_files, 0u);

  // Rerun: byte-identical report, exactly the two stored cells reused.
  const std::string stats = tmp.sub("stats.json");
  ASSERT_EQ(run_cmd(std::string(kBin) + " run --campaign " + req +
                    " --supervise --store " + store + " --out " + report +
                    " --stats-out " + stats + " 2>/dev/null"),
            0);
  std::string ref_bytes;
  std::string got_bytes;
  ASSERT_TRUE(read_file(ref_report, ref_bytes));
  ASSERT_TRUE(read_file(report, got_bytes));
  EXPECT_EQ(got_bytes, ref_bytes);
  EXPECT_EQ(parse_or_die(stats).find("hits")->as_uint(), 2u);
}

TEST(ServeCli, SigtermInterruptsAndRerunResumesByteIdentical) {
  interrupt_and_rerun(SIGTERM, "sigterm");
}

TEST(ServeCli, SigkillInterruptsAndRerunResumesByteIdentical) {
  interrupt_and_rerun(SIGKILL, "sigkill");
}

TEST(ServeCli, StoreGcAndStat) {
  TempDir tmp("gc");
  const std::string req = tmp.sub("req.json");
  const std::string store = tmp.sub("store");
  write_tiny_request(req, {"ecmp", "conga"});

  // tear:0 — cell 0's child dies between tmp write and rename, orphaning
  // a tmp file; the cell fails (exit 1) and cell 1 is stored.
  ASSERT_EQ(run_cmd("CONGA_CELL_FAULT=tear:0 " + std::string(kBin) +
                    " run --campaign " + req + " --supervise --store " +
                    store + " >/dev/null 2>/dev/null"),
            1);

  ResultStore rs(store);
  ResultStore::StoreStat st;
  std::string err;
  ASSERT_TRUE(rs.stat(st, err)) << err;
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.tmp_files, 1u);  // the orphan from the torn write

  // stat (CLI): deterministic JSON with per-fingerprint buckets.
  const std::string stat_out = tmp.sub("stat.json");
  ASSERT_EQ(run_cmd(std::string(kBin) + " store stat --store " + store +
                    " >" + stat_out + " 2>/dev/null"),
            0);
  const Json doc = parse_or_die(stat_out);
  EXPECT_EQ(doc.find("schema")->as_string(), "conga-store-stat-v1");
  EXPECT_EQ(doc.find("entries")->as_uint(), 1u);
  EXPECT_EQ(doc.find("tmp_files")->as_uint(), 1u);
  ASSERT_EQ(doc.find("by_fingerprint")->items().size(), 1u);
  EXPECT_GT(doc.find("by_fingerprint")->items()[0].find("entries")->as_uint(),
            0u);

  // A young orphan survives the default age threshold...
  ASSERT_EQ(run_cmd(std::string(kBin) + " store gc --store " + store +
                    " >/dev/null 2>/dev/null"),
            0);
  ASSERT_TRUE(rs.stat(st, err));
  EXPECT_EQ(st.tmp_files, 1u);

  // ...and --tmp-age-seconds 0 reaps it without touching live entries.
  ASSERT_EQ(run_cmd(std::string(kBin) + " store gc --store " + store +
                    " --tmp-age-seconds 0 >/dev/null 2>/dev/null"),
            0);
  ASSERT_TRUE(rs.stat(st, err));
  EXPECT_EQ(st.tmp_files, 0u);
  EXPECT_EQ(st.entries, 1u);

  // --keep-fingerprints current keeps this build's entries...
  ASSERT_EQ(run_cmd(std::string(kBin) + " store gc --store " + store +
                    " --keep-fingerprints current >/dev/null 2>/dev/null"),
            0);
  ASSERT_TRUE(rs.stat(st, err));
  EXPECT_EQ(st.entries, 1u);

  // ...while an unrelated keep list removes them.
  ASSERT_EQ(run_cmd(std::string(kBin) + " store gc --store " + store +
                    " --keep-fingerprints deadbeef >/dev/null 2>/dev/null"),
            0);
  ASSERT_TRUE(rs.stat(st, err));
  EXPECT_EQ(st.entries, 0u);
}

TEST(ServeCli, UnwritableStoreDegradesGracefully) {
  TempDir tmp("degraded");
  const std::string req = tmp.sub("req.json");
  write_tiny_request(req, {"ecmp", "conga"});

  // Reference: the same request without any store.
  const std::string ref_report = tmp.sub("ref.json");
  ASSERT_EQ(run_cmd(std::string(kBin) + " run --campaign " + req +
                    " --supervise --out " + ref_report + " 2>/dev/null"),
            0);

  // A store root nested under a regular file can never be created — the
  // reliable "unwritable" on any uid, including root.
  write_file(tmp.sub("blocker"), "not a directory\n");
  const std::string report = tmp.sub("report.json");
  const std::string stats = tmp.sub("stats.json");
  const std::string errlog = tmp.sub("err.txt");
  ASSERT_EQ(run_cmd(std::string(kBin) + " run --campaign " + req +
                    " --supervise --store " + tmp.sub("blocker") +
                    "/store --out " + report + " --stats-out " + stats +
                    " 2>" + errlog),
            0);

  // Full report, byte-identical to the storeless run; stats carry the
  // degradation; the warning printed once.
  std::string ref_bytes;
  std::string got_bytes;
  ASSERT_TRUE(read_file(ref_report, ref_bytes));
  ASSERT_TRUE(read_file(report, got_bytes));
  EXPECT_EQ(got_bytes, ref_bytes);
  const Json st = parse_or_die(stats);
  EXPECT_EQ(st.find("store")->as_string(), "degraded");
  EXPECT_EQ(st.find("store_writes")->as_uint(), 0u);
  std::string err_text;
  ASSERT_TRUE(read_file(errlog, err_text));
  std::size_t warnings = 0;
  for (std::size_t pos = err_text.find("store degraded");
       pos != std::string::npos;
       pos = err_text.find("store degraded", pos + 1)) {
    ++warnings;
  }
  EXPECT_EQ(warnings, 1u);
}

/// The two runners share one core: on the same request they must agree
/// byte-for-byte, cold and warm, and each must serve the other's store.
TEST(ServeCli, InProcessAndSupervisedRunnersAgree) {
  TempDir tmp("runners");
  const CampaignSpec spec = tiny_campaign({"ecmp", "conga", "letflow"});
  ResultStore ip_store(tmp.sub("ip"));
  ResultStore sv_store(tmp.sub("sv"));

  auto in_process = [&](ResultStore& store) {
    RunOptions ro;
    ro.jobs = 2;
    ro.store = &store;
    CampaignRun run;
    std::string err;
    EXPECT_TRUE(run_campaign(spec, ro, run, err)) << err;
    return run;
  };
  auto supervised = [&](ResultStore& store) {
    RunOptions ro;
    ro.jobs = 2;
    ro.store = &store;
    SupervisorOptions so;
    so.exe = kBin;
    so.store_root = store.root();
    so.jobs = 2;
    CampaignRun run;
    SuperviseOutcome outcome = SuperviseOutcome::kDrained;
    std::string err;
    EXPECT_TRUE(run_campaign_supervised(spec, ro, so, nullptr, nullptr, run,
                                        outcome, err))
        << err;
    EXPECT_EQ(outcome, SuperviseOutcome::kComplete);
    return run;
  };
  auto expect_same = [](const CampaignRun& a, const CampaignRun& b) {
    EXPECT_EQ(report_json(a), report_json(b));
    EXPECT_EQ(a.origins, b.origins);
    EXPECT_EQ(a.stats.hits, b.stats.hits);
    EXPECT_EQ(a.stats.misses, b.stats.misses);
    EXPECT_EQ(a.stats.store_writes, b.stats.store_writes);
    EXPECT_EQ(a.stats.store, b.stats.store);
  };

  const CampaignRun ip_cold = in_process(ip_store);
  const CampaignRun sv_cold = supervised(sv_store);
  EXPECT_EQ(ip_cold.stats.misses, 3u);
  EXPECT_EQ(ip_cold.stats.store_writes, 3u);
  EXPECT_TRUE(ip_cold.failed.empty());
  expect_same(ip_cold, sv_cold);

  const CampaignRun ip_warm = in_process(ip_store);
  const CampaignRun sv_warm = supervised(sv_store);
  EXPECT_EQ(ip_warm.stats.hits, 3u);
  EXPECT_EQ(ip_warm.stats.store_writes, 0u);
  expect_same(ip_warm, sv_warm);
  EXPECT_EQ(report_json(ip_warm), report_json(ip_cold));

  // Cross-store: each runner is served entirely by the other's entries.
  const CampaignRun ip_on_sv = in_process(sv_store);
  const CampaignRun sv_on_ip = supervised(ip_store);
  EXPECT_EQ(ip_on_sv.stats.hits, 3u);
  EXPECT_EQ(sv_on_ip.stats.hits, 3u);
  expect_same(ip_on_sv, sv_on_ip);
  EXPECT_EQ(report_json(ip_on_sv), report_json(ip_cold));
}

}  // namespace
}  // namespace conga::campaign
