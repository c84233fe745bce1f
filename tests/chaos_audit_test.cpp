// Drives the real chaos_audit binary: a small fault campaign must pass, and
// its survival report must be byte-identical at --jobs 1 and --jobs 2 and
// parse as JSON.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "json/json.hpp"

namespace conga {
namespace {

namespace fs = std::filesystem;

constexpr const char* kBin = CHAOS_AUDIT_BIN;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs one audit writing `out`; returns the exit code (-1 on a signal).
int run_audit(int jobs, const fs::path& out) {
  const std::string cmd = std::string(kBin) +
                          " --campaigns 1 --lb ecmp,conga --jobs " +
                          std::to_string(jobs) + " --out " + out.string() +
                          " > /dev/null";
  const int st = std::system(cmd.c_str());
  if (st == -1) return -1;
  return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

TEST(ChaosAudit, ReportIsValidJsonAndIdenticalAcrossJobs) {
  const fs::path dir = fs::temp_directory_path() /
                       ("conga_chaos_audit_test." + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  ASSERT_EQ(run_audit(1, dir / "j1.json"), 0);
  ASSERT_EQ(run_audit(2, dir / "j2.json"), 0);
  const std::string j1 = read_file(dir / "j1.json");
  const std::string j2 = read_file(dir / "j2.json");
  fs::remove_all(dir);

  EXPECT_EQ(j1, j2);
  json::Json doc;
  std::string err;
  ASSERT_TRUE(json::Json::parse(j1, doc, err)) << err;
  const json::Json* cells = doc.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_TRUE(cells->is_array());
  EXPECT_EQ(cells->size(), 2u);
  const json::Json* ok = doc.find("conservation_ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->as_bool());
}

}  // namespace
}  // namespace conga
