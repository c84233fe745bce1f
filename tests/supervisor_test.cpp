// Supervisor unit tests: the CONGA_CELL_FAULT directive grammar, fault ->
// cell matching, and the child-side cell_main protocol (request in,
// response + store entry out) exercised in-process — the fork/exec loop
// itself is covered end to end by serve_cli_test.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/experiment_spec.hpp"
#include "campaign/store.hpp"
#include "campaign/supervisor.hpp"
#include "json/json.hpp"
#include "net/topology.hpp"

namespace conga::campaign {
namespace {

namespace fs = std::filesystem;
using json::Json;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("conga_supervisor_test." + tag + "." +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

TEST(FaultSpec, ParsesDirectiveLists) {
  std::vector<CellFaultDirective> out;
  std::string err;
  ASSERT_TRUE(parse_cell_fault("crash:0,hang:2,tear:3", out, err)) << err;
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].mode, CellFaultDirective::Mode::kCrash);
  EXPECT_EQ(out[0].cell, 0u);
  EXPECT_EQ(out[1].mode, CellFaultDirective::Mode::kHang);
  EXPECT_EQ(out[1].cell, 2u);
  EXPECT_EQ(out[2].mode, CellFaultDirective::Mode::kTear);
  EXPECT_EQ(out[2].cell, 3u);

  ASSERT_TRUE(parse_cell_fault("", out, err));
  EXPECT_TRUE(out.empty());
}

TEST(FaultSpec, RejectsMalformedDirectives) {
  std::vector<CellFaultDirective> out;
  std::string err;
  EXPECT_FALSE(parse_cell_fault("explode:0", out, err));
  EXPECT_NE(err.find("unknown CONGA_CELL_FAULT mode"), std::string::npos);
  EXPECT_FALSE(parse_cell_fault("crash", out, err));
  EXPECT_FALSE(parse_cell_fault("crash:x", out, err));
  EXPECT_FALSE(parse_cell_fault("crash:-1", out, err));
  // Cells run once, so there is no attempt to pin a fault to.
  EXPECT_FALSE(parse_cell_fault("crash:1@1", out, err));
  EXPECT_NE(err.find("bad cell index"), std::string::npos);
}

TEST(FaultSpec, ActionMatchesCell) {
  std::vector<CellFaultDirective> d;
  std::string err;
  ASSERT_TRUE(parse_cell_fault("crash:0,hang:2,tear:3", d, err)) << err;
  EXPECT_STREQ(fault_action(d, 0), "crash");
  EXPECT_STREQ(fault_action(d, 2), "hang");
  EXPECT_STREQ(fault_action(d, 3), "tear");
  EXPECT_STREQ(fault_action(d, 1), "");
}

TEST(SelfExe, ResolvesARealExecutable) {
  const std::string exe = self_exe_path("fallback");
  ASSERT_FALSE(exe.empty());
  EXPECT_EQ(::access(exe.c_str(), X_OK), 0) << exe;
}

/// Builds the conga-cell-request-v1 document the supervisor sends.
std::string make_request(const ExperimentSpec& spec, const std::string& key,
                         const std::string& store_root) {
  Json j = Json::object();
  j.set("schema", Json::string("conga-cell-request-v1"));
  j.set("key", Json::string(key));
  j.set("fingerprint", Json::string("testfp"));
  j.set("store", Json::string(store_root));
  j.set("spec", json_of_spec(spec));
  return j.dump();
}

ExperimentSpec tiny_spec() {
  ExperimentSpec s;
  s.policy = "ecmp";
  s.load = 0.3;
  s.topo = net::testbed_baseline();
  s.topo.hosts_per_leaf = 4;
  s.warmup_ns = sim::milliseconds(1);
  s.measure_ns = sim::milliseconds(2);
  s.max_drain_ns = sim::milliseconds(300);
  return s;
}

TEST(CellMain, SimulatesStoresAndEchoes) {
  TempDir tmp("cellmain");
  const std::string store_root = (tmp.path / "store").string();
  const ExperimentSpec spec = tiny_spec();
  const std::string key = cell_key(spec, "testfp");

  std::string response;
  std::string diag;
  const int code =
      cell_main(make_request(spec, key, store_root), response, diag);
  ASSERT_EQ(code, 0) << diag;

  Json doc;
  std::string err;
  ASSERT_TRUE(Json::parse(response, doc, err)) << err;
  EXPECT_EQ(doc.find("schema")->as_string(), "conga-cell-response-v1");
  EXPECT_EQ(doc.find("key")->as_string(), key);
  EXPECT_TRUE(doc.find("stored")->as_bool());
  workload::ExperimentResult echoed;
  ASSERT_TRUE(result_from_json(*doc.find("result"), echoed, err)) << err;
  EXPECT_GT(echoed.flows, 0u);

  // The child wrote the store entry itself; the parent can read it back.
  ResultStore store(store_root);
  workload::ExperimentResult loaded;
  ASSERT_EQ(store.load(key, loaded, err), ResultStore::LoadStatus::kHit)
      << err;
  EXPECT_EQ(json_of_result(loaded).dump(), json_of_result(echoed).dump());
}

TEST(CellMain, StorelessRunStillEchoes) {
  const ExperimentSpec spec = tiny_spec();
  std::string response;
  std::string diag;
  const int code =
      cell_main(make_request(spec, cell_key(spec, "testfp"), ""), response,
                diag);
  ASSERT_EQ(code, 0) << diag;
  Json doc;
  std::string err;
  ASSERT_TRUE(Json::parse(response, doc, err)) << err;
  EXPECT_FALSE(doc.find("stored")->as_bool());
}

TEST(CellMain, RejectsBadRequestsPermanently) {
  std::string response;
  std::string diag;
  EXPECT_EQ(cell_main("not json", response, diag), 3);
  EXPECT_EQ(cell_main("{\"schema\":\"wrong\"}", response, diag), 3);
  // Unresolvable spec (unknown policy): exit 3, a bad request.
  ExperimentSpec spec = tiny_spec();
  spec.policy = "no-such-policy";
  EXPECT_EQ(cell_main(make_request(spec, "k", ""), response, diag), 3);
  EXPECT_TRUE(response.empty());
  EXPECT_FALSE(diag.empty());
}

}  // namespace
}  // namespace conga::campaign
