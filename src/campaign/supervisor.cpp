#include "campaign/supervisor.hpp"

// conga-lint: allow-file(wall-clock): supervision deadlines are real elapsed
// time by design; they schedule child processes, never simulation events,
// and no digest or report byte depends on them.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/experiment_spec.hpp"
#include "campaign/store.hpp"
#include "json/json.hpp"

namespace conga::campaign {

using json::Json;

namespace {

constexpr const char* kCellRequestSchema = "conga-cell-request-v1";
constexpr const char* kCellResponseSchema = "conga-cell-response-v1";

/// Child exit code for a request that can never succeed (bad request/spec).
constexpr int kExitBadRequest = 3;

using Clock = std::chrono::steady_clock;

/// A live child process.
struct ChildSlot {
  std::size_t idx = 0;  ///< cell index in canonical expansion order
  pid_t pid = -1;
  int out_fd = -1;      ///< nonblocking read end of the child's stdout
  std::string buf;      ///< accumulated response bytes
  Clock::time_point started;
  bool timed_out = false;  ///< SIGKILLed at its deadline
};

std::string make_cell_request(const Cell& cell, const std::string& fingerprint,
                              const std::string& store_root) {
  Json j = Json::object();
  j.set("schema", Json::string(kCellRequestSchema));
  j.set("key", Json::string(cell.key));
  j.set("fingerprint", Json::string(fingerprint));
  j.set("store", Json::string(store_root));
  j.set("spec", json_of_spec(cell.spec));
  return j.dump() + "\n";
}

/// Forks and execs `exe cell`, feeding it `request` on stdin. On success
/// the child's stdout read end (nonblocking) and pid are returned.
bool spawn_cell(const std::string& exe, const std::string& request,
                const char* action, pid_t& pid_out, int& fd_out,
                std::string& err) {
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (::pipe(in_pipe) != 0) {
    err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  if (::pipe(out_pipe) != 0) {
    err = std::string("pipe: ") + std::strerror(errno);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    err = std::string("fork: ") + std::strerror(errno);
    for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
      ::close(fd);
    }
    return false;
  }
  if (pid == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    // Close everything but stdio — inherited pipe ends of sibling children
    // must not keep their streams open.
    for (int fd = 3; fd < 256; ++fd) ::close(fd);
    if (action != nullptr && *action != '\0') {
      ::setenv("CONGA_CELL_FAULT_ACTION", action, 1);
    } else {
      ::unsetenv("CONGA_CELL_FAULT_ACTION");
    }
    ::execl(exe.c_str(), "conga_serve", "cell",
            static_cast<char*>(nullptr));
    std::fprintf(stderr, "conga_serve: exec %s failed: %s\n", exe.c_str(),
                 std::strerror(errno));
    std::_Exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  // The child reads stdin to EOF before anything else, so a blocking write
  // completes; if it died already (EPIPE — SIGPIPE is ignored), the reaper
  // classifies the failure.
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::write(in_pipe[1], request.data() + off, request.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  ::close(in_pipe[1]);
  ::fcntl(out_pipe[0], F_SETFL, O_NONBLOCK);
  pid_out = pid;
  fd_out = out_pipe[0];
  return true;
}

void drain_pipe(ChildSlot& slot) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(slot.out_fd, buf, sizeof(buf));
    if (n > 0) {
      slot.buf.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    break;  // 0 = EOF, -1 = EAGAIN/err; the reaper does the final drain
  }
}

bool parse_response(const std::string& text, const std::string& key,
                    workload::ExperimentResult& result, bool& stored,
                    std::string& err) {
  Json doc;
  if (!Json::parse(text, doc, err)) {
    err = "unparseable cell response: " + err;
    return false;
  }
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kCellResponseSchema) {
    err = "bad cell response schema";
    return false;
  }
  const Json* got_key = doc.find("key");
  if (got_key == nullptr || !got_key->is_string() ||
      got_key->as_string() != key) {
    err = "cell response key mismatch";
    return false;
  }
  const Json* stored_v = doc.find("stored");
  stored = stored_v != nullptr && stored_v->is_bool() && stored_v->as_bool();
  const Json* result_v = doc.find("result");
  if (result_v == nullptr || !result_v->is_object()) {
    err = "cell response missing result";
    return false;
  }
  return result_from_json(*result_v, result, err);
}

}  // namespace

bool parse_cell_fault(const std::string& text,
                      std::vector<CellFaultDirective>& out,
                      std::string& err) {
  out.clear();
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      err = "CONGA_CELL_FAULT directive '" + item + "' wants mode:cell";
      return false;
    }
    CellFaultDirective d;
    const std::string mode = item.substr(0, colon);
    if (mode == "crash") {
      d.mode = CellFaultDirective::Mode::kCrash;
    } else if (mode == "hang") {
      d.mode = CellFaultDirective::Mode::kHang;
    } else if (mode == "tear") {
      d.mode = CellFaultDirective::Mode::kTear;
    } else {
      err = "unknown CONGA_CELL_FAULT mode '" + mode +
            "' (crash, hang, tear)";
      return false;
    }
    const std::string rest = item.substr(colon + 1);
    char* parse_end = nullptr;
    const long cell = std::strtol(rest.c_str(), &parse_end, 10);
    if (parse_end == rest.c_str() || *parse_end != '\0' || cell < 0) {
      err = "bad cell index in CONGA_CELL_FAULT directive '" + item + "'";
      return false;
    }
    d.cell = static_cast<std::size_t>(cell);
    out.push_back(d);
  }
  return true;
}

const char* fault_action(const std::vector<CellFaultDirective>& directives,
                         std::size_t cell) {
  for (const CellFaultDirective& d : directives) {
    if (d.cell != cell) continue;
    switch (d.mode) {
      case CellFaultDirective::Mode::kCrash:
        return "crash";
      case CellFaultDirective::Mode::kHang:
        return "hang";
      case CellFaultDirective::Mode::kTear:
        return "tear";
    }
  }
  return "";
}

std::string self_exe_path(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
  return argv0 != nullptr ? std::string(argv0) : std::string();
}

int cell_main(const std::string& request_text, std::string& response_out,
              std::string& diag) {
  response_out.clear();
  Json doc;
  std::string err;
  if (!Json::parse(request_text, doc, err)) {
    diag = "cell: bad request: " + err;
    return kExitBadRequest;
  }
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kCellRequestSchema) {
    diag = "cell: not a conga-cell-request-v1 document";
    return kExitBadRequest;
  }
  const Json* key_v = doc.find("key");
  const Json* fp_v = doc.find("fingerprint");
  const Json* store_v = doc.find("store");
  const Json* spec_v = doc.find("spec");
  if (key_v == nullptr || !key_v->is_string() || fp_v == nullptr ||
      !fp_v->is_string() || store_v == nullptr || !store_v->is_string() ||
      spec_v == nullptr || !spec_v->is_object()) {
    diag = "cell: request missing key/fingerprint/store/spec";
    return kExitBadRequest;
  }

  // Deterministic failure injection for tests and the crash-resilience CI
  // lane; the supervisor decides which cell gets which action.
  const char* action = std::getenv("CONGA_CELL_FAULT_ACTION");
  if (action != nullptr) {
    if (std::strcmp(action, "crash") == 0) std::abort();
    if (std::strcmp(action, "hang") == 0) {
      // Hang until killed — but bail out if orphaned (supervisor was
      // SIGKILLed and can no longer reap us), so tests never leak sleepers.
      while (::getppid() != 1) ::usleep(50 * 1000);
      std::_Exit(0);
    }
    if (std::strcmp(action, "tear") == 0) {
      ResultStore::set_tear_after_tmp_write_for_tests(true);
    }
  }

  ExperimentSpec spec;
  if (!spec_from_json(*spec_v, spec, err)) {
    diag = "cell: bad spec: " + err;
    return kExitBadRequest;
  }
  workload::ExperimentConfig cfg;
  if (!to_experiment_config(spec, cfg, err)) {
    diag = "cell: " + err;
    return kExitBadRequest;
  }
  const workload::ExperimentResult result = workload::run_fct_experiment(cfg);

  bool stored = false;
  std::string store_err;
  if (!store_v->as_string().empty()) {
    ResultStore store(store_v->as_string());
    stored = store.put(key_v->as_string(), fp_v->as_string(),
                       canonical_json(spec), result, store_err);
  }

  Json resp = Json::object();
  resp.set("schema", Json::string(kCellResponseSchema));
  resp.set("key", Json::string(key_v->as_string()));
  resp.set("stored", Json::boolean(stored));
  resp.set("store_error", Json::string(store_err));
  resp.set("result", json_of_result(result));
  response_out = resp.dump() + "\n";
  return 0;
}

bool supervise_misses(CampaignRun& run, const std::vector<std::size_t>& misses,
                      const RunOptions& ropts, const SupervisorOptions& sopts,
                      const CellDoneFn& on_done,
                      const volatile std::sig_atomic_t* shutdown,
                      std::vector<std::uint8_t>& stored, bool& interrupted,
                      std::string& err) {
  if (sopts.exe.empty() || ::access(sopts.exe.c_str(), X_OK) != 0) {
    err = "supervisor: cell executable '" + sopts.exe +
          "' is not executable";
    return false;
  }
  std::vector<CellFaultDirective> faults;
  if (!parse_cell_fault(sopts.fault_spec, faults, err)) return false;

  // Main thread only: it forks children, drains their pipes, enforces
  // deadlines, and emits telemetry.
  std::signal(SIGPIPE, SIG_IGN);  // a dead child's stdin is a failed write
  telemetry::ComponentId comp = telemetry::kInvalidComponent;
  if (ropts.sink != nullptr) {
    comp = ropts.sink->intern_component("supervisor/" + run.spec.name);
  }
  const std::size_t jobs =
      static_cast<std::size_t>(std::max(1, sopts.jobs));
  std::vector<ChildSlot> running;
  std::size_t next = 0;

  // A cell runs once: a zero exit with a well-formed response is its
  // result; anything else is a failed_cells entry.
  auto finish = [&](const ChildSlot& slot, int status) {
    const std::size_t idx = slot.idx;
    const Cell& cell = run.cells[idx];
    const bool exited = WIFEXITED(status);
    const int code = exited ? WEXITSTATUS(status) : 0;
    const int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    const std::uint64_t enc =
        exited ? static_cast<std::uint64_t>(code)
               : (0x100ULL | static_cast<std::uint64_t>(sig));
    telemetry::emit(ropts.sink, telemetry::EventType::kSupervisorExit, comp,
                    0, idx, enc);

    if (exited && code == 0) {
      workload::ExperimentResult result;
      bool cell_stored = false;
      std::string perr;
      if (parse_response(slot.buf, cell.key, result, cell_stored, perr)) {
        run.results[idx] = std::move(result);
        stored[idx] = cell_stored ? 1 : 0;
        if (ropts.verbose) {
          std::fprintf(stderr, "  [%s: %zu flows]\n",
                       cell_coordinate(cell).c_str(), run.results[idx].flows);
        }
        if (on_done) on_done(idx, cell, run.origins[idx], &run.results[idx]);
        return;
      }
      if (ropts.verbose) {
        std::fprintf(stderr, "supervisor: cell %zu: %s\n", idx,
                     perr.c_str());
      }
    }

    FailedCell f;
    f.index = idx;
    f.coordinate = cell_coordinate(cell);
    f.key = cell.key;
    if (slot.timed_out) {
      f.outcome = "timeout";
      f.term_signal = sig;
    } else if (sig != 0) {
      f.outcome = "signal";
      f.term_signal = sig;
    } else {
      f.outcome = "exit";
      f.exit_code = code;
    }
    run.origins[idx] = CellOrigin::kFailed;
    ++run.stats.failed;
    telemetry::emit(ropts.sink, telemetry::EventType::kSupervisorQuarantine,
                    comp, 0, idx, enc);
    std::fprintf(stderr, "supervisor: FAILED cell %zu (%s): %s\n", idx,
                 f.coordinate.c_str(), f.outcome.c_str());
    run.failed.push_back(std::move(f));
    if (on_done) on_done(idx, cell, CellOrigin::kFailed, nullptr);
  };

  while (next < misses.size() || !running.empty()) {
    if (shutdown != nullptr && *shutdown != 0) {
      // Interrupted: in-flight cells are simply lost; whatever already
      // completed is in the store for the rerun.
      for (const ChildSlot& slot : running) {
        ::kill(slot.pid, SIGKILL);
        ::waitpid(slot.pid, nullptr, 0);
        ::close(slot.out_fd);
      }
      interrupted = true;
      return true;
    }

    // Launch cells into free slots.
    while (running.size() < jobs && next < misses.size()) {
      ChildSlot slot;
      slot.idx = misses[next++];
      const std::string request = make_cell_request(
          run.cells[slot.idx], run.fingerprint, sopts.store_root);
      const char* action = fault_action(faults, slot.idx);
      std::string spawn_err;
      if (!spawn_cell(sopts.exe, request, action, slot.pid, slot.out_fd,
                      spawn_err)) {
        std::fprintf(stderr, "supervisor: spawn failed: %s\n",
                     spawn_err.c_str());
        finish(slot, 127 << 8);  // synthesized "exit 127" status
        continue;
      }
      slot.started = Clock::now();
      telemetry::emit(ropts.sink, telemetry::EventType::kSupervisorSpawn,
                      comp, 0, slot.idx, 0);
      if (ropts.verbose) {
        std::fprintf(stderr, "supervisor: spawn cell %zu%s%s\n", slot.idx,
                     *action != '\0' ? " fault=" : "", action);
      }
      running.push_back(std::move(slot));
    }

    // Drain child stdout so a chatty child never blocks on a full pipe.
    for (ChildSlot& slot : running) drain_pipe(slot);

    // Reap.
    for (std::size_t si = 0; si < running.size();) {
      int status = 0;
      const pid_t r = ::waitpid(running[si].pid, &status, WNOHANG);
      if (r == running[si].pid) {
        drain_pipe(running[si]);  // final bytes between last drain and exit
        ::close(running[si].out_fd);
        finish(running[si], status);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(si));
      } else {
        ++si;
      }
    }

    // Deadlines.
    for (ChildSlot& slot : running) {
      if (slot.timed_out ||
          Clock::now() - slot.started <=
              std::chrono::milliseconds(sopts.deadline_ms)) {
        continue;
      }
      ::kill(slot.pid, SIGKILL);
      slot.timed_out = true;
      ++run.stats.timeouts;
      telemetry::emit(ropts.sink, telemetry::EventType::kSupervisorTimeout,
                      comp, 0, slot.idx,
                      static_cast<std::uint64_t>(sopts.deadline_ms));
      if (ropts.verbose) {
        std::fprintf(stderr,
                     "supervisor: cell %zu hit the %lld ms deadline\n",
                     slot.idx, static_cast<long long>(sopts.deadline_ms));
      }
    }

    if (!running.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // Deterministic report order regardless of completion interleaving.
  std::sort(run.failed.begin(), run.failed.end(),
            [](const FailedCell& a, const FailedCell& b) {
              return a.index < b.index;
            });
  return true;
}

}  // namespace conga::campaign
