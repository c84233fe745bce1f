// Crash-safe campaign supervisor: per-cell child processes under a deadline.
//
// run_campaign() executes cache misses on in-process worker threads — fast,
// but one aborting cell (an invariant violation, a sanitizer kill, a plain
// crash) takes the whole sweep down with it, and one stuck cell hangs it
// forever. run_campaign_supervised() shares run_campaign()'s expand ->
// look up -> commit -> telemetry core and differs only in how misses run:
// each miss runs in an isolated child process (a hidden `conga_serve cell`
// subcommand that reads a conga-cell-request-v1 document on stdin,
// simulates, writes its result entry into the content-addressed store
// itself, and echoes the result on stdout), so the failure domain of a cell
// is exactly that cell.
//
// Supervision rules (DESIGN.md §15):
//  * deadline     — a child that outlives its per-cell wall-clock deadline
//                   is SIGKILLed and the cell fails as a timeout;
//  * failed_cells — a cell whose child crashes, hangs or exits nonzero runs
//                   once (cells are deterministic: a rerun would fail the
//                   same way) and lands in the report's failed_cells block;
//                   the campaign still completes;
//  * interrupt    — when the caller's shutdown flag goes up (SIGTERM/SIGINT)
//                   no new child launches, in-flight children are SIGKILLed
//                   and the run returns kDrained without a report. Completed
//                   cells are already in the store: a rerun re-reads them as
//                   hits and reproduces the undisturbed report byte-for-byte.
//
// Every decision is observable: kSupervisor telemetry events
// (spawn/exit/timeout/quarantine) fire on the main thread as the loop takes
// them, and the CONGA_CELL_FAULT env knob (parsed by the CLI into
// SupervisorOptions::fault_spec) injects deterministic crashes, hangs, and
// torn store writes for tests and the crash-resilience CI lane.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace conga::campaign {

struct SupervisorOptions {
  /// Path to the conga_serve binary to exec for `cell` children (resolve
  /// with self_exe_path()). Required.
  std::string exe;
  /// Store root children write their entries into; "" runs storeless (the
  /// parent keeps results from the child's stdout echo only).
  std::string store_root;
  int jobs = 1;                       ///< concurrent children
  std::int64_t deadline_ms = 120000;  ///< per-cell wall-clock budget
  /// CONGA_CELL_FAULT directives ("crash:0,hang:2,tear:3"); see
  /// parse_cell_fault(). Empty injects nothing.
  std::string fault_spec;
};

/// One CONGA_CELL_FAULT directive: inject `mode` into cell `cell`.
///  * crash — the child aborts (SIGABRT) after reading its request;
///  * hang  — the child sleeps forever (killed at the deadline);
///  * tear  — the child's store write dies between tmp write and rename,
///            orphaning a tmp file (the `store gc` target).
struct CellFaultDirective {
  enum class Mode : std::uint8_t { kCrash, kHang, kTear };
  Mode mode = Mode::kCrash;
  std::size_t cell = 0;
};

/// Parses "mode:cell" comma lists ("crash:0,hang:2"). Returns false and
/// sets `err` on malformed directives.
bool parse_cell_fault(const std::string& text,
                      std::vector<CellFaultDirective>& out, std::string& err);

/// Action name for `cell` — "crash", "hang", "tear", or "" — the value the
/// supervisor exports as CONGA_CELL_FAULT_ACTION to that cell's child.
const char* fault_action(const std::vector<CellFaultDirective>& directives,
                         std::size_t cell);

/// Resolves the running binary's path (/proc/self/exe, falling back to
/// argv0) for SupervisorOptions::exe.
std::string self_exe_path(const char* argv0);

enum class SuperviseOutcome : std::uint8_t {
  kComplete = 0,  ///< every cell resolved (result or failed_cells entry)
  kDrained,       ///< shutdown observed; in-flight cells killed, no report
};

/// Streaming notification, invoked on the main thread as each cell resolves
/// (store hits during lookup, then children as they land). `result` is null
/// for kFailed cells.
using CellDoneFn =
    std::function<void(std::size_t index, const Cell& cell, CellOrigin origin,
                       const workload::ExperimentResult* result)>;

/// Supervised counterpart of run_campaign(): the same lookups, commit and
/// telemetry, with every miss in an isolated child process under the
/// deadline. `shutdown` (may be null) is polled between supervision steps;
/// when it goes nonzero the run is interrupted and `outcome` reports
/// kDrained (out's results are then incomplete — write no report). on_done
/// may be null. Returns false and sets `err` on invalid requests or when
/// the supervisor cannot spawn at all (bad exe path, bad fault spec).
bool run_campaign_supervised(const CampaignSpec& spec, const RunOptions& ropts,
                             const SupervisorOptions& sopts,
                             const CellDoneFn& on_done,
                             const volatile std::sig_atomic_t* shutdown,
                             CampaignRun& out, SuperviseOutcome& outcome,
                             std::string& err);

/// The child-process miss executor behind run_campaign_supervised(): runs
/// each cell in `misses` (indices into run.cells) in its own child, writing
/// results into run.results, marking failures kFailed in run.origins with a
/// run.failed entry (sorted by index), counting run.stats.failed/timeouts,
/// and setting stored[i] when the child's store write landed. Sets
/// `interrupted` when `shutdown` went up. Returns false and sets `err` when
/// it cannot start (unexecutable exe, malformed fault spec).
bool supervise_misses(CampaignRun& run, const std::vector<std::size_t>& misses,
                      const RunOptions& ropts, const SupervisorOptions& sopts,
                      const CellDoneFn& on_done,
                      const volatile std::sig_atomic_t* shutdown,
                      std::vector<std::uint8_t>& stored, bool& interrupted,
                      std::string& err);

/// Child-side body of the hidden `conga_serve cell` subcommand: parses a
/// conga-cell-request-v1 document, applies the CONGA_CELL_FAULT_ACTION env
/// knob, simulates, writes the store entry (when a store root was given),
/// and prints a conga-cell-response-v1 document. Returns the process exit
/// code: 0 success (even when the store write degraded), 3 bad request
/// (malformed request / unresolvable spec).
int cell_main(const std::string& request_text, std::string& response_out,
              std::string& diag);

}  // namespace conga::campaign
