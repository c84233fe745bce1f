// Discrete-event scheduler: the heart of the simulator.
//
// Single-threaded and deterministic: events at equal timestamps fire in the
// order they were scheduled (a monotone sequence number breaks ties), so a
// run is exactly reproducible given the same seed.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace conga::telemetry {
class TraceSink;
}  // namespace conga::telemetry

namespace conga::sim {

/// Opaque handle identifying a scheduled event, usable for cancellation.
/// Internally packs (slot index, generation); only values returned by
/// schedule_at/schedule_after (and kInvalidEventId) are meaningful.
using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

/// A discrete-event scheduler.
///
/// Usage:
///   Scheduler sched;
///   sched.schedule_after(microseconds(5), [] { ... });
///   sched.run();
///
/// Components hold a `Scheduler&` and schedule callbacks; there is no global
/// singleton, so multiple independent simulations can coexist (which the
/// tests and the parallel experiment runner exploit heavily).
///
/// Implementation: a 4-ary implicit heap of 24-byte POD nodes ordered by
/// (time, schedule sequence), indexing into a slot arena that owns the
/// callbacks. Each slot carries a generation counter baked into the EventId,
/// so a stale id (already fired, already cancelled, never valid) fails a
/// generation check instead of corrupting the pending-event accounting, and
/// a back-pointer to its node's heap index, so cancel() removes the node at
/// once. The heap holds exactly the pending events.
class Scheduler {
 public:
  using Callback = UniqueFunction;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Starts at 0.
  TimeNs now() const { return now_; }

  /// Schedules `cb` at absolute time `t`. Times in the past are clamped to
  /// now() (the event still fires, after currently pending same-time events).
  EventId schedule_at(TimeNs t, Callback cb);

  /// Schedules `cb` after a relative delay `dt` (negative clamps to 0).
  EventId schedule_after(TimeNs dt, Callback cb) {
    return schedule_at(now_ + dt, std::move(cb));
  }

  /// Cancels a pending event. Cancelling an already-fired, already-cancelled,
  /// or invalid id is a harmless no-op (this makes timer management in TCP
  /// much simpler). O(log n): the event's heap node is removed and its
  /// callback destroyed before cancel() returns. The callback is destroyed
  /// last, so a payload destructor may itself schedule or cancel events.
  void cancel(EventId id);

  /// Runs until the event queue is empty or stop() is called.
  void run();

  /// Runs events with timestamp <= `t`, then sets now() to `t`.
  void run_until(TimeNs t);

  /// Stops a run() in progress after the current event returns.
  void stop() { stopped_ = true; }

  /// Number of events dispatched so far (useful for perf reporting).
  std::uint64_t events_dispatched() const { return dispatched_; }

  /// Number of events currently pending (excluding cancelled ones). Exact:
  /// maintained as a live counter, so no amount of redundant cancel() calls
  /// can make it drift (let alone underflow).
  std::size_t pending() const { return live_; }

  /// Observer invoked once per dispatched event with (time, seq), in dispatch
  /// order, where seq is the monotone schedule-order sequence number (1 for
  /// the first event ever scheduled, and so on). Hashing this stream
  /// fingerprints the run's exact interleaving — the determinism auditor's
  /// event-trace digest. Unset (the default) costs one predictable branch
  /// per dispatch.
  using TraceHook = std::function<void(TimeNs, EventId)>;
  void set_trace_hook(TraceHook h) { trace_ = std::move(h); }

  /// Ambient telemetry sink for this simulation, or nullptr (the default).
  /// Components that already hold a `Scheduler&` (TCP senders, generators)
  /// reach the sink through here instead of threading another pointer
  /// through every constructor. The scheduler itself never records; it only
  /// carries the pointer.
  telemetry::TraceSink* telemetry() const { return telemetry_; }
  void set_telemetry(telemetry::TraceSink* sink) { telemetry_ = sink; }

 private:
  /// One pending entry in the implicit 4-ary heap. Trivially copyable and
  /// 24 bytes, so sift operations move PODs, not callbacks.
  struct HeapNode {
    TimeNs time;
    std::uint64_t seq;   ///< schedule-order tie-break; fed to the trace hook
    std::uint32_t slot;  ///< index into slots_
  };

  /// Callback arena entry. `gen` is odd while the slot identifies events
  /// (so a packed EventId is never 0) and advances by 2 every time the slot
  /// is released, invalidating outstanding ids. A generation would have to
  /// wrap through 2^31 reuses of one slot while an old id is still held for
  /// a stale handle to collide — out of reach of any realistic run.
  struct Slot {
    Callback cb;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoSlot;
    std::uint32_t heap_pos = 0;  ///< index of this slot's node in heap_
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffU;

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  static bool earlier(const HeapNode& a, const HeapNode& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Stores `node` at heap index `i` and points its slot back at `i`.
  void place(std::size_t i, const HeapNode& node);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Removes the node at heap index `i`: the last node fills the hole and
  /// is sifted into place. Returns the moved node's slot, or kNoSlot when
  /// `i` was the last index.
  std::uint32_t remove_at(std::size_t i);
  /// Checks (under CONGA_CHECK_INVARIANTS) that the heap holds exactly the
  /// live events and that `moved`'s back-pointer names its node.
  void check_heap(std::uint32_t moved) const;
  /// Removes the root event (which must exist), releases its slot, then
  /// runs it.
  void dispatch_top();

  TimeNs now_ = 0;
  TraceHook trace_;
  telemetry::TraceSink* telemetry_ = nullptr;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
  std::size_t live_ = 0;
  bool stopped_ = false;
  std::vector<HeapNode> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace conga::sim
