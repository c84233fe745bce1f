// Discrete-event scheduler: the heart of the simulator.
//
// Single-threaded and deterministic: events at equal timestamps fire in the
// order they were scheduled (a monotone sequence number breaks ties), so a
// run is exactly reproducible given the same seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
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

/// What schedule_at/schedule_after accept: any callable a Callback can hold,
/// built in place in the event's slot, or a Callback rvalue. A Callback
/// lvalue is rejected, so a caller's wrapper is never silently moved from;
/// other callables passed as lvalues are copied.
template <typename F>
concept SchedulableCallback =
    std::is_same_v<F, UniqueFunction> ||
    (!std::is_same_v<std::remove_cvref_t<F>, UniqueFunction> &&
     std::is_invocable_v<std::decay_t<F>&>);

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
/// (time, schedule sequence), compared as one unsigned 128-bit key, indexing
/// into a slot arena that owns the callbacks.
/// - The arena is a list of fixed-size chunks that never move, so a callable
///   is built in its slot (UniqueFunction::emplace) and called where it sits:
///   scheduling relocates nothing, and a callback may schedule enough events
///   to grow the arena while it runs.
/// - Per-slot bookkeeping is dense and apart from the callbacks: a generation
///   counter baked into the EventId, so a stale id (already fired, already
///   cancelled, never valid) fails a generation check instead of corrupting
///   the pending-event accounting; and a back-pointer to the slot's heap
///   index, written on every sift move, so cancel() removes the node at once.
/// - Replace-top: while a callback runs, its node stays at the root as a
///   dead node. The first event it schedules overwrites the root and sifts
///   down once, instead of a pop plus a push; if it schedules nothing, the
///   root is popped after it returns (or throws). Most callbacks (link
///   tx-complete and delivery, most receives) schedule at least one event.
/// Apart from that dead root, the heap holds exactly the pending events.
class Scheduler {
 public:
  using Callback = UniqueFunction;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Starts at 0.
  TimeNs now() const { return now_; }

  /// Schedules `f` at absolute time `t`. Times in the past are clamped to
  /// now() (the event still fires, after currently pending same-time events).
  template <SchedulableCallback F>
  EventId schedule_at(TimeNs t, F&& f) {
    const std::uint32_t slot = acquire_slot();
    try {
      slot_at(slot).cb.emplace(std::forward<F>(f));
    } catch (...) {
      free_slot(slot);
      throw;
    }
    return enqueue(t, slot);
  }

  /// Schedules `f` after a relative delay `dt` (negative clamps to 0).
  template <SchedulableCallback F>
  EventId schedule_after(TimeNs dt, F&& f) {
    return schedule_at(now_ + dt, std::forward<F>(f));
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

  /// Number of events currently pending (excluding cancelled ones and the
  /// running one). Exact: maintained as a live counter, so no amount of
  /// redundant cancel() calls can make it drift (let alone underflow).
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
  /// One entry in the implicit 4-ary heap. Trivially copyable and 24 bytes,
  /// so sift operations move PODs, not callbacks. `time` is never negative
  /// (it is clamped to now(), which starts at 0), so (time, seq) orders as
  /// one unsigned 128-bit key.
  struct HeapNode {
    std::uint64_t time;
    std::uint64_t seq;   ///< schedule-order tie-break; fed to the trace hook
    std::uint32_t slot;  ///< index into the slot arena
  };
  using Key = unsigned __int128;

  /// Callback arena entry: exactly one cache line.
  struct alignas(64) Slot {
    Callback cb;
  };
  static constexpr std::uint32_t kChunkSlots = 128;

  /// Dense per-slot bookkeeping. `gen` is odd while the slot identifies
  /// events (so a packed EventId is never 0) and advances by 2 every time
  /// the event is cancelled or starts running, invalidating outstanding
  /// ids. A generation would have to wrap through 2^31 reuses of one slot
  /// while an old id is still held for a stale handle to collide — out of
  /// reach of any realistic run. `link` is the slot's heap index while its
  /// event is pending and the next free slot while it is free.
  struct SlotMeta {
    std::uint32_t gen = 1;
    std::uint32_t link = kNoSlot;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffU;

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  static Key key(const HeapNode& n) {
    return (static_cast<Key>(n.time) << 64) | n.seq;
  }

  Slot& slot_at(std::uint32_t slot) {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }

  std::uint32_t acquire_slot() {
    if (free_head_ == kNoSlot) add_chunk();
    const std::uint32_t slot = free_head_;
    free_head_ = meta_[slot].link;
    return slot;
  }
  void free_slot(std::uint32_t slot) {
    meta_[slot].link = free_head_;
    free_head_ = slot;
  }
  /// Appends a chunk of free slots to the arena.
  void add_chunk();
  /// Gives the filled `slot` a sequence number and a heap node at time `t`
  /// (clamped to now()): it takes over a dead root, or is pushed.
  EventId enqueue(TimeNs t, std::uint32_t slot);
  /// Stores `node` at heap index `i` and points its slot back at `i`.
  void place(std::size_t i, const HeapNode& node) {
    heap_[i] = node;
    meta_[node.slot].link = static_cast<std::uint32_t>(i);
  }
  /// Index of the least of the children at [first, min(first + 4, n)).
  std::size_t min_child(std::size_t first, std::size_t n) const;
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Removes the node at heap index `i`: the last node fills the hole and
  /// is sifted into place. Returns the moved node's slot, or kNoSlot when
  /// `i` was the last index.
  std::uint32_t remove_at(std::size_t i);
  /// Pops the dead root left by a callback that scheduled nothing.
  void settle_root();
  /// Checks (under CONGA_CHECK_INVARIANTS) that the heap holds exactly the
  /// live events, plus the dead root while a callback runs, and that
  /// `moved`'s back-pointer names its node.
  void check_heap(std::uint32_t moved) const;
  /// Runs the root event in its slot, then settles the root, destroys the
  /// payload and frees the slot — also when the callback throws.
  void dispatch_top();

  TimeNs now_ = 0;
  TraceHook trace_;
  telemetry::TraceSink* telemetry_ = nullptr;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
  std::size_t live_ = 0;
  bool stopped_ = false;
  bool dead_root_ = false;  ///< heap_[0] is the running event's node
  std::vector<HeapNode> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<SlotMeta> meta_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace conga::sim
