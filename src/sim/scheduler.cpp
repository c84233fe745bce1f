#include "sim/scheduler.hpp"

#include <utility>

#include "debug/invariants.hpp"

namespace conga::sim {

void Scheduler::add_chunk() {
  const auto base = static_cast<std::uint32_t>(meta_.size());
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  meta_.resize(meta_.size() + kChunkSlots);
  // Thread the new slots onto the (empty) free list in index order.
  for (std::uint32_t i = 0; i + 1 < kChunkSlots; ++i) {
    meta_[base + i].link = base + i + 1;
  }
  meta_[base + kChunkSlots - 1].link = free_head_;
  free_head_ = base;
}

void Scheduler::sift_up(std::size_t i) {
  const HeapNode node = heap_[i];
  const Key k = key(node);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(k < key(heap_[parent]))) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, node);
}

std::size_t Scheduler::min_child(std::size_t first, std::size_t n) const {
  const HeapNode* h = heap_.data();
  if (first + 4 <= n) {
    // Select tournament over a full family: two pairs, then their winners,
    // with no data-dependent branch. Keys are unique (seq), so the winner
    // is the same as any scan's.
    const Key k0 = key(h[first]);
    const Key k1 = key(h[first + 1]);
    const Key k2 = key(h[first + 2]);
    const Key k3 = key(h[first + 3]);
    const bool right = k1 < k0;
    const std::size_t a = first + right;
    const Key ka = right ? k1 : k0;
    const bool left = k3 < k2;
    const std::size_t b = first + 2 + left;
    const Key kb = left ? k3 : k2;
    // Mask select: GCC turns a ternary here into a branch.
    return a + ((b - a) & (std::size_t{0} - (kb < ka)));
  }
  std::size_t best = first;
  for (std::size_t c = first + 1; c < n; ++c) {
    if (key(h[c]) < key(h[best])) best = c;
  }
  return best;
}

void Scheduler::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapNode node = heap_[i];
  const Key k = key(node);
  for (std::size_t first = 4 * i + 1; first < n; first = 4 * i + 1) {
    const std::size_t best = min_child(first, n);
    if (!(key(heap_[best]) < k)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, node);
}

std::uint32_t Scheduler::remove_at(std::size_t i) {
  const HeapNode last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return kNoSlot;
  heap_[i] = last;
  if (i > 0 && key(last) < key(heap_[(i - 1) / 4])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
  return last.slot;
}

void Scheduler::settle_root() {
  if (!dead_root_) return;
  dead_root_ = false;
  check_heap(remove_at(0));
}

void Scheduler::check_heap([[maybe_unused]] std::uint32_t moved) const {
  CONGA_INVARIANT(check_condition(
      heap_.size() == live_ + (dead_root_ ? 1 : 0), "scheduler", now_,
      "scheduler.heap-accounting",
      "heap size differs from live event count (plus a dead root)"));
  CONGA_INVARIANT(check_condition(
      moved == kNoSlot || (meta_[moved].link < heap_.size() &&
                           heap_[meta_[moved].link].slot == moved),
      "scheduler", now_, "scheduler.heap-index",
      "moved node's slot does not point back at its heap index"));
}

EventId Scheduler::enqueue(TimeNs t, std::uint32_t slot) {
  if (t < now_) t = now_;
  const HeapNode node{static_cast<std::uint64_t>(t), next_seq_++, slot};
  ++live_;
  if (dead_root_) {
    // Replace-top: every pending node orders after the running event, so
    // the new node can take over the root and sift down from there.
    dead_root_ = false;
    heap_[0] = node;
    sift_down(0);
  } else {
    heap_.push_back(node);
    sift_up(heap_.size() - 1);
  }
  check_heap(slot);
  return make_id(slot, meta_[slot].gen);
}

void Scheduler::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id >> 32);
  const std::uint32_t gen = static_cast<std::uint32_t>(id);
  // Generations are odd, so kInvalidEventId (gen 0) never matches; a fired
  // or re-cancelled id fails the generation check below.
  if ((gen & 1U) == 0 || slot >= meta_.size()) return;
  SlotMeta& m = meta_[slot];
  if (m.gen != gen) return;
  m.gen += 2;  // stays odd; invalidates outstanding ids
  const std::uint32_t moved = remove_at(m.link);
  --live_;
  check_heap(moved);
  // The payload (e.g. a captured packet) dies after the heap bookkeeping is
  // complete and before the slot is free: its destructor may schedule
  // (growing the arena, which moves no slot) or cancel this very id again.
  slot_at(slot).cb.reset();
  free_slot(slot);
}

void Scheduler::dispatch_top() {
  const HeapNode top = heap_.front();
  meta_[top.slot].gen += 2;  // a self-cancel from the callback is a no-op
  --live_;
  dead_root_ = true;
  CONGA_INVARIANT(check_time_monotonic("scheduler", now_,
                                       static_cast<TimeNs>(top.time)));
  now_ = static_cast<TimeNs>(top.time);
  ++dispatched_;
  // Runs on every exit, a throwing callback included, so the scheduler is
  // consistent again before the exception leaves run().
  struct Finish {
    Scheduler& s;
    std::uint32_t slot;
    ~Finish() {
      s.settle_root();
      s.slot_at(slot).cb.reset();  // may schedule or cancel: slot not free yet
      s.free_slot(slot);
    }
  } finish{*this, top.slot};
  if (trace_) trace_(now_, top.seq);
  slot_at(top.slot).cb();
}

void Scheduler::run() {
  settle_root();  // a run() nested in a callback takes over its dead root
  stopped_ = false;
  while (!stopped_ && !heap_.empty()) dispatch_top();
}

void Scheduler::run_until(TimeNs t) {
  settle_root();
  stopped_ = false;
  while (!stopped_ && !heap_.empty() &&
         static_cast<TimeNs>(heap_.front().time) <= t) {
    dispatch_top();
  }
  if (now_ < t) now_ = t;
}

}  // namespace conga::sim
