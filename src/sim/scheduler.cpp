#include "sim/scheduler.hpp"

#include <utility>

#include "debug/invariants.hpp"

namespace conga::sim {

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoSlot;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.gen += 2;  // stays odd; invalidates outstanding ids
  s.next_free = free_head_;
  free_head_ = slot;
}

void Scheduler::place(std::size_t i, const HeapNode& node) {
  heap_[i] = node;
  slots_[node.slot].heap_pos = static_cast<std::uint32_t>(i);
}

void Scheduler::sift_up(std::size_t i) {
  const HeapNode node = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(node, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, node);
}

void Scheduler::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapNode node = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], node)) break;
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
  if (i > 0 && earlier(last, heap_[(i - 1) / 4])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
  return last.slot;
}

void Scheduler::check_heap([[maybe_unused]] std::uint32_t moved) const {
  CONGA_INVARIANT(check_condition(heap_.size() == live_, "scheduler", now_,
                                  "scheduler.heap-accounting",
                                  "heap size differs from live event count"));
  CONGA_INVARIANT(check_condition(
      moved == kNoSlot || (slots_[moved].heap_pos < heap_.size() &&
                           heap_[slots_[moved].heap_pos].slot == moved),
      "scheduler", now_, "scheduler.heap-index",
      "moved node's slot does not point back at its heap index"));
}

EventId Scheduler::schedule_at(TimeNs t, Callback cb) {
  if (t < now_) t = now_;
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t slot = acquire_slot();
  slots_[slot].cb = std::move(cb);
  heap_.push_back(HeapNode{t, seq, slot});
  sift_up(heap_.size() - 1);
  ++live_;
  return make_id(slot, slots_[slot].gen);
}

void Scheduler::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id >> 32);
  const std::uint32_t gen = static_cast<std::uint32_t>(id);
  // Generations are odd, so kInvalidEventId (gen 0) never matches; a fired
  // or re-cancelled id fails the generation check below.
  if ((gen & 1U) == 0 || slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.gen != gen) return;
  // The payload (e.g. a captured packet) dies at the end of this scope,
  // after the heap and slot bookkeeping is complete: its destructor may
  // schedule (reallocating slots_) or cancel this very id again.
  const Callback doomed = std::move(s.cb);
  const std::uint32_t moved = remove_at(s.heap_pos);
  release_slot(slot);
  --live_;
  check_heap(moved);
}

void Scheduler::dispatch_top() {
  const HeapNode top = heap_.front();
  Callback cb = std::move(slots_[top.slot].cb);
  const std::uint32_t moved = remove_at(0);
  release_slot(top.slot);
  --live_;
  check_heap(moved);
  CONGA_INVARIANT(check_time_monotonic("scheduler", now_, top.time));
  now_ = top.time;
  ++dispatched_;
  if (trace_) trace_(top.time, top.seq);
  cb();
}  // the payload dies here, with the scheduler consistent again

void Scheduler::run() {
  stopped_ = false;
  while (!stopped_ && !heap_.empty()) dispatch_top();
}

void Scheduler::run_until(TimeNs t) {
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_.front().time <= t) {
    dispatch_top();
  }
  if (now_ < t) now_ = t;
}

}  // namespace conga::sim
