// Tests for the discrete-event scheduler and RNG utilities.
#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace conga::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), 0);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, FiresEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(30, [&] { order.push_back(3); });
  sched.schedule_at(10, [&] { order.push_back(1); });
  sched.schedule_at(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30);
}

TEST(Scheduler, EqualTimestampsFireInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, NowAdvancesToEventTime) {
  Scheduler sched;
  TimeNs seen = -1;
  sched.schedule_at(123456, [&] { seen = sched.now(); });
  sched.run();
  EXPECT_EQ(seen, 123456);
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler sched;
  TimeNs seen = -1;
  sched.schedule_at(100, [&] {
    sched.schedule_after(50, [&] { seen = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(seen, 150);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler sched;
  TimeNs seen = -1;
  sched.schedule_at(100, [&] {
    sched.schedule_at(10, [&] { seen = sched.now(); });  // in the past
  });
  sched.run();
  EXPECT_EQ(seen, 100);
}

TEST(Scheduler, CancelPreventsDispatch) {
  Scheduler sched;
  bool fired = false;
  const EventId id = sched.schedule_at(10, [&] { fired = true; });
  sched.cancel(id);
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelInvalidIdIsNoop) {
  Scheduler sched;
  sched.cancel(kInvalidEventId);
  sched.cancel(9999);  // never allocated
  bool fired = false;
  sched.schedule_at(1, [&] { fired = true; });
  sched.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler sched;
  const EventId id = sched.schedule_at(1, [] {});
  sched.run();
  sched.cancel(id);  // already fired
  SUCCEED();
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler sched;
  int count = 0;
  sched.schedule_at(10, [&] { ++count; });
  sched.schedule_at(20, [&] { ++count; });
  sched.schedule_at(30, [&] { ++count; });
  sched.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sched.now(), 20);
  sched.run_until(100);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sched.now(), 100);
}

TEST(Scheduler, StopHaltsRun) {
  Scheduler sched;
  int count = 0;
  sched.schedule_at(1, [&] {
    ++count;
    sched.stop();
  });
  sched.schedule_at(2, [&] { ++count; });
  sched.run();
  EXPECT_EQ(count, 1);
  sched.run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sched.schedule_after(1, recurse);
  };
  sched.schedule_at(0, recurse);
  sched.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sched.now(), 99);
}

TEST(Scheduler, DispatchCountTracksEvents) {
  Scheduler sched;
  for (int i = 0; i < 7; ++i) sched.schedule_at(i, [] {});
  sched.run();
  EXPECT_EQ(sched.events_dispatched(), 7u);
}

TEST(Scheduler, MoveOnlyCaptureIsSupported) {
  Scheduler sched;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  sched.schedule_at(1, [p = std::move(payload), &seen] { seen = *p; });
  sched.run();
  EXPECT_EQ(seen, 42);
}

// Regression: cancel() on an already-fired or never-valid id used to insert
// into the lazy-cancel set forever, so pending() (heap size minus cancelled
// size) underflowed and wrapped to a huge size_t. The generation-checked
// slots make such cancels true no-ops on the accounting.
TEST(Scheduler, PendingSurvivesBogusCancels) {
  Scheduler sched;
  const EventId id = sched.schedule_at(1, [] {});
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
  sched.cancel(id);              // already fired
  sched.cancel(id);              // twice
  sched.cancel(kInvalidEventId); // never valid
  sched.cancel(9999);            // forged
  EXPECT_EQ(sched.pending(), 0u);
  sched.schedule_at(2, [] {});
  EXPECT_EQ(sched.pending(), 1u);  // pre-fix: wrapped near SIZE_MAX
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, DoubleCancelDecrementsPendingOnce) {
  Scheduler sched;
  const EventId a = sched.schedule_at(5, [] {});
  sched.schedule_at(6, [] {});
  EXPECT_EQ(sched.pending(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 1u);
  sched.cancel(a);  // second cancel of the same event: no-op
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, StaleIdCannotCancelSlotReuse) {
  // After an event fires, its slot is recycled for the next event with a
  // fresh generation; the stale id must not cancel the new occupant.
  Scheduler sched;
  const EventId first = sched.schedule_at(1, [] {});
  sched.run();
  bool fired = false;
  sched.schedule_at(2, [&] { fired = true; });  // reuses the slot
  sched.cancel(first);                          // stale generation
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, HeavyCancelChurnKeepsOrderAndAccounting) {
  // Interleaved schedule/cancel churn (the TCP timer pattern) across a
  // backlog: survivors fire in (time, schedule order) and pending() stays
  // exact throughout.
  Scheduler sched;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(sched.schedule_at(100 + (i % 10), [&fired, i] {
      fired.push_back(i);
    }));
  }
  std::size_t expected = 200;
  for (int i = 0; i < 200; i += 2) {  // cancel the even half
    sched.cancel(ids[static_cast<std::size_t>(i)]);
    --expected;
    ASSERT_EQ(sched.pending(), expected);
  }
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
  ASSERT_EQ(fired.size(), 100u);
  // Survivors (odd i) grouped by time bucket (100 + i%10), schedule order
  // within a bucket.
  std::vector<int> expected_order;
  for (int bucket = 1; bucket < 10; bucket += 2) {
    for (int i = bucket; i < 200; i += 10) expected_order.push_back(i);
  }
  EXPECT_EQ(fired, expected_order);
}

TEST(Scheduler, CancelDestroysPayloadEagerly) {
  // Cancelling an event frees its captured payload immediately (pooled
  // packets must return to the pool without waiting for the event's time).
  Scheduler sched;
  auto payload = std::make_shared<int>(7);
  std::weak_ptr<int> watch = payload;
  const EventId id = sched.schedule_at(1000, [p = std::move(payload)] {
    (void)*p;
  });
  EXPECT_FALSE(watch.expired());
  sched.cancel(id);
  EXPECT_TRUE(watch.expired());
  sched.run();
}

TEST(Scheduler, CancelledHeadSkippedByRunUntil) {
  Scheduler sched;
  bool fired_a = false, fired_b = false;
  const EventId a = sched.schedule_at(5, [&] { fired_a = true; });
  sched.schedule_at(10, [&] { fired_b = true; });
  sched.cancel(a);
  sched.run_until(10);
  EXPECT_FALSE(fired_a);
  EXPECT_TRUE(fired_b);
}

// Differential check against a reference model: a std::set ordered by
// (time, seq) holds exactly the events that should be pending, and the
// scheduler must dispatch its minimum every time, with the same seq the
// model assigned, while pending() tracks the set's size. Operations are
// random: schedules at clustered times (so equal-time ties are common, and
// some times lie in the past), cancels of live, fired, already-cancelled
// and forged ids, cancels and schedules from inside running callbacks
// (including cancelling the next head), and run_until windows. A callback
// schedules 0, 1 or several events, some at the current time: the first
// takes over the running event's dead root (replace-top) and the rest are
// pushed; with none, the dead root is popped after the callback returns.
class SchedulerModelCheck {
 public:
  explicit SchedulerModelCheck(std::uint64_t seed) : rng_(seed) {
    sched_.set_trace_hook([this](TimeNs, EventId seq) { hooked_seq_ = seq; });
  }

  void run(int steps) {
    for (int i = 0; i < steps; ++i) {
      const double op = rng_.uniform();
      if (op < 0.45) {
        schedule();
      } else if (op < 0.8) {
        cancel_something();
      } else {
        const TimeNs until = sched_.now() + rng_.uniform_int(0, 12);
        sched_.run_until(until);
        ASSERT_EQ(sched_.now(), until);
        ASSERT_TRUE(live_.empty() || live_.begin()->first > until);
      }
      ASSERT_EQ(sched_.pending(), live_.size()) << "step " << i;
      if (::testing::Test::HasFatalFailure()) return;
    }
    sched_.run();
    ASSERT_TRUE(live_.empty());
    ASSERT_EQ(sched_.pending(), 0u);
    ASSERT_EQ(sched_.events_dispatched(), fired_);
  }

  std::uint64_t fired() const { return fired_; }
  std::uint64_t cancelled() const { return cancelled_; }
  std::uint64_t fired_scheduling_none() const { return bursts_[0]; }
  std::uint64_t fired_scheduling_one() const { return bursts_[1]; }
  std::uint64_t fired_scheduling_several() const { return bursts_[2]; }

 private:
  using Key = std::pair<TimeNs, std::uint64_t>;  // (time, seq)

  void schedule(bool at_now = false) {
    // Times cluster on a 5 ns grid a few steps ahead; one in ten lies in
    // the past and must clamp to now().
    TimeNs t = sched_.now() + 5 * rng_.uniform_int(0, 4);
    if (rng_.chance(0.1)) t = sched_.now() - 3;
    if (at_now) t = sched_.now();
    const std::uint64_t seq = next_seq_++;
    const EventId id = sched_.schedule_at(t, [this, seq] { on_fire(seq); });
    const Key key{t < sched_.now() ? sched_.now() : t, seq};
    live_.insert(key);
    ids_.emplace(key, id);
  }

  void cancel_something() {
    const double kind = rng_.uniform();
    if (kind < 0.5 && !live_.empty()) {
      auto it = ids_.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng_.index(ids_.size())));
      cancel_live(it);
    } else if (kind < 0.65 && !live_.empty()) {
      cancel_live(ids_.find(*live_.begin()));  // the next head
    } else if (kind < 0.9 && !dead_.empty()) {
      sched_.cancel(dead_[rng_.index(dead_.size())]);  // fired or cancelled
    } else {
      // Forged: kInvalidEventId, an even (never issued) generation on a
      // real slot, or an odd generation on a slot that does not exist.
      const double forge = rng_.uniform();
      const auto slot = static_cast<EventId>(rng_.index(64));
      if (forge < 0.3) {
        sched_.cancel(kInvalidEventId);
      } else if (forge < 0.6) {
        sched_.cancel((slot << 32) | (2 * rng_.index(1000)));
      } else {
        sched_.cancel(((slot + 100'000) << 32) | 1);
      }
    }
  }

  void cancel_live(std::map<Key, EventId>::iterator it) {
    sched_.cancel(it->second);
    dead_.push_back(it->second);
    live_.erase(it->first);
    ids_.erase(it);
    ++cancelled_;
  }

  void on_fire(std::uint64_t seq) {
    ASSERT_FALSE(live_.empty());
    const Key head = *live_.begin();
    ASSERT_EQ(head, Key(sched_.now(), seq));
    ASSERT_EQ(hooked_seq_, seq);
    auto it = ids_.find(head);
    dead_.push_back(it->second);
    ids_.erase(it);
    live_.erase(head);
    ++fired_;
    // Re-enter from inside the running callback: maybe cancel something
    // (possibly the next head), then schedule 0, 1 or 2-3 events, a third
    // of them at now(). The mean brood stays below one, so run() ends.
    if (rng_.uniform() < 0.15) cancel_something();
    const double brood = rng_.uniform();
    const int n = brood < 0.5 ? 0 : brood < 0.85 ? 1
                                                 : 2 + static_cast<int>(
                                                           rng_.index(2));
    ++bursts_[static_cast<std::size_t>(n < 2 ? n : 2)];
    for (int k = 0; k < n; ++k) schedule(rng_.chance(0.33));
  }

  Scheduler sched_;
  Rng rng_;
  std::set<Key> live_;
  std::map<Key, EventId> ids_;  // live events' ids
  std::vector<EventId> dead_;   // ids that fired or were cancelled
  std::uint64_t next_seq_ = 1;
  std::uint64_t hooked_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::array<std::uint64_t, 3> bursts_{};  // fires that scheduled 0, 1, 2+
};

TEST(Scheduler, MatchesReferenceModelUnderRandomOperations) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    SchedulerModelCheck check(seed);
    check.run(10'000);
    ASSERT_FALSE(HasFatalFailure());
    // The mix must actually exercise both paths.
    EXPECT_GT(check.fired(), 1000u);
    EXPECT_GT(check.cancelled(), 1000u);
    // ... and every way a callback can leave its dead root.
    EXPECT_GT(check.fired_scheduling_none(), 500u);
    EXPECT_GT(check.fired_scheduling_one(), 500u);
    EXPECT_GT(check.fired_scheduling_several(), 200u);
  }
}

// A callback that schedules enough events to add several arena chunks while
// it runs must keep running in its own (unmoved) slot: its captures stay
// readable after the growth. Under ASan a moved or freed slot would trap.
TEST(Scheduler, CallbackGrowsArenaWhileRunning) {
  Scheduler sched;
  std::vector<int> fired;
  std::vector<int> seen_after;
  sched.schedule_at(1, [&sched, &fired, &seen_after,
                        tag = std::make_unique<int>(7),
                        text = std::string(40, 'x')] {
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(sched.now() + 1000 - i, [&fired, i] {
        fired.push_back(i);
      });
    }
    seen_after.push_back(*tag);
    seen_after.push_back(static_cast<int>(text.size()));
  });
  sched.run();
  EXPECT_EQ(seen_after, (std::vector<int>{7, 40}));
  ASSERT_EQ(fired.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], 999 - i);
  }
  EXPECT_EQ(sched.pending(), 0u);
}

// An exception escaping a callback leaves run() with the scheduler
// consistent: the thrower's payload is destroyed, its id is stale,
// pending() counts exactly the other events, and a later run() dispatches
// them in (time, seq) order — whether the thrower had already replaced its
// dead root with a new event or had scheduled nothing.
TEST(Scheduler, ThrowingCallbackLeavesSchedulerConsistent) {
  for (const bool schedule_first : {false, true}) {
    SCOPED_TRACE(schedule_first);
    Scheduler sched;
    std::vector<int> fired;
    sched.schedule_at(5, [&fired] { fired.push_back(1); });
    auto payload = std::make_shared<int>(0);
    std::weak_ptr<int> watch = payload;
    EventId thrower = kInvalidEventId;
    thrower = sched.schedule_at(10, [&, p = std::move(payload)] {
      fired.push_back(2);
      sched.cancel(thrower);  // self-cancel: a no-op
      if (schedule_first) {
        sched.schedule_at(10, [&fired] { fired.push_back(3); });
      }
      throw std::runtime_error("callback failed");
    });
    sched.schedule_at(10, [&fired] { fired.push_back(4); });
    sched.schedule_at(20, [&fired] { fired.push_back(5); });
    EXPECT_THROW(sched.run(), std::runtime_error);
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(sched.now(), 10);
    EXPECT_EQ(sched.events_dispatched(), 2u);
    EXPECT_EQ(sched.pending(), schedule_first ? 3u : 2u);
    sched.cancel(thrower);  // fired: a no-op
    EXPECT_EQ(sched.pending(), schedule_first ? 3u : 2u);
    sched.run();
    EXPECT_EQ(sched.pending(), 0u);
    EXPECT_EQ(fired, schedule_first ? (std::vector<int>{1, 2, 4, 3, 5})
                                    : (std::vector<int>{1, 2, 4, 5}));
  }
}

// A callback may drive the scheduler itself: a run_until() nested in an
// event dispatches the later events in order, never the running event
// (whose node is still at the heap root) a second time.
TEST(Scheduler, RunNestedInCallbackDispatchesInOrder) {
  Scheduler sched;
  std::vector<int> fired;
  sched.schedule_at(10, [&] {
    fired.push_back(1);
    sched.run_until(15);
    fired.push_back(3);
  });
  sched.schedule_at(12, [&fired] { fired.push_back(2); });
  sched.schedule_at(20, [&fired] { fired.push_back(4); });
  sched.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sched.events_dispatched(), 3u);
  EXPECT_EQ(sched.pending(), 0u);
}

template <typename F>
concept Schedulable = requires(Scheduler& s, F&& f) {
  s.schedule_at(TimeNs{0}, std::forward<F>(f));
};

// Lvalue callables are copied into the event, never moved from; an lvalue
// Callback does not compile at all (it could only be moved from), while a
// Callback rvalue is taken over.
TEST(Scheduler, LvalueCallablesAreCopiedNotMoved) {
  static_assert(!Schedulable<Scheduler::Callback&>);
  static_assert(!Schedulable<const Scheduler::Callback&>);
  static_assert(Schedulable<Scheduler::Callback>);

  Scheduler sched;
  auto payload = std::make_shared<int>(9);
  int seen = 0;
  auto fn = [payload, &seen] { seen += *payload; };
  static_assert(Schedulable<decltype(fn)&>);
  sched.schedule_at(1, fn);
  sched.schedule_after(2, fn);
  EXPECT_EQ(payload.use_count(), 4);  // ours, fn's and the two events'
  fn();  // fn still holds its capture
  EXPECT_EQ(seen, 9);
  sched.run();
  EXPECT_EQ(seen, 27);
  EXPECT_EQ(payload.use_count(), 2);

  Scheduler::Callback cb([&seen] { seen = -1; });
  sched.schedule_after(1, std::move(cb));
  sched.run();
  EXPECT_EQ(seen, -1);
}

// A payload whose destructor re-enters the scheduler: it cancels its own
// (now stale) id, cancels another pending event, and schedules enough new
// events to reallocate the slot arena. Both the cancel path and the
// dispatch path must let it die only after their bookkeeping is complete.
struct ReentrantPayload {
  Scheduler* sched = nullptr;
  const EventId* self = nullptr;
  EventId victim = kInvalidEventId;
  int* destroyed = nullptr;
  std::vector<int>* fired = nullptr;

  ReentrantPayload(Scheduler* s, const EventId* self_id, EventId victim_id,
                   int* destroyed_count, std::vector<int>* fired_log)
      : sched(s),
        self(self_id),
        victim(victim_id),
        destroyed(destroyed_count),
        fired(fired_log) {}
  ReentrantPayload(ReentrantPayload&& o) noexcept
      : sched(std::exchange(o.sched, nullptr)),
        self(o.self),
        victim(o.victim),
        destroyed(o.destroyed),
        fired(o.fired) {}
  ReentrantPayload(const ReentrantPayload&) = delete;
  ReentrantPayload& operator=(const ReentrantPayload&) = delete;
  ReentrantPayload& operator=(ReentrantPayload&&) = delete;

  ~ReentrantPayload() {
    if (sched == nullptr) return;  // moved-from
    ++*destroyed;
    sched->cancel(*self);  // stale by now: must not destroy us twice
    sched->cancel(victim);
    for (int i = 0; i < 64; ++i) {
      sched->schedule_at(sched->now() + 100 + i,
                         [log = fired, i] { log->push_back(i); });
    }
  }
};

TEST(Scheduler, CancelledPayloadDestructorMayReenter) {
  Scheduler sched;
  std::vector<int> fired;
  int destroyed = 0;
  const EventId victim =
      sched.schedule_at(50, [&fired] { fired.push_back(-1); });
  EventId self = kInvalidEventId;
  self = sched.schedule_at(
      10, [p = ReentrantPayload(&sched, &self, victim, &destroyed, &fired)] {
        (void)p;
      });
  sched.cancel(self);
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(sched.pending(), 64u);  // victim cancelled, 64 scheduled
  sched.run();
  EXPECT_EQ(destroyed, 1);
  ASSERT_EQ(fired.size(), 64u);  // never the victim (-1)
  for (int i = 0; i < 64; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, DispatchedPayloadDestructorMayReenter) {
  Scheduler sched;
  std::vector<int> fired;
  int destroyed = 0;
  const EventId victim =
      sched.schedule_at(50, [&fired] { fired.push_back(-1); });
  EventId self = kInvalidEventId;
  self = sched.schedule_at(
      10, [p = ReentrantPayload(&sched, &self, victim, &destroyed, &fired)] {
        p.fired->push_back(-2);
      });
  sched.run();
  EXPECT_EQ(destroyed, 1);
  ASSERT_EQ(fired.size(), 65u);
  EXPECT_EQ(fired.front(), -2);  // the payload's own event, never the victim
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i) + 1], i);
  }
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Rng, DeterministicWithSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1 << 30) == b.uniform_int(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, IndexCoversRange) {
  Rng rng(13);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) ++hits[rng.index(10)];
  for (int h : hits) EXPECT_GT(h, 800);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.fork();
  // The child stream should not replicate the parent stream.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent.uniform_int(0, 1 << 30) == child.uniform_int(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, StreamSeedIsDrawOrderIndependent) {
  // Keyed streams are a pure function of (seed, key): consuming draws from
  // the parent must not change them — unlike fork().
  Rng fresh(42);
  Rng consumed(42);
  for (int i = 0; i < 100; ++i) (void)consumed.uniform();
  for (std::uint64_t key : {0ULL, 1ULL, (1ULL << 56) | 3ULL, ~0ULL}) {
    EXPECT_EQ(fresh.stream_seed(key), consumed.stream_seed(key));
  }
}

TEST(Rng, StreamSeedSeparatesKeysAndSeeds) {
  Rng rng(42);
  EXPECT_NE(rng.stream_seed(1), rng.stream_seed(2));
  EXPECT_NE(rng.stream_seed((1ULL << 56) | 0ULL),
            rng.stream_seed((2ULL << 56) | 0ULL));
  Rng other(43);
  EXPECT_NE(rng.stream_seed(1), other.stream_seed(1));
}

TEST(Rng, StreamProducesIndependentReproducibleChildren) {
  Rng parent(7);
  Rng a = parent.stream(5);
  Rng b = parent.stream(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.uniform(), b.uniform());
  Rng c = parent.stream(6);
  int same = 0;
  Rng d = parent.stream(5);
  for (int i = 0; i < 16; ++i) same += (d.uniform() == c.uniform());
  EXPECT_LT(same, 3);
}

TEST(Shuffle, PermutesAllElements) {
  Rng rng(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  shuffle(v, rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

}  // namespace
}  // namespace conga::sim
