// Deterministic unit suite for the micro-batcher's cut policy. The
// batcher is a pure decision function (no clocks, threads, or queues),
// so every test drives it with a fake clock and scripted arrival
// sequences and asserts the exact Decision — no sleeps, no tolerance
// windows, bit-for-bit repeatable. The tsan preset re-runs the suite
// unchanged (it is single-threaded; the label documents that the server
// test layer depends on these exact semantics). The first cases run in
// the cold arrival state (a plain B-rows-or-T policy); the later ones
// script the arrival state through AfterGap / AfterDrain the way the
// shard worker does.

#include <gtest/gtest.h>

#include <vector>

#include "src/serve/server/micro_batcher.h"

namespace safe {
namespace serve {
namespace server {
namespace {

constexpr uint64_t kUs = 1000;  // ns per microsecond
const ArrivalState kCold;       // no gap estimate yet, waits pay

MicroBatcher MakeBatcher(size_t max_rows, uint64_t max_wait_us) {
  BatcherOptions options;
  options.max_batch_rows = max_rows;
  options.max_wait_us = max_wait_us;
  return MicroBatcher(options);
}

MicroBatcher::Decision Cut() {
  MicroBatcher::Decision d;
  d.action = MicroBatcher::Action::kCut;
  return d;
}

MicroBatcher::Decision WaitForever() {
  MicroBatcher::Decision d;
  d.action = MicroBatcher::Action::kWait;
  d.has_deadline = false;
  return d;
}

MicroBatcher::Decision WaitUntil(uint64_t deadline_ns) {
  MicroBatcher::Decision d;
  d.action = MicroBatcher::Action::kWait;
  d.deadline_ns = deadline_ns;
  d.has_deadline = true;
  return d;
}

TEST(MicroBatcherTest, EmptyNeverCuts) {
  const MicroBatcher batcher = MakeBatcher(4, 100);
  // An elapsed timeout with nothing staged must not cut — and must not
  // produce a deadline either (there is nothing whose wait to bound).
  EXPECT_EQ(batcher.Decide(0, 0, 0, false, kCold), WaitForever());
  EXPECT_EQ(batcher.Decide(0, 0, 500 * kUs, false, kCold), WaitForever());
  // The empty rule outranks closing: an idle shard that is shutting
  // down has nothing to flush.
  EXPECT_EQ(batcher.Decide(0, 0, 500 * kUs, true, kCold), WaitForever());
}

TEST(MicroBatcherTest, RowTriggerCutsExactlyAtB) {
  const MicroBatcher batcher = MakeBatcher(4, 100);
  const uint64_t oldest = 10 * kUs;
  const uint64_t now = 20 * kUs;  // well before the time trigger
  EXPECT_EQ(batcher.Decide(3, oldest, now, false, kCold),
            WaitUntil(oldest + 100 * kUs));
  EXPECT_EQ(batcher.Decide(4, oldest, now, false, kCold), Cut());
  // Overshoot (a multi-row request straddling B) still cuts.
  EXPECT_EQ(batcher.Decide(9, oldest, now, false, kCold), Cut());
}

TEST(MicroBatcherTest, TimeTriggerCutsExactlyAtDeadline) {
  const MicroBatcher batcher = MakeBatcher(64, 100);
  const uint64_t oldest = 7 * kUs;
  const uint64_t deadline = oldest + 100 * kUs;
  EXPECT_EQ(batcher.Decide(1, oldest, deadline - 1, false, kCold),
            WaitUntil(deadline));
  EXPECT_EQ(batcher.Decide(1, oldest, deadline, false, kCold), Cut());
  EXPECT_EQ(batcher.Decide(1, oldest, deadline + 1, false, kCold), Cut());
}

TEST(MicroBatcherTest, DeadlineAnchorsToOldestRowNotToNow) {
  const MicroBatcher batcher = MakeBatcher(64, 100);
  const uint64_t oldest = 3 * kUs;
  // However often the worker re-evaluates, the deadline never slides:
  // it is always oldest + T, independent of "now".
  for (const uint64_t now : {oldest, oldest + 10 * kUs, oldest + 99 * kUs}) {
    EXPECT_EQ(batcher.Decide(5, oldest, now, false, kCold),
              WaitUntil(oldest + 100 * kUs));
  }
}

TEST(MicroBatcherTest, FlushOnCloseCutsAnyPendingRows) {
  const MicroBatcher batcher = MakeBatcher(64, 100);
  const uint64_t oldest = 50 * kUs;
  // Far below B and far before the deadline: closing still flushes.
  EXPECT_EQ(batcher.Decide(1, oldest, oldest + 1, true, kCold), Cut());
  EXPECT_EQ(batcher.Decide(63, oldest, oldest + 1, true, kCold), Cut());
}

TEST(MicroBatcherTest, ImmediateModeCutsEveryRow) {
  // B = 1 disables coalescing: a single pending row always cuts, so the
  // server degenerates to per-request scoring with no added latency.
  const MicroBatcher batcher = MakeBatcher(1, 100);
  EXPECT_EQ(batcher.Decide(1, 0, 0, false, kCold), Cut());
  EXPECT_EQ(batcher.Decide(0, 0, 0, false, kCold), WaitForever());
}

TEST(MicroBatcherTest, ZeroWaitCutsAsSoonAsAnythingIsPending) {
  // T = 0: the time trigger fires the moment now >= oldest.
  const MicroBatcher batcher = MakeBatcher(64, 0);
  EXPECT_EQ(batcher.Decide(1, 5 * kUs, 5 * kUs, false, kCold), Cut());
  EXPECT_EQ(batcher.Decide(0, 0, 5 * kUs, false, kCold), WaitForever());
}

TEST(MicroBatcherTest, ScriptedArrivalSequence) {
  // One full life of a shard, scripted against a fake clock: arrivals
  // at t=0, 30, 30, 50us with B=4, T=100us, then a lone straggler that
  // only the time trigger can release.
  const MicroBatcher batcher = MakeBatcher(4, 100);

  // t=0: first row arrives; wait until its deadline, 100us out.
  EXPECT_EQ(batcher.Decide(1, 0, 0, false, kCold), WaitUntil(100 * kUs));
  // t=30us: two co-riders arrived; deadline still anchored at t=0's row.
  EXPECT_EQ(batcher.Decide(3, 0, 30 * kUs, false, kCold),
            WaitUntil(100 * kUs));
  // t=50us: fourth row reaches B -> cut, 50us before the deadline.
  EXPECT_EQ(batcher.Decide(4, 0, 50 * kUs, false, kCold), Cut());

  // t=70us: a straggler arrives into the now-empty stage; its own
  // deadline is 170us. Nothing else arrives, so the worker wakes at the
  // deadline and the time trigger releases a 1-row batch.
  EXPECT_EQ(batcher.Decide(1, 70 * kUs, 70 * kUs, false, kCold),
            WaitUntil(170 * kUs));
  EXPECT_EQ(batcher.Decide(1, 70 * kUs, 170 * kUs, false, kCold), Cut());

  // Idle again: wait with no deadline.
  EXPECT_EQ(batcher.Decide(0, 0, 170 * kUs, false, kCold), WaitForever());
}

TEST(MicroBatcherTest, GapEwmaSeedsThenSmoothsWithCapAtT) {
  const MicroBatcher batcher = MakeBatcher(64, 100);
  // The first gap seeds the estimate; later ones move it by 1/8.
  ArrivalState state = batcher.AfterGap(kCold, 40 * kUs);
  EXPECT_EQ(state.mean_gap_ns, 40 * kUs);
  state = batcher.AfterGap(state, 0);
  EXPECT_EQ(state.mean_gap_ns, 35 * kUs);
  // An idle pause counts as T, not as its full length.
  state = batcher.AfterGap(state, 1000000 * kUs);
  EXPECT_EQ(state.mean_gap_ns, 35 * kUs - 35 * kUs / 8 + 100 * kUs / 8);
  EXPECT_TRUE(state.waits_pay);
}

TEST(MicroBatcherTest, SparseArrivalsCutAtOnce) {
  const MicroBatcher batcher = MakeBatcher(64, 100);
  const uint64_t oldest = 1000 * kUs;
  // Gaps past T: the next row cannot arrive before the deadline.
  ArrivalState sparse = kCold;
  for (int i = 0; i < 4; ++i) sparse = batcher.AfterGap(sparse, 250 * kUs);
  EXPECT_EQ(sparse.mean_gap_ns, 100 * kUs);
  EXPECT_EQ(batcher.Decide(1, oldest, oldest, false, sparse), Cut());
  // The expected arrival is compared against the deadline exactly:
  // landing on it cuts, landing 1 ns before it waits.
  ArrivalState gap80 = batcher.AfterGap(kCold, 80 * kUs);
  EXPECT_EQ(batcher.Decide(1, oldest, oldest + 20 * kUs, false, gap80),
            Cut());
  EXPECT_EQ(batcher.Decide(1, oldest, oldest + 20 * kUs - 1, false, gap80),
            WaitUntil(oldest + 100 * kUs));
}

TEST(MicroBatcherTest, DenseArrivalsKeepTheDeadlineScript) {
  // With gaps well under T, the batcher decides exactly as in the cold
  // state: the ScriptedArrivalSequence script, decision for decision.
  const MicroBatcher batcher = MakeBatcher(4, 100);
  ArrivalState dense = kCold;
  for (int i = 0; i < 8; ++i) dense = batcher.AfterGap(dense, 10 * kUs);
  dense = MicroBatcher::AfterDrain(dense, 3, /*after_timeout=*/false);
  for (const ArrivalState& state : {kCold, dense}) {
    EXPECT_EQ(batcher.Decide(1, 0, 0, false, state), WaitUntil(100 * kUs));
    EXPECT_EQ(batcher.Decide(3, 0, 30 * kUs, false, state),
              WaitUntil(100 * kUs));
    EXPECT_EQ(batcher.Decide(4, 0, 50 * kUs, false, state), Cut());
    EXPECT_EQ(batcher.Decide(1, 70 * kUs, 70 * kUs, false, state),
              WaitUntil(170 * kUs));
    EXPECT_EQ(batcher.Decide(1, 70 * kUs, 170 * kUs, false, state), Cut());
    EXPECT_EQ(batcher.Decide(0, 0, 170 * kUs, false, state), WaitForever());
  }
}

TEST(MicroBatcherTest, ClosedCallerStopsWaitingAfterAnEmptyTimeout) {
  const MicroBatcher batcher = MakeBatcher(64, 100);
  // A lone caller's first row waits out T (cold state)...
  ArrivalState state = kCold;
  EXPECT_EQ(batcher.Decide(1, 0, 0, false, state), WaitUntil(100 * kUs));
  // ...an early wake-up with nothing new changes nothing...
  state = MicroBatcher::AfterDrain(state, 0, /*after_timeout=*/false);
  EXPECT_TRUE(state.waits_pay);
  EXPECT_EQ(batcher.Decide(1, 0, 40 * kUs, false, state),
            WaitUntil(100 * kUs));
  // ...but the wait running to its deadline with nothing staged shows a
  // closed caller: its next row cannot come before this one completes.
  state = MicroBatcher::AfterDrain(state, 0, /*after_timeout=*/true);
  EXPECT_FALSE(state.waits_pay);
  EXPECT_EQ(batcher.Decide(1, 0, 100 * kUs, false, state), Cut());
  // Its later single rows cut at once, however small the gap estimate.
  uint64_t t = 104 * kUs;
  for (int i = 0; i < 5; ++i, t += 5 * kUs) {
    state = batcher.AfterGap(state, 5 * kUs);
    state = MicroBatcher::AfterDrain(state, 1, /*after_timeout=*/false);
    EXPECT_EQ(batcher.Decide(1, t, t, false, state), Cut()) << i;
  }
  EXPECT_FALSE(state.waits_pay);
}

TEST(MicroBatcherTest, DrainOfTwoOrMoreReenablesWaiting) {
  const MicroBatcher batcher = MakeBatcher(64, 100);
  ArrivalState state = batcher.AfterGap(kCold, 10 * kUs);
  state = MicroBatcher::AfterDrain(state, 0, /*after_timeout=*/true);
  ASSERT_FALSE(state.waits_pay);
  // One request per pass, even right after a timeout, is no evidence of
  // a second caller.
  state = MicroBatcher::AfterDrain(state, 1, /*after_timeout=*/true);
  EXPECT_FALSE(state.waits_pay);
  EXPECT_EQ(batcher.Decide(1, 0, 0, false, state), Cut());
  // Two requests in one pass are: waiting pays again.
  state = MicroBatcher::AfterDrain(state, 2, /*after_timeout=*/false);
  EXPECT_TRUE(state.waits_pay);
  EXPECT_EQ(batcher.Decide(2, 0, 0, false, state), WaitUntil(100 * kUs));
}

TEST(MicroBatcherTest, TBoundsEveryWaitInEveryRegime) {
  const MicroBatcher batcher = MakeBatcher(64, 100);
  const uint64_t oldest = 500 * kUs;
  ArrivalState closed = kCold;
  closed.waits_pay = false;
  std::vector<ArrivalState> regimes = {kCold, closed};
  for (const uint64_t gap : {0 * kUs, 1 * kUs, 50 * kUs, 99 * kUs, 100 * kUs,
                             5000 * kUs}) {
    regimes.push_back(batcher.AfterGap(kCold, gap));
  }
  for (const ArrivalState& state : regimes) {
    for (const size_t pending : {size_t{1}, size_t{3}, size_t{63}}) {
      for (uint64_t now = oldest; now <= oldest + 150 * kUs; now += kUs) {
        const MicroBatcher::Decision d =
            batcher.Decide(pending, oldest, now, false, state);
        if (d.action == MicroBatcher::Action::kCut) continue;
        ASSERT_TRUE(d.has_deadline);
        EXPECT_LE(d.deadline_ns, oldest + 100 * kUs);
        EXPECT_GT(d.deadline_ns, now);
      }
    }
  }
}

TEST(MicroBatcherTest, DecisionEqualityIgnoresDeadlineWhenAbsent) {
  MicroBatcher::Decision a = WaitForever();
  MicroBatcher::Decision b = WaitForever();
  b.deadline_ns = 12345;  // meaningless without has_deadline
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == WaitUntil(12345));
  EXPECT_FALSE(WaitUntil(1) == WaitUntil(2));
  EXPECT_FALSE(Cut() == WaitForever());
}

}  // namespace
}  // namespace server
}  // namespace serve
}  // namespace safe
