#pragma once

#include <cstddef>
#include <cstdint>

namespace safe {
namespace serve {
namespace server {

/// \brief Dynamic micro-batching policy: admit up to B rows, waiting at
/// most T microseconds past the oldest pending row — and only while a
/// co-rider can still arrive (DESIGN.md "Scoring server").
struct BatcherOptions {
  /// B — rows that trigger an immediate cut. Batches may overshoot B
  /// when a single multi-row request straddles the boundary; the scorer
  /// splits oversized batches into kBlockRows blocks, so overshoot only
  /// affects batching granularity, never results.
  size_t max_batch_rows = 64;
  /// T — max time a pending row waits for co-riders before the batch is
  /// cut anyway (the tail-latency bound; a bound, not a fixed wait).
  uint64_t max_wait_us = 100;
};

/// \brief The shard worker's view of its arrivals, updated through
/// AfterGap / AfterDrain. The default (cold) state makes Decide a plain
/// B-rows-or-T policy.
struct ArrivalState {
  /// EWMA (alpha = 1/8) of the gaps between popped enqueue stamps.
  uint64_t mean_gap_ns = 0;
  /// False after a timed wait expired with nothing new staged (a closed
  /// caller); true again once a drain pass pops two or more requests.
  bool waits_pay = true;
};

/// \brief The cut decision engine, deliberately free of clocks, threads
/// and queues: every input (pending rows, oldest enqueue time, "now",
/// closing flag, arrival state) is a parameter, so scripted arrival
/// sequences with a fake clock drive it through every branch with exact
/// assertions and zero real sleeps (serve_micro_batcher_test). The shard
/// worker loop in ScoringServer feeds it the steady clock.
///
/// Rules, in precedence order:
///   1. nothing pending      -> kWait with no deadline (a timeout never
///                              cuts an empty batch — "empty-timeout");
///   2. closing              -> kCut (flush-on-close: drain what is
///                              staged without waiting for co-riders);
///   3. pending >= B         -> kCut (row-count trigger);
///   4. now + mean_gap >= oldest + T, or !waits_pay
///                           -> kCut (deadline reached, or no co-rider
///                              can arrive before it);
///   5. otherwise            -> kWait until oldest + T (T bounds every
///                              wait; Clipper-style adaptive batching).
class MicroBatcher {
 public:
  enum class Action {
    kWait,  ///< sleep until `deadline_ns` (or indefinitely when none)
    kCut,   ///< score the staged rows now
  };

  struct Decision {
    Action action = Action::kWait;
    /// Absolute wake-up time for kWait, in the same clock as `now_ns`;
    /// meaningful only when `has_deadline`.
    uint64_t deadline_ns = 0;
    bool has_deadline = false;

    bool operator==(const Decision& other) const {
      return action == other.action &&
             has_deadline == other.has_deadline &&
             (!has_deadline || deadline_ns == other.deadline_ns);
    }
  };

  explicit MicroBatcher(const BatcherOptions& options) : options_(options) {}

  const BatcherOptions& options() const { return options_; }

  /// Pure function of its arguments (same inputs, same decision —
  /// that is the whole determinism story of the batcher layer).
  /// `oldest_ns` is the enqueue timestamp of the earliest pending row;
  /// ignored when `pending_rows` is 0.
  [[nodiscard]] Decision Decide(size_t pending_rows, uint64_t oldest_ns,
                                uint64_t now_ns, bool closing,
                                const ArrivalState& arrivals) const;

  /// Folds one enqueue-stamp gap, capped at T, into the EWMA: a gap of
  /// T already means "cut now", and the cap keeps one idle pause from
  /// hiding the burst after it.
  [[nodiscard]] ArrivalState AfterGap(ArrivalState arrivals,
                                      uint64_t gap_ns) const;
  /// After a drain pass that popped `popped` requests; `after_timeout`:
  /// the pass follows a timed wait that ran to its deadline.
  [[nodiscard]] static ArrivalState AfterDrain(ArrivalState arrivals,
                                               size_t popped,
                                               bool after_timeout);

 private:
  BatcherOptions options_;
};

}  // namespace server
}  // namespace serve
}  // namespace safe
