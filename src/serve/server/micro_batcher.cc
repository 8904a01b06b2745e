#include "src/serve/server/micro_batcher.h"

#include <algorithm>

namespace safe {
namespace serve {
namespace server {

MicroBatcher::Decision MicroBatcher::Decide(
    size_t pending_rows, uint64_t oldest_ns, uint64_t now_ns, bool closing,
    const ArrivalState& arrivals) const {
  Decision decision;
  if (pending_rows == 0) {
    // Idle: wait for the doorbell. An elapsed timeout with nothing
    // staged must not cut (there is nothing to score) and must not set a
    // deadline (there is nothing whose wait to bound).
    decision.action = Action::kWait;
    decision.has_deadline = false;
    return decision;
  }
  if (closing) {
    decision.action = Action::kCut;
    return decision;
  }
  if (pending_rows >= options_.max_batch_rows) {
    decision.action = Action::kCut;
    return decision;
  }
  // Wait only when a co-rider can join before the deadline: a closed
  // caller never sends again before this response, and the next sparse
  // arrival lands past it. Cold (no gap yet) is the plain time trigger.
  const uint64_t deadline_ns = oldest_ns + options_.max_wait_us * 1000;
  if (now_ns + arrivals.mean_gap_ns >= deadline_ns || !arrivals.waits_pay) {
    decision.action = Action::kCut;
    return decision;
  }
  decision.action = Action::kWait;
  decision.deadline_ns = deadline_ns;
  decision.has_deadline = true;
  return decision;
}

ArrivalState MicroBatcher::AfterGap(ArrivalState arrivals,
                                    uint64_t gap_ns) const {
  const uint64_t gap = std::min(gap_ns, options_.max_wait_us * 1000);
  const uint64_t mean = arrivals.mean_gap_ns;
  arrivals.mean_gap_ns = mean == 0 ? gap : mean - mean / 8 + gap / 8;
  return arrivals;
}

ArrivalState MicroBatcher::AfterDrain(ArrivalState arrivals, size_t popped,
                                      bool after_timeout) {
  if (popped >= 2) arrivals.waits_pay = true;
  if (popped == 0 && after_timeout) arrivals.waits_pay = false;
  return arrivals;
}

}  // namespace server
}  // namespace serve
}  // namespace safe
