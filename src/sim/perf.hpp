// Hot-loop performance counters for the simulate-and-verify path.
//
// Opt-in the same way as mc::McPerfCounters: the deterministic outputs of
// a run (trace, stats, verdicts) never read these, so they are safe to
// collect without perturbing seed-equivalence.  They are printed by
// `lcdc run --perf` and, aggregated over every sub-run, in the
// `-- timing (non-deterministic) --` block of `lcdc campaign`.  Wall time
// is measured by the caller around the run loop; the queue counters come
// from the network's calendar queue, which maintains them unconditionally
// (they are a handful of increments per event).
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <ostream>

#include "net/calendar_queue.hpp"

namespace lcdc::sim {

struct SimPerfCounters {
  std::uint64_t runs = 0;       ///< sub-runs aggregated into this counter
  std::uint64_t events = 0;     ///< simulator events processed
  std::uint64_t opsBound = 0;   ///< program operations bound
  std::uint64_t wallNanos = 0;  ///< wall-clock spent inside System::run
  net::CalendarStats queue;     ///< network calendar-queue op counters

  [[nodiscard]] double eventsPerSec() const {
    return wallNanos == 0 ? 0.0
                          : static_cast<double>(events) * 1e9 /
                                static_cast<double>(wallNanos);
  }

  /// Fraction of queue pushes that missed the wheel window and hit the
  /// overflow heap (should stay ~0 for a well-sized wheel).
  [[nodiscard]] double overflowRate() const {
    return queue.pushes == 0 ? 0.0
                             : static_cast<double>(queue.overflowPushes) /
                                   static_cast<double>(queue.pushes);
  }

  /// Record one completed sub-run.
  void note(std::uint64_t runEvents, std::uint64_t runOpsBound,
            std::uint64_t nanos, const net::CalendarStats& q) {
    runs += 1;
    events += runEvents;
    opsBound += runOpsBound;
    wallNanos += nanos;
    queue.pushes += q.pushes;
    queue.pops += q.pops;
    queue.overflowPushes += q.overflowPushes;
    queue.overflowPops += q.overflowPops;
    queue.maxDepth = std::max(queue.maxDepth, q.maxDepth);
    queue.poolNodes = std::max(queue.poolNodes, q.poolNodes);
  }

  void merge(const SimPerfCounters& o) {
    runs += o.runs;
    events += o.events;
    opsBound += o.opsBound;
    wallNanos += o.wallNanos;
    queue.pushes += o.queue.pushes;
    queue.pops += o.queue.pops;
    queue.overflowPushes += o.queue.overflowPushes;
    queue.overflowPops += o.queue.overflowPops;
    queue.maxDepth = std::max(queue.maxDepth, o.queue.maxDepth);
    queue.poolNodes = std::max(queue.poolNodes, o.queue.poolNodes);
  }

  void print(std::ostream& os) const {
    os << "sim perf: " << runs << " run(s), " << events << " events in "
       << static_cast<double>(wallNanos) * 1e-9 << " s ("
       << eventsPerSec() << " events/s), " << opsBound << " ops bound\n"
       << "  net queue: " << queue.pushes << " pushes, " << queue.pops
       << " pops, " << queue.overflowPushes << " overflow pushes ("
       << overflowRate() * 100.0 << "%), max depth " << queue.maxDepth
       << ", pool high-water " << queue.poolNodes << " nodes\n";
  }
};

}  // namespace lcdc::sim
