// Timing proxies around the six public streaming checkers, shared by the
// workloads that verify event streams (campaign, serve_mem).
#pragma once

#include <cstdint>

#include "harness.hpp"
#include "proto/observer.hpp"
#include "verify/stream.hpp"

namespace perfbench {

/// The six public streaming checkers, each behind a timing proxy that
/// forwards exactly the callbacks StreamCheckerSet routes to it.
struct TimedCheckers {
  explicit TimedCheckers(const lcdc::verify::VerifyConfig& vc)
      : po(vc), c2(vc), c3(vc), ep(vc), sc(vc), vch(vc),
        timed{TimedSink(po, TimedSink::kOperation),
              TimedSink(c2, TimedSink::kStamp),
              TimedSink(c3, TimedSink::kSerialize | TimedSink::kConverted |
                                TimedSink::kStamp),
              TimedSink(ep, TimedSink::kStamp | TimedSink::kOperation),
              TimedSink(sc, TimedSink::kOperation),
              TimedSink(vch, TimedSink::kSerialize | TimedSink::kStamp |
                                 TimedSink::kValue | TimedSink::kOperation)} {}
  TimedCheckers(const TimedCheckers&) = delete;
  TimedCheckers& operator=(const TimedCheckers&) = delete;

  static constexpr const char* kNames[6] = {
      "program_order", "claim2", "claim3", "epochs", "sc", "value_chain"};

  lcdc::verify::StreamProgramOrder po;
  lcdc::verify::StreamClaim2 c2;
  lcdc::verify::StreamClaim3 c3;
  lcdc::verify::StreamEpochs ep;
  lcdc::verify::StreamSequentialConsistency sc;
  lcdc::verify::StreamValueChain vch;
  TimedSink timed[6];

  [[nodiscard]] lcdc::verify::StreamChecker* core(std::size_t i) {
    lcdc::verify::StreamChecker* cores[6] = {&po, &c2, &c3, &ep, &sc, &vch};
    return cores[i];
  }
  void attach(lcdc::proto::TeeSink& tee) {
    for (TimedSink& t : timed) tee.attach(t);
  }
  /// Span time of all six proxies, clock reads included.
  [[nodiscard]] std::uint64_t nanos() const {
    std::uint64_t n = 0;
    for (const TimedSink& t : timed) n += t.nanos;
    return n;
  }
  /// Time inside the six checkers, clock reads taken out.
  [[nodiscard]] std::uint64_t netNanos() const {
    std::uint64_t n = 0;
    for (const TimedSink& t : timed) n += t.netNanos();
    return n;
  }
};

}  // namespace perfbench
