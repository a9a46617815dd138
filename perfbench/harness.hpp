// Shared pieces of the benchmark binary: clocks, the metric record, the
// per-layer span accounting, the timing proxy sink that wraps each public
// streaming checker, and the workload interface.
//
// All tracing lives here, in the benchmark's own files: spans are taken
// around calls into the library's public functions and classes, never
// inside src/.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "proto/events.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Stopwatch {
  std::uint64_t t0 = nowNs();
  [[nodiscard]] std::uint64_t ns() const { return nowNs() - t0; }
  [[nodiscard]] double seconds() const { return static_cast<double>(ns()) * 1e-9; }
};

/// What an empty span reads: the median of back-to-back nowNs() deltas,
/// measured once.  Timing proxies subtract it per call so their layer
/// times exclude the clock reads, which stay in the unattributed part.
std::uint64_t clockReadNs();

/// Heap allocations made by the calling thread so far (operator new is
/// replaced in harness.cpp).
std::uint64_t threadAllocs();

/// Process peak RSS since the last resetPeakRss(), in bytes.
std::uint64_t peakRssBytes();
/// Start a new peak-RSS window (Linux clear_refs "5"); false if the kernel
/// does not support it, in which case peakRssBytes() is the process peak.
bool resetPeakRss();

double median(std::vector<double> v);
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
inline double countRatio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// FNV-1a over a string: the report digest compared between reps.
std::uint64_t fnv1a(const std::string& s);

/// Named metric values in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return std::any_of(items_.begin(), items_.end(),
                       [&](const Item& m) { return m.name == name; });
  }
  struct Item {
    std::string name;
    double value = 0;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

/// Self-time accounting of one traced pass.  Each layer's self time is
/// what the pass measured inside calls into that layer minus the part its
/// children (timed separately) cover; whatever the spans do not cover is
/// the unattributed remainder, reported on its own.
struct LayerTimes {
  std::map<std::string, std::uint64_t> selfNs;  ///< layer -> self time
  void add(const std::string& layer, std::uint64_t ns) { selfNs[layer] += ns; }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const auto& [layer, ns] : selfNs) t += ns;
    return t;
  }
};

/// The layers self time is reported for (module names under src/).  sim
/// covers everything System::run does itself: the calendar-queue network,
/// the protocol controllers and Lamport stamping.
inline const std::vector<std::string>& layerNames() {
  static const std::vector<std::string> kLayers = {
      "workload", "campaign", "sim", "verify", "mc", "dsm"};
  return kLayers;
}

/// Timing proxy around one event sink: forwards the callbacks selected by
/// `mask` (the ones StreamCheckerSet dispatches to that checker) and sums
/// the time spent inside them.
class TimedSink final : public lcdc::proto::EventSink {
 public:
  enum : unsigned {
    kSerialize = 1u << 0,
    kConverted = 1u << 1,
    kStamp = 1u << 2,
    kValue = 1u << 3,
    kOperation = 1u << 4,
    kNack = 1u << 5,
    kPutShared = 1u << 6,
    kDeadlock = 1u << 7,
    kAll = 0xFFu,
  };

  TimedSink(lcdc::proto::EventSink& inner, unsigned mask)
      : inner_(&inner), mask_(mask) {}

  std::uint64_t nanos = 0;  ///< span time of the forwarded callbacks
  std::uint64_t calls = 0;

  /// Callback time with the clock reads taken out.
  [[nodiscard]] std::uint64_t netNanos() const {
    const std::uint64_t bias = calls * clockReadNs();
    return nanos > bias ? nanos - bias : 0;
  }

  void onSerialize(const lcdc::proto::TxnInfo& txn) override {
    if (mask_ & kSerialize) time([&] { inner_->onSerialize(txn); });
  }
  void onTxnConverted(lcdc::TransactionId id, lcdc::TxnKind k) override {
    if (mask_ & kConverted) time([&] { inner_->onTxnConverted(id, k); });
  }
  void onStamp(lcdc::NodeId node, lcdc::TransactionId txn,
               lcdc::SerialIdx serial, lcdc::BlockId block,
               lcdc::proto::StampRole role, lcdc::GlobalTime ts,
               lcdc::AState oldA, lcdc::AState newA) override {
    if (mask_ & kStamp) {
      time([&] {
        inner_->onStamp(node, txn, serial, block, role, ts, oldA, newA);
      });
    }
  }
  void onValueReceived(lcdc::NodeId node, lcdc::TransactionId txn,
                       lcdc::BlockId block,
                       const lcdc::BlockValue& value) override {
    if (mask_ & kValue) {
      time([&] { inner_->onValueReceived(node, txn, block, value); });
    }
  }
  void onOperation(const lcdc::proto::OpRecord& op) override {
    if (mask_ & kOperation) time([&] { inner_->onOperation(op); });
  }
  void onNack(lcdc::NodeId requester, lcdc::BlockId block,
              lcdc::NackKind kind) override {
    if (mask_ & kNack) time([&] { inner_->onNack(requester, block, kind); });
  }
  void onPutShared(lcdc::NodeId node, lcdc::BlockId block) override {
    if (mask_ & kPutShared) time([&] { inner_->onPutShared(node, block); });
  }
  void onDeadlockResolved(lcdc::NodeId node, lcdc::BlockId block,
                          lcdc::NodeId acker) override {
    if (mask_ & kDeadlock) {
      time([&] { inner_->onDeadlockResolved(node, block, acker); });
    }
  }

 private:
  template <class F>
  void time(F&& f) {
    const std::uint64_t t0 = nowNs();
    f();
    nanos += nowNs() - t0;
    calls += 1;
  }

  lcdc::proto::EventSink* inner_;
  unsigned mask_;
};

/// Exact-repeating counters of one rep: a rep whose counters differ from
/// the first rep's fails its output check.
using Counters = std::map<std::string, std::uint64_t>;

/// One untraced unit of work and the numbers main() derives from it.
struct Rep {
  double seconds = 0;           ///< wall time of the public call(s)
  std::uint64_t attempted = 0;  ///< cases / runs / sessions
  std::uint64_t failed = 0;
  std::string failure;          ///< first failed check, for stderr
  std::uint64_t events = 0;     ///< protocol events of the rep
  std::uint64_t ops = 0;        ///< program operations bound and certified
  std::uint64_t states = 0;     ///< distinct states explored
  std::uint64_t trackedBytes = 0;  ///< mc tracked peak bytes
  Counters exact;
};

/// A prepared workload: inputs generated, engines warm.
class Session {
 public:
  virtual ~Session() = default;
  /// One untraced rep, with its output checks applied.
  virtual Rep rep() = 0;
  /// The traced run: per-layer metrics into `out`, whose names are
  /// pre-filled with zeros.  `untracedRepSeconds` is the median wall of
  /// this run's untraced reps.  Returns false if an output check failed.
  virtual bool traced(Metrics& out, double untracedRepSeconds,
                      std::string& failure) = 0;
};

struct Workload {
  std::string name;
  /// Why the workload is in the benchmark, and which layers it bypasses.
  std::string why;
  std::string bypasses;
  std::function<std::unique_ptr<Session>(std::uint64_t seed)> setup;
};

std::vector<Workload> campaignWorkloads();
std::vector<Workload> serveWorkloads();
std::vector<Workload> mcWorkloads();

/// Fill the shared trace-accounting metrics from one traced pass.
void reportLayers(Metrics& out, const LayerTimes& layers,
                  std::uint64_t tracedWallNs, double untracedSeconds);

}  // namespace perfbench
