// The serve_mem workload: one long deterministic loopback serving session.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "checkers.hpp"
#include "common/expect.hpp"
#include "dsm/serve.hpp"
#include "harness.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"

namespace perfbench {
namespace {

using namespace lcdc;

constexpr std::uint32_t kNodes = 4;
constexpr std::uint64_t kOpsPerSession = 400'000;
constexpr std::uint64_t kWarmupOps = 20'000;

dsm::ServeConfig serveConfig(std::uint64_t seed) {
  dsm::ServeConfig cfg;
  cfg.nodes = kNodes;
  cfg.system.numBlocks = 64;
  cfg.system.proto.wordsPerBlock = 4;
  cfg.system.seed = seed;
  return cfg;
}

dsm::MemLoadSpec loadSpec(std::uint64_t seed, std::uint64_t ops) {
  dsm::MemLoadSpec load;
  load.kind = workload::Kind::Hot;
  load.totalOps = ops;
  load.seed = seed;
  return load;
}

/// Output checks of one session; "" when it passes.
std::string checkSession(const dsm::ServeResult& r) {
  if (!r.report.ok()) return "verdict: " + r.report.summary();
  if (!r.drained) return "session did not drain";
  std::uint64_t emitted = 0;
  for (const dsm::NodeStats& s : r.nodeStats) emitted += s.eventsEmitted;
  if (emitted != r.certStats.eventsMerged) {
    return "certifier merged " + std::to_string(r.certStats.eventsMerged) +
           " events of " + std::to_string(emitted) + " emitted";
  }
  return "";
}

/// Requests issued vs serialized: every NACK is a refused request that the
/// processor retries.
struct ProtoCounts final : proto::EventSink {
  std::uint64_t serialized = 0;
  std::uint64_t nacks = 0;
  void onSerialize(const proto::TxnInfo&) override { serialized += 1; }
  void onNack(NodeId, BlockId, NackKind) override { nacks += 1; }
};

/// Nearest-rank percentile.
std::uint64_t percentile(std::vector<std::uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Replay a recorded merged stream into `sink`; wall time in ns.
std::uint64_t timedReplay(const trace::Trace& t, proto::EventSink& sink) {
  const Stopwatch sw;
  trace::replay(t, sink);
  return sw.ns();
}

class ServeSession final : public Session {
 public:
  explicit ServeSession(std::uint64_t seed)
      : cfg_(serveConfig(seed)), load_(loadSpec(seed, kOpsPerSession)) {
    const dsm::ServeResult warm =
        dsm::serveMem(cfg_, loadSpec(seed, kWarmupOps));
    const std::string bad = checkSession(warm);
    if (!bad.empty()) throw SimError("serve warm-up session: " + bad);
  }

  Rep rep() override {
    const Stopwatch sw;
    const dsm::ServeResult r = dsm::serveMem(cfg_, load_);
    Rep rep;
    rep.seconds = sw.seconds();
    rep.attempted = 1;
    rep.failure = checkSession(r);
    rep.failed = rep.failure.empty() ? 0 : 1;
    rep.events = r.certStats.eventsMerged;
    rep.ops = r.opsBound;
    std::uint64_t msgs = 0;
    for (const dsm::NodeStats& s : r.nodeStats) msgs += s.msgsSent;
    rep.exact = {{"events_merged", r.certStats.eventsMerged},
                 {"ops_bound", r.opsBound},
                 {"msgs_sent", msgs},
                 {"cert_peak_lag", r.certStats.peakLag},
                 {"report_digest", fnv1a(r.report.summary())}};
    return rep;
  }

  bool traced(Metrics& out, double untracedSeconds,
              std::string& failure) override {
    // Traced pass: the same session with the certifier's merged stream
    // archived through a timing proxy (the only hook serveMem offers).
    trace::Trace archive;
    TimedSink timedArchive(archive, TimedSink::kAll);
    dsm::ServeConfig cfg = cfg_;
    cfg.archive = &timedArchive;
    const Stopwatch sw;
    const dsm::ServeResult r = dsm::serveMem(cfg, load_);
    const std::uint64_t wallNs = sw.ns();
    failure = checkSession(r);
    if (!failure.empty()) return false;

    // Probes on the archived stream: a fresh StreamCheckerSet gives the
    // certification cost (minus the bare replay), the timed checkers its
    // split, and a counting sink the protocol's NACK traffic.
    SystemConfig sys = cfg_.system;
    sys.numProcessors = sys.numDirectories = kNodes;
    const verify::VerifyConfig vc = proto::verifyConfigFor(sys);
    const std::uint64_t bareNs = timedReplay(archive, proto::nullSink());
    verify::StreamCheckerSet fresh(vc);
    const std::uint64_t setNs = timedReplay(archive, fresh);
    fresh.finish();
    if (!fresh.report().ok()) {
      failure = "replayed archive fails the checkers";
      return false;
    }
    const std::uint64_t certifyNs = setNs > bareNs ? setNs - bareNs : 0;
    TimedCheckers checkers(vc);
    ProtoCounts counts;
    proto::TeeSink tee;
    checkers.attach(tee);
    tee.attach(counts);
    trace::replay(archive, tee);

    const double events = static_cast<double>(r.certStats.eventsMerged);
    const double ops = static_cast<double>(r.opsBound);
    const std::uint64_t sessionNs =
        static_cast<std::uint64_t>(r.seconds * 1e9);
    LayerTimes layers;
    layers.add("verify", certifyNs);
    const std::uint64_t charged = certifyNs + timedArchive.nanos;
    layers.add("dsm", sessionNs > charged ? sessionNs - charged : 0);
    reportLayers(out, layers, wallNs, untracedSeconds);

    for (std::size_t c = 0; c < 6; ++c) {
      out.set(std::string("verify.") + TimedCheckers::kNames[c] +
                  ".ns_per_event",
              ratio(static_cast<double>(checkers.timed[c].netNanos()), events),
              "ns/event");
    }
    out.set("verify.share_of_run", countRatio(certifyNs, sessionNs),
            "fraction");
    out.set("verify.footprint_bytes_peak",
            static_cast<double>(r.certStats.checkerBytes()), "B");
    out.set("proto.serialized_per_request",
            countRatio(counts.serialized, counts.serialized + counts.nacks),
            "fraction");
    out.set("proto.nacks_per_op",
            ratio(static_cast<double>(counts.nacks), ops), "nack/op");

    std::uint64_t msgs = 0;
    std::vector<std::uint64_t> pumps;
    for (const dsm::NodeStats& s : r.nodeStats) {
      msgs += s.msgsSent;
      pumps.insert(pumps.end(), s.chunkPumpLatency.begin(),
                   s.chunkPumpLatency.end());
    }
    out.set("dsm.certify_ns_per_event",
            ratio(static_cast<double>(certifyNs), events), "ns/event");
    out.set("dsm.node_ns_per_op",
            ratio(static_cast<double>(layers.selfNs["dsm"]), ops), "ns/op");
    out.set("dsm.events_per_op", ratio(events, ops), "event/op");
    out.set("dsm.msgs_per_op", ratio(static_cast<double>(msgs), ops),
            "msg/op");
    out.set("dsm.chunk_pump_latency_p50",
            static_cast<double>(percentile(pumps, 0.50)), "pumps");
    out.set("dsm.chunk_pump_latency_p99",
            static_cast<double>(percentile(pumps, 0.99)), "pumps");
    out.set("dsm.cert_peak_lag_events",
            static_cast<double>(r.certStats.peakLag), "count");
    out.set("dsm.checker_bytes",
            static_cast<double>(r.certStats.checkerBytes()), "B");
    return true;
  }

 private:
  dsm::ServeConfig cfg_;
  dsm::MemLoadSpec load_;
};

}  // namespace

std::vector<Workload> serveWorkloads() {
  return {{
      "serve_mem",
      // Chosen because it uses verify differently from the campaign: one
      // long k-way-merged live stream with real merge-queue lag instead of
      // thousands of checker resets, and it is the only workload that runs
      // dsm::NodeEngine and CertifierEngine.
      "one long deterministic single-thread serveMem session (4 nodes, hot "
      "mix, 400k ops): live certification of a k-way-merged stream",
      "net::Network (frames go through in-memory inboxes), campaign and mc",
      [](std::uint64_t seed) -> std::unique_ptr<Session> {
        return std::make_unique<ServeSession>(seed);
      },
  }};
}

}  // namespace perfbench
