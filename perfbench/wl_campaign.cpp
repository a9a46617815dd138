// The campaign workload: the mixed directory-backend random campaign.
#include <optional>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "campaign/campaign.hpp"
#include "campaign/coverage.hpp"
#include "checkers.hpp"
#include "common/expect.hpp"
#include "harness.hpp"
#include "sim/system.hpp"

namespace perfbench {
namespace {

using namespace lcdc;

constexpr std::uint64_t kSeedsPerRep = 512;
constexpr std::uint64_t kWarmupSeeds = 16;
constexpr unsigned kJobs = 2;

campaign::CampaignConfig campaignConfig(std::uint64_t seed,
                                        std::uint64_t seeds) {
  campaign::CampaignConfig cfg;
  cfg.protocol = ProtocolKind::Directory;
  cfg.masterSeed = seed;
  cfg.seeds = seeds;
  cfg.jobs = kJobs;
  cfg.workload.reset();  // mixed: family and shape derived per seed
  cfg.mutant = Mutant::None;
  cfg.minimize = false;
  cfg.streaming = true;
  cfg.mcStage = false;
  return cfg;
}

/// Same test as the campaign's own per-worker reuse: configurations that
/// differ at most in seed can be rewound with System::reset.
bool sameShape(const SystemConfig& a, const SystemConfig& b) {
  return a.protocol == b.protocol && a.numProcessors == b.numProcessors &&
         a.numDirectories == b.numDirectories && a.numBlocks == b.numBlocks &&
         a.cacheCapacity == b.cacheCapacity && a.minLatency == b.minLatency &&
         a.maxLatency == b.maxLatency && a.retryDelay == b.retryDelay &&
         a.storeBufferDepth == b.storeBufferDepth &&
         a.proto.wordsPerBlock == b.proto.wordsPerBlock &&
         a.proto.putSharedEnabled == b.proto.putSharedEnabled &&
         a.proto.mutant == b.proto.mutant &&
         a.proto.leaseLength == b.proto.leaseLength;
}

/// A reusable System bound to `sink`, rebuilt only when the shape changes.
struct SystemSlot {
  std::optional<sim::System> system;
  SystemConfig shape;
  net::Network::Mode mode = net::Network::Mode::RandomLatency;

  sim::System& acquire(const campaign::CaseSpec& spec,
                       proto::EventSink& sink) {
    if (system && mode == spec.netMode && sameShape(shape, spec.sys)) {
      system->reset(spec.sys.seed);
    } else {
      system.emplace(spec.sys, sink, spec.netMode);
      shape = spec.sys;
      mode = spec.netMode;
    }
    for (NodeId p = 0; p < spec.sys.numProcessors; ++p) {
      system->setProgram(p, spec.programs[p]);
    }
    return *system;
  }
};

class CampaignSession final : public Session {
 public:
  explicit CampaignSession(std::uint64_t seed)
      : cfg_(campaignConfig(seed, kSeedsPerRep)) {
    // Warm-up rep: a short campaign over the same master seed, on one
    // worker — a short two-worker run waits on its slower worker, which
    // makes set-up time swing with host contention far more than the reps.
    campaign::CampaignConfig warmCfg = campaignConfig(seed, kWarmupSeeds);
    warmCfg.jobs = 1;
    const campaign::CampaignResult warm = campaign::run(warmCfg);
    if (!warm.ok()) throw SimError("campaign warm-up rep failed");
  }

  Rep rep() override {
    const Stopwatch sw;
    const campaign::CampaignResult r = campaign::run(cfg_);
    Rep rep;
    rep.seconds = sw.seconds();
    rep.attempted = r.seedsRun;
    rep.failed = r.failures.size();
    if (!r.ok()) rep.failure = "campaign reported failures";
    rep.events = r.perf.events;
    rep.ops = r.opsBound;
    rep.exact = {{"events", r.perf.events},
                 {"ops_bound", r.opsBound},
                 {"txns_serialized", r.txnsSerialized},
                 {"seeds_run", r.seedsRun},
                 {"report_digest", fnv1a(r.report())}};
    return rep;
  }

  bool traced(Metrics& out, double, std::string& failure) override {
    const std::uint64_t n = cfg_.seeds;

    // Parallel efficiency and stealing of one jobs=2 campaign.
    {
      const Stopwatch sw;
      const campaign::CampaignResult r = campaign::run(cfg_);
      const double wallNs = static_cast<double>(sw.ns());
      if (!r.ok()) {
        failure = "campaign reported failures";
        return false;
      }
      out.set("campaign.parallel_efficiency",
              ratio(static_cast<double>(r.perf.wallNanos), kJobs * wallNs),
              "fraction");
      out.set("campaign.steal_ratio",
              countRatio(r.pool.tasksStolen, r.pool.tasksExecuted),
              "fraction");
    }

    // Baseline: the same cases replayed single-threaded through the public
    // per-case functions, one span per call.
    campaign::CaseSpec spec;
    std::vector<std::uint64_t> wantOps(n), wantTxns(n);
    std::uint64_t deriveNs = 0, runCaseNs = 0;
    const Stopwatch baseline;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t t0 = nowNs();
      campaign::deriveCaseInto(cfg_, i, spec);
      std::uint64_t t1 = nowNs();
      const campaign::CaseOutcome o =
          campaign::runCase(spec, cfg_.maxEventsPerRun);
      deriveNs += t1 - t0;
      runCaseNs += nowNs() - t1;
      if (!o.clean()) {
        failure = "case " + std::to_string(i) + ": " + o.signature;
        return false;
      }
      wantOps[i] = o.opsBound;
      wantTxns[i] = o.txnsSerialized;
    }
    const std::uint64_t baselineNs = baseline.ns();
    out.set("workload.derive_ns_per_case", countRatio(deriveNs, n), "ns/case");
    out.set("campaign.run_case_ns", countRatio(runCaseNs, n), "ns/case");

    // Traced pass: each case decomposed into the public calls runCase
    // makes — derive, System reset/run, the six checkers, coverage — with
    // a span around each.
    LayerTimes layers;
    std::uint64_t events = 0, ops = 0, runNs = 0;
    std::size_t footprintPeak = 0;
    std::optional<TimedCheckers> checkers;
    std::uint64_t serialized = 0, nacks = 0;
    SystemSlot slot;
    proto::TeeSink tee;
    const Stopwatch tracedWall;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t t0 = nowNs();
      campaign::deriveCaseInto(cfg_, i, spec);
      std::uint64_t t1 = nowNs();
      layers.add("workload", t1 - t0);

      const verify::VerifyConfig vc = proto::verifyConfigFor(spec.sys);
      t0 = nowNs();
      if (checkers) {
        for (std::size_t c = 0; c < 6; ++c) checkers->core(c)->reset(vc);
      } else {
        checkers.emplace(vc);
      }
      t1 = nowNs();
      layers.add("verify", t1 - t0);
      campaign::CoverageObserver cov;
      TimedSink timedCov(cov, TimedSink::kAll);
      tee.clear();
      tee.attach(timedCov);
      checkers->attach(tee);
      t0 = nowNs();
      sim::System& system = slot.acquire(spec, tee);
      t1 = nowNs();
      layers.add("sim", t1 - t0);
      const std::uint64_t checkSpan0 = checkers->nanos();
      const std::uint64_t checkNet0 = checkers->netNanos();
      const RunResult r = system.run(cfg_.maxEventsPerRun);
      const std::uint64_t spanNs = nowNs() - t1;
      // Children of the run span: the proxies.  Their clock reads belong
      // to no layer, so sim loses the whole child span but verify and
      // campaign gain only the time inside the callbacks.
      const std::uint64_t checkSpan = checkers->nanos() - checkSpan0;
      layers.add("sim", spanNs - checkSpan - timedCov.nanos);
      layers.add("verify", checkers->netNanos() - checkNet0);
      layers.add("campaign", timedCov.netNanos());
      runNs += spanNs;
      events += r.eventsProcessed;
      ops += r.opsBound;
      serialized += cov.txnsSerialized();
      for (const campaign::Point p :
           {campaign::Point::Nack4_GetS_Busy, campaign::Point::Nack8_GetX_Busy,
            campaign::Point::Nack10_Upg_Exclusive,
            campaign::Point::Nack11_Upg_Busy}) {
        nacks += cov.coverage().count(p);
      }

      t0 = nowNs();
      std::size_t footprint = 0;
      bool clean = true;
      for (std::size_t c = 0; c < 6; ++c) {
        footprint += checkers->core(c)->memoryFootprint();
        checkers->core(c)->finish();
        clean = clean && checkers->core(c)->report().ok();
      }
      layers.add("verify", nowNs() - t0);
      footprintPeak = std::max(footprintPeak, footprint);
      if (!r.ok() || !clean || r.opsBound != wantOps[i] ||
          cov.txnsSerialized() != wantTxns[i]) {
        failure = "traced case " + std::to_string(i) +
                  " differs from runCase's outcome";
        return false;
      }
    }
    const std::uint64_t tracedNs = tracedWall.ns();
    reportLayers(out, layers, tracedNs,
                 static_cast<double>(baselineNs) * 1e-9);
    for (std::size_t c = 0; c < 6; ++c) {
      out.set(std::string("verify.") + TimedCheckers::kNames[c] +
                  ".ns_per_event",
              countRatio(checkers->timed[c].netNanos(), events), "ns/event");
    }
    out.set("verify.share_of_run", countRatio(checkers->netNanos(), runNs),
            "fraction");
    out.set("verify.footprint_bytes_peak",
            static_cast<double>(footprintPeak), "B");
    // Every NACK is a refused request the processor retries.
    out.set("proto.serialized_per_request",
            countRatio(serialized, serialized + nacks), "fraction");
    out.set("proto.nacks_per_op", countRatio(nacks, ops), "nack/op");

    // Sim probe: the same cases through System::run with a no-op sink —
    // the simulator alone, with exact allocation and queue counts.
    SystemSlot bare;
    std::uint64_t bareEvents = 0, bareOps = 0, bareNs = 0, allocs = 0;
    std::uint64_t pushes = 0, overflow = 0, maxDepth = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      campaign::deriveCaseInto(cfg_, i, spec);
      sim::System& system = bare.acquire(spec, proto::nullSink());
      const std::uint64_t a0 = threadAllocs();
      const Stopwatch sw;
      const RunResult r = system.run(cfg_.maxEventsPerRun);
      bareNs += sw.ns();
      allocs += threadAllocs() - a0;
      if (!r.ok() || r.opsBound != wantOps[i]) {
        failure = "no-op-sink run of case " + std::to_string(i) + " differs";
        return false;
      }
      bareEvents += r.eventsProcessed;
      bareOps += r.opsBound;
      const net::CalendarStats& q = system.network().queueStats();
      pushes += q.pushes;
      overflow += q.overflowPushes;
      maxDepth = std::max<std::uint64_t>(maxDepth, q.maxDepth);
    }
    out.set("sim.ns_per_event", countRatio(bareNs, bareEvents), "ns/event");
    out.set("sim.events_per_op", countRatio(bareEvents, bareOps), "event/op");
    out.set("sim.allocs_per_event", countRatio(allocs, bareEvents), "alloc/event");
    out.set("net.queue_pushes_per_event", countRatio(pushes, bareEvents),
            "push/event");
    out.set("net.overflow_push_ratio", countRatio(overflow, pushes), "fraction");
    out.set("net.queue_max_depth", static_cast<double>(maxDepth), "count");
    return true;
  }

 private:
  campaign::CampaignConfig cfg_;
};

}  // namespace

std::vector<Workload> campaignWorkloads() {
  return {{
      "campaign",
      // Chosen because it is the loop users run most: many short seeded
      // sub-runs simulated and verified online, so its time is spent in
      // workload, sim, net, proto and verify plus per-case reset and
      // derivation in campaign.
      "the mixed directory-backend random campaign (512 seeds, jobs 2, "
      "streaming checkers, no mutant, minimizer or mc stage): the loop "
      "users run most",
      "mc and dsm (no model-checking stage, no serving runtime)",
      [](std::uint64_t seed) -> std::unique_ptr<Session> {
        return std::make_unique<CampaignSession>(seed);
      },
  }};
}

}  // namespace perfbench
