// The model-checking workloads: mc_data and mc_symmetry_por.
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "harness.hpp"
#include "mc/model_checker.hpp"

namespace perfbench {
namespace {

using namespace lcdc;

constexpr unsigned kJobs = 2;
/// Waves explored by the warm-up rep of set-up.
constexpr std::uint64_t kWarmupDepth = 10;
/// mc_symmetry_por depth bound: ~2 s of exploration per rep.
constexpr std::uint64_t kPorDepth = 17;

mc::McConfig dataConfig() {
  mc::McConfig cfg;
  cfg.numProcessors = 3;
  cfg.numBlocks = 1;
  cfg.modelData = true;
  cfg.visited = mc::VisitedMode::Exact;
  cfg.jobs = kJobs;
  cfg.maxStates = 4'000'000;  // far above the 3x1 space: never binds
  return cfg;
}

mc::McConfig symmetryPorConfig() {
  mc::McConfig cfg;
  cfg.numProcessors = 4;
  cfg.numBlocks = 1;
  cfg.symmetry = true;
  cfg.por = true;
  cfg.visited = mc::VisitedMode::Exact;
  cfg.jobs = kJobs;
  // Bounded by depth, not by states: a state cap would cut a wave at a
  // scheduling-dependent point and make transitions vary between runs.
  cfg.maxDepth = kPorDepth;
  cfg.maxStates = 100'000'000;
  return cfg;
}

/// Output checks of one exploration; "" when it passes.
std::string checkRun(const mc::McConfig& cfg, const mc::McResult& r) {
  if (!r.ok()) {
    return r.deadlockFound ? "deadlock found"
                           : "violation: " + r.violations.front();
  }
  if (r.hitStateLimit) return "hit the state limit";
  if (r.memLimitHit) return "hit the memory limit";
  if (cfg.maxDepth != 0 && r.wavesCompleted != cfg.maxDepth) {
    return "stopped after " + std::to_string(r.wavesCompleted) + " of " +
           std::to_string(cfg.maxDepth) + " waves";
  }
  return "";
}

class McSession final : public Session {
 public:
  explicit McSession(const mc::McConfig& cfg) : cfg_(cfg) {
    // Warm-up rep: the first waves on one worker (see the campaign
    // workload for why set-up does not use two).
    mc::McConfig warm = cfg_;
    warm.maxDepth = kWarmupDepth;
    warm.jobs = 1;
    const mc::McResult r = mc::explore(warm);
    const std::string bad = checkRun(warm, r);
    if (!bad.empty()) throw SimError("mc warm-up rep: " + bad);
  }

  Rep rep() override {
    const Stopwatch sw;
    const mc::McResult r = mc::explore(cfg_);
    Rep rep;
    rep.seconds = sw.seconds();
    rep.attempted = 1;
    rep.failure = checkRun(cfg_, r);
    rep.failed = rep.failure.empty() ? 0 : 1;
    rep.events = r.transitions;
    rep.states = r.statesExplored;
    rep.trackedBytes = r.trackedBytesPeak;
    rep.exact = {{"states", r.statesExplored},
                 {"transitions", r.transitions},
                 {"waves", r.wavesCompleted},
                 {"encodes", r.perf.encodeCalls},
                 {"stored_enc_bytes", r.perf.storedEncodingBytes},
                 {"ample_states", r.ampleStates}};
    return rep;
  }

  bool traced(Metrics& out, double untracedSeconds,
              std::string& failure) override {
    // Traced pass: the same exploration with the explorer's own perf
    // timers on.  They sum worker time over the jobs, so each phase's
    // wall-clock share is its time divided by jobs; wave barriers, idle
    // workers and the serial wave-boundary work are the remainder.
    mc::McConfig cfg = cfg_;
    cfg.perf = true;
    const Stopwatch sw;
    const mc::McResult r = mc::explore(cfg);
    const std::uint64_t wallNs = sw.ns();
    failure = checkRun(cfg, r);
    if (!failure.empty()) return false;

    const mc::McPerfCounters& p = r.perf;
    const std::uint64_t named = p.encodeNanos + p.insertNanos +
                                p.worldSaveNanos + p.worldLoadNanos;
    const std::uint64_t other = p.expandNanos > named ? p.expandNanos - named : 0;
    LayerTimes layers;
    layers.add("mc", p.expandNanos / cfg.jobs);
    reportLayers(out, layers, wallNs, untracedSeconds);

    const double states = static_cast<double>(r.statesExplored);
    const auto perState = [&](const char* name, std::uint64_t ns) {
      out.set(name, ratio(static_cast<double>(ns), states), "ns/state");
    };
    perState("mc.encode_ns_per_state", p.encodeNanos);
    perState("mc.insert_ns_per_state", p.insertNanos);
    perState("mc.world_save_ns_per_state", p.worldSaveNanos);
    perState("mc.world_load_ns_per_state", p.worldLoadNanos);
    perState("mc.expand_other_ns_per_state", other);
    out.set("mc.parallel_efficiency",
            ratio(static_cast<double>(p.expandNanos),
                  static_cast<double>(cfg.jobs) * static_cast<double>(wallNs)),
            "fraction");
    out.set("mc.ample_ratio",
            ratio(static_cast<double>(r.ampleStates), states), "fraction");
    const std::uint64_t tail = p.probeHist[3] + p.probeHist[4] + p.probeHist[5];
    out.set("mc.probe_tail_ratio", countRatio(tail, p.insertCalls), "fraction");
    out.set("mc.enc_bytes_per_state",
            countRatio(p.storedEncodingBytes, p.storedStates), "B/state");
    out.set("mc.visited_bytes_per_state",
            ratio(static_cast<double>(r.visitedBytes), states), "B/state");
    out.set("mc.frontier_bytes_peak", static_cast<double>(r.frontierBytesPeak),
            "B");
    return true;
  }

 private:
  mc::McConfig cfg_;
};

}  // namespace

std::vector<Workload> mcWorkloads() {
  return {
      {
          "mc_data",
          // Chosen because its visited set (~180 MB) is far larger than L2,
          // so visited insert and the world codec dominate; with no
          // symmetry or POR it predicts "no change" for reduction work.
          "full 3x1 --model-data exploration, exact visited set in RAM, "
          "jobs 2 (~980k states, 3.8M transitions): visited insert and world "
          "codec dominate",
          "symmetry canonicalisation and POR ranking; workload, campaign, "
          "sim, net, verify and dsm",
          [](std::uint64_t) -> std::unique_ptr<Session> {
            return std::make_unique<McSession>(dataConfig());
          },
      },
      {
          "mc_symmetry_por",
          // Chosen because canonical encoding over 24 permutations
          // dominates, plus the POR candidate ranking; the visited set is
          // small.  It is the workload binary POR work would move.
          "4x1 --symmetry --por bounded at depth 17, jobs 2: canonical "
          "encode over 24 permutations and POR ranking dominate",
          "the large visited set and data modelling; workload, campaign, "
          "sim, net, verify and dsm",
          [](std::uint64_t) -> std::unique_ptr<Session> {
            return std::make_unique<McSession>(symmetryPorConfig());
          },
      },
  };
}

}  // namespace perfbench
