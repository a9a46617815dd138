// lcdc_perfbench — the repository benchmark binary.
//
//   lcdc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--commit SHA] [--source-digest HEX]
//
// Runs one named workload through the library's public entry points
// (campaign::run, dsm::serveMem, mc::explore): sets it up eleven times and
// keeps the median set-up time, then runs reps until S seconds have
// passed, checking every rep's outputs.  With
// --trace 1 it then makes one traced pass and reports per-layer metrics.
// The last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  The line before it, "record: {...}", adds the host
// manifest, the workload-specific rates and the exact counters.
// perfbench/run.py builds this binary and is the command to run.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;

const std::uint64_t kProcessStartNs = nowNs();

constexpr int kSetups = 11;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string sourceDigest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lcdc_perfbench: " << why
            << "\nusage: lcdc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--source-digest HEX]\n";
  std::exit(2);
}

std::uint64_t parseU64(const std::string& flag, const std::string& v) {
  try {
    std::size_t used = 0;
    const unsigned long long x = std::stoull(v, &used);
    if (used != v.size()) throw std::invalid_argument(v);
    return x;
  } catch (const std::exception&) {
    usage(flag + " expects a non-negative integer, got '" + v + "'");
  }
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      haveWorkload = true;
    } else if (flag == "--seed") {
      a.seed = parseU64(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parseU64(flag, v));
      if (a.seconds < 1 || a.seconds > 60) usage("--seconds must be 1..60");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--source-digest") {
      a.sourceDigest = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!haveWorkload) usage("--workload is required");
  return a;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonMetrics(const Metrics& m) {
  std::string out = "{";
  bool first = true;
  for (const Metrics::Item& it : m.items()) {
    if (!first) out += ", ";
    first = false;
    out += jsonString(it.name) + ": {\"value\": " + jsonNumber(it.value) +
           ", \"unit\": " + jsonString(it.unit) + "}";
  }
  return out + "}";
}

std::string jsonCounters(const Counters& c) {
  std::string out = "{";
  for (const auto& [name, v] : c) {
    if (out.size() > 1) out += ", ";
    out += jsonString(name) + ": " + std::to_string(v);
  }
  return out + "}";
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

#ifndef LCDC_BUILD_TYPE
#define LCDC_BUILD_TYPE "unknown"
#endif
#ifndef LCDC_COMPILER
#define LCDC_COMPILER "unknown"
#endif

std::string manifestJson(const Args& a) {
  std::ostringstream os;
  os << "{\"cpu\": " << jsonString(cpuModel())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": " << jsonString(LCDC_BUILD_TYPE)
     << ", \"compiler\": " << jsonString(LCDC_COMPILER)
     << ", \"commit\": " << jsonString(a.commit)
     << ", \"source_digest\": " << jsonString(a.sourceDigest)
     << ", \"workload\": " << jsonString(a.workload)
     << ", \"seed\": " << a.seed << "}";
  return os.str();
}

/// The per-layer metrics every traced run reports, in every workload.  A
/// layer the workload bypasses reads 0 (it did no work there).
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"workload.derive_ns_per_case", "ns/case"},
      {"campaign.run_case_ns", "ns/case"},
      {"campaign.parallel_efficiency", "fraction"},
      {"campaign.steal_ratio", "fraction"},
      {"sim.ns_per_event", "ns/event"},
      {"sim.events_per_op", "event/op"},
      {"sim.allocs_per_event", "alloc/event"},
      {"net.queue_pushes_per_event", "push/event"},
      {"net.overflow_push_ratio", "fraction"},
      {"net.queue_max_depth", "count"},
      {"proto.serialized_per_request", "fraction"},
      {"proto.nacks_per_op", "nack/op"},
      {"verify.program_order.ns_per_event", "ns/event"},
      {"verify.claim2.ns_per_event", "ns/event"},
      {"verify.claim3.ns_per_event", "ns/event"},
      {"verify.epochs.ns_per_event", "ns/event"},
      {"verify.sc.ns_per_event", "ns/event"},
      {"verify.value_chain.ns_per_event", "ns/event"},
      {"verify.share_of_run", "fraction"},
      {"verify.footprint_bytes_peak", "B"},
      {"mc.encode_ns_per_state", "ns/state"},
      {"mc.insert_ns_per_state", "ns/state"},
      {"mc.world_save_ns_per_state", "ns/state"},
      {"mc.world_load_ns_per_state", "ns/state"},
      {"mc.expand_other_ns_per_state", "ns/state"},
      {"mc.parallel_efficiency", "fraction"},
      {"mc.ample_ratio", "fraction"},
      {"mc.probe_tail_ratio", "fraction"},
      {"mc.enc_bytes_per_state", "B/state"},
      {"mc.visited_bytes_per_state", "B/state"},
      {"mc.frontier_bytes_peak", "B"},
      {"dsm.certify_ns_per_event", "ns/event"},
      {"dsm.node_ns_per_op", "ns/op"},
      {"dsm.events_per_op", "event/op"},
      {"dsm.msgs_per_op", "msg/op"},
      {"dsm.chunk_pump_latency_p50", "pumps"},
      {"dsm.chunk_pump_latency_p99", "pumps"},
      {"dsm.cert_peak_lag_events", "count"},
      {"dsm.checker_bytes", "B"},
      {"share.workload", "fraction"},
      {"share.campaign", "fraction"},
      {"share.sim", "fraction"},
      {"share.verify", "fraction"},
      {"share.mc", "fraction"},
      {"share.dsm", "fraction"},
      {"trace.wall_s", "s"},
      {"trace.unattributed_s", "s"},
      {"trace.unattributed_share", "fraction"},
      {"trace.overhead", "ratio"},
      {"count.events", "count"},
      {"count.ops_bound", "count"},
      {"count.states", "count"},
      {"count.transitions", "count"},
      {"count.encodes", "count"},
      {"count.events_merged", "count"},
  };
  return kMetrics;
}

std::string firstDifference(const Counters& want, const Counters& got) {
  for (const auto& [name, v] : want) {
    const auto it = got.find(name);
    const std::uint64_t g = it == got.end() ? 0 : it->second;
    if (g != v) {
      return "counter " + name + " = " + std::to_string(g) +
             ", first rep had " + std::to_string(v);
    }
  }
  return got.size() == want.size() ? "" : "counter sets differ";
}

int runMain(const Args& args) {
  std::vector<Workload> all = campaignWorkloads();
  for (Workload& w : serveWorkloads()) all.push_back(std::move(w));
  for (Workload& w : mcWorkloads()) all.push_back(std::move(w));
  const Workload* wl = nullptr;
  for (const Workload& w : all) {
    if (w.name == args.workload) wl = &w;
  }
  if (wl == nullptr) usage("unknown workload '" + args.workload + "'");

  // -- set-up: inputs, engines and a warm-up rep, several times ------------
  std::vector<double> setups;
  std::unique_ptr<Session> session;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t t0 = i == 0 ? kProcessStartNs : nowNs();
    session.reset();
    session = wl->setup(args.seed);
    setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
  }

  // -- untraced reps for the measuring window -------------------------------
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Rep> good;
  std::vector<double> rss;
  std::optional<Counters> reference;
  const bool windowedRss = resetPeakRss();
  const Stopwatch window;
  for (int n = 0; n == 0 || window.seconds() < args.seconds; ++n) {
    if (windowedRss) {
      // Hand the previous rep's freed heap back first, so each rep's peak
      // starts from the same baseline.
      malloc_trim(0);
      resetPeakRss();
    }
    Rep r;
    try {
      r = session->rep();
    } catch (const std::exception& e) {
      r.attempted = r.failed = 1;
      r.failure = std::string("threw: ") + e.what();
    }
    if (r.failed == 0) {
      if (!reference) reference = r.exact;
      const std::string diff = firstDifference(*reference, r.exact);
      if (!diff.empty()) {
        r.failed = r.attempted;
        r.failure = diff;
      }
    }
    attempted += r.attempted;
    failed += r.failed;
    if (r.failed > 0) {
      std::cerr << "rep failed: " << r.failure << '\n';
      continue;
    }
    rss.push_back(static_cast<double>(peakRssBytes()));
    good.push_back(std::move(r));
  }

  std::vector<double> cases, events, ops, states, bytesPerState, repSeconds;
  for (const Rep& r : good) {
    repSeconds.push_back(r.seconds);
    cases.push_back(ratio(static_cast<double>(r.attempted), r.seconds));
    events.push_back(ratio(static_cast<double>(r.events), r.seconds));
    ops.push_back(ratio(static_cast<double>(r.ops), r.seconds));
    states.push_back(ratio(static_cast<double>(r.states), r.seconds));
    bytesPerState.push_back(ratio(static_cast<double>(r.trackedBytes),
                                  static_cast<double>(r.states)));
  }

  Metrics e2e;
  e2e.set("setup_s", median(setups), "s");
  e2e.set("cases_per_s", median(cases), "case/s");
  e2e.set("events_per_s", median(events), "event/s");
  e2e.set("peak_rss_mb", median(rss) / 1e6, "MB");

  // Workload-specific end-to-end rates (record line only).
  Metrics specific;
  const Rep* any = good.empty() ? nullptr : &good.front();
  if (any != nullptr && any->ops > 0) {
    specific.set("ops_per_s", median(ops), "op/s");
  }
  if (any != nullptr && any->states > 0) {
    specific.set("states_per_s", median(states), "state/s");
    specific.set("bytes_per_state", median(bytesPerState), "B/state");
  }
  specific.set("failed_fraction",
               ratio(static_cast<double>(failed),
                     static_cast<double>(attempted)),
               "fraction");
  specific.set("rep_s", median(repSeconds), "s");
  specific.set("reps", static_cast<double>(good.size()), "count");

  bool correct = failed == 0 && !good.empty();
  Metrics layers;
  if (args.trace) {
    for (const auto& [name, unit] : perLayerMetrics()) layers.set(name, 0, unit);
  }
  if (args.trace && correct) {
    for (const auto& [name, v] : good.front().exact) {
      if (layers.has("count." + name)) {
        layers.set("count." + name, static_cast<double>(v), "count");
      }
    }
    std::string failure;
    bool ok = false;
    try {
      ok = session->traced(layers, median(repSeconds), failure);
    } catch (const std::exception& e) {
      failure = std::string("traced run threw: ") + e.what();
    }
    attempted += 1;
    if (!ok) {
      failed += 1;
      correct = false;
      std::cerr << "traced run failed: " << failure << '\n';
    }
  }
  session.reset();

  std::cout << "workload " << wl->name << " (seed " << args.seed << "): "
            << good.size() << " rep(s), " << attempted << " attempted, "
            << failed << " failed\n  why: " << wl->why
            << "\n  bypasses: " << wl->bypasses << '\n';
  for (const Metrics* m : {&e2e, &specific, &layers}) {
    for (const Metrics::Item& it : m->items()) {
      std::cout << "  " << it.name << " = " << jsonNumber(it.value) << ' '
                << it.unit << '\n';
    }
  }
  std::cout << "record: {\"manifest\": " << manifestJson(args)
            << ", \"end_to_end\": " << jsonMetrics(e2e)
            << ", \"workload_rates\": " << jsonMetrics(specific)
            << ", \"exact\": " << jsonCounters(good.empty() ? Counters{}
                                                        : good.front().exact)
            << ", \"per_layer\": " << jsonMetrics(layers) << "}\n";
  const Metrics& reported = args.trace ? layers : e2e;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << jsonMetrics(reported) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  try {
    return runMain(args);
  } catch (const std::exception& e) {
    std::cerr << "lcdc_perfbench: " << e.what() << '\n';
    return 1;
  }
}
