#include "harness.hpp"

#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

#include <sys/resource.h>

// -- exact heap-allocation accounting ----------------------------------------
//
// Global operator new is replaced (as bench/sim_throughput does) so
// sim.allocs_per_event is an exact count.  The counter is thread-local:
// the single-threaded sim probe reads it on its own thread, and the
// parallel workloads pay no shared-cacheline traffic for it.

namespace {
thread_local std::uint64_t tAllocs = 0;
}

void* operator new(std::size_t n) {
  tAllocs += 1;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t threadAllocs() { return tAllocs; }

std::uint64_t clockReadNs() {
  static const std::uint64_t kNs = [] {
    std::vector<double> d;
    for (int i = 0; i < 2001; ++i) {
      const std::uint64_t t0 = nowNs();
      d.push_back(static_cast<double>(nowNs() - t0));
    }
    return static_cast<std::uint64_t>(median(std::move(d)));
  }();
  return kNs;
}

std::uint64_t peakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      std::uint64_t kb = 0;
      ls >> kb;
      return kb * 1024;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

bool resetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void reportLayers(Metrics& out, const LayerTimes& layers,
                  std::uint64_t tracedWallNs, double untracedSeconds) {
  const double wall = static_cast<double>(tracedWallNs);
  for (const std::string& layer : layerNames()) {
    const auto it = layers.selfNs.find(layer);
    const double self = it == layers.selfNs.end()
                            ? 0.0
                            : static_cast<double>(it->second);
    out.set("share." + layer, ratio(self, wall), "fraction");
  }
  const double attributed = static_cast<double>(layers.total());
  const double unattributed = wall - attributed;
  out.set("trace.wall_s", wall * 1e-9, "s");
  out.set("trace.unattributed_s", unattributed * 1e-9, "s");
  out.set("trace.unattributed_share", ratio(unattributed, wall), "fraction");
  out.set("trace.overhead", ratio(wall * 1e-9, untracedSeconds), "ratio");
}

}  // namespace perfbench
