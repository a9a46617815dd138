// Deterministic, seedable pseudo-random number generation.
//
// Every stochastic choice in the simulator (message latencies, workload op
// streams, eviction decisions) flows from one of these generators so that a
// run is exactly reproducible from its seed — a hard requirement for
// debugging protocol races and for the property-test sweeps.
//
// xoshiro256** (Blackman & Vigna) seeded via splitmix64: small, fast, and
// high quality; we avoid std::mt19937 whose state is bulky to fork per
// component.
#pragma once

#include <array>
#include <cstdint>

namespace lcdc {

/// splitmix64 step; used for seeding and for cheap hash mixing.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x1905'0628'1998'0702ULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] (inclusive).  Debiased by rejection.
  constexpr std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) return (*this)();  // full 64-bit range
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t draw = (*this)();
    while (draw >= limit) draw = (*this)();
    return lo + draw % span;
  }

  /// Bernoulli draw with probability numer/denom.
  constexpr bool chance(std::uint64_t numer, std::uint64_t denom) {
    return uniform(0, denom - 1) < numer;
  }

  /// Derive an independent child generator (for per-component streams).
  [[nodiscard]] constexpr Rng fork() {
    std::uint64_t seed = (*this)();
    return Rng(seed);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace lcdc
