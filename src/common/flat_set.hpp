// Open-addressing concurrent visited set for the model checker, plus the
// Holzmann-style bitstate filter backing `lcdc mc --visited bitstate`.
//
// Stores 64-bit fingerprints plus a 32-bit payload (state id) in two
// parallel flat slabs with linear probing.  Insertion claims a slot by
// CAS on the fingerprint word, then publishes the payload with a release
// store; racing inserters of the same fingerprint spin briefly on the
// payload and then run the caller-supplied equality check.  Whether a
// fingerprint hit is trusted is the caller's choice, made in that check:
// comparing full encodings makes the set lossless (a collision costs an
// extra probe, never a lost state), while an always-true check is hash
// compaction (DESIGN.md §14), where two states sharing a 64-bit
// fingerprint merge.
//
// Concurrency contract:
//   * `insert`/`find` may run from any number of threads concurrently.
//   * `reserveFor` (growth/rehash) and `clear` are single-threaded and
//     must be called only while no insert/find is in flight — the
//     explorer calls them at wave boundaries, sized by the wave's
//     successor upper bound, so the table NEVER grows mid-wave.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/expect.hpp"

namespace lcdc {

/// 64-bit hash over a byte span (xxhash-style multiply/rotate lanes).
/// Quality matters: the flat set's probe lengths and the correctness
/// fallback rate are both functions of fingerprint avalanche.
inline std::uint64_t fingerprintHash(const std::byte* data, std::size_t len) {
  constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
  auto rotl = [](std::uint64_t v, int r) {
    return (v << r) | (v >> (64 - r));
  };
  auto read64 = [](const std::byte* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i]))
           << (8 * i);
    }
    return v;
  };
  std::uint64_t h = kP3 ^ (static_cast<std::uint64_t>(len) * kP1);
  const std::byte* p = data;
  std::size_t n = len;
  while (n >= 8) {
    h ^= rotl(read64(p) * kP2, 31) * kP1;
    h = rotl(h, 27) * kP1 + kP2;
    p += 8;
    n -= 8;
  }
  std::uint64_t tail = 0;
  for (std::size_t i = 0; i < n; ++i) {
    tail |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i]))
            << (8 * i);
  }
  if (n != 0) {
    h ^= rotl(tail * kP2, 31) * kP1;
    h = rotl(h, 27) * kP1 + kP2;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

class FlatFingerprintSet {
 public:
  static constexpr std::uint32_t kPendingPayload = 0xFFFFFFFFu;
  /// Largest payload a caller may store.  0xFFFFFFFF is the pending
  /// sentinel and 0xFFFFFFFE the explorer's "no parent" marker, so the
  /// usable id space ends here; `insert` throws SimError past it (the
  /// 2^32-state guard — beyond this the payload slab cannot name states
  /// and the run must switch to `--visited bitstate`).
  static constexpr std::uint32_t kMaxPayload = 0xFFFFFFFDu;

  struct InsertResult {
    std::uint32_t payload = 0;
    bool inserted = false;
    std::uint32_t probes = 0;  ///< extra slots visited past the home slot
  };

  explicit FlatFingerprintSet(std::size_t initialCapacity = 1u << 16) {
    std::size_t cap = 64;
    while (cap < initialCapacity) cap <<= 1;
    rebuild(cap);
  }

  FlatFingerprintSet(const FlatFingerprintSet&) = delete;
  FlatFingerprintSet& operator=(const FlatFingerprintSet&) = delete;

  /// Insert fingerprint `fp`.  On winning an empty slot, calls
  /// `assign()` exactly once to produce the payload (the caller stores
  /// the full encoding there) and publishes it.  On finding an occupied
  /// slot with the same fingerprint, waits for that slot's payload and
  /// calls `equals(payload)` — a `false` answer (true 64-bit collision)
  /// continues the probe instead of deduplicating.
  template <typename EqualsFn, typename AssignFn>
  InsertResult insert(std::uint64_t fp, EqualsFn&& equals, AssignFn&& assign) {
    fp = normalize(fp);
    std::size_t idx = fp & mask_;
    std::uint32_t probes = 0;
    for (;;) {
      std::uint64_t cur = fps_[idx].load(std::memory_order_acquire);
      if (cur == kEmpty) {
        if (fps_[idx].compare_exchange_strong(cur, fp,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
          const std::uint32_t payload = assign();
          if (payload > kMaxPayload) {
            // Publish something valid before throwing so concurrent
            // probers of this slot never spin forever on the sentinel.
            payloads_[idx].store(kMaxPayload, std::memory_order_release);
            throw SimError(
                "flat set payload exceeds the 32-bit state-id space "
                "(2^32-2 states); rerun with --visited bitstate");
          }
          payloads_[idx].store(payload, std::memory_order_release);
          size_.fetch_add(1, std::memory_order_relaxed);
          return {payload, true, probes};
        }
        // Lost the race; `cur` now holds the winner's fingerprint.
      }
      if (cur == fp) {
        const std::uint32_t payload = waitPayload(idx);
        if (equals(payload)) return {payload, false, probes};
        // Same fingerprint, different state bytes: keep probing.
      }
      idx = (idx + 1) & mask_;
      ++probes;
      LCDC_EXPECT(probes <= capacity_, "flat set full (reserveFor missing)");
    }
  }

  /// Lookup without inserting (used by the POR visited-before-wave
  /// proviso).  Returns the payload of the entry `equals` accepts.
  template <typename EqualsFn>
  std::optional<std::uint32_t> find(std::uint64_t fp, EqualsFn&& equals) const {
    fp = normalize(fp);
    std::size_t idx = fp & mask_;
    std::uint32_t probes = 0;
    for (;;) {
      const std::uint64_t cur = fps_[idx].load(std::memory_order_acquire);
      if (cur == kEmpty) return std::nullopt;
      if (cur == fp) {
        const std::uint32_t payload = waitPayload(idx);
        if (equals(payload)) return payload;
      }
      idx = (idx + 1) & mask_;
      ++probes;
      if (probes > capacity_) return std::nullopt;
    }
  }

  /// Single-threaded: guarantee room for `extra` further insertions at
  /// <= 50% load, rehashing into a larger slab if needed.  Must not run
  /// concurrently with insert/find.
  void reserveFor(std::size_t extra) {
    const std::size_t cap = capacityFor(extra);
    if (cap == capacity_) return;
    auto oldFps = std::move(fps_);
    auto oldPayloads = std::move(payloads_);
    const std::size_t oldCap = capacity_;
    rebuild(cap);
    for (std::size_t i = 0; i < oldCap; ++i) {
      const std::uint64_t fp = oldFps[i].load(std::memory_order_relaxed);
      if (fp == kEmpty) continue;
      std::size_t idx = fp & mask_;
      while (fps_[idx].load(std::memory_order_relaxed) != kEmpty) {
        idx = (idx + 1) & mask_;
      }
      fps_[idx].store(fp, std::memory_order_relaxed);
      payloads_[idx].store(oldPayloads[i].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    }
  }

  /// Single-threaded: drop every entry but keep the slabs at their
  /// current capacity.  The out-of-core explorer reuses one set as the
  /// per-wave bitstate claim table, clearing it at each wave boundary.
  void clear() {
    for (std::size_t i = 0; i < capacity_; ++i) {
      fps_[i].store(kEmpty, std::memory_order_relaxed);
      payloads_[i].store(kPendingPayload, std::memory_order_relaxed);
    }
    size_.store(0, std::memory_order_relaxed);
  }

  /// Single-threaded iteration over every occupied slot (slab order —
  /// callers must not depend on it; the bitstate barrier publication
  /// only ORs bits, which commutes).
  template <typename Fn>
  void forEachFingerprint(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      const std::uint64_t fp = fps_[i].load(std::memory_order_relaxed);
      if (fp != kEmpty) fn(fp);
    }
  }

  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t bytes() const { return capacity_ * kSlotBytes; }
  /// Slab bytes after a hypothetical `reserveFor(extra)` — what the
  /// memory-limit check charges for the coming wave, so the rehash
  /// transient (old + new slab live at once) never silently overshoots
  /// `--mem-limit-mb`.
  [[nodiscard]] std::size_t bytesAfterReserve(std::size_t extra) const {
    const std::size_t cap = capacityFor(extra);
    // During the rehash both slabs are live: charge the sum.
    return cap == capacity_ ? bytes() : (cap + capacity_) * kSlotBytes;
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::size_t kSlotBytes =
      sizeof(std::uint64_t) + sizeof(std::uint32_t);

  /// Smallest power-of-two capacity holding `extra` more entries at <= 50%
  /// load (the current one when it already does).
  [[nodiscard]] std::size_t capacityFor(std::size_t extra) const {
    const std::size_t need = size_.load(std::memory_order_relaxed) + extra;
    std::size_t cap = capacity_;
    while (need * 2 > cap) cap <<= 1;
    return cap;
  }

  /// Fingerprint 0 is the empty-slot marker; remap a real hash of 0 to an
  /// arbitrary fixed odd constant (still checked by `equals`, so this
  /// costs at most a fallback comparison).
  static std::uint64_t normalize(std::uint64_t fp) {
    return fp != kEmpty ? fp : 0x9E3779B97F4A7C15ULL;
  }

  std::uint32_t waitPayload(std::size_t idx) const {
    std::uint32_t p = payloads_[idx].load(std::memory_order_acquire);
    while (p == kPendingPayload) {
      p = payloads_[idx].load(std::memory_order_acquire);
    }
    return p;
  }

  void rebuild(std::size_t cap) {
    fps_ = std::make_unique<std::atomic<std::uint64_t>[]>(cap);
    payloads_ = std::make_unique<std::atomic<std::uint32_t>[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      fps_[i].store(kEmpty, std::memory_order_relaxed);
      payloads_[i].store(kPendingPayload, std::memory_order_relaxed);
    }
    capacity_ = cap;
    mask_ = cap - 1;
  }

  std::unique_ptr<std::atomic<std::uint64_t>[]> fps_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> payloads_;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::atomic<std::size_t> size_{0};
};

/// Holzmann-style bitstate (supertrace) filter: a power-of-two Bloom
/// array with k derived bit positions per fingerprint.  Backing store
/// for `lcdc mc --visited bitstate`.
///
/// Concurrency contract (narrower than FlatFingerprintSet, by design):
/// `testAll` may run from any number of threads, but `setAll` is
/// single-threaded and must never overlap a `testAll` — the explorer
/// queries a frozen wave-start snapshot during expansion and publishes
/// the wave's new fingerprints at the barrier.  That discipline is what
/// makes bitstate counts independent of `--jobs`: membership answers
/// never depend on in-wave thread interleaving.  Words are plain
/// uint64s (no atomics) for exactly this reason.
class BitstateFilter {
 public:
  static constexpr std::uint32_t kDefaultHashes = 3;

  /// Size the array to `megabytes` MiB rounded down to a power of two of
  /// bits (at least 2^20 bits = 128 KiB).
  explicit BitstateFilter(std::size_t megabytes,
                          std::uint32_t hashes = kDefaultHashes)
      : hashes_(hashes == 0 ? 1 : hashes) {
    std::uint64_t bits = 1ULL << 20;
    const std::uint64_t budget = static_cast<std::uint64_t>(megabytes) << 23;
    while (bits * 2 <= budget) bits <<= 1;
    bits_ = bits;
    words_.assign(static_cast<std::size_t>(bits_ >> 6), 0);
  }

  BitstateFilter(const BitstateFilter&) = delete;
  BitstateFilter& operator=(const BitstateFilter&) = delete;

  /// True iff every derived bit is set (i.e. `fp` is *possibly* seen; a
  /// false answer is definitive).
  [[nodiscard]] bool testAll(std::uint64_t fp) const {
    std::uint64_t h1 = 0;
    std::uint64_t h2 = 0;
    derive(fp, h1, h2);
    for (std::uint32_t i = 0; i < hashes_; ++i) {
      const std::uint64_t bit = (h1 + i * h2) & (bits_ - 1);
      if ((words_[static_cast<std::size_t>(bit >> 6)] &
           (1ULL << (bit & 63))) == 0) {
        return false;
      }
    }
    return true;
  }

  /// Set every derived bit (single-threaded: barrier publication only).
  void setAll(std::uint64_t fp) {
    std::uint64_t h1 = 0;
    std::uint64_t h2 = 0;
    derive(fp, h1, h2);
    for (std::uint32_t i = 0; i < hashes_; ++i) {
      const std::uint64_t bit = (h1 + i * h2) & (bits_ - 1);
      words_[static_cast<std::size_t>(bit >> 6)] |= 1ULL << (bit & 63);
    }
  }

  /// Population count over the whole array — the `m_ones/m` fill ratio
  /// feeding the reported omission bound `insertCalls * (ones/m)^k`.
  [[nodiscard]] std::uint64_t onesCount() const {
    std::uint64_t ones = 0;
    for (const std::uint64_t w : words_) {
      std::uint64_t v = w;
      while (v != 0) {
        v &= v - 1;
        ++ones;
      }
    }
    return ones;
  }

  [[nodiscard]] std::uint64_t bitCount() const { return bits_; }
  [[nodiscard]] std::uint32_t hashCount() const { return hashes_; }
  [[nodiscard]] std::size_t bytes() const { return words_.size() * 8; }

  /// Raw word access for checkpoint dump/load.
  [[nodiscard]] const std::vector<std::uint64_t>& words() const {
    return words_;
  }
  void loadWords(std::vector<std::uint64_t> words, std::uint32_t hashes) {
    if (words.size() != words_.size()) {
      throw SimError(
          "bitstate checkpoint size mismatch: dump has " +
          std::to_string(words.size()) + " words, --bitstate-mb configures " +
          std::to_string(words_.size()) +
          " (resume with the original --bitstate-mb)");
    }
    words_ = std::move(words);
    hashes_ = hashes == 0 ? 1 : hashes;
  }

 private:
  /// Double hashing: h2 is re-mixed from fp and forced odd so the k
  /// probe positions stay distinct over the power-of-two bit space.
  static void derive(std::uint64_t fp, std::uint64_t& h1, std::uint64_t& h2) {
    h1 = fp;
    std::uint64_t m = fp;
    m ^= m >> 33;
    m *= 0xFF51AFD7ED558CCDULL;
    m ^= m >> 33;
    m *= 0xC4CEB9FE1A85EC53ULL;
    m ^= m >> 33;
    h2 = m | 1;
  }

  std::vector<std::uint64_t> words_;
  std::uint64_t bits_ = 0;
  std::uint32_t hashes_ = kDefaultHashes;
};

}  // namespace lcdc
