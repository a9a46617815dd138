// The model checker's memory of visited states (DESIGN.md §9, §14): the
// one owner of the visited representation for every `VisitedMode`.
//   * exact    — flat fingerprint set, plus each state's canonical
//                encoding (in an arena) and parent edge, indexed by id;
//   * compact  — the flat set alone, a fingerprint hit trusted (plus a
//                per-id fingerprint while checkpointing, for the log);
//   * bitstate — a Bloom array frozen for the wave; the flat set only
//                arbitrates newness within the wave, and its claims are
//                folded into the array (and cleared) at the barrier.
// It also owns the id counter and POR watermark, the visited log and
// bitstate dump of a checkpoint, schedule reconstruction, the omission
// bound and the byte counts.  `claim` and `seenBeforeWave` may run from
// any number of workers during a wave; everything else runs single-
// threaded at wave boundaries, and nothing grows mid-wave.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/flat_set.hpp"
#include "mc/model_checker.hpp"
#include "mc/spill.hpp"

namespace lcdc::mc {

/// An action packed into one 64-bit parent-edge word: kind(2) |
/// flightIndex(16) | dst(8) | msgType(4) | proc(8) | block(16) | req(2).
[[nodiscard]] std::uint64_t packAction(const Action& a);

class VisitedStore {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFEu;  ///< the root's
  /// `payload` is the state's id (0 under bitstate, which assigns none);
  /// `inserted` marks the one claimant per state that expands it.
  using Claim = FlatFingerprintSet::InsertResult;

  /// `checkpointing` keeps compact mode's per-id fingerprints for the log.
  VisitedStore(VisitedMode mode, std::uint64_t bitstateMb, bool checkpointing);

  /// Make room for `bound` claims this wave; freeze the POR horizon.
  void beginWave(std::uint64_t bound);
  /// Wave barrier: bitstate folds the wave's claims into the Bloom array.
  void endWave();

  /// Remember the state with canonical encoding `enc` (fingerprint `fp`),
  /// reached from `parent` by the packed `action`.  Exact mode copies
  /// `enc` through `cursor`, the caller's bump cursor into `arena()`.
  Claim claim(std::uint64_t fp, const std::vector<std::byte>& enc,
              std::uint32_t parent, std::uint64_t action, ArenaRef& cursor) {
    // Bitstate asks the wave-start Bloom snapshot, and only a miss reaches
    // the set: neither answer depends on in-wave interleaving.
    if (bloom_ && bloom_->testAll(fp)) return {};
    return set_.insert(
        fp, [&](std::uint32_t id) { return sameState(id, enc); },
        [&]() -> std::uint32_t {
          if (bloom_) return 0;
          const std::uint32_t id =
              nextId_.fetch_add(1, std::memory_order_relaxed);
          if (mode_ == VisitedMode::Exact) {
            std::byte* p = cursor.alloc(enc.size());
            std::memcpy(p, enc.data(), enc.size());
            encs_[id] = EncRef{p, static_cast<std::uint32_t>(enc.size())};
            parents_[id] = parent;
            actions_[id] = action;
          } else if (keepFps_) {
            fpsById_[id] = fp;
          }
          return id;
        });
  }

  /// Was `enc` claimed in an earlier wave?  The POR proviso asks this
  /// frozen horizon (ids grow monotonically), not the live set, so the
  /// ample choice never depends on worker timing.
  [[nodiscard]] bool seenBeforeWave(const std::vector<std::byte>& enc) const {
    const auto id =
        set_.find(fingerprintHash(enc.data(), enc.size()),
                  [&](std::uint32_t i) { return sameState(i, enc); });
    return id.has_value() && *id < watermark_;
  }

  /// Append the states claimed since the last checkpoint to
  /// `dir/visited.log` (bitstate: rewrite `dir/bitstate.bits`) and fill
  /// the manifest's visited fields.  Returns the bytes written.
  std::uint64_t checkpoint(const std::string& dir, std::uint64_t digest,
                           CheckpointManifest& m);
  /// Rebuild from the files `m` pins in `dir`; SimError on any mismatch.
  void restore(const std::string& dir, std::uint64_t digest,
               const CheckpointManifest& m);

  /// Root-to-`leaf` schedule, then `last`; empty in the lossy modes,
  /// which keep no parent edges.
  [[nodiscard]] Schedule pathTo(std::uint32_t leaf,
                                const std::optional<Action>& last) const;
  /// Bound on the probability of a missed state (see VisitedMode).
  [[nodiscard]] double omissionBound(std::uint64_t claimCalls) const;

  /// Bytes held for states — slabs, id arrays, stored encodings, Bloom
  /// array — a function of the state set alone, whatever `--jobs`.
  [[nodiscard]] std::uint64_t stateBytes() const;
  /// Everything held, arena slack included: what `--mem-limit-mb`
  /// charges.
  [[nodiscard]] std::uint64_t bytes() const;
  /// `bytes()` after `beginWave(bound)`, the rehash transient included.
  [[nodiscard]] std::uint64_t bytesAfterBeginWave(std::uint64_t bound) const;

  [[nodiscard]] std::uint32_t nextId() const {
    return nextId_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] Arena& arena() { return arena_; }

 private:
  struct EncRef {
    const std::byte* ptr = nullptr;
    std::uint32_t len = 0;
  };

  [[nodiscard]] bool sameState(std::uint32_t id,
                               const std::vector<std::byte>& enc) const {
    return mode_ != VisitedMode::Exact ||
           (encs_[id].len == enc.size() &&
            std::memcmp(encs_[id].ptr, enc.data(), enc.size()) == 0);
  }
  [[nodiscard]] std::uint64_t structBytes() const;

  VisitedMode mode_;
  bool keepFps_;
  FlatFingerprintSet set_;
  Arena arena_;  ///< exact: the canonical encodings
  std::atomic<std::uint32_t> nextId_{0};
  std::uint32_t watermark_ = 0;
  std::vector<EncRef> encs_;
  std::vector<std::uint32_t> parents_;
  std::vector<std::uint64_t> actions_;
  std::vector<std::uint64_t> fpsById_;
  std::unique_ptr<BitstateFilter> bloom_;
  std::unique_ptr<VisitedLogWriter> log_;
  std::uint64_t loggedRecords_ = 0;
  std::uint64_t logBytes_ = 0;
};

}  // namespace lcdc::mc
