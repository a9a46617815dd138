// Lossless World <-> byte-blob serialization for the explorer's frontier.
//
// The canonical key (`StateCodec`) deliberately projects fields away —
// clocks, stamps, serials, raw txn ids, epoch bookkeeping — because the
// protocol's *reachable-state identity* does not depend on them.  Its
// *transitions* do, though: the cache branches on message stamps for the
// Section 2.5 deadlock detection, and the directory reuses `busyTxn.id`
// for transactions 13/14a.  So frontier states must be stored in full
// fidelity, and the canonical key must never be used to reconstruct one.
//
// Before this codec the frontier held live `World` values: per state,
// two controller vectors of hash maps, message vectors, stamp vectors —
// roughly 1.5-2 KB across ~15 heap allocations.  A varint blob is
// ~150-300 B appended to a frontier segment's record stream, which is
// where most of the resident-memory reduction comes from (EXPERIMENTS.md
// S12).
//
// Controller statistics are not serialized (nothing in the checker reads
// them); a loaded world restarts its stats at zero.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mc/world.hpp"

namespace lcdc::mc {

class WorldCodec {
 public:
  WorldCodec(const McConfig& cfg, proto::TxnCounter& txns)
      : cfg_(cfg), txns_(&txns) {}

  /// Serialize `w` into `out` (replaced, not appended).
  void save(const World& w, std::vector<std::byte>& out) const;

  /// Rebuild a full-fidelity World from a saved blob.  The world's
  /// controllers alias the codec's shared transaction counter.
  [[nodiscard]] World load(const std::byte* data, std::size_t len) const;

 private:
  const McConfig& cfg_;
  proto::TxnCounter* txns_;
};

}  // namespace lcdc::mc
