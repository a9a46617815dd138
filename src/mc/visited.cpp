#include "mc/visited.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"

namespace lcdc::mc {

namespace {

Action unpackAction(std::uint64_t v) {
  const auto node = [](std::uint64_t b) -> NodeId {
    return b == 0xFF ? kNoNode : static_cast<NodeId>(b);
  };
  Action a;
  a.kind = static_cast<Action::Kind>(v & 0x3);
  a.flightIndex = static_cast<std::uint32_t>((v >> 2) & 0xFFFF);
  a.dst = node((v >> 18) & 0xFF);
  a.msgType = static_cast<proto::MsgType>((v >> 26) & 0xF);
  a.proc = node((v >> 30) & 0xFF);
  a.block = static_cast<BlockId>((v >> 38) & 0xFFFF);
  a.req = static_cast<ReqType>((v >> 54) & 0x3);
  return a;
}

/// Grow an id array to `needed` slots, at least doubling its capacity.
template <typename T>
void growTo(std::vector<T>& v, std::size_t needed) {
  if (needed <= v.size()) return;
  v.reserve(std::max(needed, v.size() * 2));
  v.resize(needed);
}

}  // namespace

const char* toString(VisitedMode m) {
  switch (m) {
    case VisitedMode::Exact: return "exact";
    case VisitedMode::Compact: return "compact";
    case VisitedMode::Bitstate: return "bitstate";
  }
  return "?";
}

// Node ids use 255 as the "no node" code; the explored configurations are
// orders of magnitude below every field's range (asserted here).
std::uint64_t packAction(const Action& a) {
  const auto node8 = [](NodeId n) -> std::uint64_t {
    if (n == kNoNode) return 0xFF;
    LCDC_EXPECT(n < 0xFF, "node id exceeds packed-action range");
    return n;
  };
  LCDC_EXPECT(a.flightIndex < 0xFFFF, "flight index exceeds packed range");
  LCDC_EXPECT(a.block < 0xFFFF, "block id exceeds packed range");
  return static_cast<std::uint64_t>(a.kind) |
         (static_cast<std::uint64_t>(a.flightIndex) << 2) |
         (node8(a.dst) << 18) |
         (static_cast<std::uint64_t>(a.msgType) << 26) |
         (node8(a.proc) << 30) |
         (static_cast<std::uint64_t>(a.block) << 38) |
         (static_cast<std::uint64_t>(a.req) << 54);
}

VisitedStore::VisitedStore(VisitedMode mode, std::uint64_t bitstateMb,
                           bool checkpointing)
    : mode_(mode), keepFps_(mode == VisitedMode::Compact && checkpointing) {
  if (mode == VisitedMode::Bitstate) {
    bloom_ = std::make_unique<BitstateFilter>(
        std::max<std::uint64_t>(1, bitstateMb));
  }
}

void VisitedStore::beginWave(std::uint64_t bound) {
  const auto extra = static_cast<std::size_t>(bound);
  set_.reserveFor(extra);
  watermark_ = nextId();
  // Every id this wave can hand out gets its slots now, so workers write
  // them without synchronization.
  const std::size_t ids = static_cast<std::size_t>(watermark_) + extra;
  if (mode_ == VisitedMode::Exact) {
    growTo(encs_, ids);
    growTo(parents_, ids);
    growTo(actions_, ids);
  } else if (keepFps_) {
    growTo(fpsById_, ids);
  }
}

void VisitedStore::endWave() {
  if (!bloom_) return;
  set_.forEachFingerprint([&](std::uint64_t fp) { bloom_->setAll(fp); });
  set_.clear();
}

std::uint64_t VisitedStore::checkpoint(const std::string& dir,
                                       std::uint64_t digest,
                                       CheckpointManifest& m) {
  m.visitedMode = toString(mode_);
  m.nextId = nextId();
  if (bloom_) {
    writeBitstateFile(dir + "/bitstate.bits", digest, bloom_->hashCount(),
                      bloom_->words());
    m.bitstateWords = bloom_->words().size();
    m.bitstateHashes = bloom_->hashCount();
    return bloom_->bytes();
  }
  if (!log_) {
    log_ = std::make_unique<VisitedLogWriter>(dir + "/visited.log", logBytes_);
  }
  for (std::uint64_t id = loggedRecords_; id < m.nextId; ++id) {
    if (mode_ == VisitedMode::Exact) {
      log_->appendExact(encs_[id].ptr, encs_[id].len, parents_[id],
                        actions_[id]);
    } else {
      log_->appendFp(fpsById_[id]);
    }
  }
  const std::uint64_t before = logBytes_;
  logBytes_ = log_->flush();
  loggedRecords_ = m.nextId;
  m.visitedLogBytes = logBytes_;
  m.visitedLogRecords = loggedRecords_;
  return logBytes_ - before;
}

void VisitedStore::restore(const std::string& dir, std::uint64_t digest,
                           const CheckpointManifest& m) {
  if (m.visitedMode != toString(mode_)) {
    throw SimError("checkpoint visited mode is '" + m.visitedMode +
                   "' but this run asked for '" + toString(mode_) + "'");
  }
  loggedRecords_ = m.visitedLogRecords;
  logBytes_ = m.visitedLogBytes;
  if (bloom_) {
    std::uint32_t hashes = 0;
    std::vector<std::uint64_t> words =
        readBitstateFile(dir + "/bitstate.bits", digest, hashes);
    bloom_->loadWords(std::move(words), hashes);
    return;
  }
  // Records are varints, at least 3 bytes exact (length, parent, action)
  // and 1 compact: the log's length bounds what `beginWave` may allocate.
  VisitedLogReader rd(dir + "/visited.log", m.visitedLogBytes);
  const bool exact = mode_ == VisitedMode::Exact;
  if (m.visitedLogRecords != m.nextId ||
      m.nextId > m.visitedLogBytes / (exact ? 3 : 1)) {
    throw SimError(
        "checkpoint manifest inconsistent: visited-log record count "
        "does not match nextId and the log's length");
  }
  beginWave(m.nextId);  // replayed through `claim`, ids come back 0, 1, ...
  ArenaRef cursor(arena_);
  std::vector<std::byte> enc;
  std::uint32_t parent = 0;
  std::uint64_t action = 0;
  std::uint64_t fp = 0;
  while (exact ? rd.nextExact(enc, parent, action) : rd.nextFp(fp)) {
    if (nextId() >= m.nextId) {
      throw SimError("checkpoint visited log holds more records than nextId");
    }
    if (exact) fp = fingerprintHash(enc.data(), enc.size());
    if (!claim(fp, enc, parent, action, cursor).inserted) {
      throw SimError(exact
                         ? "checkpoint visited log holds a duplicate state"
                         : "checkpoint visited log holds a duplicate "
                           "fingerprint");
    }
  }
  if (nextId() != m.nextId) {
    throw SimError(
        "checkpoint visited log truncated: fewer records than nextId");
  }
}

Schedule VisitedStore::pathTo(std::uint32_t leaf,
                              const std::optional<Action>& last) const {
  if (mode_ != VisitedMode::Exact) return {};
  Schedule path;
  for (std::uint32_t cur = leaf; parents_[cur] != kNoParent;
       cur = parents_[cur]) {
    path.push_back(unpackAction(actions_[cur]));
  }
  std::reverse(path.begin(), path.end());
  if (last) path.push_back(*last);
  return path;
}

double VisitedStore::omissionBound(std::uint64_t claimCalls) const {
  if (mode_ == VisitedMode::Compact) {
    const double n = static_cast<double>(nextId());
    return std::min(1.0, n * (n - 1.0) / 2.0 / std::pow(2.0, 64));
  }
  if (mode_ == VisitedMode::Bitstate) {
    const double fill = static_cast<double>(bloom_->onesCount()) /
                        static_cast<double>(bloom_->bitCount());
    return std::min(1.0, static_cast<double>(claimCalls) *
                             std::pow(fill, static_cast<double>(
                                                bloom_->hashCount())));
  }
  return 0.0;
}

std::uint64_t VisitedStore::structBytes() const {
  return set_.bytes() + encs_.capacity() * sizeof(EncRef) +
         parents_.capacity() * sizeof(std::uint32_t) +
         actions_.capacity() * sizeof(std::uint64_t) +
         fpsById_.capacity() * sizeof(std::uint64_t) +
         (bloom_ ? bloom_->bytes() : 0);
}

std::uint64_t VisitedStore::stateBytes() const {
  std::uint64_t b = structBytes();
  for (const EncRef& e : encs_) b += e.len;  // unclaimed slots hold 0
  return b;
}

std::uint64_t VisitedStore::bytes() const {
  return structBytes() + arena_.bytesReserved();
}

std::uint64_t VisitedStore::bytesAfterBeginWave(std::uint64_t bound) const {
  const auto extra = static_cast<std::size_t>(bound);
  // At most one of the two id-array families is in use.
  const std::size_t ids = static_cast<std::size_t>(nextId()) + extra;
  const std::size_t cap = std::max(encs_.capacity(), fpsById_.capacity());
  const std::size_t perId =
      mode_ == VisitedMode::Exact
          ? sizeof(EncRef) + sizeof(std::uint32_t) + sizeof(std::uint64_t)
          : (keepFps_ ? sizeof(std::uint64_t) : 0);
  return bytes() - set_.bytes() + set_.bytesAfterReserve(extra) +
         (ids > cap ? (ids - cap) * perId : 0);
}

}  // namespace lcdc::mc
