#include "mc/model_checker.hpp"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>

#include "common/arena.hpp"
#include "common/expect.hpp"
#include "common/flat_set.hpp"
#include "common/thread_pool.hpp"
#include "mc/spill.hpp"
#include "mc/state_codec.hpp"
#include "mc/tardis_mc.hpp"
#include "mc/world.hpp"
#include "mc/world_codec.hpp"
#include "proto/cache.hpp"
#include "proto/directory.hpp"

namespace lcdc::mc {

namespace {

// -- packed parent edges -----------------------------------------------------
//
// 4-byte parent id + the action in one 64-bit word: kind(2) |
// flightIndex(16) | dst(8) | msgType(4) | proc(8) | block(16) | req(2).
// Node ids use 255 as the "no node" code; the explored configurations are
// orders of magnitude below every field's range (asserted on pack).

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

/// Optional steady-clock span accumulator (perf timing is opt-in).
class ScopedNanos {
 public:
  ScopedNanos(std::uint64_t& dst, bool enabled)
      : dst_(dst), enabled_(enabled) {
    if (enabled_) t0_ = std::chrono::steady_clock::now();
  }
  ~ScopedNanos() {
    if (enabled_) {
      dst_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0_)
              .count());
    }
  }

 private:
  std::uint64_t& dst_;
  bool enabled_;
  std::chrono::steady_clock::time_point t0_;
};

// -- the wave-parallel explorer ----------------------------------------------

class ParallelExplorer {
 public:
  explicit ParallelExplorer(const McConfig& cfg)
      : cfg_(cfg),
        mode_(cfg.visited),
        digest_(configDigest(cfg)),
        visited_(1u << 16, cfg.visited == VisitedMode::Compact
                               ? FlatFingerprintSet::Mode::Compact
                               : FlatFingerprintSet::Mode::Exact) {
    // `--checkpoint` (and `--resume`, which keeps checkpointing in
    // place) implies spilling the frontier into the checkpoint dir so
    // the manifest's segment list is self-contained.
    checkpointing_ = !cfg_.checkpointDir.empty() || !cfg_.resumeDir.empty();
    ckptDir_ =
        !cfg_.checkpointDir.empty() ? cfg_.checkpointDir : cfg_.resumeDir;
    spillPath_ = checkpointing_ ? ckptDir_ : cfg_.spillDir;
    spill_ = !spillPath_.empty();
    if (spill_) {
      if (::mkdir(spillPath_.c_str(), 0777) != 0 && errno != EEXIST) {
        throw SimError("cannot create spill directory '" + spillPath_ +
                       "': " + std::strerror(errno));
      }
    }
    if (mode_ == VisitedMode::Bitstate) {
      bloom_ = std::make_unique<BitstateFilter>(
          std::max<std::uint64_t>(1, cfg_.bitstateMb));
      waveClaim_ = std::make_unique<FlatFingerprintSet>(
          1u << 16, FlatFingerprintSet::Mode::Compact);
    }
  }

  McResult run();

 private:
  /// A deserialized frontier state under expansion.
  struct Node {
    World w;
    std::uint32_t id = 0;
  };

  /// Where a visited state's canonical encoding lives (in encArena_).
  struct EncRef {
    const std::byte* ptr = nullptr;
    std::uint32_t len = 0;
  };

  /// Seed of a counterexample: the leaf state plus (for violations thrown
  /// while generating successors) the action that triggered the throw.
  struct CexSeed {
    std::uint32_t leaf = 0;
    std::optional<Action> extra;
    std::string kind;
    std::string detail;
  };

  /// Chunk-local expansion output; merged at the wave barrier in chunk
  /// order so every result field is independent of worker scheduling.
  /// Successor records go through `writer` into sealed segments; the
  /// in-order concatenation of `segs` across chunks is the next wave's
  /// frontier.
  struct ChunkOut {
    std::unique_ptr<SegmentWriter> writer;
    std::vector<SegmentInfo> segs;
    std::vector<std::string> violations;
    std::uint64_t transitions = 0;
    std::uint64_t ampleStates = 0;
    bool deadlock = false;
    std::optional<CexSeed> cex;
    McPerfCounters perf;
    /// First exception raised inside the chunk (SimError from a corrupt
    /// spill file, the 2^32-id guard, ...), rethrown at the barrier so
    /// failures surface as exceptions instead of terminating a worker.
    std::exception_ptr error;
  };

  /// One wave's frontier: the sealed segments in frontier order plus
  /// their aggregate counts and the bytes they hold in process memory.
  struct WaveSegs {
    std::vector<SegmentInfo> segs;
    std::uint64_t records = 0;
    std::uint64_t flightSum = 0;
    std::uint64_t memBytes = 0;
  };

  /// Per-worker state: codecs, a bump cursor into the encoding arena, and
  /// reused scratch buffers.  Strictly single-threaded while checked out.
  /// Contexts are pooled and reused across chunks and waves — a fresh
  /// context per chunk would abandon the tail of its current arena block
  /// every chunk, and for the persistent encoding arena that waste
  /// accumulates for the whole run (~1 MiB per chunk).  Pooling bounds
  /// the abandonment to at most one partial block per live context.
  struct WorkerCtx {
    WorkerCtx(const McConfig& cfg, proto::TxnCounter& txns, Arena& encArena,
              bool timingOn)
        : codec(cfg), wcodec(cfg, txns), encRef(encArena), timing(timingOn) {}

    StateCodec codec;
    WorldCodec wcodec;
    ArenaRef encRef;
    bool timing;
    std::vector<std::byte> enc;   ///< canonical-encoding scratch
    std::vector<std::byte> blob;  ///< world-blob scratch
  };

  /// Check a context out of the pool.  A wave with C chunks touches at
  /// most min(C, jobs) contexts, so the pool never exceeds the worker
  /// count.
  std::unique_ptr<WorkerCtx> acquireCtx() {
    std::unique_ptr<WorkerCtx> ctx;
    {
      const std::lock_guard<std::mutex> lk(ctxMu_);
      if (!ctxPool_.empty()) {
        ctx = std::move(ctxPool_.back());
        ctxPool_.pop_back();
      }
    }
    if (!ctx) {
      ctx = std::make_unique<WorkerCtx>(cfg_, txns_, encArena_, cfg_.perf);
    }
    return ctx;
  }

  void releaseCtx(std::unique_ptr<WorkerCtx> ctx) {
    const std::lock_guard<std::mutex> lk(ctxMu_);
    ctxPool_.push_back(std::move(ctx));
  }

  static constexpr std::uint32_t kNoParent = 0xFFFFFFFEu;

  /// Grow the per-id arrays (single-threaded, wave boundary only) so
  /// every id this wave can assign has a slot; workers then write their
  /// freshly claimed slots without further synchronization.  Exact mode
  /// keeps encodings + parent edges; compact mode keeps only the
  /// per-id fingerprint, and only while checkpointing (the visited log
  /// needs fingerprints in id order); bitstate keeps nothing per id.
  void growIdArrays(std::size_t needed) {
    if (mode_ == VisitedMode::Exact) {
      if (needed <= encs_.size()) return;
      const std::size_t target = std::max(needed, encs_.size() * 2);
      encs_.reserve(target);
      parents_.reserve(target);
      actions_.reserve(target);
      encs_.resize(needed);
      parents_.resize(needed);
      actions_.resize(needed);
    } else if (mode_ == VisitedMode::Compact && checkpointing_) {
      if (needed <= fpsById_.size()) return;
      fpsById_.reserve(std::max(needed, fpsById_.size() * 2));
      fpsById_.resize(needed);
    }
  }

  [[nodiscard]] bool encEquals(std::uint32_t payload,
                               const std::vector<std::byte>& enc) const {
    const EncRef& e = encs_[payload];
    return e.len == enc.size() &&
           std::memcmp(e.ptr, enc.data(), e.len) == 0;
  }

  /// Insert a state already canonically encoded in `enc`; on winning,
  /// remember it according to the visited mode and append the world's
  /// frontier record to the chunk's segments.
  void recordEncoded(const World& s, std::uint32_t parent, const Action& a,
                     WorkerCtx& ctx, ChunkOut& out) {
    const std::uint64_t fp =
        fingerprintHash(ctx.enc.data(), ctx.enc.size());
    out.perf.insertCalls += 1;
    bool fresh = false;
    std::uint32_t id = 0;
    {
      ScopedNanos t(out.perf.insertNanos, ctx.timing);
      if (mode_ == VisitedMode::Exact) {
        const FlatFingerprintSet::InsertResult res = visited_.insert(
            fp,
            [&](std::uint32_t payload) { return encEquals(payload, ctx.enc); },
            [&]() {
              const std::uint32_t nid =
                  nextId_.fetch_add(1, std::memory_order_relaxed);
              std::byte* p = ctx.encRef.alloc(ctx.enc.size());
              std::memcpy(p, ctx.enc.data(), ctx.enc.size());
              encs_[nid] =
                  EncRef{p, static_cast<std::uint32_t>(ctx.enc.size())};
              parents_[nid] = parent;
              actions_[nid] = packAction(a);
              return nid;
            });
        out.perf.noteProbes(res.probes);
        fresh = res.inserted;
        id = res.payload;
      } else if (mode_ == VisitedMode::Compact) {
        const FlatFingerprintSet::InsertResult res = visited_.insert(
            fp, [](std::uint32_t) { return true; },  // never called (Compact)
            [&]() {
              const std::uint32_t nid =
                  nextId_.fetch_add(1, std::memory_order_relaxed);
              if (checkpointing_) fpsById_[nid] = fp;
              return nid;
            });
        out.perf.noteProbes(res.probes);
        fresh = res.inserted;
        id = res.payload;
      } else {
        // Bitstate: membership against the wave-start Bloom snapshot
        // (bits are published only at the barrier, so the answer never
        // depends on in-wave interleaving); in-wave newness arbitrated
        // by the per-wave claim table, which is what keeps counts
        // jobs-independent even for this lossy mode.
        if (bloom_->testAll(fp)) {
          out.perf.noteProbes(0);
        } else {
          const FlatFingerprintSet::InsertResult res = waveClaim_->insert(
              fp, [](std::uint32_t) { return true; },
              [&]() {
                return claimNext_.fetch_add(1, std::memory_order_relaxed);
              });
          out.perf.noteProbes(res.probes);
          fresh = res.inserted;
        }
      }
    }
    if (!fresh) return;
    out.perf.storedStates += 1;
    out.perf.storedEncodingBytes += ctx.enc.size();
    {
      ScopedNanos t(out.perf.worldSaveNanos, ctx.timing);
      ctx.wcodec.save(s, ctx.blob);
    }
    out.writer->add(id, static_cast<std::uint32_t>(s.flight.size()),
                    ctx.blob.data(), ctx.blob.size());
  }

  void record(const World& s, std::uint32_t parent, const Action& a,
              WorkerCtx& ctx, ChunkOut& out) {
    out.perf.encodeCalls += 1;
    {
      ScopedNanos t(out.perf.encodeNanos, ctx.timing);
      ctx.codec.encode(s, ctx.enc);
    }
    recordEncoded(s, parent, a, ctx, out);
  }

  /// Was this canonical encoding inserted in a wave *before* the current
  /// one?  The POR proviso consults this frozen horizon (`idWatermark_`:
  /// ids are allocated monotonically, so "id < watermark" ⇔ "discovered
  /// before this wave began") instead of the live set, keeping the ample
  /// decision a pure function of the per-wave state sets, not of worker
  /// timing.
  [[nodiscard]] bool visitedBeforeWave(const std::vector<std::byte>& enc) {
    const std::uint64_t fp = fingerprintHash(enc.data(), enc.size());
    const auto found = visited_.find(
        fp, [&](std::uint32_t payload) { return encEquals(payload, enc); });
    return found.has_value() && *found < idWatermark_;
  }

  Schedule reconstructSchedule(const CexSeed& seed) {
    Schedule rev;
    std::uint32_t cur = seed.leaf;
    while (parents_[cur] != kNoParent) {
      rev.push_back(unpackAction(actions_[cur]));
      cur = parents_[cur];
    }
    std::reverse(rev.begin(), rev.end());
    if (seed.extra) rev.push_back(*seed.extra);
    return rev;
  }

  void noteCex(ChunkOut& out, std::uint32_t leaf, std::optional<Action> extra,
               std::string kind, std::string detail) {
    if (out.cex) return;
    out.cex = CexSeed{leaf, std::move(extra), std::move(kind),
                      std::move(detail)};
  }

  /// Per-state safety checks: SWMR, value coherence (modelData), definite
  /// deadlock.  Returns true when this state itself violated an invariant
  /// (its successors are then not generated).
  bool checkState(const Node& n, ChunkOut& out) {
    const World& w = n.w;
    bool violating = false;
    for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
      NodeId writer = kNoNode;
      std::uint32_t readers = 0;
      for (const auto& cache : w.caches) {
        const proto::Line* line = cache.findLine(b);
        if (line == nullptr) continue;
        if (line->cstate == CacheState::ReadWrite) {
          if (writer != kNoNode) {
            std::ostringstream os;
            os << "SWMR violated on block " << b << ": nodes " << writer
               << " and " << cache.self() << " both read-write";
            out.violations.push_back(os.str());
            noteCex(out, n.id, std::nullopt, "violation", os.str());
            violating = true;
          }
          writer = cache.self();
        } else if (line->cstate == CacheState::ReadOnly) {
          readers += 1;
        }
      }
      if (writer != kNoNode && readers > 0) {
        std::ostringstream os;
        os << "SWMR violated on block " << b << ": node " << writer
           << " is read-write while " << readers << " reader(s) persist";
        out.violations.push_back(os.str());
        noteCex(out, n.id, std::nullopt, "violation", os.str());
        violating = true;
      }
    }
    if (cfg_.modelData && checkValues(n, out)) violating = true;
    // Definite deadlock: requests outstanding but nothing in flight and no
    // local action can produce the awaited reply.
    if (w.flight.empty()) {
      for (const auto& cache : w.caches) {
        if (cache.quiescent()) continue;
        for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
          const proto::Line* line = cache.findLine(b);
          if (line != nullptr && line->mshr.has_value()) {
            out.deadlock = true;
            std::ostringstream os;
            os << "deadlock: node " << cache.self() << " waiting on block "
               << b << " with no messages in flight";
            noteCex(out, n.id, std::nullopt, "deadlock", os.str());
          }
        }
      }
    }
    return violating;
  }

  /// Value coherence of settled blocks (modelData): once a block has no
  /// in-flight message, no open MSHR and no pending drop bookkeeping, all
  /// live cached copies — plus home memory unless the directory is
  /// Exclusive — must hold the same word-0 value.
  bool checkValues(const Node& n, ChunkOut& out) {
    const World& w = n.w;
    bool violating = false;
    for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
      const proto::DirEntry& e = w.dirs[0].entry(b);
      if (e.core.state != DirState::Idle && e.core.state != DirState::Shared &&
          e.core.state != DirState::Exclusive) {
        continue;  // mid-transaction
      }
      bool settled = true;
      for (const Flight& f : w.flight) {
        if (f.msg.block == b) settled = false;
      }
      for (const auto& cache : w.caches) {
        const proto::Line* line = cache.findLine(b);
        if (line != nullptr &&
            (line->mshr.has_value() ||
             line->ignoreFwdTxn != kNoTransaction ||
             line->dropInvTxn != kNoTransaction)) {
          settled = false;
        }
      }
      if (!settled) continue;
      std::optional<Word> ref;
      if (e.core.state != DirState::Exclusive && !e.mem.empty()) {
        ref = e.mem[0];
      }
      for (const auto& cache : w.caches) {
        const proto::Line* line = cache.findLine(b);
        if (line == nullptr || line->cstate == CacheState::Invalid ||
            line->data.empty()) {
          continue;
        }
        if (ref.has_value() && line->data[0] != *ref) {
          std::ostringstream os;
          os << "value coherence violated on block " << b << ": node "
             << cache.self() << " holds " << line->data[0]
             << " but the settled value is " << *ref;
          out.violations.push_back(os.str());
          noteCex(out, n.id, std::nullopt, "violation", os.str());
          violating = true;
        }
        if (!ref.has_value()) ref = line->data[0];
      }
    }
    return violating;
  }

  /// Deliver one message into `s`; false if it raised a protocol violation
  /// (the violation is recorded and the state not expanded further).
  bool deliver(World& s, const Flight& f, std::uint32_t parent,
               const Action& a, ChunkOut& out) {
    proto::Outbox ob;
    try {
      if (f.dst >= cfg_.numProcessors) {
        s.dirs[0].handle(f.msg, ob);
      } else {
        s.caches[f.dst].handle(f.msg, ob);
      }
      absorb(s, f.dst, ob);
    } catch (const ProtocolError& e) {
      const std::string v = std::string("protocol invariant: ") + e.what();
      out.violations.push_back(v);
      noteCex(out, parent, a, "violation", v);
      return false;
    }
    return true;
  }

  static void absorb(World& s, NodeId src, proto::Outbox& ob) {
    for (auto& entry : ob.msgs) {
      entry.msg.src = src;
      s.flight.push_back(Flight{entry.dst, std::move(entry.msg)});
    }
  }

  /// Same control state of one cache, as the POR safety test sees it:
  /// everything the protocol branches on (states, MSHR presence/phase,
  /// buffered messages, drop bookkeeping), excluding pure-accounting
  /// fields (ack sets, stamps, data payloads) whose updates commute.
  bool sameControl(const proto::CacheController& a,
                   const proto::CacheController& b) const {
    const auto sameMsg = [](const proto::Message& x, const proto::Message& y) {
      return x.type == y.type && x.requester == y.requester && x.txn == y.txn;
    };
    for (BlockId blk = 0; blk < cfg_.numBlocks; ++blk) {
      const proto::Line* la = a.findLine(blk);
      const proto::Line* lb = b.findLine(blk);
      if (la == nullptr || lb == nullptr) {
        if (la != lb) return false;
        continue;
      }
      if (la->cstate != lb->cstate || la->astate != lb->astate ||
          la->ignoreFwdTxn != lb->ignoreFwdTxn ||
          la->dropInvTxn != lb->dropInvTxn ||
          la->mshr.has_value() != lb->mshr.has_value()) {
        return false;
      }
      if (!la->mshr) continue;
      const proto::Mshr& ma = *la->mshr;
      const proto::Mshr& mb = *lb->mshr;
      if (ma.req != mb.req || ma.replySeen != mb.replySeen ||
          ma.invListKnown != mb.invListKnown || ma.txn != mb.txn ||
          ma.pendingFwd.has_value() != mb.pendingFwd.has_value() ||
          (ma.pendingFwd && !sameMsg(*ma.pendingFwd, *mb.pendingFwd)) ||
          ma.buffered.size() != mb.buffered.size()) {
        return false;
      }
      for (std::size_t i = 0; i < ma.buffered.size(); ++i) {
        if (!sameMsg(ma.buffered[i], mb.buffered[i])) return false;
      }
    }
    return true;
  }

  /// Ample-set attempt: find a "safe" delivery — destined to a cache, the
  /// only in-flight message for that (cache, block), raising no error,
  /// emitting nothing, and leaving the cache's control state untouched —
  /// and expand only it.  Candidates are ranked by their canonical
  /// successor encoding, so the representative depends on the state alone,
  /// never on flight order or worker timing.  A candidate whose successor
  /// was already visited in an earlier wave is skipped (the proviso that
  /// defeats the ignoring problem); with no eligible candidate the caller
  /// falls back to full expansion.
  bool expandAmple(const Node& n, WorkerCtx& ctx, ChunkOut& out) {
    const World& w = n.w;
    struct Cand {
      std::vector<std::byte> enc;
      World succ;
      std::size_t idx;
    };
    std::vector<Cand> cands;
    for (std::size_t i = 0; i < w.flight.size(); ++i) {
      const Flight& f = w.flight[i];
      if (f.dst >= cfg_.numProcessors) continue;
      bool exclusive = true;
      for (std::size_t j = 0; j < w.flight.size(); ++j) {
        if (j != i && w.flight[j].dst == f.dst &&
            w.flight[j].msg.block == f.msg.block) {
          exclusive = false;
          break;
        }
      }
      if (!exclusive) continue;
      World s = w;
      s.flight.erase(s.flight.begin() + static_cast<std::ptrdiff_t>(i));
      proto::Outbox ob;
      try {
        s.caches[f.dst].handle(f.msg, ob);
      } catch (const ProtocolError&) {
        continue;  // not safe: full expansion will surface the violation
      }
      if (!ob.msgs.empty() || !sameControl(w.caches[f.dst], s.caches[f.dst])) {
        continue;
      }
      out.perf.encodeCalls += 1;
      {
        ScopedNanos t(out.perf.encodeNanos, ctx.timing);
        ctx.codec.encode(s, ctx.enc);
      }
      cands.push_back(Cand{ctx.enc, std::move(s), i});
    }
    std::sort(cands.begin(), cands.end(),
              [](const Cand& a, const Cand& b) { return a.enc < b.enc; });
    for (Cand& c : cands) {
      if (visitedBeforeWave(c.enc)) continue;
      const Flight& f = w.flight[c.idx];
      Action a;
      a.kind = Action::Kind::Deliver;
      a.flightIndex = static_cast<std::uint32_t>(c.idx);
      a.dst = f.dst;
      a.msgType = f.msg.type;
      a.block = f.msg.block;
      out.transitions += 1;
      ctx.enc.swap(c.enc);
      recordEncoded(c.succ, n.id, a, ctx, out);
      return true;
    }
    return false;
  }

  void issue(const World& w, NodeId p, BlockId b, ReqType req,
             std::uint32_t parent, WorkerCtx& ctx, ChunkOut& out) {
    World s = w;
    proto::Outbox ob;
    s.caches[p].issueRequest(b, req, cfg_.numProcessors, ob);
    absorb(s, p, ob);
    Action a;
    a.kind = Action::Kind::Issue;
    a.proc = p;
    a.block = b;
    a.req = req;
    out.transitions += 1;
    record(s, parent, a, ctx, out);
  }

  void expandState(const Node& n, WorkerCtx& ctx, ChunkOut& out) {
    if (cfg_.por && expandAmple(n, ctx, out)) {
      out.ampleStates += 1;
      return;
    }
    const World& w = n.w;
    // (a) Deliver any in-flight message (the unordered network).
    for (std::size_t i = 0; i < w.flight.size(); ++i) {
      World s = w;
      const Flight f = s.flight[i];
      s.flight.erase(s.flight.begin() + static_cast<std::ptrdiff_t>(i));
      Action a;
      a.kind = Action::Kind::Deliver;
      a.flightIndex = static_cast<std::uint32_t>(i);
      a.dst = f.dst;
      a.msgType = f.msg.type;
      a.block = f.msg.block;
      out.transitions += 1;
      if (deliver(s, f, n.id, a, out)) {
        record(s, n.id, a, ctx, out);
      }
    }
    // (b) Any processor issues any legal request / local action.
    for (NodeId p = 0; p < cfg_.numProcessors; ++p) {
      for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
        const proto::CacheController& cache = w.caches[p];
        if (cache.requestBlocked(b)) continue;
        const CacheState cs = cache.state(b);
        if (cs == CacheState::Invalid) {
          issue(w, p, b, ReqType::GetShared, n.id, ctx, out);
          issue(w, p, b, ReqType::GetExclusive, n.id, ctx, out);
        } else if (cs == CacheState::ReadOnly) {
          issue(w, p, b, ReqType::Upgrade, n.id, ctx, out);
          if (cfg_.allowEvictions && cfg_.proto.putSharedEnabled) {
            World s = w;
            s.caches[p].putShared(b);
            Action a;
            a.kind = Action::Kind::Evict;
            a.proc = p;
            a.block = b;
            out.transitions += 1;
            record(s, n.id, a, ctx, out);
          }
        } else if (cfg_.allowEvictions) {
          World s = w;
          proto::Outbox ob;
          s.caches[p].writeback(b, cfg_.numProcessors, ob);
          absorb(s, p, ob);
          Action a;
          a.kind = Action::Kind::Evict;
          a.proc = p;
          a.block = b;
          out.transitions += 1;
          record(s, n.id, a, ctx, out);
        }
      }
    }
    // (c) modelData: a writer bumps the block's bounded version counter
    // (word 0, mod 4) — the abstraction of "any store".
    if (cfg_.modelData) {
      for (NodeId p = 0; p < cfg_.numProcessors; ++p) {
        for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
          const proto::Line* line = w.caches[p].findLine(b);
          if (line == nullptr || line->data.empty() ||
              !w.caches[p].canBind(b, OpKind::Store)) {
            continue;
          }
          World s = w;
          const Word v = (line->data[0] + 1) & 3;
          (void)s.caches[p].bind(b, OpKind::Store, 0, v);
          Action a;
          a.kind = Action::Kind::Store;
          a.proc = p;
          a.block = b;
          out.transitions += 1;
          record(s, n.id, a, ctx, out);
        }
      }
    }
  }

  /// One expansion task: the wave's frontier records [begin, end), which
  /// may start mid-segment (the records before it are skipped header by
  /// header) and span several segments.
  void expandTask(const WaveSegs& wave, std::uint64_t begin,
                  std::uint64_t end, ChunkOut& out) {
    std::unique_ptr<WorkerCtx> ctxOwner = acquireCtx();
    WorkerCtx& ctx = *ctxOwner;
    try {
      ScopedNanos whole(out.perf.expandNanos, ctx.timing);
      // Find the segment holding record `begin`; `segStart` is the
      // frontier index of a segment's first record.
      std::size_t seg = 0;
      std::uint64_t segStart = 0;
      while (segStart + wave.segs[seg].records <= begin) {
        segStart += wave.segs[seg++].records;
      }
      SegmentReader::Record r;
      for (std::uint64_t i = begin; i < end; ++seg) {
        const SegmentInfo& info = wave.segs[seg];
        SegmentReader reader(info, digest_);
        for (std::uint64_t k = segStart; k < i; ++k) reader.next(r);
        segStart += info.records;
        for (; i < end && i < segStart; ++i) {
          reader.next(r);
          Node n;
          {
            ScopedNanos t(out.perf.worldLoadNanos, ctx.timing);
            n.w = ctx.wcodec.load(r.blob, r.len);
          }
          n.id = static_cast<std::uint32_t>(r.id);
          if (!info.path.empty()) out.perf.spillBytesRead += r.len;
          const bool violating = checkState(n, out);
          if (!violating) expandState(n, ctx, out);
        }
      }
      out.segs = out.writer->finish();
    } catch (...) {
      out.error = std::current_exception();
    }
    out.writer.reset();
    releaseCtx(std::move(ctxOwner));
  }

  /// Bytes currently committed to the visited structures the explorer
  /// owns.  Plus the in-memory frontier segments, this is the quantity
  /// `--mem-limit-mb` bounds.  (Transient per-chunk worlds and scratch are
  /// not tracked; they are small and wave-independent.)
  [[nodiscard]] std::uint64_t trackedBytesBase() const {
    std::uint64_t b = visited_.bytes() + encArena_.bytesReserved() +
                      encs_.capacity() * sizeof(EncRef) +
                      parents_.capacity() * sizeof(std::uint32_t) +
                      actions_.capacity() * sizeof(std::uint64_t) +
                      fpsById_.capacity() * sizeof(std::uint64_t);
    if (bloom_) b += bloom_->bytes();
    if (waveClaim_) b += waveClaim_->bytes();
    return b;
  }

  /// Per-worker spill write-buffer allowance charged while a wave runs
  /// (flush threshold plus one oversized record of slack).
  static constexpr std::uint64_t kSpillWriterBudget = std::uint64_t{2} << 20;

  /// What the tracked bytes will be AFTER this wave's boundary growth:
  /// the wave's in-memory segments plus visited-slab rehash (old + new
  /// slab live during the copy), bitstate claim growth, id-array growth,
  /// and the spill write buffers the workers are about to fill.  The
  /// memory-limit verdict tests this projection BEFORE reserving, so the
  /// growth transient itself can no longer overshoot `--mem-limit-mb` (it
  /// used to: only post-growth arena bytes were counted).
  [[nodiscard]] std::uint64_t projectedTrackedBytes(const WaveSegs& wave,
                                                    std::uint64_t waveBound,
                                                    unsigned jobs) const {
    std::uint64_t b = trackedBytesBase() + wave.memBytes;
    b -= visited_.bytes();
    b += visited_.bytesAfterReserve(static_cast<std::size_t>(waveBound));
    if (waveClaim_) {
      b -= waveClaim_->bytes();
      b += waveClaim_->bytesAfterReserve(static_cast<std::size_t>(waveBound));
    }
    const std::size_t idsNeeded = static_cast<std::size_t>(
        nextId_.load(std::memory_order_relaxed) + waveBound);
    if (mode_ == VisitedMode::Exact && idsNeeded > encs_.capacity()) {
      b += (idsNeeded - encs_.capacity()) *
           (sizeof(EncRef) + sizeof(std::uint32_t) + sizeof(std::uint64_t));
    }
    if (mode_ == VisitedMode::Compact && checkpointing_ &&
        idsNeeded > fpsById_.capacity()) {
      b += (idsNeeded - fpsById_.capacity()) * sizeof(std::uint64_t);
    }
    if (spill_) b += static_cast<std::uint64_t>(jobs) * kSpillWriterBudget;
    return b;
  }

  static std::string fileBase(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
  }

  /// The writer for one task's successor records: files
  /// `w<epoch>-c<chunk>-<n>.seg` under the spill directory with
  /// `--spill`/`--checkpoint`, process memory otherwise.
  [[nodiscard]] std::unique_ptr<SegmentWriter> makeWriter(
      std::uint64_t epoch, std::size_t chunk) const {
    return std::make_unique<SegmentWriter>(
        spill_ ? spillPath_ + "/w" + std::to_string(epoch) + "-c" +
                     std::to_string(chunk)
               : std::string(),
        digest_);
  }

  /// Bitstate barrier publication: fold the wave's claimed fingerprints
  /// into the Bloom array (single-threaded; queries resume next wave).
  void publishClaims() {
    waveClaim_->forEachFingerprint(
        [&](std::uint64_t fp) { bloom_->setAll(fp); });
  }

  void absorbSegs(ChunkOut& o, WaveSegs& next) {
    for (SegmentInfo& s : o.segs) {
      next.records += s.records;
      next.flightSum += s.flightSum;
      next.memBytes += s.bytes.capacity();
      if (!s.path.empty()) {
        result_.perf.spillSegments += 1;
        result_.perf.spillBytesWritten += s.payloadBytes;
      }
      next.segs.push_back(std::move(s));
    }
    o.segs.clear();
  }

  /// Drop a drained wave's segments.  Files are removed, sparing any
  /// referenced by the latest checkpoint manifest (a resume needs them
  /// intact).  Spared files are remembered so the next checkpoint, once
  /// its manifest no longer references them, can reclaim the disk —
  /// otherwise every checkpointed wave's segments would accumulate for
  /// the whole run.
  void deleteSegs(WaveSegs& w) {
    if (spill_) {
      for (SegmentInfo& s : w.segs) {
        if (protected_.count(fileBase(s.path)) == 0) {
          std::remove(s.path.c_str());
        } else {
          retiredSegs_.push_back(std::move(s.path));
        }
      }
    }
    w = WaveSegs{};
  }

  /// Checkpoint at a wave boundary: append the not-yet-logged visited
  /// records (id order), rewrite the bitstate dump, then atomically
  /// publish a manifest pinning the pending wave's segments.  A kill at
  /// any point leaves either the old manifest (with its files intact —
  /// deletion spares them) or the new one; the manifest's visited-log
  /// byte length truncates torn tails on resume.
  void writeCheckpoint(const WaveSegs& pending) {
    if (!visitedLog_ && mode_ != VisitedMode::Bitstate) {
      visitedLog_ = std::make_unique<VisitedLogWriter>(
          ckptDir_ + "/visited.log", visitedLogBytes_);
    }
    const std::uint64_t nid = nextId_.load(std::memory_order_relaxed);
    if (mode_ == VisitedMode::Exact) {
      for (std::uint64_t id = loggedRecords_; id < nid; ++id) {
        visitedLog_->appendExact(encs_[id].ptr, encs_[id].len, parents_[id],
                                 actions_[id]);
      }
    } else if (mode_ == VisitedMode::Compact) {
      for (std::uint64_t id = loggedRecords_; id < nid; ++id) {
        visitedLog_->appendFp(fpsById_[id]);
      }
    }
    if (mode_ != VisitedMode::Bitstate) {
      const std::uint64_t before = visitedLogBytes_;
      visitedLogBytes_ = visitedLog_->flush();
      loggedRecords_ = nid;
      result_.perf.checkpointBytes += visitedLogBytes_ - before;
    } else {
      writeBitstateFile(ckptDir_ + "/bitstate.bits", digest_,
                        bloom_->hashCount(), bloom_->words());
      result_.perf.checkpointBytes += bloom_->bytes();
    }
    CheckpointManifest m;
    m.configDigest = digest_;
    m.visitedMode = toString(mode_);
    m.wavesCompleted = result_.wavesCompleted;
    m.statesExplored = result_.statesExplored;
    m.transitions = result_.transitions;
    m.frontierPeak = result_.frontierPeak;
    m.ampleStates = result_.ampleStates;
    m.nextId = nid;
    m.txnNext = txns_.next.load(std::memory_order_relaxed);
    m.encodeCalls = result_.perf.encodeCalls;
    m.insertCalls = result_.perf.insertCalls;
    m.storedStates = result_.perf.storedStates;
    m.storedEncodingBytes = result_.perf.storedEncodingBytes;
    m.probeHist = result_.perf.probeHist;
    m.visitedLogBytes = visitedLogBytes_;
    m.visitedLogRecords = loggedRecords_;
    if (mode_ == VisitedMode::Bitstate) {
      m.bitstateWords = bloom_->words().size();
      m.bitstateHashes = bloom_->hashCount();
    }
    m.frontier = pending.segs;
    writeManifest(ckptDir_, m);
    protected_.clear();
    for (const SegmentInfo& s : pending.segs) {
      protected_.insert(fileBase(s.path));
    }
    // The new manifest is durably in place; segments only the superseded
    // manifest referenced are dead weight now.  (A kill before this point
    // merely leaks files; it never invalidates a checkpoint.)
    for (const std::string& path : retiredSegs_) {
      if (protected_.count(fileBase(path)) == 0) std::remove(path.c_str());
    }
    retiredSegs_.clear();
  }

  /// Rebuild the explorer from `--resume DIR`: counters, the transaction
  /// counter (frontier blobs hold raw txn ids — freshly minted ids must
  /// stay unique within any world they meet), the visited structures,
  /// and the pending wave's segment list.
  void restoreFromCheckpoint(WaveSegs& wave) {
    const CheckpointManifest m = readManifest(cfg_.resumeDir);
    if (m.configDigest != digest_) {
      throw SimError(
          "checkpoint was written for a different configuration "
          "(config digest mismatch) — topology, protocol switches, "
          "reductions, and visited mode must match the checkpointed run");
    }
    if (m.visitedMode != toString(mode_)) {
      throw SimError("checkpoint visited mode is '" + m.visitedMode +
                     "' but this run asked for '" + toString(mode_) + "'");
    }
    result_.resumed = true;
    result_.statesExplored = m.statesExplored;
    result_.transitions = m.transitions;
    result_.frontierPeak = m.frontierPeak;
    result_.ampleStates = m.ampleStates;
    result_.wavesCompleted = m.wavesCompleted;
    result_.perf.encodeCalls = m.encodeCalls;
    result_.perf.insertCalls = m.insertCalls;
    result_.perf.storedStates = m.storedStates;
    result_.perf.storedEncodingBytes = m.storedEncodingBytes;
    result_.perf.probeHist = m.probeHist;
    txns_.next.store(m.txnNext, std::memory_order_relaxed);
    nextId_.store(static_cast<std::uint32_t>(m.nextId),
                  std::memory_order_relaxed);
    if (mode_ == VisitedMode::Exact) {
      if (m.visitedLogRecords != m.nextId) {
        throw SimError(
            "checkpoint manifest inconsistent: visited-log record count "
            "does not match nextId");
      }
      visited_.reserveFor(static_cast<std::size_t>(m.visitedLogRecords));
      growIdArrays(static_cast<std::size_t>(m.nextId));
      VisitedLogReader rd(cfg_.resumeDir + "/visited.log", m.visitedLogBytes);
      ArenaRef encRef(encArena_);
      std::vector<std::byte> buf;
      std::uint32_t parent = 0;
      std::uint64_t action = 0;
      std::uint64_t id = 0;
      while (rd.nextExact(buf, parent, action)) {
        if (id >= m.nextId) {
          throw SimError(
              "checkpoint visited log holds more records than nextId");
        }
        std::byte* p = encRef.alloc(buf.size());
        std::memcpy(p, buf.data(), buf.size());
        encs_[id] = EncRef{p, static_cast<std::uint32_t>(buf.size())};
        parents_[id] = parent;
        actions_[id] = action;
        const std::uint64_t fp = fingerprintHash(buf.data(), buf.size());
        const FlatFingerprintSet::InsertResult res = visited_.insert(
            fp, [&](std::uint32_t payload) { return encEquals(payload, buf); },
            [&]() { return static_cast<std::uint32_t>(id); });
        if (!res.inserted) {
          throw SimError("checkpoint visited log holds a duplicate state");
        }
        id += 1;
      }
      if (id != m.nextId) {
        throw SimError(
            "checkpoint visited log truncated: fewer records than nextId");
      }
    } else if (mode_ == VisitedMode::Compact) {
      if (m.visitedLogRecords != m.nextId) {
        throw SimError(
            "checkpoint manifest inconsistent: visited-log record count "
            "does not match nextId");
      }
      visited_.reserveFor(static_cast<std::size_t>(m.visitedLogRecords));
      growIdArrays(static_cast<std::size_t>(m.nextId));
      VisitedLogReader rd(cfg_.resumeDir + "/visited.log", m.visitedLogBytes);
      std::uint64_t fp = 0;
      std::uint64_t id = 0;
      while (rd.nextFp(fp)) {
        if (id >= m.nextId) {
          throw SimError(
              "checkpoint visited log holds more records than nextId");
        }
        if (checkpointing_) fpsById_[id] = fp;
        const FlatFingerprintSet::InsertResult res = visited_.insert(
            fp, [](std::uint32_t) { return true; },
            [&]() { return static_cast<std::uint32_t>(id); });
        if (!res.inserted) {
          throw SimError(
              "checkpoint visited log holds a duplicate fingerprint");
        }
        id += 1;
      }
      if (id != m.nextId) {
        throw SimError(
            "checkpoint visited log truncated: fewer records than nextId");
      }
    } else {
      std::uint32_t hashes = 0;
      std::vector<std::uint64_t> words =
          readBitstateFile(cfg_.resumeDir + "/bitstate.bits", digest_, hashes);
      bloom_->loadWords(std::move(words), hashes);
    }
    for (const SegmentInfo& s : m.frontier) {
      wave.records += s.records;
      wave.flightSum += s.flightSum;
      protected_.insert(fileBase(s.path));
    }
    wave.segs = m.frontier;
    loggedRecords_ = m.visitedLogRecords;
    visitedLogBytes_ = m.visitedLogBytes;
  }

  McConfig cfg_;
  VisitedMode mode_ = VisitedMode::Exact;
  std::uint64_t digest_ = 0;
  proto::TxnCounter txns_;
  std::mutex ctxMu_;
  std::vector<std::unique_ptr<WorkerCtx>> ctxPool_;
  FlatFingerprintSet visited_;
  Arena encArena_;  ///< canonical encodings of visited states
  std::atomic<std::uint32_t> nextId_{0};
  std::uint32_t idWatermark_ = 0;  ///< POR proviso horizon (wave start)
  std::vector<EncRef> encs_;
  std::vector<std::uint32_t> parents_;
  std::vector<std::uint64_t> actions_;
  McResult result_;

  // -- out-of-core state -------------------------------------------------
  bool spill_ = false;
  bool checkpointing_ = false;
  std::string spillPath_;
  std::string ckptDir_;
  std::unique_ptr<BitstateFilter> bloom_;        ///< bitstate mode
  std::unique_ptr<FlatFingerprintSet> waveClaim_;  ///< bitstate, per wave
  std::atomic<std::uint32_t> claimNext_{0};
  /// Compact + checkpointing: fingerprint per id, feeding the visited
  /// log in id order.
  std::vector<std::uint64_t> fpsById_;
  std::unique_ptr<VisitedLogWriter> visitedLog_;
  std::uint64_t loggedRecords_ = 0;
  std::uint64_t visitedLogBytes_ = 0;
  /// Basenames of segment files referenced by the latest manifest —
  /// deletion must spare them for resume.
  std::set<std::string> protected_;
  /// Drained-but-spared segment files from superseded checkpoints,
  /// reclaimed once a newer manifest stops referencing them.
  std::vector<std::string> retiredSegs_;
};

McResult ParallelExplorer::run() {
  const unsigned jobs = std::max(1u, cfg_.jobs);
  ThreadPool pool(jobs);
  std::optional<CexSeed> cexSeed;

  // Extra successors one expanded state can contribute beyond its
  // deliveries: two issues per (processor, block), one eviction-ish local
  // action folded into the same bound, plus a store under modelData.
  const std::uint64_t issueBound =
      static_cast<std::uint64_t>(cfg_.numProcessors) * cfg_.numBlocks *
      (2 + (cfg_.modelData ? 1 : 0));

  WaveSegs wave;
  if (!cfg_.resumeDir.empty()) {
    restoreFromCheckpoint(wave);
  } else {
    // Seed the root (segment w0-c0 holds the first frontier).
    growIdArrays(16);
    ChunkOut rootOut;
    rootOut.writer = makeWriter(0, 0);
    std::unique_ptr<WorkerCtx> ctx = acquireCtx();
    const World init = makeInitialWorld(cfg_, txns_);
    record(init, kNoParent, Action{}, *ctx, rootOut);
    releaseCtx(std::move(ctx));
    rootOut.segs = rootOut.writer->finish();
    result_.perf.merge(rootOut.perf);
    if (mode_ == VisitedMode::Bitstate) {
      publishClaims();
      waveClaim_->clear();
    }
    absorbSegs(rootOut, wave);
  }

  while (wave.records != 0) {
    result_.frontierPeak = std::max(result_.frontierPeak, wave.records);
    const std::uint64_t remaining =
        cfg_.maxStates > result_.statesExplored
            ? cfg_.maxStates - result_.statesExplored
            : 0;
    std::uint64_t expandCount = wave.records;
    if (remaining < wave.records) {
      expandCount = remaining;
      result_.hitStateLimit = true;
    }
    if (expandCount == 0) {
      deleteSegs(wave);
      break;
    }

    // This wave's successor upper bound: the visited table and the id
    // arrays may not grow mid-wave (the flat set must not rehash under
    // concurrent inserts; workers index the id arrays without locks).
    // It charges the whole wave's flight sum even when a state cap cuts
    // the wave — an upper bound either way, and capacity never affects
    // counts.
    const std::uint64_t waveBound = expandCount * issueBound + wave.flightSum;

    // Memory-limit verdict — decided only at wave boundaries (counts
    // stay exact and jobs-independent for every completed wave), and
    // tested against the PROJECTED post-growth footprint, so the
    // boundary growth itself can't overshoot the limit.  With
    // checkpointing the stop is resumable: the pending wave was either
    // just checkpointed or is checkpointed right here.
    if (cfg_.memLimitMb != 0 &&
        projectedTrackedBytes(wave, waveBound, jobs) >
            cfg_.memLimitMb * 1024 * 1024) {
      result_.memLimitHit = true;
      if (checkpointing_) writeCheckpoint(wave);
      deleteSegs(wave);  // spares the files a checkpoint just pinned
      break;
    }

    visited_.reserveFor(static_cast<std::size_t>(waveBound));
    if (mode_ == VisitedMode::Bitstate) {
      waveClaim_->reserveFor(static_cast<std::size_t>(waveBound));
      claimNext_.store(0, std::memory_order_relaxed);
    }
    const std::uint32_t baseId = nextId_.load(std::memory_order_relaxed);
    growIdArrays(static_cast<std::size_t>(baseId) +
                 static_cast<std::size_t>(waveBound));

    // Freeze the POR proviso horizon at the wave boundary.
    idWatermark_ = baseId;

    // Tasks are record ranges over the wave's segments.  Adaptive
    // chunking: large chunks on small frontiers so oversubscribed hosts
    // don't pay merge cost for nothing, bounded below at 64 states.  A
    // state cap cuts the wave at record granularity.  Chunk order is
    // frontier order, so the in-order merge keeps the next wave's
    // sequence independent of scheduling.
    const std::uint64_t chunkSize = std::max<std::uint64_t>(
        expandCount / (std::uint64_t{8} * jobs), 64);
    const std::size_t nChunks =
        static_cast<std::size_t>((expandCount + chunkSize - 1) / chunkSize);
    const std::uint64_t epoch = result_.wavesCompleted + 1;
    std::vector<ChunkOut> outs(nChunks);
    for (std::size_t c = 0; c < nChunks; ++c) {
      const std::uint64_t begin = c * chunkSize;
      const std::uint64_t end = std::min(expandCount, begin + chunkSize);
      outs[c].writer = makeWriter(epoch, c);
      pool.submit([this, &wave, &outs, c, begin, end] {
        expandTask(wave, begin, end, outs[c]);
      });
    }
    pool.wait();
    for (ChunkOut& o : outs) {
      if (o.error) std::rethrow_exception(o.error);
    }
    if (mode_ == VisitedMode::Bitstate) {
      publishClaims();
      waveClaim_->clear();
    }

    result_.statesExplored += expandCount;
    WaveSegs nextWave;
    std::vector<std::string> waveViolations;
    for (ChunkOut& o : outs) {
      result_.transitions += o.transitions;
      result_.ampleStates += o.ampleStates;
      result_.deadlockFound = result_.deadlockFound || o.deadlock;
      result_.perf.merge(o.perf);
      for (std::string& v : o.violations) {
        waveViolations.push_back(std::move(v));
      }
      if (!cexSeed && o.cex) cexSeed = std::move(o.cex);
      absorbSegs(o, nextWave);
    }
    const std::uint64_t frontierBytes = wave.memBytes + nextWave.memBytes;
    result_.frontierBytesPeak =
        std::max(result_.frontierBytesPeak, frontierBytes);
    result_.trackedBytesPeak = std::max(result_.trackedBytesPeak,
                                        trackedBytesBase() + frontierBytes);
    std::sort(waveViolations.begin(), waveViolations.end());
    waveViolations.erase(
        std::unique(waveViolations.begin(), waveViolations.end()),
        waveViolations.end());
    for (std::string& v : waveViolations) {
      if (result_.violations.size() < cfg_.maxViolations) {
        result_.violations.push_back(std::move(v));
      }
    }
    result_.wavesCompleted += 1;
    // Stop decisions live at wave boundaries only, so counts and verdicts
    // are identical for any jobs value.
    if (!result_.violations.empty() || result_.deadlockFound ||
        result_.hitStateLimit) {
      // Terminal verdict: nothing to resume; drop unprotected segments.
      deleteSegs(wave);
      deleteSegs(nextWave);
      break;
    }
    if (cfg_.maxDepth != 0 && result_.wavesCompleted >= cfg_.maxDepth) {
      // Depth-capped stop is resumable (rerun with a larger --max-depth).
      if (checkpointing_) writeCheckpoint(nextWave);
      deleteSegs(wave);
      if (!checkpointing_) deleteSegs(nextWave);
      break;
    }
    if (checkpointing_ &&
        result_.wavesCompleted %
                std::max<std::uint64_t>(1, cfg_.checkpointEvery) ==
            0) {
      writeCheckpoint(nextWave);
    }
    deleteSegs(wave);
    wave = std::move(nextWave);
  }

  if (cexSeed) {
    Counterexample cex;
    cex.kind = cexSeed->kind;
    cex.detail = cexSeed->detail;
    // Only exact mode keeps parent edges; lossy modes report the failing
    // state without a schedule (DESIGN.md §14).
    if (mode_ == VisitedMode::Exact) {
      cex.schedule = reconstructSchedule(*cexSeed);
    }
    result_.counterexample = std::move(cex);
  }
  result_.visitedBytes =
      visited_.bytes() + encArena_.bytesReserved() +
      encs_.capacity() * sizeof(EncRef) +
      parents_.capacity() * sizeof(std::uint32_t) +
      actions_.capacity() * sizeof(std::uint64_t) +
      fpsById_.capacity() * sizeof(std::uint64_t) +
      (bloom_ ? bloom_->bytes() : 0);
  if (mode_ == VisitedMode::Compact) {
    const double n = static_cast<double>(result_.perf.storedStates);
    result_.omissionBound =
        std::min(1.0, n * (n - 1.0) / 2.0 / std::pow(2.0, 64));
  } else if (mode_ == VisitedMode::Bitstate) {
    const double fill = static_cast<double>(bloom_->onesCount()) /
                        static_cast<double>(bloom_->bitCount());
    result_.omissionBound =
        std::min(1.0, static_cast<double>(result_.perf.insertCalls) *
                          std::pow(fill, static_cast<double>(
                                             bloom_->hashCount())));
  }
  result_.perf.omissionBound = result_.omissionBound;
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // Linux reports ru_maxrss in KiB.
    result_.peakRssBytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
  }
  return result_;
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

std::string toString(const Action& a) {
  std::ostringstream os;
  switch (a.kind) {
    case Action::Kind::Deliver:
      os << "deliver #" << a.flightIndex << ' ' << proto::toString(a.msgType)
         << " -> node " << a.dst << " (block " << a.block << ')';
      break;
    case Action::Kind::Issue:
      os << "node " << a.proc << " issues " << lcdc::toString(a.req)
         << " on block " << a.block;
      break;
    case Action::Kind::Evict:
      os << "node " << a.proc << " evicts block " << a.block;
      break;
    case Action::Kind::Store:
      os << "node " << a.proc << " stores to block " << a.block;
      break;
  }
  return os.str();
}

McResult explore(const McConfig& cfg) {
  LCDC_EXPECT(cfg.numProcessors >= 1, "need at least one processor");
  LCDC_EXPECT(cfg.numBlocks >= 1, "need at least one block");
  if (cfg.protocol == ProtocolKind::Bus) {
    throw SimError(
        "the bus backend is not model-checkable: its only nondeterminism is "
        "the snoop-queue order already covered by seeded 'lcdc run "
        "--protocol bus'");
  }
  if (cfg.visited == VisitedMode::Bitstate && cfg.por) {
    throw SimError(
        "--visited bitstate cannot combine with --por: the ample-set "
        "proviso compares state discovery ids, which bitstate mode does "
        "not assign");
  }
  if (!cfg.resumeDir.empty() && !cfg.checkpointDir.empty() &&
      cfg.resumeDir != cfg.checkpointDir) {
    throw SimError(
        "--resume and --checkpoint name different directories; a resumed "
        "run continues checkpointing into the resume directory, so drop "
        "--checkpoint or point both at the same place");
  }
  const bool outOfCore = !cfg.spillDir.empty() || !cfg.checkpointDir.empty() ||
                         !cfg.resumeDir.empty();
  if (outOfCore) {
    const std::string ckpt =
        cfg.checkpointDir.empty() ? cfg.resumeDir : cfg.checkpointDir;
    if (!cfg.spillDir.empty() && !ckpt.empty() && cfg.spillDir != ckpt) {
      throw SimError(
          "--spill and --checkpoint/--resume name different directories; "
          "checkpoints reference the spill segments by basename, so they "
          "must live in one directory");
    }
  }
  if (cfg.protocol == ProtocolKind::Tardis) {
    if (outOfCore || cfg.visited != VisitedMode::Exact) {
      throw SimError(
          "the tardis backend keeps its own in-RAM exploration state: "
          "--visited/--spill/--checkpoint/--resume apply to the directory "
          "protocol only");
    }
    return exploreTardis(cfg);
  }
  ParallelExplorer explorer(cfg);
  return explorer.run();
}

}  // namespace lcdc::mc
