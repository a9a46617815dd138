#include "mc/model_checker.hpp"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>

#include "common/expect.hpp"
#include "common/flat_set.hpp"
#include "common/thread_pool.hpp"
#include "mc/spill.hpp"
#include "mc/state_codec.hpp"
#include "mc/tardis_mc.hpp"
#include "mc/visited.hpp"
#include "mc/world.hpp"
#include "mc/world_codec.hpp"
#include "proto/cache.hpp"
#include "proto/directory.hpp"

namespace lcdc::mc {

namespace {

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
        digest_(configDigest(cfg)),
        // `--checkpoint` (and `--resume`, which keeps checkpointing in
        // place) implies spilling the frontier into the checkpoint dir so
        // the manifest's segment list is self-contained.
        checkpointing_(!cfg.checkpointDir.empty() || !cfg.resumeDir.empty()),
        store_(cfg.visited, cfg.bitstateMb, checkpointing_) {
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
  }

  McResult run();

 private:
  /// A deserialized frontier state under expansion.
  struct Node {
    World w;
    std::uint32_t id = 0;
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

  /// Per-worker state: codecs, a bump cursor into the store's arena, and
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
      ctx = std::make_unique<WorkerCtx>(cfg_, txns_, store_.arena(), cfg_.perf);
    }
    return ctx;
  }

  void releaseCtx(std::unique_ptr<WorkerCtx> ctx) {
    const std::lock_guard<std::mutex> lk(ctxMu_);
    ctxPool_.push_back(std::move(ctx));
  }

  /// Claim a state already canonically encoded in `ctx.enc`; when it is
  /// new, append the world's frontier record to the chunk's segments.
  void recordEncoded(const World& s, std::uint32_t parent, const Action& a,
                     WorkerCtx& ctx, ChunkOut& out) {
    const std::uint64_t fp =
        fingerprintHash(ctx.enc.data(), ctx.enc.size());
    out.perf.insertCalls += 1;
    VisitedStore::Claim c;
    {
      ScopedNanos t(out.perf.insertNanos, ctx.timing);
      c = store_.claim(fp, ctx.enc, parent, packAction(a), ctx.encRef);
    }
    out.perf.noteProbes(c.probes);
    if (!c.inserted) return;
    out.perf.storedStates += 1;
    out.perf.storedEncodingBytes += ctx.enc.size();
    {
      ScopedNanos t(out.perf.worldSaveNanos, ctx.timing);
      ctx.wcodec.save(s, ctx.blob);
    }
    out.writer->add(c.payload, static_cast<std::uint32_t>(s.flight.size()),
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
      if (store_.seenBeforeWave(c.enc)) continue;
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

  /// Per-worker spill write-buffer allowance charged while a wave runs
  /// (flush threshold plus one oversized record of slack).
  static constexpr std::uint64_t kSpillWriterBudget = std::uint64_t{2} << 20;

  /// What the tracked bytes will be AFTER this wave's boundary growth:
  /// the store's after `beginWave` (rehash transient included), the
  /// wave's in-memory segments, and the spill write buffers the workers
  /// are about to fill.  The memory-limit verdict tests this projection
  /// BEFORE growing, so the growth itself cannot overshoot
  /// `--mem-limit-mb`.  (Transient per-chunk worlds and scratch are not
  /// tracked; they are small and wave-independent.)
  [[nodiscard]] std::uint64_t projectedTrackedBytes(const WaveSegs& wave,
                                                    std::uint64_t waveBound,
                                                    unsigned jobs) const {
    std::uint64_t b = store_.bytesAfterBeginWave(waveBound) + wave.memBytes;
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

  /// Checkpoint at a wave boundary: the store appends its new visited
  /// records (or rewrites the bitstate dump), then a manifest pinning the
  /// pending wave's segments is published atomically.  A kill at any
  /// point leaves either the old manifest (with its files intact —
  /// deletion spares them) or the new one; the manifest's visited-log
  /// byte length truncates torn tails on resume.
  void writeCheckpoint(const WaveSegs& pending) {
    CheckpointManifest m;
    result_.perf.checkpointBytes += store_.checkpoint(ckptDir_, digest_, m);
    m.configDigest = digest_;
    m.wavesCompleted = result_.wavesCompleted;
    m.statesExplored = result_.statesExplored;
    m.transitions = result_.transitions;
    m.frontierPeak = result_.frontierPeak;
    m.ampleStates = result_.ampleStates;
    m.txnNext = txns_.next.load(std::memory_order_relaxed);
    m.encodeCalls = result_.perf.encodeCalls;
    m.insertCalls = result_.perf.insertCalls;
    m.storedStates = result_.perf.storedStates;
    m.storedEncodingBytes = result_.perf.storedEncodingBytes;
    m.probeHist = result_.perf.probeHist;
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
    store_.restore(cfg_.resumeDir, digest_, m);
    for (const SegmentInfo& s : m.frontier) {
      wave.records += s.records;
      wave.flightSum += s.flightSum;
      protected_.insert(fileBase(s.path));
    }
    wave.segs = m.frontier;
  }

  McConfig cfg_;
  std::uint64_t digest_ = 0;
  bool checkpointing_ = false;
  VisitedStore store_;
  proto::TxnCounter txns_;
  std::mutex ctxMu_;
  std::vector<std::unique_ptr<WorkerCtx>> ctxPool_;
  McResult result_;

  // -- out-of-core state -------------------------------------------------
  bool spill_ = false;
  std::string spillPath_;
  std::string ckptDir_;
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
    store_.beginWave(16);
    ChunkOut rootOut;
    rootOut.writer = makeWriter(0, 0);
    std::unique_ptr<WorkerCtx> ctx = acquireCtx();
    const World init = makeInitialWorld(cfg_, txns_);
    record(init, VisitedStore::kNoParent, Action{}, *ctx, rootOut);
    releaseCtx(std::move(ctx));
    rootOut.segs = rootOut.writer->finish();
    result_.perf.merge(rootOut.perf);
    store_.endWave();
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

    store_.beginWave(waveBound);

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
    store_.endWave();

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
                                        store_.bytes() + frontierBytes);
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
    // Lossy modes keep no parent edges: their counterexamples name the
    // failing state without a schedule (DESIGN.md §14).
    result_.counterexample = Counterexample{
        cexSeed->kind, cexSeed->detail,
        store_.pathTo(cexSeed->leaf, cexSeed->extra)};
  }
  result_.visitedBytes = store_.stateBytes();
  result_.omissionBound = store_.omissionBound(result_.perf.insertCalls);
  result_.perf.omissionBound = result_.omissionBound;
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // Linux reports ru_maxrss in KiB.
    result_.peakRssBytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
  }
  return result_;
}

}  // namespace

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
