// Differential tests for the binary canonical state codec (DESIGN.md §9).
//
// Two properties carry the binary engine's correctness argument:
//
//   1. Round-trip: `encodeDecoded(decode(e)) == e` for every encoding `e`
//      of a reachable state — the bit layout loses nothing it stores.
//   2. Key equivalence: two reachable worlds get equal binary encodings
//      iff they get equal *legacy string* keys (the old engine's visited
//      key, preserved verbatim in `tests/legacy_key.hpp`).  This is the 1:1
//      class correspondence that makes the binary engine's state counts
//      provably byte-identical to the string engine's.
//
// Both are checked over >=10k states sampled from random reachable
// prefixes (random walks from the initial world) at 2x1 and 3x2, with and
// without symmetry reduction, and under --model-data.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "legacy_key.hpp"
#include "mc/state_codec.hpp"
#include "mc/world.hpp"

namespace lcdc {
namespace {

/// Apply one uniformly random enabled action (the same action vocabulary
/// the explorer uses) to `w`.  Returns false when no action is enabled.
class RandomWalker {
 public:
  RandomWalker(const mc::McConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), rng_(seed) {}

  bool step(mc::World& w) {
    struct Cand {
      enum Kind { Deliver, Issue, PutShared, Writeback, Store } kind;
      std::size_t flight = 0;
      NodeId p = 0;
      BlockId b = 0;
      ReqType req{};
    };
    std::vector<Cand> cands;
    for (std::size_t i = 0; i < w.flight.size(); ++i) {
      cands.push_back(Cand{Cand::Deliver, i, 0, 0, {}});
    }
    for (NodeId p = 0; p < cfg_.numProcessors; ++p) {
      for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
        const proto::CacheController& cache = w.caches[p];
        if (cache.requestBlocked(b)) continue;
        const CacheState cs = cache.state(b);
        if (cs == CacheState::Invalid) {
          cands.push_back(Cand{Cand::Issue, 0, p, b, ReqType::GetShared});
          cands.push_back(Cand{Cand::Issue, 0, p, b, ReqType::GetExclusive});
        } else if (cs == CacheState::ReadOnly) {
          cands.push_back(Cand{Cand::Issue, 0, p, b, ReqType::Upgrade});
          if (cfg_.allowEvictions && cfg_.proto.putSharedEnabled) {
            cands.push_back(Cand{Cand::PutShared, 0, p, b, {}});
          }
        } else if (cfg_.allowEvictions) {
          cands.push_back(Cand{Cand::Writeback, 0, p, b, {}});
        }
        if (cfg_.modelData) {
          const proto::Line* line = cache.findLine(b);
          if (line != nullptr && !line->data.empty() &&
              cache.canBind(b, OpKind::Store)) {
            cands.push_back(Cand{Cand::Store, 0, p, b, {}});
          }
        }
      }
    }
    if (cands.empty()) return false;
    const Cand c = cands[std::uniform_int_distribution<std::size_t>(
        0, cands.size() - 1)(rng_)];
    proto::Outbox ob;
    switch (c.kind) {
      case Cand::Deliver: {
        const mc::Flight f = w.flight[c.flight];
        w.flight.erase(w.flight.begin() +
                       static_cast<std::ptrdiff_t>(c.flight));
        if (f.dst >= cfg_.numProcessors) {
          w.dirs[0].handle(f.msg, ob);
        } else {
          w.caches[f.dst].handle(f.msg, ob);
        }
        absorb(w, f.dst, ob);
        break;
      }
      case Cand::Issue:
        w.caches[c.p].issueRequest(c.b, c.req, cfg_.numProcessors, ob);
        absorb(w, c.p, ob);
        break;
      case Cand::PutShared:
        w.caches[c.p].putShared(c.b);
        break;
      case Cand::Writeback:
        w.caches[c.p].writeback(c.b, cfg_.numProcessors, ob);
        absorb(w, c.p, ob);
        break;
      case Cand::Store: {
        const proto::Line* line = w.caches[c.p].findLine(c.b);
        const Word v = (line->data[0] + 1) & 3;
        (void)w.caches[c.p].bind(c.b, OpKind::Store, 0, v);
        break;
      }
    }
    return true;
  }

 private:
  static void absorb(mc::World& w, NodeId src, proto::Outbox& ob) {
    for (auto& entry : ob.msgs) {
      entry.msg.src = src;
      w.flight.push_back(mc::Flight{entry.dst, std::move(entry.msg)});
    }
  }

  mc::McConfig cfg_;
  std::mt19937_64 rng_;
};

struct SampleStats {
  std::size_t samples = 0;
  std::size_t distinctClasses = 0;
};

/// Walk `walks` random prefixes of length `steps`, checking round-trip and
/// legacy/binary key equivalence at every visited state.  (void so the
/// fatal ASSERT_* macros are usable; results land in `out`.)
void checkSampledStates(const mc::McConfig& cfg, std::size_t walks,
                        std::size_t steps, SampleStats* out) {
  SampleStats stats;
  mc::StateCodec codec(cfg);
  mc::LegacyCanonicalizer legacy(cfg);
  // The 1:1 maps proving equivalence in both directions.
  std::map<std::string, std::vector<std::byte>> legacyToBin;
  std::map<std::vector<std::byte>, std::string> binToLegacy;
  std::vector<std::byte> enc;
  std::vector<std::byte> reenc;
  for (std::size_t wIdx = 0; wIdx < walks; ++wIdx) {
    proto::TxnCounter txns;
    mc::World w = mc::makeInitialWorld(cfg, txns);
    RandomWalker walker(cfg, 0x5eed0000 + wIdx);
    for (std::size_t s = 0; s < steps; ++s) {
      if (s != 0 && !walker.step(w)) break;
      stats.samples += 1;

      codec.encode(w, enc);
      const mc::DecodedState dec =
          codec.decode(enc.data(), enc.size());
      codec.encodeDecoded(dec, reenc);
      ASSERT_EQ(enc, reenc)
          << "round-trip mismatch at walk " << wIdx << " step " << s;

      const std::string key = legacy.key(w);
      const auto itL = legacyToBin.find(key);
      if (itL != legacyToBin.end()) {
        ASSERT_EQ(itL->second, enc)
            << "equal legacy keys, different binary encodings (walk "
            << wIdx << " step " << s << ")";
      }
      const auto itB = binToLegacy.find(enc);
      if (itB != binToLegacy.end()) {
        ASSERT_EQ(itB->second, key)
            << "equal binary encodings, different legacy keys (walk "
            << wIdx << " step " << s << ")";
      }
      if (itL == legacyToBin.end()) {
        legacyToBin.emplace(key, enc);
        binToLegacy.emplace(enc, key);
      }
    }
  }
  stats.distinctClasses = legacyToBin.size();
  *out = stats;
}

TEST(StateCodec, RoundTripAndKeyEquivalenceTwoProcsOneBlock) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  SampleStats s;
  checkSampledStates(cfg, 500, 24, &s);
  EXPECT_GE(s.samples, 10'000u);
  EXPECT_GT(s.distinctClasses, 100u);
}

TEST(StateCodec, RoundTripAndKeyEquivalenceThreeProcsTwoBlocks) {
  mc::McConfig cfg;
  cfg.numProcessors = 3;
  cfg.numBlocks = 2;
  SampleStats s;
  checkSampledStates(cfg, 400, 30, &s);
  EXPECT_GE(s.samples, 10'000u);
  EXPECT_GT(s.distinctClasses, 500u);
}

TEST(StateCodec, RoundTripAndKeyEquivalenceWithSymmetry) {
  mc::McConfig cfg;
  cfg.numProcessors = 3;
  cfg.numBlocks = 2;
  cfg.symmetry = true;
  SampleStats s;
  checkSampledStates(cfg, 200, 25, &s);
  EXPECT_GE(s.samples, 4'000u);
  EXPECT_GT(s.distinctClasses, 300u);
}

TEST(StateCodec, RoundTripAndKeyEquivalenceWithModelData) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.modelData = true;
  SampleStats s;
  checkSampledStates(cfg, 250, 24, &s);
  EXPECT_GE(s.samples, 5'000u);
  EXPECT_GT(s.distinctClasses, 100u);
}

TEST(StateCodec, SymmetricWorldsGetOneEncoding) {
  // Issue the same request from node 0 vs node 1: distinct states without
  // symmetry, one canonical class with it.
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.symmetry = true;
  mc::StateCodec codec(cfg);
  proto::TxnCounter txns;
  mc::World a = mc::makeInitialWorld(cfg, txns);
  mc::World b = mc::makeInitialWorld(cfg, txns);
  proto::Outbox ob;
  a.caches[0].issueRequest(0, ReqType::GetShared, cfg.numProcessors, ob);
  for (auto& e : ob.msgs) {
    e.msg.src = 0;
    a.flight.push_back(mc::Flight{e.dst, std::move(e.msg)});
  }
  ob.clear();
  b.caches[1].issueRequest(0, ReqType::GetShared, cfg.numProcessors, ob);
  for (auto& e : ob.msgs) {
    e.msg.src = 1;
    b.flight.push_back(mc::Flight{e.dst, std::move(e.msg)});
  }
  std::vector<std::byte> encA;
  std::vector<std::byte> encB;
  codec.encode(a, encA);
  codec.encode(b, encB);
  EXPECT_EQ(encA, encB);

  mc::McConfig noSym = cfg;
  noSym.symmetry = false;
  mc::StateCodec plain(noSym);
  plain.encode(a, encA);
  plain.encode(b, encB);
  EXPECT_NE(encA, encB);
}

TEST(StateCodec, EncodingIsInsensitiveToRawTxnIds) {
  // Burn transaction ids before one of two otherwise-identical runs: the
  // canonical encoding renumbers ids in encounter order, so the raw
  // values must not leak into the key.
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  mc::StateCodec codec(cfg);
  const auto buildWorld = [&cfg](proto::TxnCounter& txns) {
    mc::World w = mc::makeInitialWorld(cfg, txns);
    proto::Outbox ob;
    w.caches[0].issueRequest(0, ReqType::GetExclusive, cfg.numProcessors,
                             ob);
    for (auto& e : ob.msgs) {
      e.msg.src = 0;
      w.flight.push_back(mc::Flight{e.dst, std::move(e.msg)});
    }
    // Deliver the GetX at the home so a transaction id is allocated.
    const mc::Flight f = w.flight.front();
    w.flight.erase(w.flight.begin());
    ob.clear();
    w.dirs[0].handle(f.msg, ob);
    for (auto& e : ob.msgs) {
      e.msg.src = f.dst;
      w.flight.push_back(mc::Flight{e.dst, std::move(e.msg)});
    }
    return w;
  };
  proto::TxnCounter fresh;
  proto::TxnCounter burned;
  for (int i = 0; i < 1000; ++i) (void)burned.allocate();
  const mc::World a = buildWorld(fresh);
  const mc::World b = buildWorld(burned);
  std::vector<std::byte> encA;
  std::vector<std::byte> encB;
  codec.encode(a, encA);
  codec.encode(b, encB);
  EXPECT_EQ(encA, encB);
}

}  // namespace
}  // namespace lcdc
