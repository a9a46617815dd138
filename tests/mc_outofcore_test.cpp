// Out-of-core model checking (DESIGN.md §14): spilled frontiers must be
// byte-identical to the in-RAM engine for any --jobs, checkpoints must
// resume to the exact counts of an uninterrupted run (including across a
// simulated kill that leaves torn tails), the lossy visited modes must
// report calibrated omission bounds while agreeing with exact counts on
// small spaces, and every corrupt / truncated / mismatched on-disk input
// must raise SimError — never UB or an invariant abort.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "mc/model_checker.hpp"
#include "mc/spill.hpp"
#include "mc/visited.hpp"

namespace lcdc {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory, removed on scope exit.
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path((fs::temp_directory_path() / ("lcdc_ooc_" + tag)).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

mc::McConfig baseConfig(NodeId procs, BlockId blocks) {
  mc::McConfig cfg;
  cfg.numProcessors = procs;
  cfg.numBlocks = blocks;
  return cfg;
}

void expectSameCounts(const mc::McResult& a, const mc::McResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.statesExplored, b.statesExplored) << label;
  EXPECT_EQ(a.transitions, b.transitions) << label;
  EXPECT_EQ(a.frontierPeak, b.frontierPeak) << label;
  EXPECT_EQ(a.wavesCompleted, b.wavesCompleted) << label;
  EXPECT_EQ(a.ok(), b.ok()) << label;
  EXPECT_EQ(a.deadlockFound, b.deadlockFound) << label;
  EXPECT_EQ(a.violations, b.violations) << label;
  EXPECT_EQ(a.perf.storedStates, b.perf.storedStates) << label;
  EXPECT_EQ(a.perf.storedEncodingBytes, b.perf.storedEncodingBytes) << label;
}

// -- spill == in-RAM ----------------------------------------------------------

TEST(Spill, MatchesInRamEngineOnGoldenConfigsForAnyJobs) {
  struct Case {
    NodeId procs;
    BlockId blocks;
    bool symmetry;
    bool por;
    bool modelData;
    std::uint64_t maxDepth;
  };
  const Case cases[] = {
      {2, 1, false, false, false, 0},
      {2, 1, true, true, false, 0},
      {2, 1, false, false, true, 0},
      {3, 1, true, false, false, 12},
      {2, 2, false, false, false, 10},
  };
  for (const Case& c : cases) {
    mc::McConfig ram = baseConfig(c.procs, c.blocks);
    ram.symmetry = c.symmetry;
    ram.por = c.por;
    ram.modelData = c.modelData;
    ram.maxDepth = c.maxDepth;
    const mc::McResult base = mc::explore(ram);
    EXPECT_EQ(base.perf.spillSegments, 0u) << "in-memory runs spill nothing";
    EXPECT_EQ(base.perf.spillBytesWritten, 0u);
    std::uint64_t segments[5] = {};
    for (const unsigned jobs : {1u, 2u, 4u}) {
      TempDir dir("spill_golden");
      mc::McConfig sp = ram;
      sp.jobs = jobs;
      sp.spillDir = dir.path;
      const mc::McResult r = mc::explore(sp);
      const std::string label = std::to_string(c.procs) + "x" +
                                std::to_string(c.blocks) + " jobs=" +
                                std::to_string(jobs);
      expectSameCounts(base, r, label);
      EXPECT_GT(r.perf.spillSegments, 0u) << label;
      EXPECT_GT(r.perf.spillBytesWritten, 0u) << label;
      segments[jobs] = r.perf.spillSegments;
    }
    // A spilled wave is cut into the same record-range tasks as an
    // in-memory one, each writing its own segments.  Past 8 tasks of 64
    // states, 4 jobs cut a wave into more tasks than 1 job does.
    if (base.frontierPeak > 8 * 64) {
      EXPECT_GT(segments[4], segments[1])
          << c.procs << "x" << c.blocks << ": spilled waves must split "
          << "across jobs";
    }
  }
}

// State-capped runs stop at a wave boundary, so the wave-synchronous
// counts (states explored, waves, frontier peak) are pinned.  The
// *transition* total of the final partial wave is not: frontier order
// within a wave depends on chunk scheduling (engine behaviour, the same
// for in-memory segments), so the cap cuts a scheduling-dependent
// prefix.  Only assert what the engine guarantees.
TEST(Spill, StateCapStopsAtTheSameWaveBoundaryAsInRam) {
  mc::McConfig ram = baseConfig(3, 1);
  ram.maxStates = 5'000;
  const mc::McResult base = mc::explore(ram);
  EXPECT_TRUE(base.hitStateLimit);
  for (const unsigned jobs : {1u, 3u}) {
    TempDir dir("spill_cap");
    mc::McConfig sp = ram;
    sp.jobs = jobs;
    sp.spillDir = dir.path;
    const mc::McResult r = mc::explore(sp);
    const std::string label = "capped jobs=" + std::to_string(jobs);
    EXPECT_EQ(base.statesExplored, r.statesExplored) << label;
    EXPECT_EQ(base.wavesCompleted, r.wavesCompleted) << label;
    EXPECT_EQ(base.frontierPeak, r.frontierPeak) << label;
    EXPECT_EQ(base.ok(), r.ok()) << label;
    EXPECT_TRUE(r.hitStateLimit) << label;
  }
}

TEST(Spill, MutantVerdictSurvivesSpilling) {
  mc::McConfig ram = baseConfig(2, 1);
  ram.proto.mutant = Mutant::SkipInvAckWait;
  const mc::McResult base = mc::explore(ram);
  ASSERT_FALSE(base.ok());
  TempDir dir("spill_mutant");
  mc::McConfig sp = ram;
  sp.spillDir = dir.path;
  const mc::McResult r = mc::explore(sp);
  expectSameCounts(base, r, "mutant");
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_FALSE(r.counterexample->schedule.empty());
}

TEST(Spill, DrainedRunLeavesNoSegmentsBehind) {
  // A completed run, and a memory-limited one without a checkpoint to
  // resume from (nothing references its pending wave).
  mc::McConfig limited = baseConfig(3, 1);
  limited.memLimitMb = 12;
  for (mc::McConfig cfg : {baseConfig(2, 1), limited}) {
    TempDir dir("spill_cleanup");
    cfg.spillDir = dir.path;
    const mc::McResult r = mc::explore(cfg);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.memLimitHit, cfg.memLimitMb != 0);
    std::size_t files = 0;
    for (const auto& e : fs::directory_iterator(dir.path)) {
      (void)e;
      ++files;
    }
    EXPECT_EQ(files, 0u) << "segments must be deleted as waves drain";
  }
}

// A checkpoint pins its pending wave's segments on disk; once a newer
// checkpoint supersedes it, those segments must be reclaimed — otherwise a
// checkpoint-every-wave run accumulates one wave's worth of dead segments
// per wave for its whole life.  After a completed run, only files the
// final manifest references (plus the manifest and visited log) may
// remain.
TEST(Spill, SupersededCheckpointSegmentsAreReclaimed) {
  TempDir dir("ckpt_reclaim");
  mc::McConfig cfg = baseConfig(2, 1);
  cfg.checkpointDir = dir.path;
  cfg.checkpointEvery = 1;
  const mc::McResult r = mc::explore(cfg);
  EXPECT_TRUE(r.ok());
  const mc::CheckpointManifest m = mc::readManifest(dir.path);
  std::set<std::string> referenced = {"MANIFEST", "visited.log"};
  for (const mc::SegmentInfo& s : m.frontier) {
    referenced.insert(fs::path(s.path).filename().string());
  }
  for (const auto& e : fs::directory_iterator(dir.path)) {
    EXPECT_TRUE(referenced.count(e.path().filename().string()) != 0)
        << "stale file from a superseded checkpoint: " << e.path();
  }
}

// -- checkpoint / resume ------------------------------------------------------

TEST(Checkpoint, MemLimitStopResumesToUninterruptedCounts) {
  mc::McConfig full = baseConfig(3, 1);
  const mc::McResult base = mc::explore(full);

  TempDir dir("ckpt_memlimit");
  mc::McConfig limited = full;
  limited.memLimitMb = 12;
  limited.checkpointDir = dir.path;
  const mc::McResult stopped = mc::explore(limited);
  ASSERT_TRUE(stopped.memLimitHit);
  ASSERT_LT(stopped.statesExplored, base.statesExplored);
  EXPECT_GT(stopped.perf.checkpointBytes, 0u);

  mc::McConfig resume = full;
  resume.resumeDir = dir.path;
  const mc::McResult r = mc::explore(resume);
  EXPECT_TRUE(r.resumed);
  EXPECT_FALSE(r.memLimitHit);
  expectSameCounts(base, r, "resumed");
}

TEST(Checkpoint, ResumeIsJobsIndependent) {
  mc::McConfig full = baseConfig(3, 1);
  const mc::McResult base = mc::explore(full);
  TempDir dir("ckpt_jobs");
  mc::McConfig limited = full;
  limited.memLimitMb = 12;
  limited.checkpointDir = dir.path;
  limited.jobs = 3;
  ASSERT_TRUE(mc::explore(limited).memLimitHit);
  mc::McConfig resume = full;
  resume.resumeDir = dir.path;
  resume.jobs = 2;
  expectSameCounts(base, mc::explore(resume), "jobs 3 then 2");
}

TEST(Checkpoint, DepthStopResumesWithALargerDepth) {
  mc::McConfig deep = baseConfig(3, 1);
  deep.maxDepth = 12;
  const mc::McResult base = mc::explore(deep);

  TempDir dir("ckpt_depth");
  mc::McConfig shallow = deep;
  shallow.maxDepth = 6;
  shallow.checkpointDir = dir.path;
  shallow.checkpointEvery = 4;  // off-cadence: the depth stop still writes
  ASSERT_TRUE(mc::explore(shallow).ok());

  mc::McConfig resume = deep;
  resume.resumeDir = dir.path;
  expectSameCounts(base, mc::explore(resume), "depth 6 -> 12");
}

TEST(Checkpoint, TornTailPastManifestIsIgnoredOnResume) {
  // A kill mid-write can leave bytes in visited.log past the manifest's
  // pinned length, and stray unsealed segment data.  Resume must truncate
  // the torn tail and reach the uninterrupted counts.
  mc::McConfig full = baseConfig(3, 1);
  const mc::McResult base = mc::explore(full);
  TempDir dir("ckpt_torn");
  mc::McConfig limited = full;
  limited.memLimitMb = 12;
  limited.checkpointDir = dir.path;
  ASSERT_TRUE(mc::explore(limited).memLimitHit);
  {
    std::ofstream log(dir.path + "/visited.log",
                      std::ios::binary | std::ios::app);
    const char junk[] = "torn-write-garbage";
    log.write(junk, sizeof junk);
  }
  mc::McConfig resume = full;
  resume.resumeDir = dir.path;
  expectSameCounts(base, mc::explore(resume), "torn tail");
}

TEST(Checkpoint, CompactModeRoundTrips) {
  mc::McConfig full = baseConfig(3, 1);
  full.visited = mc::VisitedMode::Compact;
  const mc::McResult base = mc::explore(full);
  TempDir dir("ckpt_compact");
  mc::McConfig limited = full;
  limited.memLimitMb = 10;
  limited.checkpointDir = dir.path;
  ASSERT_TRUE(mc::explore(limited).memLimitHit);
  mc::McConfig resume = full;
  resume.resumeDir = dir.path;
  const mc::McResult r = mc::explore(resume);
  expectSameCounts(base, r, "compact resume");
  EXPECT_GT(r.omissionBound, 0.0);
}

TEST(Checkpoint, BitstateModeRoundTrips) {
  mc::McConfig full = baseConfig(3, 1);
  full.visited = mc::VisitedMode::Bitstate;
  full.bitstateMb = 8;
  const mc::McResult base = mc::explore(full);
  TempDir dir("ckpt_bitstate");
  mc::McConfig limited = full;
  limited.memLimitMb = 16;
  limited.checkpointDir = dir.path;
  ASSERT_TRUE(mc::explore(limited).memLimitHit);
  mc::McConfig resume = full;
  resume.resumeDir = dir.path;
  expectSameCounts(base, mc::explore(resume), "bitstate resume");
}

// -- lossy visited modes ------------------------------------------------------

TEST(VisitedModes, CompactAgreesWithExactOnSmallSpaces) {
  // At a few thousand states the n(n-1)/2 / 2^64 collision bound is
  // ~1e-13 — a count mismatch here means a logic bug, not bad luck.
  for (const bool modelData : {false, true}) {
    mc::McConfig exact = baseConfig(2, 1);
    exact.modelData = modelData;
    mc::McConfig compact = exact;
    compact.visited = mc::VisitedMode::Compact;
    const mc::McResult a = mc::explore(exact);
    const mc::McResult b = mc::explore(compact);
    expectSameCounts(a, b, modelData ? "data" : "plain");
    EXPECT_EQ(b.omissionBound, b.perf.omissionBound);
    EXPECT_GT(b.omissionBound, 0.0);
    EXPECT_LT(b.omissionBound, 1e-9);
  }
}

TEST(VisitedModes, BitstateAgreesWithExactOnSmallSpaces) {
  mc::McConfig exact = baseConfig(2, 1);
  mc::McConfig bit = exact;
  bit.visited = mc::VisitedMode::Bitstate;
  bit.bitstateMb = 8;
  const mc::McResult a = mc::explore(exact);
  const mc::McResult b = mc::explore(bit);
  EXPECT_EQ(a.statesExplored, b.statesExplored);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.wavesCompleted, b.wavesCompleted);
  EXPECT_GT(b.omissionBound, 0.0);
  EXPECT_LT(b.omissionBound, 1e-6)
      << "2k states in a 2^26-bit array must report a tiny bound";
}

TEST(VisitedModes, BitstateBoundDegradesWithATinyArray) {
  // Squeezing the same space into the minimum array (2^20 bits) must
  // report a measurably larger bound: the formula reacts to fill.
  mc::McConfig small = baseConfig(2, 1);
  small.visited = mc::VisitedMode::Bitstate;
  small.bitstateMb = 1;
  mc::McConfig big = small;
  big.bitstateMb = 64;
  const double boundSmall = mc::explore(small).omissionBound;
  const double boundBig = mc::explore(big).omissionBound;
  EXPECT_GT(boundSmall, boundBig);
}

TEST(VisitedModes, LossyCounterexampleCarriesNoSchedule) {
  mc::McConfig cfg = baseConfig(2, 1);
  cfg.proto.mutant = Mutant::SkipInvAckWait;
  cfg.visited = mc::VisitedMode::Compact;
  const mc::McResult r = mc::explore(cfg);
  ASSERT_FALSE(r.ok());
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_TRUE(r.counterexample->schedule.empty())
      << "lossy modes keep no parent edges";
}

TEST(VisitedModes, BitstateRejectsPor) {
  mc::McConfig cfg = baseConfig(2, 1);
  cfg.visited = mc::VisitedMode::Bitstate;
  cfg.por = true;
  EXPECT_THROW((void)mc::explore(cfg), SimError);
}

TEST(VisitedModes, DeterministicForAnyJobs) {
  for (const mc::VisitedMode mode :
       {mc::VisitedMode::Compact, mc::VisitedMode::Bitstate}) {
    mc::McConfig one = baseConfig(3, 1);
    one.visited = mode;
    one.bitstateMb = 8;
    one.maxDepth = 10;
    mc::McConfig four = one;
    four.jobs = 4;
    const mc::McResult a = mc::explore(one);
    const mc::McResult b = mc::explore(four);
    EXPECT_EQ(a.statesExplored, b.statesExplored) << mc::toString(mode);
    EXPECT_EQ(a.transitions, b.transitions) << mc::toString(mode);
    EXPECT_EQ(a.omissionBound, b.omissionBound) << mc::toString(mode);
  }
}

// -- the visited store --------------------------------------------------------

TEST(VisitedStore, CheckpointRestoresIdsMembershipAndBoundInEveryMode) {
  // Distinct byte strings stand in for canonical encodings: the store
  // never interprets them.
  std::vector<std::vector<std::byte>> states;
  for (std::uint32_t i = 0; i < 300; ++i) {
    std::vector<std::byte> e(4 + i % 5, std::byte{0xAB});
    for (std::size_t k = 0; k < 4; ++k) {
      e[k] = static_cast<std::byte>((i >> (8 * k)) & 0xFF);
    }
    states.push_back(e);
  }
  const auto fp = [](const std::vector<std::byte>& e) {
    return fingerprintHash(e.data(), e.size());
  };
  mc::Action issue;
  issue.kind = mc::Action::Kind::Issue;
  issue.proc = 1;
  const std::uint64_t digest = 0x5EED;
  for (const mc::VisitedMode mode :
       {mc::VisitedMode::Exact, mc::VisitedMode::Compact,
        mc::VisitedMode::Bitstate}) {
    const std::string label = mc::toString(mode);
    TempDir dir("store_" + label);
    mc::VisitedStore a(mode, 1, /*checkpointing=*/true);
    ArenaRef cursorA(a.arena());
    a.beginWave(states.size());
    for (std::uint32_t i = 0; i < states.size(); ++i) {
      const std::uint32_t parent = i == 0 ? mc::VisitedStore::kNoParent : i - 1;
      EXPECT_TRUE(a.claim(fp(states[i]), states[i], parent,
                          mc::packAction(issue), cursorA)
                      .inserted)
          << label;
    }
    a.endWave();
    mc::CheckpointManifest m;
    EXPECT_GT(a.checkpoint(dir.path, digest, m), 0u) << label;

    mc::VisitedStore b(mode, 1, /*checkpointing=*/true);
    b.restore(dir.path, digest, m);
    EXPECT_EQ(b.nextId(), a.nextId()) << label;
    EXPECT_EQ(b.omissionBound(states.size()), a.omissionBound(states.size()))
        << label;
    EXPECT_EQ(b.stateBytes(), a.stateBytes()) << label;
    const auto path = [](const mc::VisitedStore& st) {
      std::vector<std::string> out;
      for (const mc::Action& x : st.pathTo(299, std::nullopt)) {
        out.push_back(mc::toString(x));
      }
      return out;
    };
    EXPECT_EQ(path(b), path(a)) << label;
    EXPECT_EQ(path(b).size(), mode == mc::VisitedMode::Exact ? 299u : 0u)
        << label;

    ArenaRef cursorB(b.arena());
    b.beginWave(states.size() + 1);
    for (std::uint32_t i = 0; i < states.size(); ++i) {
      const mc::VisitedStore::Claim c =
          b.claim(fp(states[i]), states[i], 0, 0, cursorB);
      EXPECT_FALSE(c.inserted) << label << " state " << i;
      if (mode != mc::VisitedMode::Bitstate) {
        EXPECT_EQ(c.payload, i) << label;
      }
    }
    const std::vector<std::byte> novel(3, std::byte{0xEE});
    EXPECT_TRUE(b.claim(fp(novel), novel, 0, 0, cursorB).inserted) << label;
  }
}

TEST(VisitedStore, CompactRestoreAcceptsOneByteRecords) {
  // A compact record is the varint of a fingerprint, so a small one takes
  // a single byte: a log of one such record must restore.
  TempDir dir("store_compact_small");
  const std::vector<std::byte> enc(4, std::byte{0x11});
  const std::uint64_t smallFp = 5;
  mc::VisitedStore a(mc::VisitedMode::Compact, 1, /*checkpointing=*/true);
  ArenaRef cursorA(a.arena());
  a.beginWave(1);
  ASSERT_TRUE(
      a.claim(smallFp, enc, mc::VisitedStore::kNoParent, 0, cursorA).inserted);
  a.endWave();
  mc::CheckpointManifest m;
  EXPECT_EQ(a.checkpoint(dir.path, 0x5EED, m), 1u);
  ASSERT_EQ(fs::file_size(dir.path + "/visited.log"), 1u);

  mc::VisitedStore b(mc::VisitedMode::Compact, 1, /*checkpointing=*/true);
  b.restore(dir.path, 0x5EED, m);
  EXPECT_EQ(b.nextId(), 1u);
  ArenaRef cursorB(b.arena());
  b.beginWave(1);
  const mc::VisitedStore::Claim c = b.claim(smallFp, enc, 0, 0, cursorB);
  EXPECT_FALSE(c.inserted);
  EXPECT_EQ(c.payload, 0u);
}

// -- corrupt on-disk inputs ---------------------------------------------------

TEST(SpillHygiene, ConfigMismatchOnResumeRaisesSimError) {
  TempDir dir("bad_config");
  mc::McConfig cfg = baseConfig(3, 1);
  cfg.memLimitMb = 12;
  cfg.checkpointDir = dir.path;
  ASSERT_TRUE(mc::explore(cfg).memLimitHit);
  mc::McConfig other = baseConfig(2, 1);
  other.resumeDir = dir.path;
  EXPECT_THROW((void)mc::explore(other), SimError);
  mc::McConfig wrongMode = baseConfig(3, 1);
  wrongMode.visited = mc::VisitedMode::Compact;
  wrongMode.resumeDir = dir.path;
  EXPECT_THROW((void)mc::explore(wrongMode), SimError);
}

TEST(SpillHygiene, CorruptFilesRaiseSimErrorNotUb) {
  TempDir dir("bad_files");
  mc::McConfig cfg = baseConfig(3, 1);
  cfg.memLimitMb = 12;
  cfg.checkpointDir = dir.path;
  ASSERT_TRUE(mc::explore(cfg).memLimitHit);

  std::string segPath;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    if (e.path().extension() == ".seg") segPath = e.path().string();
  }
  ASSERT_FALSE(segPath.empty());
  const auto originalSeg = [&] {
    std::ifstream in(segPath, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  const auto writeSeg = [&](const std::string& bytes) {
    std::ofstream out(segPath, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const auto resume = [&] {
    mc::McConfig r = baseConfig(3, 1);
    r.resumeDir = dir.path;
    return mc::explore(r);
  };

  // Truncated to a partial header.
  writeSeg(originalSeg.substr(0, 20));
  EXPECT_THROW((void)resume(), SimError);
  // Truncated mid-payload.
  writeSeg(originalSeg.substr(0, originalSeg.size() / 2));
  EXPECT_THROW((void)resume(), SimError);
  // Wrong magic.
  {
    std::string bad = originalSeg;
    bad[0] = 'X';
    writeSeg(bad);
    EXPECT_THROW((void)resume(), SimError);
  }
  // Version bump.
  {
    std::string bad = originalSeg;
    bad[8] = 9;
    writeSeg(bad);
    EXPECT_THROW((void)resume(), SimError);
  }
  // Garbled record count (claims more records than the file holds).
  {
    std::string bad = originalSeg;
    bad[24] = '\xFF';
    bad[25] = '\xFF';
    writeSeg(bad);
    EXPECT_THROW((void)resume(), SimError);
  }
  writeSeg(originalSeg);

  // Garbled manifest: truncation and a foreign header line.
  const std::string manifestPath = dir.path + "/MANIFEST";
  const auto originalManifest = [&] {
    std::ifstream in(manifestPath, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  {
    std::ofstream out(manifestPath, std::ios::binary | std::ios::trunc);
    out.write(originalManifest.data(),
              static_cast<std::streamsize>(originalManifest.size() / 3));
  }
  EXPECT_THROW((void)resume(), SimError);
  {
    std::ofstream out(manifestPath, std::ios::binary | std::ios::trunc);
    out << "not-a-manifest v1\n";
  }
  EXPECT_THROW((void)resume(), SimError);
  {
    std::ofstream out(manifestPath, std::ios::binary | std::ios::trunc);
    out.write(originalManifest.data(),
              static_cast<std::streamsize>(originalManifest.size()));
  }

  // A manifest claiming more states than its visited log can hold (every
  // exact record takes at least 3 bytes) is refused before anything is
  // sized for them.  One past the bound keeps the test cheap if that
  // check ever goes missing.
  {
    std::string bad = originalManifest;
    const auto setLine = [&](const std::string& key, const std::string& v) {
      const std::size_t at = bad.find("\n" + key + " ") + 1;
      bad.replace(at, bad.find('\n', at) - at, key + " " + v);
    };
    const std::size_t at = bad.find("\nvisitedLog ") + 12;
    const std::string logBytes = bad.substr(at, bad.find(' ', at) - at);
    const std::string tooMany = std::to_string(std::stoull(logBytes) / 3 + 1);
    setLine("nextId", tooMany);
    setLine("visitedLog", logBytes + " " + tooMany);
    std::ofstream out(manifestPath, std::ios::binary | std::ios::trunc);
    out << bad;
  }
  try {
    (void)resume();
    ADD_FAILURE() << "an overstated nextId was accepted";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("inconsistent"), std::string::npos)
        << e.what();
  }
  {
    std::ofstream out(manifestPath, std::ios::binary | std::ios::trunc);
    out << originalManifest;
  }

  // Truncated visited log *below* the manifest's pinned length.
  fs::resize_file(dir.path + "/visited.log", 16);
  EXPECT_THROW((void)resume(), SimError);
}

TEST(SpillHygiene, MissingCheckpointDirectoryRaisesSimError) {
  mc::McConfig cfg = baseConfig(2, 1);
  cfg.resumeDir = (fs::temp_directory_path() / "lcdc_ooc_nodir").string();
  fs::remove_all(cfg.resumeDir);
  EXPECT_THROW((void)mc::explore(cfg), SimError);
}

TEST(SpillHygiene, ConflictingDirectoriesRaiseSimError) {
  TempDir a("dir_a");
  TempDir b("dir_b");
  mc::McConfig cfg = baseConfig(2, 1);
  cfg.spillDir = a.path;
  cfg.checkpointDir = b.path;
  EXPECT_THROW((void)mc::explore(cfg), SimError);
}

}  // namespace
}  // namespace lcdc
