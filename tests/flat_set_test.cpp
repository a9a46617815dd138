// Tests for the concurrent open-addressing fingerprint set backing the
// model checker's visited table: basic insert/find semantics, the true
// 64-bit-collision fallback (same fingerprint, different state bytes must
// NOT deduplicate), wave-boundary growth, and a multi-threaded stress run
// that cross-checks against a mutex-guarded reference map.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flat_set.hpp"

namespace lcdc {
namespace {

/// Insert a string whose identity is the bytes themselves; `fp` is
/// caller-chosen so collisions can be forced.
std::uint32_t insertStr(FlatFingerprintSet& set, std::uint64_t fp,
                        const std::string& s,
                        std::vector<std::string>& store, bool* inserted) {
  const FlatFingerprintSet::InsertResult r = set.insert(
      fp,
      [&](std::uint32_t payload) { return store[payload] == s; },
      [&]() {
        store.push_back(s);
        return static_cast<std::uint32_t>(store.size() - 1);
      });
  if (inserted != nullptr) *inserted = r.inserted;
  return r.payload;
}

TEST(FlatFingerprintSet, InsertFindAndDuplicate) {
  FlatFingerprintSet set(64);
  std::vector<std::string> store;
  bool inserted = false;
  const std::uint32_t a =
      insertStr(set, fingerprintHash(reinterpret_cast<const std::byte*>("a"), 1),
                "a", store, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(set.size(), 1u);
  const std::uint32_t a2 =
      insertStr(set, fingerprintHash(reinterpret_cast<const std::byte*>("a"), 1),
                "a", store, &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(a, a2);
  EXPECT_EQ(set.size(), 1u);

  const auto found = set.find(
      fingerprintHash(reinterpret_cast<const std::byte*>("a"), 1),
      [&](std::uint32_t payload) { return store[payload] == "a"; });
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, a);
  const auto missing = set.find(
      fingerprintHash(reinterpret_cast<const std::byte*>("b"), 1),
      [&](std::uint32_t payload) { return store[payload] == "b"; });
  EXPECT_FALSE(missing.has_value());
}

TEST(FlatFingerprintSet, TrueFingerprintCollisionFallsBackToBytes) {
  // Two different states with an identical 64-bit fingerprint: the set
  // must keep BOTH (extra probe), not silently merge them — this is the
  // soundness property hashing alone cannot give.
  FlatFingerprintSet set(64);
  std::vector<std::string> store;
  const std::uint64_t fp = 0xDEADBEEFCAFEF00DULL;
  bool inserted = false;
  const std::uint32_t a = insertStr(set, fp, "state-one", store, &inserted);
  EXPECT_TRUE(inserted);
  const std::uint32_t b = insertStr(set, fp, "state-two", store, &inserted);
  EXPECT_TRUE(inserted) << "collision must not deduplicate distinct bytes";
  EXPECT_NE(a, b);
  EXPECT_EQ(set.size(), 2u);
  // Re-inserting either dedups against the right entry.
  EXPECT_EQ(insertStr(set, fp, "state-one", store, &inserted), a);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(insertStr(set, fp, "state-two", store, &inserted), b);
  EXPECT_FALSE(inserted);
  // find() distinguishes them by bytes too.
  const auto f1 = set.find(
      fp, [&](std::uint32_t p) { return store[p] == "state-one"; });
  const auto f2 = set.find(
      fp, [&](std::uint32_t p) { return store[p] == "state-two"; });
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(*f1, a);
  EXPECT_EQ(*f2, b);
}

TEST(FlatFingerprintSet, ZeroFingerprintIsUsable) {
  // fp 0 is the empty-slot marker internally; a real hash of 0 must still
  // round-trip through normalization.
  FlatFingerprintSet set(64);
  std::vector<std::string> store;
  bool inserted = false;
  const std::uint32_t a = insertStr(set, 0, "zero", store, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(insertStr(set, 0, "zero", store, &inserted), a);
  EXPECT_FALSE(inserted);
}

TEST(FlatFingerprintSet, ReserveGrowsAndPreservesMembership) {
  FlatFingerprintSet set(64);
  std::vector<std::string> store;
  std::vector<std::pair<std::string, std::uint32_t>> entries;
  for (int i = 0; i < 200; ++i) {
    set.reserveFor(1);  // wave boundary: guarantee room before inserting
    const std::string s = "state-" + std::to_string(i);
    bool inserted = false;
    const std::uint32_t id = insertStr(
        set, fingerprintHash(reinterpret_cast<const std::byte*>(s.data()),
                             s.size()),
        s, store, &inserted);
    EXPECT_TRUE(inserted);
    entries.emplace_back(s, id);
  }
  EXPECT_EQ(set.size(), 200u);
  EXPECT_GE(set.capacity(), 400u) << "rehash must keep load <= 50%";
  for (const auto& [s, id] : entries) {
    const auto found = set.find(
        fingerprintHash(reinterpret_cast<const std::byte*>(s.data()),
                        s.size()),
        [&](std::uint32_t p) { return store[p] == s; });
    ASSERT_TRUE(found.has_value()) << s;
    EXPECT_EQ(*found, id) << "rehash must preserve payloads";
  }
}

TEST(FlatFingerprintSet, ConcurrentInsertionMatchesReference) {
  // N threads race to insert overlapping key ranges (every key attempted
  // by 2+ threads).  Exactly one inserter may win per key, payloads must
  // be stable, and the final size must equal the distinct-key count.
  constexpr int kThreads = 8;
  constexpr int kKeys = 2000;
  FlatFingerprintSet set(8192);  // pre-sized: no growth mid-"wave"
  std::vector<std::string> store(static_cast<std::size_t>(kKeys) * 2);
  std::atomic<std::uint32_t> nextId{0};
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  std::vector<std::vector<std::uint32_t>> seen(
      kThreads, std::vector<std::uint32_t>(kKeys));
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kKeys; ++k) {
        const std::string s = "key-" + std::to_string(k);
        const FlatFingerprintSet::InsertResult r = set.insert(
            fingerprintHash(reinterpret_cast<const std::byte*>(s.data()),
                            s.size()),
            [&](std::uint32_t payload) { return store[payload] == s; },
            [&]() {
              const std::uint32_t id =
                  nextId.fetch_add(1, std::memory_order_relaxed);
              store[id] = s;
              return id;
            });
        if (r.inserted) wins.fetch_add(1, std::memory_order_relaxed);
        seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)] =
            r.payload;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(set.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(wins.load(), kKeys) << "each key must be inserted exactly once";
  for (int k = 0; k < kKeys; ++k) {
    for (int t = 1; t < kThreads; ++t) {
      ASSERT_EQ(seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)],
                seen[0][static_cast<std::size_t>(k)])
          << "all threads must agree on key " << k << "'s payload";
    }
  }
}

TEST(FlatFingerprintSet, BytesAccountsForSlabs) {
  FlatFingerprintSet set(1u << 10);
  EXPECT_EQ(set.bytes(), set.capacity() * 12u);
}

TEST(FlatFingerprintSet, BytesAfterReserveChargesTheRehashTransient) {
  FlatFingerprintSet set(64);
  // Within the current capacity: no growth, no transient.
  EXPECT_EQ(set.bytesAfterReserve(16), set.bytes());
  // Past 50% load the table doubles; during the rehash both the old and
  // the new slab are live, so the projection must exceed even the final
  // footprint.
  const std::size_t projected = set.bytesAfterReserve(1000);
  EXPECT_GT(projected, set.bytes());
  const std::size_t before = set.bytes();
  set.reserveFor(1000);
  EXPECT_EQ(projected, set.bytes() + before);
}

TEST(FlatFingerprintSet, GrowthBoundaryKeepsPayloadsExact) {
  // Walk insert counts across the 50%-load growth boundary of the initial
  // 64-slot table and verify membership + payload stability through every
  // reserveFor that actually rehashes.
  FlatFingerprintSet set(64);
  std::vector<std::string> store;
  for (int i = 0; i < 200; ++i) {
    set.reserveFor(1);
    const std::string s = "key-" + std::to_string(i);
    insertStr(set,
              fingerprintHash(reinterpret_cast<const std::byte*>(s.data()),
                              s.size()),
              s, store, nullptr);
    ASSERT_EQ(set.size(), static_cast<std::size_t>(i + 1));
  }
  for (int i = 0; i < 200; ++i) {
    const std::string s = "key-" + std::to_string(i);
    const auto hit = set.find(
        fingerprintHash(reinterpret_cast<const std::byte*>(s.data()),
                        s.size()),
        [&](std::uint32_t payload) { return store[payload] == s; });
    ASSERT_TRUE(hit.has_value()) << s;
    EXPECT_EQ(store[*hit], s);
  }
}

TEST(FlatFingerprintSet, PayloadPastIdSpaceThrowsSimError) {
  // The 2^32-state guard: a payload beyond kMaxPayload (the explorer's
  // state-id space) must raise SimError instead of silently truncating
  // or colliding with the sentinels.
  FlatFingerprintSet set(64);
  const auto never = [](std::uint32_t) { return true; };
  const auto r = set.insert(1, never, [] {
    return FlatFingerprintSet::kMaxPayload;
  });
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(r.payload, FlatFingerprintSet::kMaxPayload);
  EXPECT_THROW(set.insert(2, never,
                          [] { return FlatFingerprintSet::kMaxPayload + 1; }),
               SimError);
  EXPECT_THROW(set.insert(3, never,
                          [] { return FlatFingerprintSet::kPendingPayload; }),
               SimError);
}

TEST(FlatFingerprintSet, CompactModeTrustsTheFingerprint) {
  // Hash compaction is an always-true equality: a fingerprint hit
  // deduplicates with no byte compare, even for different bytes, and the
  // assign callback of the losing insert never runs.
  FlatFingerprintSet set(64);
  std::vector<std::string> store;
  const auto trust = [](std::uint32_t) { return true; };
  const auto keep = [&](const std::string& s) {
    return [&store, s] {
      store.push_back(s);
      return static_cast<std::uint32_t>(store.size() - 1);
    };
  };
  const auto a = set.insert(42, trust, keep("state-a"));
  EXPECT_TRUE(a.inserted);
  const auto b = set.insert(42, trust, keep("state-b"));
  EXPECT_FALSE(b.inserted);
  EXPECT_EQ(b.payload, a.payload);
  EXPECT_EQ(store, std::vector<std::string>{"state-a"});
  EXPECT_EQ(set.size(), 1u);
  const auto hit = set.find(42, trust);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, a.payload);
  // The same collision under a byte-comparing equality keeps both.
  const auto bytes = [&](const std::string& s) {
    return [&store, s](std::uint32_t p) { return store[p] == s; };
  };
  const auto c = set.insert(42, bytes("state-b"), keep("state-b"));
  EXPECT_TRUE(c.inserted);
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatFingerprintSet, ClearKeepsSlabsAndForEachEnumerates) {
  FlatFingerprintSet set(64);
  const auto trust = [](std::uint32_t) { return true; };
  for (std::uint64_t fp = 1; fp <= 10; ++fp) {
    std::uint32_t id = static_cast<std::uint32_t>(fp);
    (void)set.insert(fp * 0x9E3779B97F4A7C15ULL, trust, [id] { return id; });
  }
  std::vector<std::uint64_t> seen;
  set.forEachFingerprint([&](std::uint64_t fp) { seen.push_back(fp); });
  EXPECT_EQ(seen.size(), 10u);
  const std::size_t cap = set.capacity();
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.capacity(), cap);
  seen.clear();
  set.forEachFingerprint([&](std::uint64_t fp) { seen.push_back(fp); });
  EXPECT_TRUE(seen.empty());
  // The cleared table is immediately reusable (the per-wave claim-table
  // pattern).
  const auto r = set.insert(99, trust, [] { return 1u; });
  EXPECT_TRUE(r.inserted);
}

// -- bitstate filter ----------------------------------------------------------

TEST(BitstateFilter, TestSetRoundTrip) {
  BitstateFilter bloom(1);
  EXPECT_EQ(bloom.bitCount(), 1ULL << 23) << "1 MiB = 2^23 bits";
  EXPECT_EQ(bloom.hashCount(), BitstateFilter::kDefaultHashes);
  EXPECT_EQ(bloom.onesCount(), 0u);
  for (std::uint64_t fp = 1; fp <= 1000; ++fp) {
    EXPECT_FALSE(bloom.testAll(fp * 0x9E3779B97F4A7C15ULL));
  }
  for (std::uint64_t fp = 1; fp <= 1000; ++fp) {
    bloom.setAll(fp * 0x9E3779B97F4A7C15ULL);
  }
  for (std::uint64_t fp = 1; fp <= 1000; ++fp) {
    EXPECT_TRUE(bloom.testAll(fp * 0x9E3779B97F4A7C15ULL));
  }
  EXPECT_GT(bloom.onesCount(), 0u);
  EXPECT_LE(bloom.onesCount(), 3000u);
}

TEST(BitstateFilter, MinimumSizeIsEnforced) {
  BitstateFilter bloom(0);
  EXPECT_EQ(bloom.bitCount(), 1ULL << 20);
  EXPECT_EQ(bloom.bytes(), (1ULL << 20) / 8);
}

TEST(BitstateFilter, LoadWordsRejectsSizeMismatch) {
  BitstateFilter bloom(1);
  EXPECT_THROW(bloom.loadWords(std::vector<std::uint64_t>(16), 3), SimError);
  // Matching size round-trips membership and the stored hash count.
  BitstateFilter other(1);
  other.setAll(12345);
  BitstateFilter copy(1);
  copy.loadWords(other.words(), other.hashCount());
  EXPECT_TRUE(copy.testAll(12345));
  EXPECT_FALSE(copy.testAll(54321));
  EXPECT_EQ(copy.hashCount(), other.hashCount());
}

}  // namespace
}  // namespace lcdc
