// Unit tests for the workload generators: determinism, store-value
// uniqueness (required by the SC replay), bounds, and mix calibration.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "workload/generators.hpp"

namespace lcdc::workload {
namespace {

WorkloadConfig baseCfg() {
  WorkloadConfig w;
  w.seed = 42;
  w.numProcessors = 4;
  w.numBlocks = 16;
  w.wordsPerBlock = 4;
  w.opsPerProcessor = 1000;
  return w;
}

using MakerFn = std::vector<Program> (*)(const WorkloadConfig&);

// A generator with its name, so the parameter prints the same in every
// process (a bare function pointer prints as its ASLR-dependent address,
// which would leak into the discovered ctest names).
struct Maker {
  const char* name;
  MakerFn make;
  std::vector<Program> operator()(const WorkloadConfig& c) const {
    return make(c);
  }
};

void PrintTo(const Maker& m, std::ostream* os) { *os << m.name; }

std::vector<Program> hotDefault(const WorkloadConfig& c) {
  return hotBlock(c);
}

class GeneratorSuite : public testing::TestWithParam<Maker> {};

TEST_P(GeneratorSuite, DeterministicFromConfig) {
  const auto a = GetParam()(baseCfg());
  const auto b = GetParam()(baseCfg());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].steps.size(), b[p].steps.size());
    for (std::size_t i = 0; i < a[p].steps.size(); ++i) {
      EXPECT_EQ(a[p].steps[i].kind, b[p].steps[i].kind);
      EXPECT_EQ(a[p].steps[i].block, b[p].steps[i].block);
      EXPECT_EQ(a[p].steps[i].word, b[p].steps[i].word);
      EXPECT_EQ(a[p].steps[i].storeValue, b[p].steps[i].storeValue);
    }
  }
}

TEST_P(GeneratorSuite, StoreValuesAreGloballyUniqueAndNonZero) {
  const auto programs = GetParam()(baseCfg());
  std::set<Word> values;
  for (const auto& prog : programs) {
    for (const auto& s : prog.steps) {
      if (s.kind != StepKind::Store) continue;
      EXPECT_NE(s.storeValue, 0u);
      EXPECT_TRUE(values.insert(s.storeValue).second)
          << "duplicate store value " << s.storeValue;
    }
  }
  EXPECT_FALSE(values.empty());
}

TEST_P(GeneratorSuite, AllStepsWithinBounds) {
  const WorkloadConfig cfg = baseCfg();
  const auto programs = GetParam()(cfg);
  EXPECT_EQ(programs.size(), cfg.numProcessors);
  for (const auto& prog : programs) {
    EXPECT_FALSE(prog.steps.empty());
    for (const auto& s : prog.steps) {
      EXPECT_LT(s.block, cfg.numBlocks);
      EXPECT_LT(s.word, cfg.wordsPerBlock);
    }
  }
}

std::string generatorName(const testing::TestParamInfo<Maker>& paramInfo) {
  return paramInfo.param.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorSuite,
    testing::Values(Maker{"uniform", &uniformRandom}, Maker{"hot", &hotDefault},
                    Maker{"prodcons", &producerConsumer},
                    Maker{"migratory", &migratory},
                    Maker{"falseshare", &falseSharing},
                    Maker{"readmostly", &readMostly}),
    generatorName);

TEST(UniformRandom, MixRoughlyMatchesConfig) {
  WorkloadConfig cfg = baseCfg();
  cfg.opsPerProcessor = 20'000;
  cfg.storePercent = 30;
  cfg.evictPercent = 10;
  const auto programs = uniformRandom(cfg);
  std::uint64_t loads = 0, stores = 0, evicts = 0;
  for (const auto& prog : programs) {
    for (const auto& s : prog.steps) {
      loads += s.kind == StepKind::Load;
      stores += s.kind == StepKind::Store;
      evicts += s.kind == StepKind::Evict;
    }
  }
  const double total = static_cast<double>(loads + stores + evicts);
  EXPECT_NEAR(static_cast<double>(evicts) / total, 0.10, 0.02);
  // Stores are 30% of the remaining 90%.
  EXPECT_NEAR(static_cast<double>(stores) / total, 0.27, 0.02);
}

TEST(HotBlock, ConcentratesTraffic) {
  WorkloadConfig cfg = baseCfg();
  cfg.opsPerProcessor = 10'000;
  const auto programs = hotBlock(cfg, 90, 2);
  std::uint64_t hot = 0, total = 0;
  for (const auto& prog : programs) {
    for (const auto& s : prog.steps) {
      ++total;
      hot += s.block < 2;
    }
  }
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(total), 0.85);
}

TEST(ProducerConsumer, OnlyProcessorZeroStores) {
  const auto programs = producerConsumer(baseCfg());
  for (std::size_t p = 1; p < programs.size(); ++p) {
    for (const auto& s : programs[p].steps) {
      EXPECT_NE(s.kind, StepKind::Store) << "consumer " << p << " stores";
    }
  }
}

TEST(FalseSharing, EachProcessorOwnsItsWord) {
  const auto programs = falseSharing(baseCfg());
  for (NodeId p = 0; p < programs.size(); ++p) {
    for (const auto& s : programs[p].steps) {
      EXPECT_EQ(s.word, p % baseCfg().wordsPerBlock);
    }
  }
}

TEST(MakeStoreValue, EncodesProcessorAndSequence) {
  EXPECT_NE(makeStoreValue(0, 0), makeStoreValue(1, 0));
  EXPECT_NE(makeStoreValue(0, 0), makeStoreValue(0, 1));
  EXPECT_NE(makeStoreValue(0, 0), 0u);
}

}  // namespace
}  // namespace lcdc::workload
