// Cross-technology differential conformance (the dispatch-rewrite oracle).
//
// Each of the three paper grafts is run under every available technology on
// identical seeded inputs, and the *full trace* of observable results —
// eviction decision sequences, MD5 digests (including non-64-multiple
// lengths), logical->physical block maps — must be bit-identical to the
// unsafe-C oracle. grafts_test.cc spot-checks individual behaviors; this
// suite pins down complete input/output traces so that an engine rewrite
// (threaded dispatch, superinstruction fusion, arena frames) that changes
// *any* observable result fails loudly.
//
// The second half runs the Minnow grafts across the dispatch/fusion/
// check-elision configuration matrix: every configuration must
// produce the same traces as the plain switch interpreter on raw, fully
// checked bytecode — including the configurations where the elision pass
// has rewritten proven-safe accesses to their unchecked variants.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/core/graft.h"
#include "src/core/technology.h"
#include "src/grafts/factory.h"
#include "src/grafts/minnow_grafts.h"
#include "src/ldisk/logical_disk.h"
#include "src/md5/md5.h"
#include "src/minnow/jit.h"
#include "src/minnow/vm.h"
#include "src/vmsim/frame.h"

namespace {

using core::Technology;

std::string SafeName(Technology technology) {
  std::string name = core::TechnologyName(technology);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

// Tcl's direct source interpretation is orders of magnitude slower than
// everything else (paper §6); scale its trace lengths the way the rest of
// the test suite does so the suite stays fast.
bool Slow(Technology technology) { return technology == Technology::kTcl; }

// --- Eviction: the sequence of victim pages over a seeded hot-set workload ---

std::vector<vmsim::PageId> EvictionTrace(core::PrioritizationGraft& graft, int trials) {
  std::vector<vmsim::Frame> frames(16);
  vmsim::LruQueue queue;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].page = 40 + i;
    queue.PushMru(&frames[i]);
  }

  // One fixed seed for every technology: the hot-set churn is part of the
  // shared input, so the victim sequence is the graft's full observable
  // output.
  std::mt19937 rng(1234);
  std::vector<vmsim::PageId> trace;
  trace.reserve(trials);
  for (int trial = 0; trial < trials; ++trial) {
    switch (rng() % 3) {
      case 0: graft.HotListAdd(40 + rng() % frames.size()); break;
      case 1: graft.HotListRemove(40 + rng() % frames.size()); break;
      default: break;  // leave the hot list alone this round
    }
    if (trial % 7 == 6) {
      graft.HotListClear();
    }
    vmsim::Frame* victim = graft.ChooseVictim(queue.head());
    trace.push_back(victim != nullptr ? victim->page : vmsim::PageId(~0ull));
  }
  return trace;
}

class EvictionTraceConformance : public ::testing::TestWithParam<Technology> {};

TEST_P(EvictionTraceConformance, VictimSequenceMatchesOracle) {
  const int trials = Slow(GetParam()) ? 12 : 96;
  auto oracle = grafts::CreateEvictionGraft(Technology::kC);
  auto graft = grafts::CreateEvictionGraft(GetParam());
  EXPECT_EQ(EvictionTrace(*graft, trials), EvictionTrace(*oracle, trials));
}

INSTANTIATE_TEST_SUITE_P(AllTechnologies, EvictionTraceConformance,
                         ::testing::ValuesIn(core::kAllTechnologies),
                         [](const ::testing::TestParamInfo<Technology>& info) {
                           return SafeName(info.param);
                         });

// --- MD5: digests over seeded messages of awkward lengths ---

// Lengths straddle every padding case in RFC 1321: empty, short, one byte
// below/at/above the 56-byte padding boundary, one block, one block + 1,
// and a multi-block message that is not a multiple of 64.
constexpr std::size_t kMd5Lengths[] = {0, 1, 3, 55, 56, 57, 63, 64, 65, 127, 128, 500};

std::vector<std::string> Md5Trace(core::StreamGraft& graft, std::size_t chunk) {
  std::mt19937 rng(77);
  std::vector<std::string> trace;
  for (const std::size_t len : kMd5Lengths) {
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) {
      b = static_cast<std::uint8_t>(rng());
    }
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t n = std::min(chunk, data.size() - off);
      graft.Consume(data.data() + off, n);
      off += n;
    }
    trace.push_back(md5::ToHex(graft.Finish()));
  }
  return trace;
}

class Md5TraceConformance : public ::testing::TestWithParam<Technology> {};

TEST_P(Md5TraceConformance, DigestsMatchOracleAcrossPaddingBoundaries) {
  auto oracle = grafts::CreateMd5Graft(Technology::kC);
  auto graft = grafts::CreateMd5Graft(GetParam());
  // An awkward chunk size exercises the buffering path; a large one the
  // whole-block path. Both must agree with the oracle byte for byte.
  EXPECT_EQ(Md5Trace(*graft, 37), Md5Trace(*oracle, 37));
  EXPECT_EQ(Md5Trace(*graft, 4096), Md5Trace(*oracle, 4096));
}

INSTANTIATE_TEST_SUITE_P(AllTechnologies, Md5TraceConformance,
                         ::testing::ValuesIn(core::kAllTechnologies),
                         [](const ::testing::TestParamInfo<Technology>& info) {
                           return SafeName(info.param);
                         });

// --- Logical disk: physical placements plus the complete translation map ---

struct LdiskTrace {
  std::vector<ldisk::BlockId> placements;  // OnWrite return values, in order
  std::vector<ldisk::BlockId> map;         // Translate(l) for every logical block

  bool operator==(const LdiskTrace&) const = default;
};

LdiskTrace RunLdisk(core::BlackBoxGraft& graft, const ldisk::Geometry& geometry,
                    std::uint64_t writes) {
  // A skewed seeded workload: some blocks are rewritten many times, so the
  // trace covers both fresh allocation and relocation.
  std::mt19937 rng(4242);
  const std::uint64_t logical_span = geometry.num_blocks / 2;
  LdiskTrace trace;
  trace.placements.reserve(writes);
  for (std::uint64_t i = 0; i < writes; ++i) {
    const ldisk::BlockId logical =
        (rng() % 4 == 0) ? rng() % 8 : rng() % logical_span;  // hot head, long tail
    trace.placements.push_back(graft.OnWrite(logical));
  }
  trace.map.reserve(geometry.num_blocks);
  for (std::uint64_t l = 0; l < geometry.num_blocks; ++l) {
    trace.map.push_back(graft.Translate(l));
  }
  return trace;
}

class LdiskTraceConformance : public ::testing::TestWithParam<Technology> {};

TEST_P(LdiskTraceConformance, PlacementsAndMapMatchOracle) {
  ldisk::Geometry geometry;
  geometry.num_blocks = 256;
  geometry.blocks_per_segment = 16;
  const std::uint64_t writes = Slow(GetParam()) ? 64 : geometry.num_blocks;

  auto oracle = grafts::CreateLogicalDiskGraft(Technology::kC, geometry);
  auto graft = grafts::CreateLogicalDiskGraft(GetParam(), geometry);
  EXPECT_EQ(RunLdisk(*graft, geometry, writes), RunLdisk(*oracle, geometry, writes));
}

INSTANTIATE_TEST_SUITE_P(AllTechnologies, LdiskTraceConformance,
                         ::testing::ValuesIn(core::kAllTechnologies),
                         [](const ::testing::TestParamInfo<Technology>& info) {
                           return SafeName(info.param);
                         });

// --- Minnow configuration matrix ---
//
// Every VM configuration — switch vs threaded vs jit dispatch,
// superinstruction fusion on/off, check elision on/off — must produce the
// same traces as the plain reference (switch dispatch, raw bytecode). In
// builds without JIT support the jit rows fall back to the interpreter and
// remain valid (if redundant) rows.

struct MinnowCase {
  std::string name;
  grafts::MinnowConfig config;
};

std::vector<MinnowCase> MinnowMatrix() {
  std::vector<MinnowCase> cases;
  const std::pair<const char*, minnow::DispatchMode> dispatches[] = {
      {"switch", minnow::DispatchMode::kSwitch},
      {"threaded", minnow::DispatchMode::kThreaded},
      {"jit", minnow::DispatchMode::kJit}};
  for (const auto& [name, dispatch] : dispatches) {
    for (const bool fuse : {false, true}) {
      for (const bool elide : {false, true}) {
        grafts::MinnowConfig config;
        config.fuse = fuse;
        config.elide = elide;
        config.dispatch = dispatch;
        config.jit = dispatch == minnow::DispatchMode::kJit;
        cases.push_back(
            {std::string(name) + (fuse ? "_fused" : "") + (elide ? "_elided" : ""), config});
      }
    }
  }
  return cases;
}

grafts::MinnowConfig ReferenceConfig() {
  grafts::MinnowConfig config;
  config.dispatch = minnow::DispatchMode::kSwitch;
  config.fuse = false;
  return config;
}

TEST(MinnowMatrixConformance, EvictionTraceIdenticalAcrossConfigurations) {
  grafts::MinnowEvictionGraft reference(ReferenceConfig());
  const auto expected = EvictionTrace(reference, 48);
  for (const MinnowCase& c : MinnowMatrix()) {
    grafts::MinnowEvictionGraft graft(c.config);
    EXPECT_EQ(EvictionTrace(graft, 48), expected) << c.name;
  }
}

TEST(MinnowMatrixConformance, Md5TraceIdenticalAcrossConfigurations) {
  grafts::MinnowMd5Graft reference(ReferenceConfig());
  const auto expected = Md5Trace(reference, 37);
  for (const MinnowCase& c : MinnowMatrix()) {
    grafts::MinnowMd5Graft graft(c.config);
    EXPECT_EQ(Md5Trace(graft, 37), expected) << c.name;
  }
}

TEST(MinnowMatrixConformance, LdiskTraceIdenticalAcrossConfigurations) {
  ldisk::Geometry geometry;
  geometry.num_blocks = 256;
  geometry.blocks_per_segment = 16;
  grafts::MinnowLogicalDiskGraft reference(geometry, ReferenceConfig());
  const auto expected = RunLdisk(reference, geometry, geometry.num_blocks);
  for (const MinnowCase& c : MinnowMatrix()) {
    grafts::MinnowLogicalDiskGraft graft(geometry, c.config);
    EXPECT_EQ(RunLdisk(graft, geometry, geometry.num_blocks), expected) << c.name;
  }
}

// Technology::kJavaTranslated is the paper's "compiled Java" row. In builds
// that can compile, the factory's grafts must run native code — otherwise
// the row silently measures the interpreter — and still match the C oracle.
// Builds without JIT support run the row on the interpreter.
void ExpectCompiled(minnow::VM& vm, const char* graft) {
  const minnow::JitStats* jit = vm.jit_stats();
  if (!minnow::Jit::Available()) {
    EXPECT_EQ(jit, nullptr) << graft;
    return;
  }
  ASSERT_NE(jit, nullptr) << graft;
  EXPECT_EQ(vm.dispatch(), minnow::DispatchMode::kJit) << graft;
  EXPECT_GT(jit->compiled_fns, 0u) << graft;
}

TEST(CompiledJavaConformance, FactoryGraftsRunOnTheJitAndMatchC) {
  auto eviction = grafts::CreateEvictionGraft(Technology::kJavaTranslated);
  auto eviction_c = grafts::CreateEvictionGraft(Technology::kC);
  EXPECT_EQ(EvictionTrace(*eviction, 48), EvictionTrace(*eviction_c, 48));
  ExpectCompiled(dynamic_cast<grafts::MinnowEvictionGraft&>(*eviction).vm(), "eviction");

  auto md5 = grafts::CreateMd5Graft(Technology::kJavaTranslated);
  auto md5_c = grafts::CreateMd5Graft(Technology::kC);
  EXPECT_EQ(Md5Trace(*md5, 37), Md5Trace(*md5_c, 37));
  ExpectCompiled(dynamic_cast<grafts::MinnowMd5Graft&>(*md5).vm(), "md5");

  ldisk::Geometry geometry;
  geometry.num_blocks = 256;
  geometry.blocks_per_segment = 16;
  auto ldisk = grafts::CreateLogicalDiskGraft(Technology::kJavaTranslated, geometry);
  auto ldisk_c = grafts::CreateLogicalDiskGraft(Technology::kC, geometry);
  EXPECT_EQ(RunLdisk(*ldisk, geometry, geometry.num_blocks),
            RunLdisk(*ldisk_c, geometry, geometry.num_blocks));
  ExpectCompiled(dynamic_cast<grafts::MinnowLogicalDiskGraft&>(*ldisk).vm(), "ldisk");
}

// The matrix above compares one build's dispatch modes against each other.
// Digests are also pinned to absolute values so that the ON and OFF CI
// builds (which never see each other's traces) agree through the constants.
TEST(MinnowMatrixConformance, DigestPinnedAcrossBuildVariants) {
  for (const bool threaded : {false, true}) {
    grafts::MinnowConfig config;
    config.dispatch =
        threaded ? minnow::DispatchMode::kThreaded : minnow::DispatchMode::kSwitch;
    grafts::MinnowMd5Graft graft(config);
    const std::string abc = "abc";
    graft.Consume(reinterpret_cast<const std::uint8_t*>(abc.data()), abc.size());
    EXPECT_EQ(md5::ToHex(graft.Finish()), "900150983cd24fb0d6963f7d28e17f72");
  }
}

// Threaded dispatch is a build-time capability (computed goto) selected at
// run time; whichever way this binary was built, asking for the portable
// switch loop must always be honored.
TEST(MinnowMatrixConformance, SwitchDispatchAlwaysAvailable) {
  grafts::MinnowConfig config;
  config.dispatch = minnow::DispatchMode::kSwitch;
  grafts::MinnowMd5Graft graft(config);
  EXPECT_EQ(graft.vm().dispatch(), minnow::DispatchMode::kSwitch);
#if defined(GRAFTLAB_THREADED_DISPATCH) && (defined(__GNUC__) || defined(__clang__))
  EXPECT_TRUE(minnow::VM::ThreadedDispatchAvailable());
#endif
}

}  // namespace
