#include "graftbench/matrix.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>

#include "graftbench/common.h"
#include "graftbench/probe_graft.h"
#include "src/core/graft.h"
#include "src/core/technology.h"
#include "src/grafts/factory.h"
#include "src/grafts/minnow_grafts.h"
#include "src/ldisk/logical_disk.h"
#include "src/md5/md5.h"
#include "src/vmsim/frame.h"

namespace graftbench {

namespace {

constexpr std::size_t kMd5Bytes = 256u << 10;
constexpr std::size_t kMd5Chunk = 64u << 10;
constexpr std::size_t kHotList = 64;        // pages on the hot list
constexpr std::size_t kFrames = 128;        // frames on the LRU queue
constexpr std::size_t kHotFrames = 4;       // of which hold hot pages
constexpr std::size_t kEvictionCalls = 2048;  // ChooseVictim calls per pass
constexpr std::uint64_t kLdiskWrites = 65'536;
constexpr std::size_t kTranslateChecks = 64;

// Everything a round feeds the grafts, and what a correct graft answers.
struct Inputs {
  std::vector<std::uint8_t> md5_data;
  md5::Digest md5_digest{};

  std::vector<vmsim::PageId> hot_pages;
  std::vector<vmsim::PageId> frame_pages;  // LRU order, head first
  std::vector<vmsim::PageId> victims;      // expected ChooseVictim sequence

  ldisk::Geometry geometry;               // room for a warm and a measured pass
  std::vector<ldisk::BlockId> writes;     // logical block of each write
  std::vector<std::pair<ldisk::BlockId, ldisk::BlockId>> translations;  // after pass 2
};

Inputs MakeInputs(std::uint64_t seed) {
  SplitMix rng(seed ^ 0x6d6174726978ull);
  Inputs in;

  in.md5_data.resize(kMd5Bytes);
  for (auto& b : in.md5_data) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  in.md5_digest = md5::Sum({in.md5_data.data(), in.md5_data.size()});

  // Hot pages are drawn below 100000; cold frames hold pages above it.
  std::unordered_set<vmsim::PageId> hot;
  while (hot.size() < kHotList) {
    const vmsim::PageId page = 1 + rng.Below(99'999);
    if (hot.insert(page).second) {
      in.hot_pages.push_back(page);
    }
  }
  for (std::size_t f = 0; f < kFrames; ++f) {
    in.frame_pages.push_back(100'000 + f);
  }
  for (std::size_t h = 0; h < kHotFrames; ++h) {
    in.frame_pages[rng.Below(kFrames)] = in.hot_pages[rng.Below(kHotList)];
  }
  // The oracle: the victim is the first frame from the LRU head whose page
  // is not hot; the benchmark then touches it to the MRU end.
  std::vector<vmsim::PageId> lru = in.frame_pages;
  for (std::size_t call = 0; call < kEvictionCalls; ++call) {
    const auto it = std::find_if(lru.begin(), lru.end(),
                                 [&](vmsim::PageId page) { return !hot.count(page); });
    const vmsim::PageId victim = it == lru.end() ? lru.front() : *it;
    in.victims.push_back(victim);
    lru.erase(std::find(lru.begin(), lru.end(), victim));
    lru.push_back(victim);
  }

  // The paper's skewed stream (80% of writes to 20% of the blocks) over
  // kLdiskWrites logical blocks, on a device with room for it twice.
  ldisk::Geometry logical;
  logical.num_blocks = kLdiskWrites;
  ldisk::SkewedWorkload workload(logical, seed);
  in.geometry.num_blocks = 2 * kLdiskWrites;
  for (std::uint64_t i = 0; i < kLdiskWrites; ++i) {
    in.writes.push_back(workload.Next());
  }
  // Log-structured placement is sequential, so the last write of a block
  // in the second pass decides its translation.
  for (std::size_t t = 0; t < kTranslateChecks; ++t) {
    const std::size_t i = rng.Below(kLdiskWrites);
    const ldisk::BlockId block = in.writes[i];
    std::size_t last = i;
    for (std::size_t j = i; j < kLdiskWrites; ++j) {
      if (in.writes[j] == block) {
        last = j;
      }
    }
    in.translations.emplace_back(block, kLdiskWrites + last);
  }
  return in;
}

core::Technology TechnologyOf(Row row) {
  switch (row) {
    case Row::kC: return core::Technology::kC;
    case Row::kModula3: return core::Technology::kModula3;
    case Row::kSfi: return core::Technology::kSfi;
    default: return core::Technology::kJava;  // threaded + fused interpreter
  }
}

grafts::MinnowConfig JitConfig() {
  grafts::MinnowConfig config;
  config.jit = true;
  config.elide = true;
  return config;
}

void ReadCounters(const minnow::VM& vm, Row row, std::uint64_t insns, MinnowCounters& out) {
  if (row == Row::kInterp) {
    out.insns = insns;
  } else if (const minnow::JitStats* jit = vm.jit_stats()) {
    out.jit_bytes = jit->bytes;
    out.jit_deopts = jit->deopts;
    out.jit_bailouts = jit->bailouts;
    out.checks_elided = vm.program().elision.checks_elided;
  }
}

// One row of one graft: build a fresh instance, warm pass, measured pass.
// Returns false if either pass's results differ from the oracle.
struct RowRun {
  std::uint64_t construct_ns = 0;
  std::uint64_t pass_ns = 0;
  bool ok = true;
};

RowRun RunMd5(const Inputs& in, Row row, std::uint64_t inject_ns, MinnowCounters& counters) {
  RowRun run;
  const std::uint64_t t0 = NowNs();
  std::unique_ptr<core::StreamGraft> graft;
  grafts::MinnowMd5Graft* minnow = nullptr;
  if (row == Row::kJit) {
    auto jit = std::make_unique<grafts::MinnowMd5Graft>(JitConfig());
    minnow = jit.get();
    graft = MaybeProbe(std::move(jit), inject_ns, nullptr);
  } else {
    graft = grafts::CreateMd5Graft(TechnologyOf(row));
    minnow = dynamic_cast<grafts::MinnowMd5Graft*>(graft.get());
  }
  run.construct_ns = NowNs() - t0;
  std::uint64_t insns = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const std::uint64_t retired = minnow != nullptr ? minnow->vm().instructions_retired() : 0;
    const std::uint64_t start = NowNs();
    for (std::size_t off = 0; off < in.md5_data.size(); off += kMd5Chunk) {
      graft->Consume(in.md5_data.data() + off, kMd5Chunk);
    }
    const md5::Digest digest = graft->Finish();
    run.pass_ns = NowNs() - start;
    run.ok &= digest == in.md5_digest;
    insns = minnow != nullptr ? minnow->vm().instructions_retired() - retired : 0;
  }
  if (minnow != nullptr) {
    ReadCounters(minnow->vm(), row, insns, counters);
  }
  return run;
}

RowRun RunEviction(const Inputs& in, Row row, MinnowCounters& counters) {
  RowRun run;
  const std::uint64_t t0 = NowNs();
  std::unique_ptr<core::PrioritizationGraft> graft;
  grafts::MinnowEvictionGraft* minnow = nullptr;
  if (row == Row::kJit) {
    auto jit = std::make_unique<grafts::MinnowEvictionGraft>(JitConfig());
    minnow = jit.get();
    graft = std::move(jit);
  } else {
    graft = grafts::CreateEvictionGraft(TechnologyOf(row));
    minnow = dynamic_cast<grafts::MinnowEvictionGraft*>(graft.get());
  }
  for (vmsim::PageId page : in.hot_pages) {
    graft->HotListAdd(page);
  }
  run.construct_ns = NowNs() - t0;
  std::vector<vmsim::PageId> victims(kEvictionCalls);
  std::uint64_t insns = 0;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<vmsim::Frame> frames(kFrames);
    vmsim::LruQueue queue;
    for (std::size_t f = 0; f < kFrames; ++f) {
      frames[f].page = in.frame_pages[f];
      queue.PushMru(&frames[f]);
    }
    const std::uint64_t retired = minnow != nullptr ? minnow->vm().instructions_retired() : 0;
    const std::uint64_t start = NowNs();
    for (std::size_t call = 0; call < kEvictionCalls; ++call) {
      vmsim::Frame* victim = graft->ChooseVictim(queue.head());
      victims[call] = victim->page;
      queue.Touch(victim);
    }
    run.pass_ns = NowNs() - start;
    run.ok &= victims == in.victims;
    insns = minnow != nullptr ? minnow->vm().instructions_retired() - retired : 0;
  }
  if (minnow != nullptr) {
    ReadCounters(minnow->vm(), row, insns, counters);
  }
  return run;
}

RowRun RunLdisk(const Inputs& in, Row row, MinnowCounters& counters) {
  RowRun run;
  const std::uint64_t t0 = NowNs();
  std::unique_ptr<core::BlackBoxGraft> graft;
  grafts::MinnowLogicalDiskGraft* minnow = nullptr;
  if (row == Row::kJit) {
    auto jit = std::make_unique<grafts::MinnowLogicalDiskGraft>(in.geometry, JitConfig());
    minnow = jit.get();
    graft = std::move(jit);
  } else {
    graft = grafts::CreateLogicalDiskGraft(TechnologyOf(row), in.geometry);
    minnow = dynamic_cast<grafts::MinnowLogicalDiskGraft*>(graft.get());
  }
  run.construct_ns = NowNs() - t0;
  std::vector<ldisk::BlockId> placed(kLdiskWrites);
  std::uint64_t insns = 0;
  // The warm pass fills the first half of the log, the measured pass the
  // second; placement is sequential across both.
  for (std::uint64_t pass = 0; pass < 2; ++pass) {
    const std::uint64_t retired = minnow != nullptr ? minnow->vm().instructions_retired() : 0;
    const std::uint64_t start = NowNs();
    for (std::uint64_t i = 0; i < kLdiskWrites; ++i) {
      placed[i] = graft->OnWrite(in.writes[i]);
    }
    run.pass_ns = NowNs() - start;
    insns = minnow != nullptr ? minnow->vm().instructions_retired() - retired : 0;
    for (std::uint64_t i = 0; i < kLdiskWrites; ++i) {
      run.ok &= placed[i] == pass * kLdiskWrites + i;
    }
  }
  for (const auto& [block, physical] : in.translations) {
    run.ok &= graft->Translate(block) == physical;
  }
  if (minnow != nullptr) {
    ReadCounters(minnow->vm(), row, insns, counters);
  }
  return run;
}

}  // namespace

const char* GraftName(Graft graft) {
  switch (graft) {
    case Graft::kMd5: return "md5";
    case Graft::kEviction: return "eviction";
    case Graft::kLdisk: return "ldisk";
    case Graft::kCount: break;
  }
  return "?";
}

const char* RowName(Row row) {
  switch (row) {
    case Row::kC: return "c";
    case Row::kModula3: return "m3";
    case Row::kSfi: return "sfi";
    case Row::kInterp: return "interp";
    case Row::kJit: return "jit";
    case Row::kCount: break;
  }
  return "?";
}

double MatrixResult::MedianRatio(Graft graft, Row row) const {
  return Median(ratio[static_cast<std::size_t>(graft)][static_cast<std::size_t>(row)]);
}

double MatrixResult::GeomeanRatio(Row row) const {
  double log_sum = 0.0;
  for (std::size_t g = 0; g < kGrafts; ++g) {
    log_sum += std::log(MedianRatio(static_cast<Graft>(g), row));
  }
  return std::exp(log_sum / static_cast<double>(kGrafts));
}

MatrixResult RunMatrix(const MatrixConfig& config) {
  const Inputs in = MakeInputs(config.seed);
  MatrixResult result;
  result.eviction_calls = kEvictionCalls;
  const std::uint64_t end = NowNs() + static_cast<std::uint64_t>(config.seconds * 1e9);
  // At least three rounds, so every median has a middle.
  for (std::size_t round = 0; round < 3 || NowNs() < end; ++round) {
    std::uint64_t setup_ns = 0;
    for (std::size_t g = 0; g < kGrafts; ++g) {
      std::array<std::uint64_t, kRows> pass{};
      // Rows take turns going first, so no row always runs on a cold cache.
      for (std::size_t j = 0; j < kRows; ++j) {
        const std::size_t r = (round + j) % kRows;
        const Row row = static_cast<Row>(r);
        MinnowCounters& counters = result.minnow[g];
        RowRun run;
        switch (static_cast<Graft>(g)) {
          case Graft::kMd5: run = RunMd5(in, row, config.inject_ns, counters); break;
          case Graft::kEviction: run = RunEviction(in, row, counters); break;
          default: run = RunLdisk(in, row, counters); break;
        }
        ++result.rows_run;
        result.rows_failed += run.ok ? 0 : 1;
        pass[r] = run.pass_ns;
        setup_ns += run.construct_ns;
        result.pass_ns[g][r].push_back(static_cast<double>(run.pass_ns));
        result.construct_ns[g][r].push_back(static_cast<double>(run.construct_ns));
      }
      for (std::size_t r = 0; r < kRows; ++r) {
        result.ratio[g][r].push_back(static_cast<double>(pass[r]) /
                                     static_cast<double>(std::max<std::uint64_t>(pass[0], 1)));
      }
    }
    result.setup_ns.push_back(static_cast<double>(setup_ns));
    result.rounds = round + 1;
  }
  return result;
}

}  // namespace graftbench
