// Shared graft measurements used by the table and ablation benches.
//
// Each run constructs a FRESH graft instance: a 64-node pointer chase swings
// 2-3x with allocation layout on modern cores, so per-instance layout must
// be sampled into the mean (the paper's 30-runs methodology, applied to the
// one source of variance 1995 didn't have to worry about).

#ifndef GRAFTLAB_BENCH_GRAFT_MEASURES_H_
#define GRAFTLAB_BENCH_GRAFT_MEASURES_H_

#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/technology.h"
#include "src/grafts/factory.h"
#include "src/ldisk/logical_disk.h"
#include "src/md5/md5.h"
#include "src/stats/harness.h"
#include "src/stats/running_stats.h"
#include "src/vmsim/frame.h"

namespace bench {

inline constexpr int kHotListSize = 64;  // the paper's average hot-list length

// Mean time of one ChooseVictim call (the Table 2 operation: one full
// hot-list search, cold candidate).
inline double MeasureEvictionUs(core::Technology technology, std::size_t runs,
                                double* stddev_pct = nullptr) {
  std::vector<vmsim::Frame> frames(kHotListSize + 64);
  vmsim::LruQueue queue;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].page = 100000 + i;  // never hot
    queue.PushMru(&frames[i]);
  }

  const double target_us = technology == core::Technology::kTcl ? 20000.0 : 5000.0;
  stats::RunningStats per_call_us;
  for (std::size_t run = 0; run < runs; ++run) {
    auto graft = grafts::CreateEvictionGraft(technology);
    for (int p = 1; p <= kHotListSize; ++p) {
      graft->HotListAdd(static_cast<vmsim::PageId>(p));
    }
    const auto measurement = stats::MeasureAutoScaled(3, target_us, [&](std::size_t iters) {
      vmsim::Frame* sink = nullptr;
      for (std::size_t i = 0; i < iters; ++i) {
        sink = graft->ChooseVictim(queue.head());
      }
      stats::DoNotOptimize(sink);
    });
    per_call_us.Add(measurement.mean_us());
  }
  if (stddev_pct != nullptr) {
    *stddev_pct = per_call_us.stddev_percent();
  }
  return per_call_us.mean();
}

// Mean time to fingerprint `bytes` of data, delivered in 64KB chunks.
inline double MeasureMd5Us(core::Technology technology, std::size_t runs, std::size_t bytes,
                           double* stddev_pct = nullptr) {
  constexpr std::size_t kChunk = 64u << 10;
  std::vector<std::uint8_t> data(bytes);
  std::mt19937_64 rng(1996);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng());
  }

  stats::RunningStats per_pass_us;
  for (std::size_t run = 0; run < runs; ++run) {
    auto graft = grafts::CreateMd5Graft(technology);
    stats::SpinWarmup();
    // Warm pass, then measured pass, on this instance.
    for (int pass = 0; pass < 2; ++pass) {
      stats::Timer timer;
      for (std::size_t off = 0; off < data.size(); off += kChunk) {
        graft->Consume(data.data() + off, std::min(kChunk, data.size() - off));
      }
      md5::Digest digest = graft->Finish();
      stats::DoNotOptimize(digest);
      if (pass == 1) {
        per_pass_us.Add(timer.ElapsedUs());
      }
    }
  }
  if (stddev_pct != nullptr) {
    *stddev_pct = per_pass_us.stddev_percent();
  }
  return per_pass_us.mean();
}

// Mean time of the bookkeeping for `writes` skewed block writes (fresh
// graft per run — the log starts empty, as in the paper). The write stream
// is drawn before the timer, so only the graft's OnWrite calls are timed.
// Log-structured placement is sequential; a graft that places any write
// elsewhere ends the process with exit status 1.
inline double MeasureLdiskUs(core::Technology technology, std::size_t runs,
                             std::uint64_t writes, double* stddev_pct = nullptr) {
  ldisk::Geometry geometry;
  geometry.num_blocks = writes;
  ldisk::SkewedWorkload workload(geometry, /*seed=*/80204);
  std::vector<ldisk::BlockId> stream(writes);
  for (auto& block : stream) {
    block = workload.Next();
  }
  std::vector<ldisk::BlockId> placed(writes);
  stats::RunningStats per_run_us;
  for (std::size_t run = 0; run < runs; ++run) {
    auto graft = grafts::CreateLogicalDiskGraft(technology, geometry);
    stats::SpinWarmup();
    stats::Timer timer;
    for (std::uint64_t i = 0; i < writes; ++i) {
      placed[i] = graft->OnWrite(stream[i]);
    }
    per_run_us.Add(timer.ElapsedUs());
    for (std::uint64_t i = 0; i < writes; ++i) {
      if (placed[i] != i) {
        std::fprintf(stderr, "ldisk/%s: write %llu placed at block %llu, expected %llu\n",
                     core::TechnologyName(technology), static_cast<unsigned long long>(i),
                     static_cast<unsigned long long>(placed[i]),
                     static_cast<unsigned long long>(i));
        std::exit(1);
      }
    }
  }
  if (stddev_pct != nullptr) {
    *stddev_pct = per_run_us.stddev_percent();
  }
  return per_run_us.mean();
}

// --- Result checksums for the BENCH_*.json reports ---
//
// Each runs a short seeded trace of the graft shape and folds the
// observable outputs. Two configurations computing the same semantics
// produce the same checksum, so scripts can diff BENCH files across
// technologies, dispatch modes and hosts without re-deriving the results.
// The traces are deliberately tiny (they also run under Tcl).

inline std::uint64_t EvictionChecksum(core::Technology technology) {
  auto graft = grafts::CreateEvictionGraft(technology);
  std::vector<vmsim::Frame> frames(16);
  vmsim::LruQueue queue;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].page = 70 + i;
    queue.PushMru(&frames[i]);
  }
  std::mt19937 rng(555);
  std::uint64_t hash = 0;
  for (int trial = 0; trial < 12; ++trial) {
    if (rng() % 2 == 0) {
      graft->HotListAdd(70 + rng() % frames.size());
    }
    vmsim::Frame* victim = graft->ChooseVictim(queue.head());
    const std::uint64_t page = victim != nullptr ? victim->page : ~0ull;
    hash = Checksum(&page, sizeof(page)) ^ (hash << 1);
  }
  return hash;
}

inline std::uint64_t Md5Checksum(core::Technology technology) {
  auto graft = grafts::CreateMd5Graft(technology);
  std::vector<std::uint8_t> data(600);
  std::mt19937 rng(555);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng());
  }
  for (std::size_t off = 0; off < data.size(); off += 77) {
    graft->Consume(data.data() + off, std::min<std::size_t>(77, data.size() - off));
  }
  const md5::Digest digest = graft->Finish();
  return Checksum(digest.data(), digest.size());
}

inline std::uint64_t LdiskChecksum(core::Technology technology) {
  ldisk::Geometry geometry;
  geometry.num_blocks = 128;
  geometry.blocks_per_segment = 16;
  auto graft = grafts::CreateLogicalDiskGraft(technology, geometry);
  std::mt19937 rng(555);
  std::uint64_t hash = 0;
  for (int i = 0; i < 64; ++i) {
    const ldisk::BlockId physical = graft->OnWrite(rng() % 32);
    hash = Checksum(&physical, sizeof(physical)) ^ (hash << 1);
  }
  for (std::uint64_t l = 0; l < 32; ++l) {
    const ldisk::BlockId physical = graft->Translate(l);
    hash = Checksum(&physical, sizeof(physical)) ^ (hash << 1);
  }
  return hash;
}

}  // namespace bench

#endif  // GRAFTLAB_BENCH_GRAFT_MEASURES_H_
