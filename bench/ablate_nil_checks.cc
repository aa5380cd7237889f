// Ablation A3 — explicit vs trap-based NIL checks in the safe language.
//
// Paper §5.4: on Linux the Modula-3 compiler emitted "a runtime check
// against NIL (location zero) on each pointer access" (150% slowdown on the
// eviction test) because page 0 was readable; on Solaris/Alpha dereferencing
// NIL faulted in hardware, so no check was emitted (10-40% slowdown). The
// paper argues kernels should arrange the trap-based flavor. SafeLangEnvT's
// NilCheckMode reproduces both compilations; this bench measures the delta
// on the pointer-chasing eviction graft (where the paper saw it) and on MD5
// (where array bounds, not NIL checks, dominate).
//
// The third section measures the check-elision verifier (DESIGN.md §14):
// the same grafts on the Minnow interpreter with every check executed vs
// with `elide_checks` proving checks away at load time. Checked and elided
// runs must produce bit-identical results — the binary exits nonzero if the
// FNV checksums diverge, making this bench double as a soundness gate.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "bench/graft_measures.h"
#include "src/core/technology.h"
#include "src/grafts/factory.h"
#include "src/grafts/minnow_grafts.h"
#include "src/minnow/compiler.h"
#include "src/minnow/elide.h"
#include "src/stats/harness.h"
#include "src/stats/running_stats.h"
#include "src/vmsim/frame.h"

namespace {

using core::Technology;

grafts::MinnowConfig MinnowInterp(bool elide) {
  grafts::MinnowConfig config;
  config.fuse = true;
  config.dispatch = minnow::DispatchMode::kThreaded;
  config.elide = elide;
  return config;
}

// Mean time to fingerprint `bytes` through a MinnowMd5Graft; the digest is
// folded into *checksum so checked and elided runs can be diffed.
double MeasureMinnowMd5Us(const grafts::MinnowConfig& config, std::size_t runs,
                          std::size_t bytes, std::uint64_t* checksum) {
  constexpr std::size_t kChunk = 64u << 10;
  std::vector<std::uint8_t> data(bytes);
  std::mt19937_64 rng(1996);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng());
  }
  stats::RunningStats per_pass_us;
  for (std::size_t run = 0; run < runs; ++run) {
    grafts::MinnowMd5Graft graft(config);
    stats::SpinWarmup();
    for (int pass = 0; pass < 2; ++pass) {  // warm pass, then measured pass
      stats::Timer timer;
      for (std::size_t off = 0; off < data.size(); off += kChunk) {
        graft.Consume(data.data() + off, std::min(kChunk, data.size() - off));
      }
      md5::Digest digest = graft.Finish();
      stats::DoNotOptimize(digest);
      if (pass == 1) {
        per_pass_us.Add(timer.ElapsedUs());
        if (checksum != nullptr) {
          *checksum = bench::Checksum(digest.data(), digest.size());
        }
      }
    }
  }
  return per_pass_us.mean();
}

// Mean time of one ChooseVictim call; the victim's page id is folded into
// *checksum.
double MeasureMinnowEvictionUs(const grafts::MinnowConfig& config, std::size_t runs,
                               std::uint64_t* checksum) {
  std::vector<vmsim::Frame> frames(bench::kHotListSize + 64);
  vmsim::LruQueue queue;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].page = 100000 + i;  // never hot
    queue.PushMru(&frames[i]);
  }
  stats::RunningStats per_call_us;
  for (std::size_t run = 0; run < runs; ++run) {
    grafts::MinnowEvictionGraft graft(config);
    for (int p = 1; p <= bench::kHotListSize; ++p) {
      graft.HotListAdd(static_cast<vmsim::PageId>(p));
    }
    const auto measurement = stats::MeasureAutoScaled(3, 5000.0, [&](std::size_t iters) {
      vmsim::Frame* sink = nullptr;
      for (std::size_t i = 0; i < iters; ++i) {
        sink = graft.ChooseVictim(queue.head());
      }
      stats::DoNotOptimize(sink);
    });
    per_call_us.Add(measurement.mean_us());
    vmsim::Frame* victim = graft.ChooseVictim(queue.head());
    const std::uint64_t page = victim != nullptr ? victim->page : 0;
    if (checksum != nullptr) {
      *checksum = bench::Checksum(&page, sizeof(page));
    }
  }
  return per_call_us.mean();
}

// Static certificate counts for one graft source, for the table footer.
minnow::ElideStats StaticElision(minnow::Program program) {
  return minnow::ElideChecks(program);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::Options::Parse(argc, argv);
  bench::PrintHeader("Ablation A3: explicit vs trap-based NIL checks", "paper §5.4");

  const std::size_t runs = options.full ? 20 : 8;
  const std::size_t md5_bytes = options.full ? (1u << 20) : (256u << 10);

  const double c_evict = bench::MeasureEvictionUs(Technology::kC, runs);
  const double explicit_evict = bench::MeasureEvictionUs(Technology::kModula3, runs);
  const double trap_evict = bench::MeasureEvictionUs(Technology::kModula3Trap, runs);

  const double c_md5 = bench::MeasureMd5Us(Technology::kC, runs, md5_bytes);
  const double explicit_md5 = bench::MeasureMd5Us(Technology::kModula3, runs, md5_bytes);
  const double trap_md5 = bench::MeasureMd5Us(Technology::kModula3Trap, runs, md5_bytes);

  std::printf("%-26s %14s %14s %12s\n", "graft / codegen", "time", "norm to C",
              "check overhead");
  std::printf("%-26s %12.3fus %13.2fx %11s\n", "eviction, explicit NIL", explicit_evict,
              explicit_evict / c_evict, "-");
  std::printf("%-26s %12.3fus %13.2fx %10.1f%%\n", "eviction, trap-based", trap_evict,
              trap_evict / c_evict, 100.0 * (explicit_evict - trap_evict) / trap_evict);
  std::printf("%-26s %12.0fus %13.2fx %11s\n", "md5, explicit NIL", explicit_md5,
              explicit_md5 / c_md5, "-");
  std::printf("%-26s %12.0fus %13.2fx %10.1f%%\n", "md5, trap-based", trap_md5,
              trap_md5 / c_md5, 100.0 * (explicit_md5 - trap_md5) / trap_md5);

  std::printf("\nPaper's finding: Linux (explicit) 2.5x vs Alpha/Solaris (trap) 1.1x on the\n");
  std::printf("eviction test; MD5 differs little because its checks are array bounds. The\n");
  std::printf("reproduction shows the same asymmetry (magnitudes are 2026-compiler-sized).\n");

  bench::PrintSection("check elision: interpreter checks proved away at load time");

  std::uint64_t evict_checked_sum = 0;
  std::uint64_t evict_elided_sum = 0;
  std::uint64_t md5_checked_sum = 0;
  std::uint64_t md5_elided_sum = 0;
  const double minnow_evict_checked =
      MeasureMinnowEvictionUs(MinnowInterp(false), runs, &evict_checked_sum);
  const double minnow_evict_elided =
      MeasureMinnowEvictionUs(MinnowInterp(true), runs, &evict_elided_sum);
  const double minnow_md5_checked =
      MeasureMinnowMd5Us(MinnowInterp(false), runs, md5_bytes, &md5_checked_sum);
  const double minnow_md5_elided =
      MeasureMinnowMd5Us(MinnowInterp(true), runs, md5_bytes, &md5_elided_sum);

  std::printf("%-26s %14s %14s %12s\n", "graft / codegen", "time", "vs checked",
              "check overhead");
  std::printf("%-26s %12.3fus %13s %11s\n", "eviction, checked", minnow_evict_checked, "-", "-");
  std::printf("%-26s %12.3fus %13.2fx %10.1f%%\n", "eviction, elided", minnow_evict_elided,
              minnow_evict_elided / minnow_evict_checked,
              100.0 * (minnow_evict_checked - minnow_evict_elided) / minnow_evict_elided);
  std::printf("%-26s %12.0fus %13s %11s\n", "md5, checked", minnow_md5_checked, "-", "-");
  std::printf("%-26s %12.0fus %13.2fx %10.1f%%\n", "md5, elided", minnow_md5_elided,
              minnow_md5_elided / minnow_md5_checked,
              100.0 * (minnow_md5_checked - minnow_md5_elided) / minnow_md5_elided);

  {
    minnow::HostDecl lru_page;
    lru_page.name = "lru_page";
    lru_page.params = {minnow::Type::Int()};
    lru_page.ret = minnow::Type::Int();
    const auto evict_stats =
        StaticElision(minnow::Compile(grafts::MinnowEvictionSource(), {lru_page}));
    const auto md5_stats = StaticElision(minnow::Compile(grafts::MinnowMd5Source()));
    std::printf("\ncertificates: eviction %llu/%llu checks elided, md5 %llu/%llu\n",
                static_cast<unsigned long long>(evict_stats.checks_elided),
                static_cast<unsigned long long>(evict_stats.checks_elided +
                                                evict_stats.checks_retained),
                static_cast<unsigned long long>(md5_stats.checks_elided),
                static_cast<unsigned long long>(md5_stats.checks_elided +
                                                md5_stats.checks_retained));
  }

  bench::JsonReport report("nil_checks");
  report.AddUs("evict_minnow_checked", runs, minnow_evict_checked, evict_checked_sum);
  report.AddUs("evict_minnow_elided", runs, minnow_evict_elided, evict_elided_sum);
  report.AddUs("md5_minnow_checked", runs, minnow_md5_checked, md5_checked_sum);
  report.AddUs("md5_minnow_elided", runs, minnow_md5_elided, md5_elided_sum);
  report.Write();

  if (evict_checked_sum != evict_elided_sum || md5_checked_sum != md5_elided_sum) {
    std::fprintf(stderr,
                 "FAIL: elided run diverged from checked "
                 "(evict %llx vs %llx, md5 %llx vs %llx)\n",
                 static_cast<unsigned long long>(evict_checked_sum),
                 static_cast<unsigned long long>(evict_elided_sum),
                 static_cast<unsigned long long>(md5_checked_sum),
                 static_cast<unsigned long long>(md5_elided_sum));
    return 1;
  }
  return 0;
}
