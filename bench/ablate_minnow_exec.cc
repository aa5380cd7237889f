// Ablation A1 — Minnow execution engines, dispatch loops, and fusion.
//
// The paper (§4.3, §6) expects runtime code generation to carry Java from
// ~30-100x slower than C toward compiled speed. Minnow runs the *same
// verified bytecode* two ways: the stack interpreter (a token-threaded
// computed-goto hot loop with superinstruction fusion) and the load-time
// template JIT (minnow/jit.h), which is Technology::kJavaTranslated — the
// paper's "compiled Java" row.
//
// Three ablations:
//   A1a  interpreter vs compiled Java (the JIT) vs native C (all three
//        grafts)
//   A1c  the interpreter's own axes: switch vs threaded dispatch, with and
//        without superinstruction fusion — the gate is >= 1.5x on the
//        MD5-stream graft for (threaded + fused) over the plain switch loop,
//        with identical digests
//   A1d  the template JIT with the check-elision certificate vs the
//        threaded + fused interpreter — the gate is >= 5x on the MD5-stream
//        graft — plus its normalized cost against SFI on all three grafts
//        (the paper's "compiled Java lands within striking distance of SFI"
//        claim)
//
// A1a and A1d print from one run of graftbench's paper matrix
// (graftbench/matrix.h), the same estimator the repository benchmark
// reports: each round builds a fresh instance of every row, runs a warm
// pass and a measured pass, and divides the measured pass by that round's C
// pass; rows take turns going first. The tables show the medians of those
// per-round ratios and of the pass times, and every row's output is checked
// against an oracle. The matrix has no switch-dispatch rows, so A1c times
// its four configurations the same way: interleaved round by round in
// rotated order, each pass divided by that round's switch/raw pass, the
// median over rounds reported. One unmeasured warm-up round runs first.
//
// A final section prints the opcode and opcode-pair frequency profile the
// fusion set was selected from (the same counters graftd telemetry exports).
//
// Exit status: nonzero if a matrix row differs from its oracle, an A1c
// digest is wrong, or the A1c or A1d gate fails.

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "graftbench/common.h"
#include "graftbench/matrix.h"
#include "src/grafts/minnow_grafts.h"
#include "src/md5/md5.h"
#include "src/stats/harness.h"
#include "src/vmsim/frame.h"

namespace {

using graftbench::Graft;
using graftbench::MatrixResult;
using graftbench::Median;
using graftbench::NowNs;
using graftbench::Row;

constexpr std::size_t kMd5Chunk = 64u << 10;
constexpr int kHotList = 64;                  // the paper's average hot-list length
constexpr std::size_t kEvictionCalls = 2048;  // ChooseVictim calls per pass

constexpr Graft kPaperGrafts[] = {Graft::kMd5, Graft::kEviction, Graft::kLdisk};

double MedianPassUs(const MatrixResult& matrix, Graft graft, Row row) {
  return Median(matrix.pass_ns[static_cast<std::size_t>(graft)][static_cast<std::size_t>(row)]) /
         1e3;
}

grafts::MinnowConfig InterpConfig(bool threaded, bool fuse) {
  grafts::MinnowConfig config;
  config.fuse = fuse;
  config.dispatch = threaded ? minnow::DispatchMode::kThreaded : minnow::DispatchMode::kSwitch;
  return config;
}

// A fresh MinnowMd5Graft, a warm pass and a measured pass over `data`;
// returns the measured pass (ns) and its digest.
std::uint64_t Md5PassNs(const grafts::MinnowConfig& config, const std::vector<std::uint8_t>& data,
                        md5::Digest& digest) {
  grafts::MinnowMd5Graft graft(config);
  std::uint64_t pass_ns = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const std::uint64_t start = NowNs();
    for (std::size_t off = 0; off < data.size(); off += kMd5Chunk) {
      graft.Consume(data.data() + off, std::min(kMd5Chunk, data.size() - off));
    }
    digest = graft.Finish();
    pass_ns = NowNs() - start;
  }
  return pass_ns;
}

// A fresh MinnowEvictionGraft with a 64-page hot list, a warm pass and a
// measured pass of ChooseVictim calls on a queue of cold frames (each call
// searches the whole hot list); returns the measured pass (ns).
std::uint64_t EvictionPassNs(const grafts::MinnowConfig& config, vmsim::LruQueue& queue) {
  grafts::MinnowEvictionGraft graft(config);
  for (int p = 1; p <= kHotList; ++p) {
    graft.HotListAdd(static_cast<vmsim::PageId>(p));
  }
  std::uint64_t pass_ns = 0;
  for (int pass = 0; pass < 2; ++pass) {
    vmsim::Frame* sink = nullptr;
    const std::uint64_t start = NowNs();
    for (std::size_t call = 0; call < kEvictionCalls; ++call) {
      sink = graft.ChooseVictim(queue.head());
    }
    pass_ns = NowNs() - start;
    stats::DoNotOptimize(sink);
  }
  return pass_ns;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::Options::Parse(argc, argv);
  bench::PrintHeader("Ablation A1: Minnow engines, dispatch loops, fusion",
                     "paper §4.3 / §6 ('compiled Java')");
  bench::JsonReport report("ablate_minnow_exec");

  graftbench::MatrixConfig matrix_config;
  matrix_config.seconds = options.full ? 10.0 : 3.0;
  const MatrixResult matrix = graftbench::RunMatrix(matrix_config);
  const bool matrix_ok = matrix.rows_failed == 0;
  for (const Graft graft : kPaperGrafts) {
    for (std::size_t r = 0; r < graftbench::kRows; ++r) {
      const Row row = static_cast<Row>(r);
      report.AddUs(std::string(graftbench::GraftName(graft)) + "/" + graftbench::RowName(row),
                   matrix.rounds, MedianPassUs(matrix, graft, row), 0);
    }
  }

  // --- A1a: interpreter vs compiled Java (the JIT) vs native ---
  bench::PrintSection("A1a: interpreter vs compiled Java (Java/translated, the JIT)");
  std::printf("paper matrix: %zu rounds, %llu rows checked, %llu differ from their oracle\n",
              matrix.rounds, static_cast<unsigned long long>(matrix.rows_run),
              static_cast<unsigned long long>(matrix.rows_failed));
  std::printf("median pass times and median per-round ratios (%zu calls per eviction pass)\n",
              matrix.eviction_calls);
  std::printf("%-10s %14s %12s %12s %10s %18s\n", "graft", "interpreter", "compiled", "native C",
              "speedup", "remaining gap vs C");
  for (const Graft graft : kPaperGrafts) {
    const double interp_x_c = matrix.MedianRatio(graft, Row::kInterp);
    const double jit_x_c = matrix.MedianRatio(graft, Row::kJit);
    std::printf("%-10s %12.1fus %10.1fus %10.1fus %9.2fx %17.2fx\n", graftbench::GraftName(graft),
                MedianPassUs(matrix, graft, Row::kInterp), MedianPassUs(matrix, graft, Row::kJit),
                MedianPassUs(matrix, graft, Row::kC), interp_x_c / jit_x_c, jit_x_c);
  }
  std::printf("\ncompiled footprint (after a measured pass):\n");
  for (const Graft graft : kPaperGrafts) {
    const graftbench::MinnowCounters& c = matrix.minnow[static_cast<std::size_t>(graft)];
    std::printf("  %-10s %8llu bytes of code, %llu deopts, %llu bailouts, %llu checks elided\n",
                graftbench::GraftName(graft), static_cast<unsigned long long>(c.jit_bytes),
                static_cast<unsigned long long>(c.jit_deopts),
                static_cast<unsigned long long>(c.jit_bailouts),
                static_cast<unsigned long long>(c.checks_elided));
  }

  // --- A1c: dispatch loop and fusion, the interpreter's own axes ---
  bench::PrintSection("A1c: switch vs threaded dispatch x superinstruction fusion");
  if (!minnow::VM::ThreadedDispatchAvailable()) {
    std::printf("threaded dispatch NOT COMPILED IN (built with -DGRAFTLAB_THREADED_DISPATCH=OFF\n");
    std::printf("or a non-GNU compiler); 'threaded' rows below fall back to the switch loop.\n");
  }
  struct Config {
    const char* name;
    const char* slug;
    bool threaded;
    bool fuse;
  };
  constexpr std::size_t kConfigs = 4;
  const Config configs[kConfigs] = {
      {"switch, raw bytecode", "switch_raw", false, false},
      {"switch + fusion", "switch_fused", false, true},
      {"threaded, raw bytecode", "threaded_raw", true, false},
      {"threaded + fusion", "threaded_fused", true, true},
  };
  const std::size_t rounds = options.full ? 25 : 9;
  std::vector<std::uint8_t> data(options.full ? (256u << 10) : (64u << 10));
  graftbench::SplitMix rng(1996);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  const md5::Digest expected = md5::Sum({data.data(), data.size()});
  std::vector<vmsim::Frame> frames(kHotList + 64);
  vmsim::LruQueue queue;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].page = 100000 + i;  // never hot
    queue.PushMru(&frames[i]);
  }

  // Per configuration: the per-round speedup over switch/raw and the pass
  // times, for md5 and eviction.
  std::array<std::vector<double>, kConfigs> md5_speedup, evict_speedup, md5_ns, evict_ns;
  std::array<std::uint64_t, kConfigs> md5_checksum{};
  bool digests_ok = true;
  // Round 0 warms up and is not measured: the first passes ran cold (the
  // first switch/raw md5 pass read 48.6 ms against 28-33 ms later), which
  // put one outlier into every per-round spread. Its digests still count.
  for (std::size_t round = 0; round <= rounds; ++round) {
    std::array<std::uint64_t, kConfigs> md5_pass{}, evict_pass{};
    for (std::size_t j = 0; j < kConfigs; ++j) {
      const std::size_t i = (round + j) % kConfigs;
      const grafts::MinnowConfig config = InterpConfig(configs[i].threaded, configs[i].fuse);
      md5::Digest digest{};
      md5_pass[i] = Md5PassNs(config, data, digest);
      digests_ok &= digest == expected;
      md5_checksum[i] = bench::Checksum(digest.data(), digest.size());
      evict_pass[i] = EvictionPassNs(config, queue);
    }
    if (round == 0) {
      continue;
    }
    for (std::size_t i = 0; i < kConfigs; ++i) {
      md5_speedup[i].push_back(static_cast<double>(md5_pass[0]) / static_cast<double>(md5_pass[i]));
      evict_speedup[i].push_back(static_cast<double>(evict_pass[0]) /
                                 static_cast<double>(evict_pass[i]));
      md5_ns[i].push_back(static_cast<double>(md5_pass[i]));
      evict_ns[i].push_back(static_cast<double>(evict_pass[i]) / kEvictionCalls);
    }
  }
  std::printf("%zu rounds; median pass times and median per-round speedup over switch/raw\n",
              rounds);
  std::printf("%-24s %14s %10s %14s %10s\n", "configuration", "md5", "speedup", "eviction",
              "speedup");
  for (std::size_t i = 0; i < kConfigs; ++i) {
    std::printf("%-24s %12.1fus %9.2fx %12.1fns %9.2fx\n", configs[i].name, Median(md5_ns[i]) / 1e3,
                Median(md5_speedup[i]), Median(evict_ns[i]), Median(evict_speedup[i]));
    report.Add(std::string("md5_dispatch/") + configs[i].slug, rounds, Median(md5_ns[i]),
               md5_checksum[i]);
    report.Add(std::string("eviction_dispatch/") + configs[i].slug, rounds, Median(evict_ns[i]), 0);
  }
  const double dispatch_speedup = Median(md5_speedup[kConfigs - 1]);
  const bool dispatch_ok = dispatch_speedup >= 1.5 && digests_ok;
  std::printf("\ndigests identical to md5::Sum in every configuration: %s\n",
              digests_ok ? "yes" : "NO (BUG)");
  std::printf("threaded+fusion vs switch baseline: md5 %.2fx, eviction %.2fx -> %s "
              "(target >= 1.5x on md5)\n",
              dispatch_speedup, Median(evict_speedup[kConfigs - 1]),
              dispatch_speedup >= 1.5 ? "PASS" : "FAIL");

  // --- A1d: the load-time template JIT vs the threaded + fused interpreter ---
  bench::PrintSection("A1d: verify-then-compile template JIT");
  bool jit_gate_ok = true;
  if (!minnow::VM::JitDispatchAvailable()) {
    std::printf("JIT NOT COMPILED IN (built with -DGRAFTLAB_JIT=OFF or a non-x86-64/non-GNU\n");
    std::printf("target); DispatchMode::kJit degrades to the interpreter and the >= 5x gate\n");
    std::printf("is skipped.\n");
  } else {
    // The JIT row reuses the check-elision certificate (minnow/elide.h): sites
    // the load-time proof certifies compile to the unchecked `.nc` forms, so
    // the native code carries only the checks the proof could not discharge.
    // The interpreter and JIT columns are A1a's; this adds SFI.
    std::printf("%-10s %12s %13s\n", "graft", "sfi", "jit cost/sfi");
    for (const Graft graft : kPaperGrafts) {
      std::printf("%-10s %10.1fus %12.2fx\n", graftbench::GraftName(graft),
                  MedianPassUs(matrix, graft, Row::kSfi),
                  matrix.MedianRatio(graft, Row::kJit) / matrix.MedianRatio(graft, Row::kSfi));
    }
    const double jit_speedup =
        matrix.MedianRatio(Graft::kMd5, Row::kInterp) / matrix.MedianRatio(Graft::kMd5, Row::kJit);
    jit_gate_ok = jit_speedup >= 5.0;
    std::printf("\njit vs threaded+fusion on md5: %.2fx -> %s (target >= 5x; paper target for\n"
                "jit cost/sfi: within 2-5x)\n",
                jit_speedup, jit_gate_ok ? "PASS" : "FAIL");
  }
  std::printf("every matrix row matches its oracle: %s\n", matrix_ok ? "yes" : "NO (BUG)");

  // --- Opcode frequency profile (the fusion-set evidence) ---
  bench::PrintSection("Opcode profile, MD5 graft (raw bytecode, profiled run)");
  {
    auto config = InterpConfig(false, false);
    config.profile_opcodes = true;
    grafts::MinnowMd5Graft graft(config);
    std::vector<std::uint8_t> probe(16u << 10, 0x55);
    graft.Consume(probe.data(), probe.size());
    md5::Digest digest = graft.Finish();
    stats::DoNotOptimize(digest);
    std::printf("top opcodes:\n");
    std::size_t shown = 0;
    for (const auto& [name, count] : graft.vm().OpcodeCounts()) {
      if (++shown > 10) break;
      std::printf("  %-16s %12llu\n", name.c_str(), static_cast<unsigned long long>(count));
    }
    std::printf("top adjacent pairs (fusion candidates):\n");
    for (const auto& [name, count] : graft.vm().OpcodePairCounts(10)) {
      std::printf("  %-28s %12llu\n", name.c_str(), static_cast<unsigned long long>(count));
    }
  }
  std::printf("\nSee tests/conformance_test.cc and tests/minnow_dispatch_fuzz_test.cc for the\n");
  std::printf("differential-correctness evidence.\n");
  report.Write();
  return (matrix_ok && dispatch_ok && jit_gate_ok) ? 0 : 1;
}
