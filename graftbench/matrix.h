// The paper's cost-vs-C table, in process: the three grafts (md5 stream,
// eviction prioritization, ldisk black box) under each extension
// technology, interleaved round by round and normalized to C in the same
// round.

#ifndef GRAFTBENCH_MATRIX_H_
#define GRAFTBENCH_MATRIX_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace graftbench {

enum class Graft : std::size_t { kMd5, kEviction, kLdisk, kCount };
// C first: every other row is reported as its cost over this one.
enum class Row : std::size_t { kC, kModula3, kSfi, kInterp, kJit, kCount };

inline constexpr std::size_t kGrafts = static_cast<std::size_t>(Graft::kCount);
inline constexpr std::size_t kRows = static_cast<std::size_t>(Row::kCount);

const char* GraftName(Graft graft);
const char* RowName(Row row);

struct MatrixConfig {
  std::uint64_t seed = 1;
  double seconds = 4.0;
  // Known slowdown: the JIT md5 row spins this long per 64KB Consume.
  std::uint64_t inject_ns = 0;
};

// Minnow counters of one graft, read after a measured pass.
struct MinnowCounters {
  std::uint64_t jit_bytes = 0;
  std::uint64_t jit_deopts = 0;
  std::uint64_t jit_bailouts = 0;
  std::uint64_t checks_elided = 0;
  std::uint64_t insns = 0;  // interpreter instructions retired in one pass
};

struct MatrixResult {
  std::size_t rounds = 0;
  std::uint64_t rows_run = 0;
  std::uint64_t rows_failed = 0;  // result differs from the C row
  // Per graft and row, one measured pass per round (ns) and one
  // construction per round (ns).
  std::array<std::array<std::vector<double>, kRows>, kGrafts> pass_ns;
  std::array<std::array<std::vector<double>, kRows>, kGrafts> construct_ns;
  // Per graft and row, the per-round cost over that round's C pass.
  std::array<std::array<std::vector<double>, kRows>, kGrafts> ratio;
  std::array<MinnowCounters, kGrafts> minnow;
  std::vector<double> setup_ns;  // per round: every instance's construction
  std::size_t eviction_calls = 0;  // ChooseVictim calls per pass

  double MedianRatio(Graft graft, Row row) const;
  // Geometric mean over the three grafts of the median ratios.
  double GeomeanRatio(Row row) const;
};

MatrixResult RunMatrix(const MatrixConfig& config);

}  // namespace graftbench

#endif  // GRAFTBENCH_MATRIX_H_
