// Table 6 — Logical Disk.
//
// "Time to handle bookkeeping for 262,144 writes to a Logical Disk. The
// time is normalized to compiled C code. The per-block overhead is how much
// time must be saved on each write in order for the graft to break even."
//
// Workload per §5.6: 1GB disk, 4KB blocks, 64KB segments, write stream
// skewed 80/20, no cleaner, exactly num_blocks iterations. Tcl is omitted
// from the table as in the paper (its two prior results disqualify it);
// the Upcall row realizes the paper's "one upcall per block write" analysis
// with a real upcall engine.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/graft_measures.h"
#include "src/core/technology.h"
#include "src/diskmod/disk_model.h"
#include "src/ldisk/logical_disk.h"
#include "src/stats/break_even.h"
#include "src/stats/table.h"

namespace {

using core::Technology;

void PrintPaperTable() {
  bench::PrintSection("Paper's Table 6 (for reference)");
  std::printf("Platform  row         C       Java     Modula-3  Omniware\n");
  std::printf("Alpha     raw         0.74s   N.A.     1.3s      N.A.\n");
  std::printf("HP-UX     raw         1.3s    32.2s    2.1s      N.A.\n");
  std::printf("Linux     raw         1.3s    46.5s    1.7s      N.A.\n");
  std::printf("Solaris   raw         1.9s    24.6s    2.9s      2.2s\n");
  std::printf("Solaris   normalized  1.0     13       1.5       1.16\n");
  std::printf("Solaris   per block   7.2us   94us     11.1us    8.4us\n");
  std::printf("(Tcl omitted by the paper; upcall estimated at ~10us/write, \"relatively\n");
  std::printf(" close to compiled code\".)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::Options::Parse(argc, argv);
  bench::PrintHeader("Table 6: Logical Disk", "Small & Seltzer 1996, Table 6 + §5.6");
  PrintPaperTable();

  ldisk::Geometry geometry;  // the paper's exact geometry
  const std::uint64_t writes = geometry.num_blocks;  // 262,144
  const std::size_t runs = options.full ? 10 : 3;

  const auto disk = diskmod::PaperEraDisk();
  const double seek_us = disk.seek_ms * 1000.0;

  std::vector<stats::TechnologyResult> rows;
  bench::JsonReport report("table6_ldisk");
  for (const Technology technology : core::kAllTechnologies) {
    if (technology == Technology::kTcl) {
      stats::TechnologyResult row;
      row.name = "Tcl";
      row.not_run = true;  // as in the paper
      rows.push_back(row);
      continue;
    }

    stats::TechnologyResult row;
    row.name = core::TechnologyName(technology);
    row.raw_us = bench::MeasureLdiskUs(technology, runs, writes, &row.stddev_pct);
    row.per_block_us = stats::PerBlockOverheadUs(row.raw_us, static_cast<double>(writes));
    rows.push_back(row);
    report.AddUs("ldisk_262144/" + row.name, runs, row.raw_us, bench::LdiskChecksum(technology));
  }

  std::printf("%s\n", stats::RenderTechnologyTable(
                          "Reproduction: bookkeeping for 262,144 skewed writes", "Host", rows,
                          "C", "per block")
                          .c_str());

  bench::PrintSection("Break-even vs seek savings (paper §5.6)");
  std::printf("a paper-era seek costs %.0fus; batching 16 blocks/segment saves ~15/16 of the\n",
              seek_us);
  std::printf("per-block random-access cost. Overhead as %% of one seek:\n");
  for (const auto& row : rows) {
    if (row.not_run || !row.per_block_us.has_value()) {
      continue;
    }
    std::printf("  %-16s %8.3fus/write = %6.3f%% of a seek\n", row.name.c_str(),
                *row.per_block_us, 100.0 * *row.per_block_us / seek_us);
  }
  std::printf("\n(Paper: compiled technologies ~1%% of a seek; Java ~10%%, workable if one\n");
  std::printf(" seek is saved every ten writes.)\n");
  report.Write();
  return 0;
}
