// Table 1 — Signal Handling Time, plus the upcall measurements of §5.3.
//
// "We measure the time required to send twenty signals to a child process
// that handled the signals, then subtract the time required to send twenty
// signals to a child process that ignores the signals. The difference is
// divided by the number of signals to give a per-signal handling time."
//
// The paper also reports a hand-built upcall at ~60% of signal time
// (BSD/OS: 63.1us signal, 37.2us upcall); the upcall engine (a forked
// server reached through a shared-page mailbox) plays that role here, in
// the same run as the signal figure.
//
// Exit status 1 when handling the signals does not cost more than ignoring
// them (a non-positive per-signal figure).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/stats/harness.h"
#include "src/upcall/signal_bench.h"
#include "src/upcall/upcall_engine.h"

int main(int argc, char** argv) {
  const auto options = bench::Options::Parse(argc, argv);
  bench::PrintHeader("Table 1: Signal Handling Time", "Small & Seltzer 1996, Table 1 + §5.3");

  bench::PrintSection("Paper's Table 1 (for reference)");
  std::printf("Alpha    19.5us(7.5%%)\n");
  std::printf("HP-UX    25.8us(1.4%%)\n");
  std::printf("Linux    55.9us(0.1%%)\n");
  std::printf("Solaris  40.3us(3.8%%)\n");
  std::printf("(BSD/OS 486: signal 63.1us; hand-built upcall 37.2us, ~40%% quicker)\n\n");

  const std::size_t runs = options.full ? 30 : 10;
  const std::size_t rounds = options.full ? 1000 : 200;
  bench::JsonReport report("table1_signals");

  bench::PrintSection("Reproduction (this host)");
  const auto signal_result = upcall::MeasureSignalHandling(runs, rounds);
  if (signal_result.ok) {
    report.AddUs("signal_handling", runs * rounds, signal_result.per_signal_us, 0);
  }
  if (signal_result.ok) {
    std::printf("Host signal handling time : %s\n",
                stats::FormatTimeUs(signal_result.per_signal_us, signal_result.stddev_pct)
                    .c_str());
    std::printf("  (handled round %s vs ignored round %s, difference / 20 signals)\n",
                stats::FormatTimeUs(signal_result.handled_us / static_cast<double>(rounds), 0.0)
                    .c_str(),
                stats::FormatTimeUs(signal_result.ignored_us / static_cast<double>(rounds), 0.0)
                    .c_str());
  } else {
    std::printf("Host signal handling time : UNAVAILABLE (fork/signals restricted)\n");
  }

  upcall::UpcallEngine engine(
      [] { return [](const upcall::Request& request) { return request.args[0]; }; });
  const auto round_trip = engine.MeasureRoundTrip(runs, options.full ? 5000 : 2000);
  std::printf("Process upcall (mailbox)  : %s round trip\n",
              stats::FormatTimeUs(round_trip.mean_us(), round_trip.stddev_pct()).c_str());
  report.AddUs("upcall_roundtrip", runs, round_trip.mean_us(), 0);
  if (signal_result.ok && signal_result.per_signal_us > 0.0) {
    std::printf("  upcall / signal         : %.2f (paper's BSD/OS upcall was 0.59x)\n",
                round_trip.mean_us() / signal_result.per_signal_us);
  }
  std::printf("\nThe paper argues a tuned upcall could reach ~1/4 of signal time; the Figure 1\n");
  std::printf("bench sweeps upcall cost explicitly, so this estimate is an input, not a gate.\n");
  report.Write();
  // The signal figure itself is a gate: handling must cost more than
  // ignoring, so the per-signal difference is positive.
  if (signal_result.ok &&
      !(signal_result.handled_us > signal_result.ignored_us && signal_result.per_signal_us > 0.0)) {
    std::printf("FAIL: handled round is not slower than ignored round\n");
    return 1;
  }
  return 0;
}
