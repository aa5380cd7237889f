// Signal-handling latency (the paper's Table 1 methodology).
//
// "The test program forks a child process, which registers handlers for a
// group of twenty signals and then suspends itself [...] We then measured
// the time to post the signals to the child when the child ignores (rather
// than handles) the group of signals. The latter time is subtracted from
// the former; the result is divided by the number of signals handled."
//
// We reproduce that protocol exactly with 20 POSIX real-time signals (each
// distinct signal pends independently while the child is stopped, so all 20
// are delivered on SIGCONT): fork a child, stop it, post the group, continue
// it, wait for it to re-stop, and difference the handled and ignored modes.

#ifndef GRAFTLAB_SRC_UPCALL_SIGNAL_BENCH_H_
#define GRAFTLAB_SRC_UPCALL_SIGNAL_BENCH_H_

#include <cstddef>

namespace upcall {

struct SignalBenchResult {
  double per_signal_us = 0.0;    // the Table 1 figure
  double stddev_pct = 0.0;       // across runs
  double handled_us = 0.0;       // mean round total, handled mode
  double ignored_us = 0.0;       // mean round total, ignored mode
  std::size_t rounds = 0;        // timed rounds completed in each mode
  bool ok = false;               // false if fork/signal machinery failed
};

// Runs `runs` runs of `rounds_per_run` stop/post/continue rounds in each
// mode. The paper used 30 runs of 1000 iterations; the defaults are smaller
// so the whole suite stays fast — pass the paper's numbers to replicate.
SignalBenchResult MeasureSignalHandling(std::size_t runs = 10, std::size_t rounds_per_run = 200);

}  // namespace upcall

#endif  // GRAFTLAB_SRC_UPCALL_SIGNAL_BENCH_H_
