#include "src/upcall/signal_bench.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>

#include "src/stats/harness.h"
#include "src/stats/running_stats.h"

namespace upcall {

namespace {

constexpr int kNumSignals = 20;
volatile sig_atomic_t g_handled = 0;

void CountingHandler(int) { g_handled = g_handled + 1; }

// Child body: install the handlers (or SIG_IGN), then stop repeatedly.
[[noreturn]] void ChildLoop(bool handle) {
  for (int s = 0; s < kNumSignals; ++s) {
    struct sigaction action = {};
    action.sa_handler = handle ? &CountingHandler : SIG_IGN;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGRTMIN + s, &action, nullptr);
  }
  for (;;) {
    ::raise(SIGSTOP);
    // Woken by SIGCONT after the parent posted the group; the pending
    // signals are delivered here, then we loop back and stop again.
  }
}

// Waits until the child is stopped (WUNTRACED reports the stop).
bool AwaitStopped(pid_t child) {
  int status = 0;
  for (;;) {
    if (::waitpid(child, &status, WUNTRACED | WCONTINUED) < 0) {
      return false;
    }
    if (WIFSTOPPED(status)) {
      return true;
    }
    if (WIFEXITED(status) || WIFSIGNALED(status)) {
      return false;
    }
  }
}

// One timed pass of `rounds` stop/post/continue rounds. Returns
// microseconds, or a negative value on failure.
double TimedRounds(pid_t child, std::size_t rounds) {
  stats::Timer timer;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (int s = 0; s < kNumSignals; ++s) {
      if (::kill(child, SIGRTMIN + s) != 0) {
        return -1.0;
      }
    }
    if (::kill(child, SIGCONT) != 0) {
      return -1.0;
    }
    if (!AwaitStopped(child)) {
      return -1.0;
    }
  }
  return timer.ElapsedUs();
}

struct Child {
  pid_t pid = -1;

  explicit Child(bool handle) {
    pid = ::fork();
    if (pid == 0) {
      ChildLoop(handle);
    }
  }
  ~Child() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }
  bool ok() const { return pid > 0; }
};

}  // namespace

SignalBenchResult MeasureSignalHandling(std::size_t runs, std::size_t rounds_per_run) {
  SignalBenchResult result;

  Child handler_child(/*handle=*/true);
  Child ignorer_child(/*handle=*/false);
  if (!handler_child.ok() || !ignorer_child.ok()) {
    return result;
  }
  if (!AwaitStopped(handler_child.pid) || !AwaitStopped(ignorer_child.pid)) {
    return result;
  }

  // Warm both paths.
  if (TimedRounds(handler_child.pid, 5) < 0 || TimedRounds(ignorer_child.pid, 5) < 0) {
    return result;
  }

  stats::RunningStats handled;
  stats::RunningStats ignored;
  stats::RunningStats per_signal;
  for (std::size_t run = 0; run < runs; ++run) {
    const double h = TimedRounds(handler_child.pid, rounds_per_run);
    const double i = TimedRounds(ignorer_child.pid, rounds_per_run);
    if (h < 0 || i < 0) {
      return result;
    }
    handled.Add(h);
    ignored.Add(i);
    result.rounds += rounds_per_run;
    per_signal.Add((h - i) / static_cast<double>(rounds_per_run * kNumSignals));
  }

  result.per_signal_us = per_signal.mean();
  result.stddev_pct = per_signal.stddev_percent();
  result.handled_us = handled.mean();
  result.ignored_us = ignored.mean();
  result.ok = true;
  return result;
}

}  // namespace upcall
