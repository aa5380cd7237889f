// Deadline wheel: one timer thread for every budgeted invocation.
//
// A GraftHost enforces a wall-clock budget by arming a deadline on its
// PreemptToken; when the deadline passes, the wheel trips the token and the
// graft's next Poll() throws PreemptFault. The wheel is a hashed timing
// wheel (Varghese & Lauck, SOSP '87): Arm() drops an entry into the slot
// `deadline` ticks ahead; a single thread advances the cursor once per tick
// and trips the tokens whose entries come due. Arm and Cancel are O(1)
// expected; the thread does O(entries due) work per tick.
//
// Every host in a process arms the same wheel, DeadlineWheel::Shared(),
// built on first use: N concurrent budgeted invocations cost one timer
// thread in total, and a process that never budgets a call starts none.
//
// Granularity: deadlines round UP to the next tick (default 500us), so a
// budget is never enforced early, and at most one tick late plus scheduling
// noise. That is the right trade for preemption — the paper's budgets are
// milliseconds, not nanoseconds.

#ifndef GRAFTLAB_SRC_CORE_DEADLINE_WHEEL_H_
#define GRAFTLAB_SRC_CORE_DEADLINE_WHEEL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/envs/preempt.h"

namespace core {

class DeadlineWheel {
 public:
  using Ticket = std::uint64_t;

  struct Options {
    std::chrono::microseconds tick{500};
    std::size_t slots = 256;
  };

  DeadlineWheel();  // default Options
  explicit DeadlineWheel(Options options);
  ~DeadlineWheel();

  DeadlineWheel(const DeadlineWheel&) = delete;
  DeadlineWheel& operator=(const DeadlineWheel&) = delete;

  // The process-wide wheel every GraftHost arms (default Options), built
  // on the first call.
  static DeadlineWheel& Shared();

  // Arms `token` to be tripped once `deadline` (rounded up to a tick) has
  // elapsed. The token must stay alive until the ticket fires or is
  // cancelled.
  Ticket Arm(envs::PreemptToken& token, std::chrono::microseconds deadline);

  // Disarms; a no-op for tickets that already fired. After return the wheel
  // holds no reference to the token (it may already have tripped it; pair
  // with TokenResetGuard).
  void Cancel(Ticket ticket);

  std::uint64_t fired() const { return fired_.load(std::memory_order_relaxed); }
  std::uint64_t armed() const { return armed_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    Ticket ticket = 0;
    envs::PreemptToken* token = nullptr;
    std::uint64_t rounds = 0;  // full wheel revolutions still to wait
  };

  void Run();

  const Options options_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::vector<Entry>> slots_;
  std::unordered_map<Ticket, std::size_t> active_;  // ticket -> slot index
  std::size_t cursor_ = 0;
  Ticket next_ticket_ = 1;
  bool stop_ = false;
  std::atomic<std::uint64_t> fired_{0};
  std::atomic<std::uint64_t> armed_{0};
  std::thread thread_;  // last member: joins before state is destroyed
};

// Arms a deadline for the guarded scope: if the scope is still running when
// the deadline passes, the token is tripped. Cancels on destruction.
class ArmGuard {
 public:
  ArmGuard(DeadlineWheel& wheel, envs::PreemptToken& token, std::chrono::microseconds deadline)
      : wheel_(wheel), ticket_(wheel.Arm(token, deadline)) {}
  ArmGuard(const ArmGuard&) = delete;
  ArmGuard& operator=(const ArmGuard&) = delete;
  ~ArmGuard() { wheel_.Cancel(ticket_); }

 private:
  DeadlineWheel& wheel_;
  DeadlineWheel::Ticket ticket_;
};

}  // namespace core

#endif  // GRAFTLAB_SRC_CORE_DEADLINE_WHEEL_H_
