// Preemption of runaway grafts.
//
// The paper (§4): "we need a mechanism to ensure that extension code not
// monopolize the CPU; we must be able to preempt an extension that runs too
// long." Interpreted technologies use a fuel counter inside the VM; compiled
// safe technologies poll a shared flag at loop back-edges (one relaxed
// atomic load per iteration — the cost shows up in the ablation benches).
// Unsafe C polls nothing: it is unsafe, which is the point. The flag is
// tripped by the one process-wide timer, core::DeadlineWheel, which
// core::GraftHost arms for every budgeted invocation.

#ifndef GRAFTLAB_SRC_ENVS_PREEMPT_H_
#define GRAFTLAB_SRC_ENVS_PREEMPT_H_

#include <atomic>

#include "src/envs/fault.h"

namespace envs {

// Shared abort flag between the kernel (or its deadline wheel) and a graft.
class PreemptToken {
 public:
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }
  void Reset() { stop_.store(false, std::memory_order_relaxed); }
  bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }

  // Called by safe environments at back edges; throws when stop requested.
  void Poll() const {
    if (stop_requested()) {
      throw PreemptFault();
    }
  }

 private:
  std::atomic<bool> stop_{false};
};

// Resets the token when the scope exits — including by exception — so a
// token tripped during an invocation can never leak into the next one and
// make an innocent graft's Poll() throw spuriously.
class TokenResetGuard {
 public:
  explicit TokenResetGuard(PreemptToken& token) : token_(token) {}
  TokenResetGuard(const TokenResetGuard&) = delete;
  TokenResetGuard& operator=(const TokenResetGuard&) = delete;
  ~TokenResetGuard() { token_.Reset(); }

 private:
  PreemptToken& token_;
};

}  // namespace envs

#endif  // GRAFTLAB_SRC_ENVS_PREEMPT_H_
