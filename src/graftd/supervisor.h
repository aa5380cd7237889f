// Per-graft supervision policy: quarantine, backoff readmission, detach.
//
// The paper's containment story stops at "the fault is counted"; a runtime
// serving many grafts needs a policy for the graft that keeps faulting.
// Following the supervisor designs in Rex (arXiv:2502.18832) and MOAT
// (arXiv:2301.13421), graftd escalates per graft:
//
//   healthy --(fault_threshold consecutive failures)--> quarantined
//   quarantined --(backoff elapses; next Admit)-------> healthy (readmitted)
//   quarantined x (max_quarantines+1) ----------------> detached, permanently
//
// Each quarantine doubles (policy.backoff_multiplier) the readmission
// backoff, capped at max_backoff. A successful invocation resets the
// consecutive-failure streak but not the quarantine history. All time is
// read through the injected Clock, so every transition is testable without
// sleeping.
//
// Disk faults (DiskFull, persistent I/O failure, faultlab injections) are
// scored on a separate track: the *device*, not the graft, misbehaved, so
// instead of quarantining, the graft degrades —
//
//   healthy --(disk_fault_threshold consecutive disk faults)--> degraded
//   degraded --(degraded_backoff elapses; next Admit)---------> healthy
//
// While degraded, write-shaped work is shed (AdmitDecision::kRejectDegraded)
// rather than dispatched into a failing device; degradation never counts
// toward quarantine history or detach.
//
// Layered on the same consecutive-failure streak is a per-graft circuit
// breaker gating *admission* (the netfront socket layer), not dispatch:
//
//   closed --(breaker_threshold consecutive failures)--> open
//   open --(breaker backoff elapses)--> half-open (probes trickle through)
//   half-open --(probe succeeds)--> closed   (backoff streak resets)
//   half-open --(probe fails)-----> open     (backoff doubles)
//
// While open, BreakerAdmit() refuses work before it is ever staged or
// queued — the request is answered at the socket with kBreakerOpen instead
// of riding the queue to a worker that will reject it. Half-open probes
// are rate-limited (breaker_probe_interval) rather than counted, so a
// probe lost downstream (expired, connection died) can never wedge the
// breaker half-open.
//
// Thread safety: one Supervisor is shared by all dispatch workers; state is
// guarded by a single mutex, with a lock-free fast path for the steady
// state. Each graft carries an atomic `hot` flag meaning "healthy with no
// failure streak": Admit returns kRun on a single acquire load, and
// OnOutcome(kOk) returns on a single relaxed load, so the shared mutex is
// only touched when something is actually wrong (or recovering). The flag
// is recomputed under the mutex on every slow-path mutation; a worker that
// observes a stale `hot` admits at most the invocations that were already
// racing the transition — the same window the mutex alone allowed.

#ifndef GRAFTLAB_SRC_GRAFTD_SUPERVISOR_H_
#define GRAFTLAB_SRC_GRAFTD_SUPERVISOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/graftd/clock.h"
#include "src/tracelab/trace.h"

namespace graftd {

using GraftId = std::uint32_t;

enum class GraftState : std::uint8_t { kHealthy, kQuarantined, kDetached, kDegraded };

constexpr const char* GraftStateName(GraftState state) {
  switch (state) {
    case GraftState::kHealthy: return "healthy";
    case GraftState::kQuarantined: return "quarantined";
    case GraftState::kDetached: return "detached";
    case GraftState::kDegraded: return "degraded";
  }
  return "?";
}

// What one invocation did, as the supervisor scores it.
enum class Outcome : std::uint8_t {
  kOk,
  kFault,     // contained extension fault
  kPreempt,   // wall-clock budget or fuel exhausted
  kDiskFault, // the backing device failed (DiskFull, hard error, injected)
};

enum class AdmitDecision : std::uint8_t {
  kRun,
  kRejectQuarantined,
  kRejectDetached,
  kRejectDegraded,  // shedding: the graft's device is failing
};

// Circuit-breaker position for one graft (admission-side shedding).
enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

constexpr const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

struct SupervisorPolicy {
  // Consecutive failures (faults or preempts) before quarantine.
  std::uint32_t fault_threshold = 3;
  // Readmission backoff after the first quarantine; doubles per quarantine.
  std::chrono::microseconds base_backoff{1000};
  std::uint32_t backoff_multiplier = 2;
  std::chrono::microseconds max_backoff{std::chrono::seconds(1)};
  // Readmission chances: after max_quarantines quarantines, the next
  // threshold crossing detaches the graft permanently.
  std::uint32_t max_quarantines = 3;
  // Default wall-clock budget applied to invocations that do not carry
  // their own (0 = unbudgeted).
  std::chrono::microseconds default_budget{0};
  // Fuel budget set on metered (interpreted) grafts per invocation
  // (-1 = unlimited).
  std::int64_t fuel_budget = -1;
  // Consecutive disk faults before the graft degrades to shedding mode.
  std::uint32_t disk_fault_threshold = 2;
  // How long a degraded graft sheds load before the next Admit probes the
  // device again.
  std::chrono::microseconds degraded_backoff{std::chrono::milliseconds(10)};
  // --- circuit breaker (admission gate; see header comment) ---
  // Consecutive failures before the breaker opens. Defaults above the
  // quarantine threshold so the breaker only trips on streaks that survive
  // readmission probation — tighten it (<= fault_threshold) to shed at the
  // socket before quarantine machinery engages.
  std::uint32_t breaker_threshold = 5;
  // How long the breaker stays open before half-open probing; doubles
  // (backoff_multiplier) per reopen without an intervening close.
  std::chrono::microseconds breaker_backoff{std::chrono::milliseconds(5)};
  std::chrono::microseconds breaker_max_backoff{std::chrono::seconds(1)};
  // Minimum spacing between half-open probes.
  std::chrono::microseconds breaker_probe_interval{std::chrono::milliseconds(1)};
  // When false, BreakerAdmit always admits and failures never trip it.
  bool breaker_enabled = true;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorPolicy policy = SupervisorPolicy{},
                      const Clock* clock = RealClock::Instance())
      : policy_(policy), clock_(clock) {}

  // Registers a graft under supervision; ids are dense and start at 0.
  GraftId Register(std::string name);

  // Gate before dispatch. May transition quarantined -> healthy when the
  // backoff has elapsed (readmission happens here, on demand, so no timer
  // is needed to un-quarantine).
  AdmitDecision Admit(GraftId id);

  // Scorekeeping after a completed invocation.
  void OnOutcome(GraftId id, Outcome outcome);

  // Admission-side circuit-breaker gate: true means the request may
  // proceed toward staging/dispatch; false means shed it now (the breaker
  // is open, or half-open with a probe already spent this interval). The
  // steady state (closed breaker, healthy graft) is the same single
  // acquire load as Admit. Callers that shed must NOT report an outcome —
  // a shed request never reached a worker.
  bool BreakerAdmit(GraftId id);

  GraftState state(GraftId id) const;

  struct GraftStatus {
    std::string name;
    GraftState state = GraftState::kHealthy;
    std::uint32_t consecutive_failures = 0;
    std::uint32_t quarantines = 0;    // times quarantined so far
    std::uint32_t readmissions = 0;   // times readmitted so far
    std::uint32_t consecutive_disk_faults = 0;
    std::uint32_t degradations = 0;   // times degraded so far
    std::uint32_t recoveries = 0;     // times recovered from degraded
    Clock::TimePoint readmit_at{};    // valid while quarantined or degraded
    BreakerState breaker = BreakerState::kClosed;
    std::uint32_t breaker_opens = 0;       // times the breaker tripped open
    std::uint32_t breaker_trip_streak = 0; // opens since the last close (backoff doubling)
    Clock::TimePoint breaker_probe_at{};   // open: when half-open probing may begin;
                                           // half-open: when the next probe may pass
  };
  GraftStatus Status(GraftId id) const;
  std::vector<GraftStatus> StatusAll() const;

  const SupervisorPolicy& policy() const { return policy_; }
  std::size_t size() const;

  // Attaches a tracer: every state transition (quarantine, readmit, detach,
  // degrade, recover) is emitted as an instant event on the trace active on
  // the deciding thread (tracelab::CurrentTraceId), with the GraftId as the
  // event argument. Attach before dispatch begins; the tracer must outlive
  // the supervisor.
  void set_tracer(tracelab::Tracer* tracer);

  // Observability seam: fired once per escalation decided by OnOutcome —
  // event is one of "quarantined", "detached", "degraded", "breaker_open"
  // (a quarantine/detach outranks a breaker trip decided in the same call).
  // Invoked on the scoring (worker) thread AFTER mu_ is released, so the
  // hook may do slow work (flight-recorder snapshots) without stalling
  // admission on other workers. Set before dispatch begins.
  void set_event_hook(std::function<void(const char* event, GraftId id)> hook) {
    event_hook_ = std::move(hook);
  }

 private:
  // The mutex-holding scorer; returns the escalation event name (static
  // storage) or nullptr.
  const char* OnOutcomeLocked(GraftId id, Outcome outcome);

  std::chrono::microseconds BackoffFor(std::uint32_t quarantines) const;
  std::chrono::microseconds BreakerBackoffFor(std::uint32_t trips) const;

  // Opens (or reopens) the breaker; caller holds mu_.
  void TripBreaker(GraftStatus& graft, GraftId id);

  // Recomputes grafts_[id]'s hot flag; caller holds mu_.
  void RecomputeHot(GraftId id);

  void EmitTransition(tracelab::SiteId site, GraftId id) {
    if (tracer_ != nullptr) {
      tracer_->Instant(site, tracelab::CurrentTraceId(), id);
    }
  }

  const SupervisorPolicy policy_;
  const Clock* clock_;
  tracelab::Tracer* tracer_ = nullptr;
  std::function<void(const char*, GraftId)> event_hook_;
  tracelab::SiteId site_quarantine_ = 0;
  tracelab::SiteId site_readmit_ = 0;
  tracelab::SiteId site_detach_ = 0;
  tracelab::SiteId site_degrade_ = 0;
  tracelab::SiteId site_recover_ = 0;
  tracelab::SiteId site_breaker_open_ = 0;
  tracelab::SiteId site_breaker_half_open_ = 0;
  tracelab::SiteId site_breaker_close_ = 0;
  mutable std::mutex mu_;
  std::vector<GraftStatus> grafts_;
  // hot_[id]: state == healthy && no failure/disk-fault streak — the
  // steady state where Admit and OnOutcome(kOk) have nothing to decide or
  // record. unique_ptr keeps each atomic at a stable address; the vector
  // itself only grows during registration (before dispatch, per contract).
  std::vector<std::unique_ptr<std::atomic<bool>>> hot_;
};

}  // namespace graftd

#endif  // GRAFTLAB_SRC_GRAFTD_SUPERVISOR_H_
