#include "src/graftd/supervisor.h"

#include <stdexcept>
#include <utility>

namespace graftd {

void Supervisor::set_tracer(tracelab::Tracer* tracer) {
  std::lock_guard<std::mutex> lock(mu_);
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    site_quarantine_ = tracer_->Intern("supervisor/quarantine");
    site_readmit_ = tracer_->Intern("supervisor/readmit");
    site_detach_ = tracer_->Intern("supervisor/detach");
    site_degrade_ = tracer_->Intern("supervisor/degrade");
    site_recover_ = tracer_->Intern("supervisor/recover");
    site_breaker_open_ = tracer_->Intern("supervisor/breaker_open");
    site_breaker_half_open_ = tracer_->Intern("supervisor/breaker_half_open");
    site_breaker_close_ = tracer_->Intern("supervisor/breaker_close");
  }
}

GraftId Supervisor::Register(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  GraftStatus status;
  status.name = std::move(name);
  grafts_.push_back(std::move(status));
  hot_.push_back(std::make_unique<std::atomic<bool>>(true));
  return static_cast<GraftId>(grafts_.size() - 1);
}

void Supervisor::RecomputeHot(GraftId id) {
  const GraftStatus& graft = grafts_[id];
  hot_[id]->store(graft.state == GraftState::kHealthy && graft.consecutive_failures == 0 &&
                      graft.consecutive_disk_faults == 0 &&
                      graft.breaker == BreakerState::kClosed,
                  std::memory_order_release);
}

AdmitDecision Supervisor::Admit(GraftId id) {
  // Steady-state fast path: healthy with no streak means kRun with nothing
  // to update — one acquire load, no mutex.
  if (hot_.at(id)->load(std::memory_order_acquire)) {
    return AdmitDecision::kRun;
  }
  std::lock_guard<std::mutex> lock(mu_);
  GraftStatus& graft = grafts_.at(id);
  switch (graft.state) {
    case GraftState::kHealthy:
      return AdmitDecision::kRun;
    case GraftState::kDetached:
      return AdmitDecision::kRejectDetached;
    case GraftState::kQuarantined:
      if (clock_->Now() < graft.readmit_at) {
        return AdmitDecision::kRejectQuarantined;
      }
      // Backoff elapsed: readmit on probation — the failure streak restarts
      // from zero but the quarantine history is remembered.
      graft.state = GraftState::kHealthy;
      graft.consecutive_failures = 0;
      ++graft.readmissions;
      RecomputeHot(id);
      EmitTransition(site_readmit_, id);
      return AdmitDecision::kRun;
    case GraftState::kDegraded:
      if (clock_->Now() < graft.readmit_at) {
        return AdmitDecision::kRejectDegraded;
      }
      // Shedding window over: probe the device again with real traffic.
      graft.state = GraftState::kHealthy;
      graft.consecutive_disk_faults = 0;
      ++graft.recoveries;
      RecomputeHot(id);
      EmitTransition(site_recover_, id);
      return AdmitDecision::kRun;
  }
  throw std::logic_error("unreachable graft state");
}

bool Supervisor::BreakerAdmit(GraftId id) {
  if (!policy_.breaker_enabled) {
    return true;
  }
  // Steady state: hot implies a closed breaker (RecomputeHot folds the
  // breaker position into the flag) — one acquire load, no mutex.
  if (hot_.at(id)->load(std::memory_order_acquire)) {
    return true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  GraftStatus& graft = grafts_.at(id);
  switch (graft.breaker) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (clock_->Now() < graft.breaker_probe_at) {
        return false;
      }
      // Backoff over: this request becomes the first half-open probe.
      graft.breaker = BreakerState::kHalfOpen;
      graft.breaker_probe_at = clock_->Now() + policy_.breaker_probe_interval;
      EmitTransition(site_breaker_half_open_, id);
      return true;
    case BreakerState::kHalfOpen:
      // Probes are rate-limited, not counted: a probe that dies downstream
      // (deadline shed, connection lost) never reports an outcome, so any
      // in-flight accounting would wedge the breaker half-open forever.
      if (clock_->Now() < graft.breaker_probe_at) {
        return false;
      }
      graft.breaker_probe_at = clock_->Now() + policy_.breaker_probe_interval;
      return true;
  }
  return true;
}

void Supervisor::TripBreaker(GraftStatus& graft, GraftId id) {
  graft.breaker = BreakerState::kOpen;
  ++graft.breaker_opens;
  ++graft.breaker_trip_streak;
  graft.breaker_probe_at = clock_->Now() + BreakerBackoffFor(graft.breaker_trip_streak);
  EmitTransition(site_breaker_open_, id);
}

void Supervisor::OnOutcome(GraftId id, Outcome outcome) {
  // Steady-state fast path: an ok outcome on a streak-free healthy graft
  // records nothing — one acquire load (matching Admit, pairing with
  // RecomputeHot's release), no mutex. A worker can still read hot==true
  // published before another worker's failure started a streak and drop an
  // Ok that would have reset consecutive_failures; that window is inherent
  // to skipping the mutex (the same interleaving loses the reset under the
  // lock too, just in a narrower race) and at worst quarantines a genuinely
  // failing graft a streak early.
  if (outcome == Outcome::kOk && hot_.at(id)->load(std::memory_order_acquire)) {
    return;
  }
  // The locked scorer reports the escalation it decided on (nullptr for
  // routine outcomes); the event hook fires here, after mu_ is released,
  // so a hook that snapshots a flight recorder (file I/O) never stalls
  // Admit/OnOutcome on other workers.
  const char* event = OnOutcomeLocked(id, outcome);
  if (event != nullptr && event_hook_) {
    event_hook_(event, id);
  }
}

const char* Supervisor::OnOutcomeLocked(GraftId id, Outcome outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  GraftStatus& graft = grafts_.at(id);
  if (graft.state == GraftState::kDetached) {
    return nullptr;  // a straggler invocation finished after the detach decision
  }
  if (outcome == Outcome::kOk) {
    graft.consecutive_failures = 0;
    graft.consecutive_disk_faults = 0;
    if (graft.breaker != BreakerState::kClosed) {
      // A successful half-open probe (or a straggler ok from before the
      // trip) closes the breaker and forgives the backoff doubling.
      graft.breaker = BreakerState::kClosed;
      graft.breaker_trip_streak = 0;
      EmitTransition(site_breaker_close_, id);
    }
    RecomputeHot(id);
    return nullptr;
  }
  if (outcome == Outcome::kDiskFault) {
    // The device, not the graft, failed: never quarantine or detach for
    // this; degrade to load shedding once the streak crosses the threshold.
    ++graft.consecutive_disk_faults;
    RecomputeHot(id);
    if (graft.state != GraftState::kHealthy) {
      return nullptr;  // straggler after a degrade/quarantine decision
    }
    if (graft.consecutive_disk_faults >= policy_.disk_fault_threshold) {
      graft.state = GraftState::kDegraded;
      graft.readmit_at = clock_->Now() + policy_.degraded_backoff;
      ++graft.degradations;
      EmitTransition(site_degrade_, id);
      return "degraded";
    }
    return nullptr;
  }
  const char* event = nullptr;
  ++graft.consecutive_failures;
  if (policy_.breaker_enabled) {
    if (graft.breaker == BreakerState::kHalfOpen) {
      TripBreaker(graft, id);  // the probe failed: reopen, doubled backoff
      event = "breaker_open";
    } else if (graft.breaker == BreakerState::kClosed &&
               graft.consecutive_failures >= policy_.breaker_threshold) {
      TripBreaker(graft, id);
      event = "breaker_open";
    }
  }
  RecomputeHot(id);
  if (graft.consecutive_failures < policy_.fault_threshold) {
    return event;
  }
  // Threshold crossed: quarantine, or detach once the chances are used up.
  // The escalation outranks a same-call breaker trip in the event report.
  if (graft.quarantines >= policy_.max_quarantines) {
    graft.state = GraftState::kDetached;
    EmitTransition(site_detach_, id);
    return "detached";
  }
  ++graft.quarantines;
  graft.state = GraftState::kQuarantined;
  graft.readmit_at = clock_->Now() + BackoffFor(graft.quarantines);
  EmitTransition(site_quarantine_, id);
  return "quarantined";
}

std::chrono::microseconds Supervisor::BackoffFor(std::uint32_t quarantines) const {
  // base * multiplier^(quarantines-1), saturating at max_backoff.
  std::chrono::microseconds backoff = policy_.base_backoff;
  for (std::uint32_t i = 1; i < quarantines && backoff < policy_.max_backoff; ++i) {
    backoff *= policy_.backoff_multiplier;
  }
  return backoff < policy_.max_backoff ? backoff : policy_.max_backoff;
}

std::chrono::microseconds Supervisor::BreakerBackoffFor(std::uint32_t trips) const {
  std::chrono::microseconds backoff = policy_.breaker_backoff;
  for (std::uint32_t i = 1; i < trips && backoff < policy_.breaker_max_backoff; ++i) {
    backoff *= policy_.backoff_multiplier;
  }
  return backoff < policy_.breaker_max_backoff ? backoff : policy_.breaker_max_backoff;
}

GraftState Supervisor::state(GraftId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return grafts_.at(id).state;
}

Supervisor::GraftStatus Supervisor::Status(GraftId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return grafts_.at(id);
}

std::vector<Supervisor::GraftStatus> Supervisor::StatusAll() const {
  std::lock_guard<std::mutex> lock(mu_);
  return grafts_;
}

std::size_t Supervisor::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return grafts_.size();
}

}  // namespace graftd
