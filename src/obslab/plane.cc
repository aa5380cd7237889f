#include "src/obslab/plane.h"

#include <chrono>
#include <string>
#include <utility>

#include "src/obslab/snapshot.h"

namespace obslab {

namespace {

// How many OnTenantLatency calls between piggybacked SLO evaluations. The
// evaluation is one mutex + a per-tenant load when windows are still open,
// so amortizing over a few hundred completions keeps it out of the noise
// while still closing windows promptly under load (idle periods are
// covered by the evaluation every scrape performs).
constexpr std::uint64_t kEvalStride = 256;

}  // namespace

Plane::Plane(PlaneOptions options)
    : enabled_(options.enabled),
      recorder_(options.recorder),
      profiler_(options.profiler),
      slo_(options.slo),
      clock_(options.recorder.clock) {
  slo_.set_alarm_hook([this](const std::string& tenant, double p99_us) {
    recorder_.Trigger("slo_burn", static_cast<std::uint64_t>(p99_us));
    (void)tenant;
  });
  slo_.RegisterWith(registry_);
  profiler_.RegisterWith(registry_);
  // The plane's own health counters.
  registry_.AddCollector([this](std::vector<Sample>& out) {
    out.push_back(Sample{"graftlab_obs_enabled", {}, enabled() ? 1.0 : 0.0, false});
    out.push_back(Sample{"graftlab_scrapes_total", {},
                         static_cast<double>(scrapes_.load(std::memory_order_relaxed)),
                         true});
    out.push_back(Sample{"graftlab_flightrec_snapshots_total", {},
                         static_cast<double>(recorder_.snapshots_written()), true});
    out.push_back(Sample{"graftlab_flightrec_suppressed_total", {},
                         static_cast<double>(recorder_.snapshots_suppressed()), true});
    out.push_back(Sample{"graftlab_flightrec_outcomes_total", {},
                         static_cast<double>(recorder_.outcomes_recorded()), true});
  });
}

void Plane::Attach(graftd::Dispatcher& dispatcher) {
  dispatcher_ = &dispatcher;

  // Hot-path hooks: one enabled() load, then lock-free recording. The
  // kDiskFault trigger rides the outcome hook (the recorder's rate limiter
  // bounds a failing device to one snapshot per interval, not one per op).
  dispatcher.set_outcome_hook([this](graftd::GraftId graft,
                                     graftd::CompletionStatus status,
                                     std::uint64_t elapsed_ns) {
    if (!enabled()) {
      return;
    }
    recorder_.RecordOutcome(graft, static_cast<std::uint8_t>(status), elapsed_ns);
    if (status == graftd::CompletionStatus::kDiskFault) {
      recorder_.Trigger("disk_hard_error", graft);
    }
  });
  dispatcher.supervisor().set_event_hook([this](const char* event, graftd::GraftId id) {
    if (enabled()) {
      recorder_.Trigger(event, id);
    }
  });

  // Graft names for profiler attribution (ids are dense from 0 and
  // registration precedes Attach per the dispatcher contract).
  const graftd::TelemetrySnapshot initial = dispatcher.Snapshot();
  for (std::size_t i = 0; i < initial.grafts.size(); ++i) {
    profiler_.SetGraftName(static_cast<std::uint32_t>(i), initial.grafts[i].name);
  }

  // The big pull source: one dispatcher snapshot per scrape, every section
  // of it (grafts, dispatch workers, and the injector and tracer sections
  // when the dispatcher carries them) through the one telemetry schema.
  registry_.AddCollector([this](std::vector<Sample>& out) {
    if (dispatcher_ != nullptr) {
      AppendSnapshotSamples(dispatcher_->Snapshot(), out);
    }
  });
}

// The tracer and injector collectors stand aside for a tracer or injector
// the attached dispatcher already carries: its snapshot exports them, and
// one scrape must not hold the same (name, labels) twice.

void Plane::AttachTracer(tracelab::Tracer* tracer) {
  recorder_.set_tracer(tracer);
  registry_.AddCollector([this, tracer](std::vector<Sample>& out) {
    if (dispatcher_ == nullptr || dispatcher_->tracer() != tracer) {
      out.push_back(Sample{"graftlab_trace_events_dropped_total", {},
                           static_cast<double>(tracer->dropped()), true});
    }
    out.push_back(Sample{"graftlab_tracelab_sites_dropped_total", {},
                         static_cast<double>(tracer->sites_dropped()), true});
  });
}

void Plane::AttachInjector(const faultlab::Injector* injector) {
  registry_.AddCollector([this, injector](std::vector<Sample>& out) {
    if (dispatcher_ == nullptr || dispatcher_->injector() != injector) {
      graftd::TelemetrySnapshot snapshot;
      snapshot.injections = injector->Counters();
      AppendSnapshotSamples(snapshot, out);
    }
  });
}

void Plane::AddNetfrontCollector(std::function<void(graftd::NetfrontSection&)> fill) {
  registry_.AddCollector([fill = std::move(fill)](std::vector<Sample>& out) {
    graftd::TelemetrySnapshot snapshot;
    fill(snapshot.netfront);
    AppendSnapshotSamples(snapshot, out);
  });
}

std::string Plane::Exposition(std::uint8_t format) {
  scrapes_.fetch_add(1, std::memory_order_relaxed);
  // A scrape closes any due SLO windows, so burn gauges stay live even when
  // the latency feed pauses (e.g. the tenant stopped sending).
  slo_.Evaluate(NowNs());
  if (format == kFormatJson) {
    return registry_.Json();
  }
  return registry_.PrometheusText();
}

void Plane::OnServerEvent(const char* event) {
  if (enabled()) {
    recorder_.Trigger(event);
  }
}

void Plane::OnTenantLatency(std::uint16_t tenant, std::uint64_t elapsed_ns) {
  if (!enabled()) {
    return;
  }
  slo_.Record(tenant, elapsed_ns);
  // Piggyback evaluation on the feed itself — no watchdog thread needed.
  if (latency_feed_.fetch_add(1, std::memory_order_relaxed) % kEvalStride ==
      kEvalStride - 1) {
    slo_.Evaluate(NowNs());
  }
}

std::uint64_t Plane::NowNs() const {
  if (dispatcher_ != nullptr) {
    return dispatcher_->NowNs();
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock_->Now().time_since_epoch())
          .count());
}

}  // namespace obslab
