// obslab::Plane — the always-on observability plane, assembled.
//
// One object owns the four pieces (metrics registry, fault flight
// recorder, sampling profiler, SLO watchdog) and wires them over a
// graftd::Dispatcher:
//
//   * registry collectors expose every telemetry section through the one
//     schema of src/obslab/snapshot.h — per-graft counters and latency
//     histograms, supervision + breaker states, vm_opcodes (including the
//     elision certificate's checks_elided / checks_retained rows), dispatch
//     mechanics, netfront tenants and IO threads, faultlab injection sites,
//     tracelab stages and break-even — without touching their hot paths;
//   * the dispatcher's outcome hook feeds the flight ring, and a
//     kDiskFault completion triggers a "disk_hard_error" snapshot;
//   * the supervisor's event hook snapshots on breaker_open, quarantine,
//     degraded entry, and detach;
//   * the SLO watchdog's alarm hook snapshots on sustained burn.
//
// Dependency direction: obslab depends on graftd/tracelab/faultlab only.
// netfront integration goes through the std::function seams on
// ServerOptions — wire options.admin_metrics to [&]{ plane.Exposition },
// options.obs_event to OnServerEvent, options.obs_latency to
// OnTenantLatency, and register the server's FillTelemetry through
// AddNetfrontCollector — so the server never links against obslab.
//
// The `enabled` switch gates the hot-path hooks (outcome recording, SLO
// records) with one relaxed load; scraping works either way. The
// disabled cost is the bench/obs_overhead ≤1% gate, the enabled cost
// (with the profiler at 97 Hz) the ≤5% gate.

#ifndef GRAFTLAB_SRC_OBSLAB_PLANE_H_
#define GRAFTLAB_SRC_OBSLAB_PLANE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "src/faultlab/injector.h"
#include "src/graftd/dispatcher.h"
#include "src/obslab/flight_recorder.h"
#include "src/obslab/profiler.h"
#include "src/obslab/registry.h"
#include "src/obslab/slo.h"
#include "src/tracelab/trace.h"

namespace obslab {

// Exposition formats for the kAdminMetrics wire frame: the request
// payload's first byte selects one (empty payload = Prometheus text).
inline constexpr std::uint8_t kFormatPrometheus = 0;
inline constexpr std::uint8_t kFormatJson = 1;

struct PlaneOptions {
  bool enabled = true;
  FlightRecorder::Options recorder{};
  Profiler::Options profiler{};
  SloWatchdog::Options slo{};
};

class Plane {
 public:
  explicit Plane(PlaneOptions options = PlaneOptions{});

  Plane(const Plane&) = delete;
  Plane& operator=(const Plane&) = delete;

  MetricsRegistry& registry() { return registry_; }
  FlightRecorder& recorder() { return recorder_; }
  Profiler& profiler() { return profiler_; }
  SloWatchdog& slo() { return slo_; }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

  // Wires hooks and collectors over the dispatcher. Call after every
  // graft is registered and before the first Submit (the dispatcher's
  // attach contract). The dispatcher must outlive the plane's scrapes.
  void Attach(graftd::Dispatcher& dispatcher);

  // Optional extras; call alongside Attach.
  void AttachTracer(tracelab::Tracer* tracer);
  void AttachInjector(const faultlab::Injector* injector);

  // Registers a pull source for the netfront section (wire the server's
  // FillTelemetry here; the fill callback must outlive scrapes).
  void AddNetfrontCollector(std::function<void(graftd::NetfrontSection&)> fill);

  // --- netfront seams (plug into ServerOptions as std::functions) ---

  // ServerOptions::admin_metrics: one scrape in the requested format.
  std::string Exposition(std::uint8_t format);

  // ServerOptions::obs_event: front-end failure events ("io_thread_crash")
  // become flight-recorder snapshots.
  void OnServerEvent(const char* event);

  // ServerOptions::obs_latency: per-tenant completion latency feeds the
  // SLO windows; Evaluate() piggybacks on this feed (amortized, no timer
  // thread needed) and on every scrape.
  void OnTenantLatency(std::uint16_t tenant, std::uint64_t elapsed_ns);

  std::uint64_t scrapes() const { return scrapes_.load(std::memory_order_relaxed); }

 private:
  std::uint64_t NowNs() const;

  std::atomic<bool> enabled_;
  MetricsRegistry registry_;
  FlightRecorder recorder_;
  Profiler profiler_;
  SloWatchdog slo_;
  const graftd::Clock* clock_;
  graftd::Dispatcher* dispatcher_ = nullptr;
  std::atomic<std::uint64_t> scrapes_{0};
  std::atomic<std::uint64_t> latency_feed_{0};
};

}  // namespace obslab

#endif  // GRAFTLAB_SRC_OBSLAB_PLANE_H_
