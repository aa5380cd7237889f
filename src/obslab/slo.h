// SLO watchdog: rolling-window tail-latency burn-rate evaluation per
// tenant.
//
// Each tenant with a target (TenantConfig::slo_p99_us > 0) gets one
// graftd::AtomicHistogram window: producers record completion latencies into
// it lock-free; Evaluate() — called from any thread, typically a ticker or
// the scrape path — drains the window once it is older than `window`, reads
// its p99/p999 through Histogram::Percentile, and scores it:
//
//   burning window  (p99 > slo_p99_us)  -> burn streak + 1
//   healthy window                      -> burn streak resets to 0
//
// The `graftlab_slo_burn` gauge exports the current streak length; once
// the streak reaches `burn_windows` the watchdog fires the snapshot hook
// exactly once per sustained episode ("slo_burn" flight-recorder snapshot)
// and re-arms only after a healthy window. Windows with fewer than
// `min_samples` completions are skipped — an idle tenant is not burning.
//
// All time comes from the injected Clock and Evaluate takes `now_ns`
// explicitly, so tests drive the whole state machine from a FakeClock
// without sleeping. This gauge is the per-tenant health signal ROADMAP
// open item 5's adaptive technology selection is slated to consume.

#ifndef GRAFTLAB_SRC_OBSLAB_SLO_H_
#define GRAFTLAB_SRC_OBSLAB_SLO_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/graftd/histogram.h"
#include "src/obslab/registry.h"

namespace obslab {

class SloWatchdog {
 public:
  struct Options {
    std::uint64_t window_ns = 1'000'000'000;  // window length
    std::uint32_t burn_windows = 3;           // sustained windows before the alarm
    std::uint64_t min_samples = 16;           // below this a window is not scored
  };

  SloWatchdog() : SloWatchdog(Options{}) {}
  explicit SloWatchdog(Options options);

  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  // Registers a tenant target; ids are the caller's (netfront tenant
  // index). slo_p99_us == 0 registers an unwatched tenant (records are
  // dropped cheaply). Call before recording starts.
  void AddTenant(std::size_t tenant_id, std::string name, double slo_p99_us,
                 double slo_p999_us = 0.0);

  // Hot path: one AtomicHistogram::Record into the tenant's current window.
  void Record(std::size_t tenant_id, std::uint64_t elapsed_ns);

  // Closes and scores any window older than window_ns. Cheap when the
  // window is still open (one load per tenant). Call with the same
  // timebase Record's callers live on (dispatcher NowNs / clock now).
  void Evaluate(std::uint64_t now_ns);

  // Current consecutive burning windows for the tenant (the gauge value).
  std::uint32_t burn(std::size_t tenant_id) const;

  // Cumulative alarms fired (snapshot hook invocations).
  std::uint64_t alarms() const { return alarms_.load(std::memory_order_relaxed); }

  // Fired (outside all watchdog locks) when a tenant's burn streak reaches
  // burn_windows: arguments are the tenant name and the measured p99 of
  // the closing window, in microseconds.
  void set_alarm_hook(std::function<void(const std::string& tenant, double p99_us)> hook) {
    alarm_hook_ = std::move(hook);
  }

  // Exports graftlab_slo_burn{tenant=...} and
  // graftlab_slo_p99_us{tenant=...} (last closed window) as a collector.
  void RegisterWith(MetricsRegistry& registry);

 private:
  struct Tenant {
    std::string name;
    double slo_p99_us = 0.0;
    double slo_p999_us = 0.0;
    graftd::AtomicHistogram window;
    std::uint64_t window_start_ns = 0;       // guarded by eval_mu_
    std::atomic<std::uint32_t> burn{0};
    std::atomic<std::uint64_t> last_p99_us_milli{0};  // p99 in millionths-of-us x1e3
    bool alarmed = false;                    // guarded by eval_mu_
  };

  const Options options_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::mutex eval_mu_;  // serializes window close/score
  std::atomic<std::uint64_t> alarms_{0};
  std::function<void(const std::string&, double)> alarm_hook_;
};

}  // namespace obslab

#endif  // GRAFTLAB_SRC_OBSLAB_SLO_H_
