#include "src/obslab/slo.h"

namespace obslab {

SloWatchdog::SloWatchdog(Options options) : options_(options) {}

void SloWatchdog::AddTenant(std::size_t tenant_id, std::string name, double slo_p99_us,
                            double slo_p999_us) {
  std::lock_guard<std::mutex> lock(eval_mu_);
  if (tenants_.size() <= tenant_id) {
    tenants_.resize(tenant_id + 1);
  }
  auto tenant = std::make_unique<Tenant>();
  tenant->name = std::move(name);
  tenant->slo_p99_us = slo_p99_us;
  tenant->slo_p999_us = slo_p999_us;
  tenants_[tenant_id] = std::move(tenant);
}

void SloWatchdog::Record(std::size_t tenant_id, std::uint64_t elapsed_ns) {
  if (tenant_id >= tenants_.size()) {
    return;
  }
  Tenant* tenant = tenants_[tenant_id].get();
  if (tenant == nullptr || tenant->slo_p99_us <= 0.0) {
    return;
  }
  tenant->window.Record(elapsed_ns);
}

void SloWatchdog::Evaluate(std::uint64_t now_ns) {
  // (tenant name, p99_us) alarms collected under the lock, fired after it
  // so a hook that writes a flight-recorder snapshot (file I/O) never
  // stalls concurrent Record/Evaluate callers.
  std::vector<std::pair<std::string, double>> pending;
  {
    std::lock_guard<std::mutex> lock(eval_mu_);
    for (auto& tenant_ptr : tenants_) {
      Tenant* tenant = tenant_ptr.get();
      if (tenant == nullptr || tenant->slo_p99_us <= 0.0) {
        continue;
      }
      if (tenant->window_start_ns == 0) {
        tenant->window_start_ns = now_ns;  // first sight of this tenant's clock
        continue;
      }
      if (now_ns - tenant->window_start_ns < options_.window_ns) {
        continue;  // window still open
      }
      // Close the window: Drain exchanges every cell with zero, so a sample
      // racing the close is scored in this window or the next one.
      const graftd::Histogram closed = tenant->window.Drain();
      tenant->window_start_ns = now_ns;
      if (closed.count < options_.min_samples) {
        continue;  // idle tenants neither burn nor heal
      }
      const double p99_us = closed.PercentileUs(99.0);
      const double p999_us = closed.PercentileUs(99.9);
      tenant->last_p99_us_milli.store(static_cast<std::uint64_t>(p99_us * 1e3),
                                      std::memory_order_relaxed);
      const bool burning = p99_us > tenant->slo_p99_us ||
                           (tenant->slo_p999_us > 0.0 && p999_us > tenant->slo_p999_us);
      if (!burning) {
        tenant->burn.store(0, std::memory_order_relaxed);
        tenant->alarmed = false;  // a healthy window re-arms the alarm
        continue;
      }
      const std::uint32_t streak =
          tenant->burn.fetch_add(1, std::memory_order_relaxed) + 1;
      if (streak >= options_.burn_windows && !tenant->alarmed) {
        tenant->alarmed = true;
        alarms_.fetch_add(1, std::memory_order_relaxed);
        if (alarm_hook_) {
          pending.emplace_back(tenant->name, p99_us);
        }
      }
    }
  }
  for (const auto& [tenant, p99_us] : pending) {
    alarm_hook_(tenant, p99_us);
  }
}

std::uint32_t SloWatchdog::burn(std::size_t tenant_id) const {
  if (tenant_id >= tenants_.size() || tenants_[tenant_id] == nullptr) {
    return 0;
  }
  return tenants_[tenant_id]->burn.load(std::memory_order_relaxed);
}

void SloWatchdog::RegisterWith(MetricsRegistry& registry) {
  registry.AddCollector([this](std::vector<Sample>& out) {
    for (const auto& tenant_ptr : tenants_) {
      const Tenant* tenant = tenant_ptr.get();
      if (tenant == nullptr || tenant->slo_p99_us <= 0.0) {
        continue;
      }
      out.push_back(Sample{"graftlab_slo_burn", Labels{{"tenant", tenant->name}},
                           static_cast<double>(tenant->burn.load(std::memory_order_relaxed)),
                           false});
      out.push_back(Sample{
          "graftlab_slo_p99_us", Labels{{"tenant", tenant->name}},
          static_cast<double>(tenant->last_p99_us_milli.load(std::memory_order_relaxed)) /
              1e3,
          false});
      out.push_back(Sample{"graftlab_slo_target_p99_us", Labels{{"tenant", tenant->name}},
                           tenant->slo_p99_us, false});
    }
    out.push_back(Sample{"graftlab_slo_alarms_total", {},
                         static_cast<double>(alarms_.load(std::memory_order_relaxed)),
                         true});
  });
}

}  // namespace obslab
