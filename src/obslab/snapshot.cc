#include "src/obslab/snapshot.h"

#include <iterator>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

namespace obslab {

namespace {

void AddCounter(std::vector<Sample>& out, const char* name, const Labels& labels, double value) {
  out.push_back(Sample{name, labels, value, true});
}

void AddGauge(std::vector<Sample>& out, const char* name, const Labels& labels, double value) {
  out.push_back(Sample{name, labels, value, false});
}

void AddHistogram(std::vector<Sample>& out, const char* name, const Labels& labels,
          const graftd::Histogram& histogram) {
  Sample sample{name, labels};
  sample.histogram = std::make_shared<const graftd::Histogram>(histogram);
  out.push_back(std::move(sample));
}

Labels With(Labels labels, const char* key, std::string value) {
  labels.emplace_back(key, std::move(value));
  return labels;
}

// `registration` >= 0 adds a disambiguating label: re-registering a graft
// name (one configuration retired, another loaded under the same name)
// yields multiple rows with identical names, and emitting them under
// identical labels would fold independent counters into one series at the
// scrape consumer.
void EmitGraftRow(const graftd::TelemetrySnapshot::Row& row, std::int64_t registration,
                  std::vector<Sample>& out) {
  Labels graft{{"graft", row.name}};
  if (registration >= 0) {
    graft.emplace_back("registration", std::to_string(registration));
  }
  const graftd::GraftCounters& c = row.counters;
  AddCounter(out, "graftlab_graft_invocations_total", graft, c.invocations);
  const std::pair<const char*, std::uint64_t> outcomes[] = {
      {"ok", c.ok},
      {"fault", c.faults},
      {"preempt", c.preempts},
      {"disk_fault", c.disk_faults},
      {"rejected_quarantined", c.rejected_quarantined},
      {"rejected_detached", c.rejected_detached},
      {"rejected_degraded", c.rejected_degraded},
      {"expired", c.shed_expired}};
  for (std::size_t i = 0; i < std::size(outcomes); ++i) {
    if (outcomes[i].second != 0 || i == 0) {  // "ok" always present as the anchor
      AddCounter(out, "graftlab_graft_outcomes_total", With(graft, "outcome", outcomes[i].first),
              outcomes[i].second);
    }
  }
  AddCounter(out, "graftlab_graft_fuel_used_total", graft, c.fuel_used);
  if (c.latency.count > 0) {
    AddHistogram(out, "graftlab_graft_latency_ns", graft, c.latency);
    AddGauge(out, "graftlab_graft_latency_p50_us", graft, c.latency.PercentileUs(50.0));
    AddGauge(out, "graftlab_graft_latency_p90_us", graft, c.latency.PercentileUs(90.0));
    AddGauge(out, "graftlab_graft_latency_p99_us", graft, c.latency.PercentileUs(99.0));
    AddGauge(out, "graftlab_graft_latency_p999_us", graft, c.latency.PercentileUs(99.9));
    AddGauge(out, "graftlab_graft_latency_max_us", graft, static_cast<double>(c.latency.max) / 1e3);
  }
  // Per-opcode retire counts — also where the elision verifier's
  // checks_elided / checks_retained certificates surface (minnow grafts
  // report them through the same ExecutionProfile table).
  for (const auto& [opcode, count] : c.vm_opcodes) {
    AddCounter(out, "graftlab_vm_opcode_total", With(graft, "opcode", opcode), count);
  }

  // Supervision: current graft state and breaker position as one-hot
  // samples (only the active state is emitted), histories as counters.
  const graftd::Supervisor::GraftStatus& s = row.supervision;
  AddGauge(out, "graftlab_graft_state", With(graft, "state", graftd::GraftStateName(s.state)), 1.0);
  AddGauge(out, "graftlab_breaker_state", With(graft, "state", graftd::BreakerStateName(s.breaker)),
        1.0);
  AddCounter(out, "graftlab_graft_quarantines_total", graft, s.quarantines);
  AddCounter(out, "graftlab_graft_readmissions_total", graft, s.readmissions);
  AddCounter(out, "graftlab_graft_degradations_total", graft, s.degradations);
  AddCounter(out, "graftlab_graft_recoveries_total", graft, s.recoveries);
  AddCounter(out, "graftlab_breaker_opens_total", graft, s.breaker_opens);
}

void EmitDispatch(const graftd::TelemetrySnapshot::DispatchStats& d, std::vector<Sample>& out) {
  AddCounter(out, "graftlab_dispatch_inline_hits_total", {}, d.inline_hits);
  AddCounter(out, "graftlab_dispatch_inline_misses_total", {}, d.inline_misses);
  AddCounter(out, "graftlab_dispatch_shed_expired_total", {}, d.shed_expired);
  AddGauge(out, "graftlab_dispatch_workers", {}, static_cast<double>(d.workers.size()));
  for (const auto& w : d.workers) {
    const Labels worker{{"worker", std::to_string(w.worker)}};
    AddCounter(out, "graftlab_dispatch_batches_total", worker, w.batches);
    AddCounter(out, "graftlab_dispatch_dequeued_total", worker, w.dequeued);
    AddHistogram(out, "graftlab_dispatch_batch_size", worker, w.batch_sizes);
    AddCounter(out, "graftlab_dispatch_parks_total", worker, w.parks);
    AddCounter(out, "graftlab_dispatch_notifies_sent_total", worker, w.notifies_sent);
    AddCounter(out, "graftlab_dispatch_notifies_skipped_total", worker, w.notifies_skipped);
    AddCounter(out, "graftlab_dispatch_producer_waits_total", worker, w.producer_waits);
  }
}

void EmitNetfront(const graftd::NetfrontSection& n, std::vector<Sample>& out) {
  for (const auto& t : n.tenants) {
    const Labels tenant{{"tenant", t.name}};
    AddGauge(out, "graftlab_tenant_weight", tenant, static_cast<double>(t.weight));
    AddCounter(out, "graftlab_tenant_accepted_total", tenant, t.accepted);
    AddCounter(out, "graftlab_tenant_completed_ok_total", tenant, t.completed_ok);
    AddCounter(out, "graftlab_tenant_completed_error_total", tenant, t.completed_error);
    AddCounter(out, "graftlab_tenant_shed_degraded_total", tenant, t.shed_degraded);
    AddCounter(out, "graftlab_tenant_shed_overload_total", tenant, t.shed_overload);
    AddCounter(out, "graftlab_tenant_quota_rejected_total", tenant, t.quota_rejected);
    AddCounter(out, "graftlab_tenant_breaker_open_total", tenant, t.breaker_open);
    AddCounter(out, "graftlab_tenant_retries_deduped_total", tenant, t.retries_deduped);
  }
  AddCounter(out, "graftlab_net_connections_opened_total", {}, n.connections_opened);
  AddCounter(out, "graftlab_net_connections_closed_total", {}, n.connections_closed);
  AddGauge(out, "graftlab_net_connections_active", {}, static_cast<double>(n.connections_active));
  AddCounter(out, "graftlab_net_frame_errors_total", {}, n.frame_errors);
  AddCounter(out, "graftlab_net_bytes_in_total", {}, n.bytes_in);
  AddCounter(out, "graftlab_net_bytes_out_total", {}, n.bytes_out);
  AddCounter(out, "graftlab_net_read_pauses_total", {}, n.read_pauses);
  AddCounter(out, "graftlab_net_slow_reader_closes_total", {}, n.slow_reader_closes);
  AddCounter(out, "graftlab_net_io_thread_crashes_total", {}, n.io_thread_crashes);
  AddCounter(out, "graftlab_net_conns_adopted_total", {}, n.conns_adopted);
  AddCounter(out, "graftlab_net_crash_orphans_total", {}, n.crash_orphans);
  for (const auto& io : n.io_threads) {
    const Labels thread{{"io_thread", std::to_string(io.thread)}};
    AddCounter(out, "graftlab_net_decoded_frames_total", thread, io.decoded_frames);
    AddCounter(out, "graftlab_net_submit_batches_total", thread, io.submit_batches);
    AddHistogram(out, "graftlab_net_submit_batch_size", thread, io.submit_sizes);
    AddCounter(out, "graftlab_net_wakeups_total", thread, io.wakeups);
  }
}

void EmitTrace(const graftd::TelemetrySnapshot& snapshot, std::vector<Sample>& out) {
  AddCounter(out, "graftlab_trace_events_total", {}, snapshot.trace_events);
  AddCounter(out, "graftlab_trace_events_dropped_total", {}, snapshot.trace_dropped);
  // Registrations that share a name share their trace sites, so their
  // stage rows are identical: emit each graft name once.
  std::set<std::string> seen;
  for (const auto& row : snapshot.stages) {
    if (!seen.insert(row.graft).second) {
      continue;
    }
    const Labels graft{{"graft", row.graft}};
    const std::pair<const char*, const graftd::TelemetrySnapshot::StageCell*> cells[] = {
        {"queue", &row.queue},
        {"dispatch", &row.dispatch},
        {"crossing", &row.crossing},
        {"body", &row.body},
        {"disk", &row.disk}};
    for (const auto& [stage, cell] : cells) {
      const Labels labels = With(graft, "stage", stage);
      AddCounter(out, "graftlab_trace_stage_spans_total", labels, cell->count);
      AddCounter(out, "graftlab_trace_stage_us_total", labels, cell->total_us);
    }
    AddCounter(out, "graftlab_trace_ops_total", graft, row.ops);
  }
  seen.clear();
  for (const auto& be : snapshot.break_even) {
    if (!seen.insert(be.graft + '\n' + be.metric).second) {
      continue;
    }
    const Labels labels{{"graft", be.graft}, {"metric", be.metric}};
    AddGauge(out, "graftlab_break_even", labels, be.value);
    AddGauge(out, "graftlab_break_even_per_op_us", labels, be.per_op_us);
    AddGauge(out, "graftlab_break_even_reference_us", labels, be.reference_us);
  }
}

}  // namespace

void AppendSnapshotSamples(const graftd::TelemetrySnapshot& snapshot, std::vector<Sample>& out) {
  std::unordered_map<std::string, int> name_counts;
  for (const auto& row : snapshot.grafts) {
    ++name_counts[row.name];
  }
  for (std::size_t id = 0; id < snapshot.grafts.size(); ++id) {
    const auto& row = snapshot.grafts[id];
    EmitGraftRow(row, name_counts[row.name] > 1 ? static_cast<std::int64_t>(id) : -1, out);
  }
  if (!snapshot.dispatch.workers.empty()) {
    EmitDispatch(snapshot.dispatch, out);
  }
  if (snapshot.netfront.present) {
    EmitNetfront(snapshot.netfront, out);
  }
  for (const auto& site : snapshot.injections) {
    const Labels labels{{"site", site.site}};
    AddCounter(out, "graftlab_fault_site_hits_total", labels, site.hits);
    AddCounter(out, "graftlab_fault_injections_total", labels, site.injected);
  }
  if (snapshot.traced) {
    EmitTrace(snapshot, out);
  }
}

namespace {

std::string RenderSnapshot(const graftd::TelemetrySnapshot& snapshot,
                           std::string (MetricsRegistry::*view)() const) {
  MetricsRegistry registry;
  registry.AddCollector(
      [&snapshot](std::vector<Sample>& out) { AppendSnapshotSamples(snapshot, out); });
  return (registry.*view)();
}

}  // namespace

std::string SnapshotJson(const graftd::TelemetrySnapshot& snapshot) {
  return RenderSnapshot(snapshot, &MetricsRegistry::Json);
}

std::string SnapshotText(const graftd::TelemetrySnapshot& snapshot) {
  return RenderSnapshot(snapshot, &MetricsRegistry::PrometheusText);
}

}  // namespace obslab
