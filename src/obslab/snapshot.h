// The telemetry schema: one function that turns a graftd::TelemetrySnapshot
// into obslab registry samples.
//
// Every view of the snapshot — a live kAdminMetrics scrape (Plane::Attach,
// Plane::AddNetfrontCollector), the text and JSON the benches print, the
// tests — renders through AppendSnapshotSamples and then the registry's
// Prometheus or JSON exposition; there is no second renderer. Series
// (EXPERIMENTS.md "obslab metric names"):
//
//   grafts     graftlab_graft_* and graftlab_breaker_* {graft}, the service
//              latency histogram graftlab_graft_latency_ns with its
//              p50/p90/p99/p999/max gauges in us, graftlab_vm_opcode_total
//   dispatch   graftlab_dispatch_* (per-worker rows carry {worker}, with the
//              dequeue batch-size histogram graftlab_dispatch_batch_size)
//   netfront   graftlab_tenant_* {tenant}, graftlab_net_* (per-IO-thread rows
//              carry {io_thread}, with graftlab_net_submit_batch_size)
//   faultlab   graftlab_fault_site_hits_total / _injections_total {site}
//   tracelab   graftlab_trace_*, per-stage {graft, stage}, and the live
//              break-even panel graftlab_break_even* {graft, metric}
//
// A section the snapshot does not carry (no workers, netfront absent, no
// injections, untraced) contributes nothing, so collectors that each fill
// a different section of their own snapshot never emit the same
// (name, labels) pair twice.

#ifndef GRAFTLAB_SRC_OBSLAB_SNAPSHOT_H_
#define GRAFTLAB_SRC_OBSLAB_SNAPSHOT_H_

#include <string>
#include <vector>

#include "src/graftd/telemetry.h"
#include "src/obslab/registry.h"

namespace obslab {

void AppendSnapshotSamples(const graftd::TelemetrySnapshot& snapshot, std::vector<Sample>& out);

// The registry JSON and Prometheus text of one snapshot (a one-collector
// MetricsRegistry).
std::string SnapshotJson(const graftd::TelemetrySnapshot& snapshot);
std::string SnapshotText(const graftd::TelemetrySnapshot& snapshot);

}  // namespace obslab

#endif  // GRAFTLAB_SRC_OBSLAB_SNAPSHOT_H_
