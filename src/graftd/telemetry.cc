#include "src/graftd/telemetry.h"

#include <algorithm>
#include <cstdio>

#include "src/stats/table.h"

namespace graftd {

namespace {

std::string FormatUs(double us) {
  char buf[32];
  if (us >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fs", us / 1e6);
  } else if (us >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fms", us / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", us);
  }
  return buf;
}

std::string StageCellText(const TelemetrySnapshot::StageCell& cell) {
  if (cell.count == 0) {
    return "-";
  }
  return FormatUs(cell.mean_us()) + " x" + std::to_string(cell.count);
}

// "p50<=82us p90<=164us p99<=328us p999<=655us max=700us": upper-bound
// markers from Histogram::Percentile, compact enough for one table cell.
template <typename Format>
std::string Summary(const Histogram& h, Format format) {
  if (h.count == 0) {
    return "-";
  }
  return "p50<=" + format(h.Percentile(50)) + " p90<=" + format(h.Percentile(90)) +
         " p99<=" + format(h.Percentile(99)) + " p999<=" + format(h.Percentile(99.9)) +
         " max=" + format(h.max);
}

std::string LatencySummary(const Histogram& ns) {
  return Summary(ns, [](std::uint64_t v) { return FormatUs(static_cast<double>(v) / 1e3); });
}

std::string SizeSummary(const Histogram& sizes) {
  return Summary(sizes, [](std::uint64_t v) { return std::to_string(v); });
}

std::string FormatValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

std::string TelemetrySnapshot::ToText() const {
  stats::Table table({"graft", "state", "inv", "ok", "fault", "preempt", "disk", "q-rej", "d-rej",
                      "shed", "expired", "quar", "readm", "fuel", "mean", "latency"});
  for (const Row& row : grafts) {
    const GraftCounters& c = row.counters;
    table.AddRow({row.name, GraftStateName(row.supervision.state), std::to_string(c.invocations),
                  std::to_string(c.ok), std::to_string(c.faults), std::to_string(c.preempts),
                  std::to_string(c.disk_faults), std::to_string(c.rejected_quarantined),
                  std::to_string(c.rejected_detached), std::to_string(c.rejected_degraded),
                  std::to_string(c.shed_expired), std::to_string(row.supervision.quarantines),
                  std::to_string(row.supervision.readmissions),
                  c.fuel_used == 0 ? "-" : std::to_string(c.fuel_used),
                  c.latency.count == 0 ? "-" : FormatUs(c.latency.mean_us()),
                  LatencySummary(c.latency)});
  }
  std::string text = table.ToString();
  // Opcode-frequency profiles (profiled Minnow grafts): one table per graft,
  // descending — the evidence trail for the superinstruction fusion set.
  for (const Row& row : grafts) {
    if (row.counters.vm_opcodes.empty()) {
      continue;
    }
    auto sorted = row.counters.vm_opcodes;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    stats::Table ops({"vm opcode (" + row.name + ")", "retired"});
    std::size_t shown = 0;
    for (const auto& [name, count] : sorted) {
      if (++shown > 12) {
        break;
      }
      ops.AddRow({name, std::to_string(count)});
    }
    text += "\n";
    text += ops.ToString();
  }
  if (!dispatch.workers.empty()) {
    stats::Table lanes(
        {"dispatch", "batches", "deq", "mean", "batch sizes", "park", "ntfy", "skip", "p-wait"});
    for (const WorkerLaneRow& row : dispatch.workers) {
      char mean[32];
      std::snprintf(mean, sizeof(mean), "%.1f", row.batch_sizes.mean());
      lanes.AddRow({"worker" + std::to_string(row.worker), std::to_string(row.batches),
                    std::to_string(row.dequeued), row.batches == 0 ? "-" : mean,
                    SizeSummary(row.batch_sizes), std::to_string(row.parks),
                    std::to_string(row.notifies_sent), std::to_string(row.notifies_skipped),
                    std::to_string(row.producer_waits)});
    }
    text += "\n";
    text += lanes.ToString();
    text += "inline fast path: " + std::to_string(dispatch.inline_hits) + " hits, " +
            std::to_string(dispatch.inline_misses) + " misses (claim lost -> queued)\n";
    text += "deadline shed: " + std::to_string(dispatch.shed_expired) +
            " expired before the body ran\n";
  }
  if (netfront.present) {
    stats::Table tenants_table({"netfront tenant", "weight", "accepted", "ok", "err", "shed-deg",
                                "shed-over", "quota-rej", "brk-open", "deduped"});
    for (const NetfrontSection::TenantRow& row : netfront.tenants) {
      tenants_table.AddRow({row.name, std::to_string(row.weight), std::to_string(row.accepted),
                            std::to_string(row.completed_ok), std::to_string(row.completed_error),
                            std::to_string(row.shed_degraded), std::to_string(row.shed_overload),
                            std::to_string(row.quota_rejected), std::to_string(row.breaker_open),
                            std::to_string(row.retries_deduped)});
    }
    text += "\n";
    text += tenants_table.ToString();
    stats::Table io_table({"netfront io", "frames", "batches", "mean", "batch sizes", "wakeups"});
    for (const NetfrontSection::IoThreadRow& row : netfront.io_threads) {
      char mean[32];
      std::snprintf(mean, sizeof(mean), "%.1f", row.submit_sizes.mean());
      io_table.AddRow({"io" + std::to_string(row.thread), std::to_string(row.decoded_frames),
                       std::to_string(row.submit_batches),
                       row.submit_batches == 0 ? "-" : mean, SizeSummary(row.submit_sizes),
                       std::to_string(row.wakeups)});
    }
    text += "\n";
    text += io_table.ToString();
    char totals[256];
    std::snprintf(totals, sizeof(totals),
                  "netfront: %llu active conns (%llu opened, %llu closed), %llu frame errors, "
                  "%llu read pauses, %llu slow-reader closes, %lluB in / %lluB out\n",
                  static_cast<unsigned long long>(netfront.connections_active),
                  static_cast<unsigned long long>(netfront.connections_opened),
                  static_cast<unsigned long long>(netfront.connections_closed),
                  static_cast<unsigned long long>(netfront.frame_errors),
                  static_cast<unsigned long long>(netfront.read_pauses),
                  static_cast<unsigned long long>(netfront.slow_reader_closes),
                  static_cast<unsigned long long>(netfront.bytes_in),
                  static_cast<unsigned long long>(netfront.bytes_out));
    text += totals;
    if (netfront.io_thread_crashes > 0) {
      char chaos[160];
      std::snprintf(chaos, sizeof(chaos),
                    "netfront chaos: %llu io-thread crashes, %llu conns adopted, "
                    "%llu staged orphans\n",
                    static_cast<unsigned long long>(netfront.io_thread_crashes),
                    static_cast<unsigned long long>(netfront.conns_adopted),
                    static_cast<unsigned long long>(netfront.crash_orphans));
      text += chaos;
    }
  }
  if (!injections.empty()) {
    stats::Table sites({"injection site", "hits", "injected"});
    for (const auto& site : injections) {
      sites.AddRow({site.site, std::to_string(site.hits), std::to_string(site.injected)});
    }
    text += "\n";
    text += sites.ToString();
  }
  if (traced) {
    stats::Table trace({"trace stage (mean x count)", "queue", "dispatch", "crossing", "body",
                        "disk", "ops"});
    for (const StageRow& row : stages) {
      trace.AddRow({row.graft, StageCellText(row.queue), StageCellText(row.dispatch),
                    StageCellText(row.crossing), StageCellText(row.body), StageCellText(row.disk),
                    row.ops == 0 ? "-" : std::to_string(row.ops)});
    }
    text += "\n";
    text += trace.ToString();
    if (!break_even.empty()) {
      stats::Table panel({"break-even (live)", "metric", "per-op", "reference", "value"});
      for (const BreakEvenRow& row : break_even) {
        panel.AddRow({row.graft, row.metric, FormatUs(row.per_op_us), FormatUs(row.reference_us),
                      FormatValue(row.value)});
      }
      text += "\n";
    text += panel.ToString();
    }
    text += "\ntrace: " + std::to_string(trace_events) + " events, " +
            std::to_string(trace_dropped) + " dropped\n";
  }
  return text;
}

}  // namespace graftd
