#include "src/graftd/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/stats/table.h"
#include "src/tracelab/json_util.h"

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

// All names (grafts, opcodes, injection sites) flow through the shared
// tracelab escaper so telemetry JSON and trace JSON agree on hostile input.
void AppendJsonString(std::ostringstream& out, const std::string& s) {
  out << tracelab::JsonString(s);
}

std::string StageCellText(const TelemetrySnapshot::StageCell& cell) {
  if (cell.count == 0) {
    return "-";
  }
  return FormatUs(cell.mean_us()) + " x" + std::to_string(cell.count);
}

std::string FormatValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

std::string BatchHistogram::Summary() const {
  if (batches == 0) {
    return "-";
  }
  std::string out;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) {
      continue;
    }
    const std::uint64_t lo = 1ull << i;
    const std::uint64_t hi = (1ull << (i + 1)) - 1;
    if (!out.empty()) {
      out += " ";
    }
    out += std::to_string(lo);
    if (lo != hi) {
      out += "-";
      out += std::to_string(hi);
    }
    out += ":";
    out += std::to_string(counts[i]);
  }
  return out;
}

std::string LatencyHistogram::Summary() const {
  if (count_ == 0) {
    return "-";
  }
  return "p50<=" + FormatUs(PercentileUs(50)) + " p90<=" + FormatUs(PercentileUs(90)) +
         " p99<=" + FormatUs(PercentileUs(99)) + " p999<=" + FormatUs(PercentileUs(99.9)) +
         " max=" + FormatUs(static_cast<double>(max_ns_) / 1e3);
}

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
                  c.latency.count() == 0 ? "-" : FormatUs(c.latency.mean_us()),
                  c.latency.Summary()});
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
                    row.batch_sizes.Summary(), std::to_string(row.parks),
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
                       row.submit_batches == 0 ? "-" : mean, row.submit_sizes.Summary(),
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

std::string TelemetrySnapshot::ToJson() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const Row& row : grafts) {
    if (!first) {
      out << ",";
    }
    first = false;
    const GraftCounters& c = row.counters;
    AppendJsonString(out, row.name);
    out << ":{\"state\":";
    AppendJsonString(out, GraftStateName(row.supervision.state));
    out << ",\"invocations\":" << c.invocations << ",\"ok\":" << c.ok
        << ",\"faults\":" << c.faults << ",\"preempts\":" << c.preempts
        << ",\"disk_faults\":" << c.disk_faults
        << ",\"rejected_quarantined\":" << c.rejected_quarantined
        << ",\"rejected_detached\":" << c.rejected_detached
        << ",\"rejected_degraded\":" << c.rejected_degraded
        << ",\"shed_expired\":" << c.shed_expired
        << ",\"quarantines\":" << row.supervision.quarantines
        << ",\"readmissions\":" << row.supervision.readmissions
        << ",\"degradations\":" << row.supervision.degradations
        << ",\"recoveries\":" << row.supervision.recoveries
        << ",\"breaker\":" << tracelab::JsonString(BreakerStateName(row.supervision.breaker))
        << ",\"breaker_opens\":" << row.supervision.breaker_opens
        << ",\"fuel_used\":" << c.fuel_used << ",\"latency\":{\"count\":" << c.latency.count()
        << ",\"mean_us\":" << c.latency.mean_us()
        << ",\"p50_us\":" << c.latency.PercentileUs(50)
        << ",\"p90_us\":" << c.latency.PercentileUs(90)
        << ",\"p99_us\":" << c.latency.PercentileUs(99)
        << ",\"p999_us\":" << c.latency.PercentileUs(99.9)
        << ",\"max_us\":" << static_cast<double>(c.latency.max_ns()) / 1e3 << "}";
    if (!c.vm_opcodes.empty()) {
      out << ",\"vm_opcodes\":{";
      bool first_op = true;
      for (const auto& [name, count] : c.vm_opcodes) {
        if (!first_op) {
          out << ",";
        }
        first_op = false;
        AppendJsonString(out, name);
        out << ":" << count;
      }
      out << "}";
    }
    out << "}";
  }
  if (!dispatch.workers.empty()) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"__dispatch__\":{\"inline_hits\":" << dispatch.inline_hits
        << ",\"inline_misses\":" << dispatch.inline_misses
        << ",\"shed_expired\":" << dispatch.shed_expired << ",\"workers\":[";
    bool first_worker = true;
    for (const WorkerLaneRow& row : dispatch.workers) {
      if (!first_worker) {
        out << ",";
      }
      first_worker = false;
      out << "{\"worker\":" << row.worker << ",\"batches\":" << row.batches
          << ",\"dequeued\":" << row.dequeued << ",\"batch_mean\":" << row.batch_sizes.mean()
          << ",\"batch_hist\":[";
      bool first_bucket = true;
      for (std::size_t i = 0; i < BatchHistogram::kBuckets; ++i) {
        if (row.batch_sizes.counts[i] == 0) {
          continue;
        }
        if (!first_bucket) {
          out << ",";
        }
        first_bucket = false;
        out << "{\"ge\":" << (1ull << i) << ",\"count\":" << row.batch_sizes.counts[i] << "}";
      }
      out << "],\"parks\":" << row.parks
          << ",\"notifies_sent\":" << row.notifies_sent
          << ",\"notifies_skipped\":" << row.notifies_skipped
          << ",\"producer_waits\":" << row.producer_waits << "}";
    }
    out << "]}";
  }
  if (netfront.present) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"__netfront__\":{\"connections\":{\"opened\":" << netfront.connections_opened
        << ",\"closed\":" << netfront.connections_closed
        << ",\"active\":" << netfront.connections_active << "}"
        << ",\"frame_errors\":" << netfront.frame_errors << ",\"bytes_in\":" << netfront.bytes_in
        << ",\"bytes_out\":" << netfront.bytes_out << ",\"read_pauses\":" << netfront.read_pauses
        << ",\"slow_reader_closes\":" << netfront.slow_reader_closes
        << ",\"io_thread_crashes\":" << netfront.io_thread_crashes
        << ",\"conns_adopted\":" << netfront.conns_adopted
        << ",\"crash_orphans\":" << netfront.crash_orphans << ",\"tenants\":{";
    bool first_tenant = true;
    for (const NetfrontSection::TenantRow& row : netfront.tenants) {
      if (!first_tenant) {
        out << ",";
      }
      first_tenant = false;
      AppendJsonString(out, row.name);
      out << ":{\"weight\":" << row.weight << ",\"accepted\":" << row.accepted
          << ",\"completed_ok\":" << row.completed_ok
          << ",\"completed_error\":" << row.completed_error
          << ",\"shed_degraded\":" << row.shed_degraded
          << ",\"shed_overload\":" << row.shed_overload
          << ",\"quota_rejected\":" << row.quota_rejected
          << ",\"breaker_open\":" << row.breaker_open
          << ",\"retries_deduped\":" << row.retries_deduped << "}";
    }
    out << "},\"io_threads\":[";
    bool first_io = true;
    for (const NetfrontSection::IoThreadRow& row : netfront.io_threads) {
      if (!first_io) {
        out << ",";
      }
      first_io = false;
      out << "{\"thread\":" << row.thread << ",\"decoded_frames\":" << row.decoded_frames
          << ",\"submit_batches\":" << row.submit_batches
          << ",\"batch_mean\":" << row.submit_sizes.mean() << ",\"batch_hist\":[";
      bool first_bucket = true;
      for (std::size_t i = 0; i < BatchHistogram::kBuckets; ++i) {
        if (row.submit_sizes.counts[i] == 0) {
          continue;
        }
        if (!first_bucket) {
          out << ",";
        }
        first_bucket = false;
        out << "{\"ge\":" << (1ull << i) << ",\"count\":" << row.submit_sizes.counts[i] << "}";
      }
      out << "],\"wakeups\":" << row.wakeups << "}";
    }
    out << "]}";
  }
  if (!injections.empty()) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"__faultlab__\":[";
    bool first_site = true;
    for (const auto& site : injections) {
      if (!first_site) {
        out << ",";
      }
      first_site = false;
      out << "{\"site\":";
      AppendJsonString(out, site.site);
      out << ",\"hits\":" << site.hits << ",\"injected\":" << site.injected << "}";
    }
    out << "]";
  }
  if (traced) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"__tracelab__\":{\"events\":" << trace_events
        << ",\"dropped\":" << trace_dropped << ",\"stages\":{";
    bool first_stage = true;
    for (const StageRow& row : stages) {
      if (!first_stage) {
        out << ",";
      }
      first_stage = false;
      AppendJsonString(out, row.graft);
      out << ":{";
      const auto cell = [&out](const char* key, const StageCell& c, bool lead_comma) {
        if (lead_comma) {
          out << ",";
        }
        out << "\"" << key << "\":{\"count\":" << c.count << ",\"total_us\":" << c.total_us
            << ",\"mean_us\":" << c.mean_us() << "}";
      };
      cell("queue", row.queue, false);
      cell("dispatch", row.dispatch, true);
      cell("crossing", row.crossing, true);
      cell("body", row.body, true);
      cell("disk", row.disk, true);
      out << ",\"ops\":" << row.ops << "}";
    }
    out << "},\"break_even\":[";
    bool first_be = true;
    for (const BreakEvenRow& row : break_even) {
      if (!first_be) {
        out << ",";
      }
      first_be = false;
      out << "{\"graft\":";
      AppendJsonString(out, row.graft);
      out << ",\"metric\":";
      AppendJsonString(out, row.metric);
      out << ",\"per_op_us\":" << row.per_op_us << ",\"reference_us\":" << row.reference_us
          << ",\"value\":" << row.value << "}";
    }
    out << "]}";
  }
  out << "}";
  return out.str();
}

}  // namespace graftd
