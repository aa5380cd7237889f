// Per-graft telemetry: counters + latency histograms, merged at snapshot.
//
// Workers keep graft counters worker-locally (one short mutex per update so
// a snapshot can read mid-run without tearing) and Dispatcher::Snapshot()
// merges the shards. The snapshot is plain data: every view of it, text or
// JSON, is the obslab registry's (AppendSnapshotSamples in
// src/obslab/snapshot.h).

#ifndef GRAFTLAB_SRC_GRAFTD_TELEMETRY_H_
#define GRAFTLAB_SRC_GRAFTD_TELEMETRY_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/faultlab/injector.h"
#include "src/graftd/histogram.h"
#include "src/graftd/supervisor.h"

namespace graftd {

// Per-worker dispatch-path accounting (how invocations moved, not what
// they did): filled by the worker under its stats lock.
struct DispatchCounters {
  std::uint64_t batches = 0;   // dequeue episodes that yielded work
  std::uint64_t dequeued = 0;  // invocations that arrived via the worker queues
  Histogram batch_sizes;       // invocations per dequeue episode
};

struct GraftCounters {
  std::uint64_t invocations = 0;  // attempts that reached a worker
  std::uint64_t ok = 0;
  std::uint64_t faults = 0;       // contained extension faults
  std::uint64_t preempts = 0;     // budget/fuel exhaustion
  std::uint64_t disk_faults = 0;  // device failures (DiskFull, hard, injected)
  std::uint64_t rejected_quarantined = 0;
  std::uint64_t rejected_detached = 0;
  std::uint64_t rejected_degraded = 0;  // shed while the device was failing
  std::uint64_t shed_expired = 0;       // deadline passed in queue; body never ran
  std::uint64_t fuel_used = 0;  // summed over metered invocations
  Histogram latency;            // service latency (ns) of executed invocations

  // Per-opcode retire counts reported through StreamGraft::ExecutionProfile
  // (profiled Minnow VMs). Each worker records its instance's cumulative
  // counts, so Merge sums across workers to a fleet-wide frequency table —
  // the data the superinstruction fusion set is selected from.
  std::vector<std::pair<std::string, std::uint64_t>> vm_opcodes;

  // Rows of the profile that describe the loaded program or its compiled
  // form rather than execution volume. Every worker's instance of a graft
  // loads the same program, so these are identical per instance and summing
  // them across shards would multiply a static fact by the worker count
  // (checks_elided reported 8x on an 8-worker dispatcher). Merge takes the
  // max instead, which is idempotent for identical instances and still
  // surfaces the largest footprint if instances ever diverge. Runtime
  // counters (opcode retires, jit_deopts) keep summing.
  static bool IsStaticProfileRow(const std::string& name) {
    return name == "checks_elided" || name == "checks_retained" ||
           name == "jit_compiled_fns" || name == "jit_bytes" || name == "jit_bailouts" ||
           name == "jit_homed_slots";
  }

  // Sort-and-fold merge: O((n+m) log (n+m)) regardless of either side's
  // order, instead of the old O(n*m) scan-per-entry — snapshot cost stays
  // bounded as the opcode and superinstruction-pair tables grow.
  void MergeOpcodes(const std::vector<std::pair<std::string, std::uint64_t>>& other) {
    if (other.empty()) {
      return;
    }
    vm_opcodes.insert(vm_opcodes.end(), other.begin(), other.end());
    std::sort(vm_opcodes.begin(), vm_opcodes.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t out = 0;
    for (std::size_t i = 0; i < vm_opcodes.size();) {
      std::size_t j = i;
      std::uint64_t total = 0;
      const bool take_max = IsStaticProfileRow(vm_opcodes[i].first);
      for (; j < vm_opcodes.size() && vm_opcodes[j].first == vm_opcodes[i].first; ++j) {
        total = take_max ? std::max(total, vm_opcodes[j].second) : total + vm_opcodes[j].second;
      }
      vm_opcodes[out] = {std::move(vm_opcodes[i].first), total};
      ++out;
      i = j;
    }
    vm_opcodes.resize(out);
  }

  void Merge(const GraftCounters& other) {
    MergeOpcodes(other.vm_opcodes);
    invocations += other.invocations;
    ok += other.ok;
    faults += other.faults;
    preempts += other.preempts;
    disk_faults += other.disk_faults;
    rejected_quarantined += other.rejected_quarantined;
    rejected_detached += other.rejected_detached;
    rejected_degraded += other.rejected_degraded;
    shed_expired += other.shed_expired;
    fuel_used += other.fuel_used;
    latency.Merge(other.latency);
  }
};

// The network front-end's contribution to a telemetry snapshot: plain
// data filled by netfront::Server::FillTelemetry (graftd deliberately does
// not depend on netfront — the section struct lives here so the snapshot
// renders it alongside everything else).
struct NetfrontSection {
  bool present = false;

  // Per-tenant admission accounting. `accepted` counts requests handed to
  // the dispatcher; the shed/rejected counters were answered at the socket
  // and never reached a queue.
  struct TenantRow {
    std::string name;
    std::uint64_t weight = 1;        // DRR share under contention
    std::uint64_t accepted = 0;      // submitted into dispatch queues
    std::uint64_t completed_ok = 0;  // replies carrying a result
    std::uint64_t completed_error = 0;  // replies carrying a dispatch error
    std::uint64_t shed_degraded = 0;    // kRejectDegraded state, shed at read
    std::uint64_t shed_overload = 0;    // staging backlog full
    std::uint64_t quota_rejected = 0;   // token bucket empty
    std::uint64_t breaker_open = 0;     // circuit breaker open, shed at admission
    std::uint64_t retries_deduped = 0;  // replayed from the dedup window (no re-execution)
  };

  // Per-IO-thread mechanics: how frames moved from sockets into the worker queues.
  struct IoThreadRow {
    std::size_t thread = 0;
    std::uint64_t decoded_frames = 0;
    std::uint64_t submit_batches = 0;       // TrySubmitBatch episodes
    Histogram submit_sizes;                 // accepted frames per submit batch
    std::uint64_t wakeups = 0;              // eventfd wakes received
  };

  std::uint64_t connections_opened = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t frame_errors = 0;        // hostile/desynced streams (fatal per conn)
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t read_pauses = 0;         // backpressure: EPOLLIN dropped
  std::uint64_t slow_reader_closes = 0;  // write buffer hit the hard cap
  // chaoslab: injected IO-thread crashes and what the survivors inherited.
  std::uint64_t io_thread_crashes = 0;   // IO threads killed by injection
  std::uint64_t conns_adopted = 0;       // connections migrated to survivors
  std::uint64_t crash_orphans = 0;       // staged requests lost in a crash
  std::vector<TenantRow> tenants;
  std::vector<IoThreadRow> io_threads;
};

// Point-in-time, cross-worker view of every supervised graft.
struct TelemetrySnapshot {
  struct Row {
    std::string name;
    Supervisor::GraftStatus supervision;
    GraftCounters counters;
  };
  std::vector<Row> grafts;

  // Fault-injection counters, present when a faultlab::Injector is attached
  // to the dispatcher: one row per site.
  std::vector<faultlab::Injector::SiteCounters> injections;

  // --- tracelab section, populated when a tracer is attached ---

  // Per-stage timing for one graft, aggregated from the trace by
  // tracelab::Aggregate at snapshot time. All times come from observed
  // spans, so an empty cell means the stage never ran for this graft.
  struct StageCell {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double mean_us() const {
      return count == 0 ? 0.0 : total_us / static_cast<double>(count);
    }
  };
  struct StageRow {
    std::string graft;
    StageCell queue;     // submit -> worker dequeue (cross-thread)
    StageCell dispatch;  // worker-side service: admit -> outcome recorded
    StageCell crossing;  // host -> technology entry machinery
    StageCell body;      // the graft's own work
    StageCell disk;      // simulated device time
    std::uint64_t ops = 0;  // shape operations (eviction lookups, ldisk writes)
  };

  // Live break-even figures: the §5 formulas from src/stats/break_even.h
  // fed with the observed per-stage means above instead of offline bench
  // medians. `value` is the formula result; per_op/reference are its inputs.
  struct BreakEvenRow {
    std::string graft;
    std::string metric;  // eviction_break_even | md5_disk_ratio | per_block_overhead_us
    double per_op_us = 0.0;     // technology-side cost per operation
    double reference_us = 0.0;  // the kernel/device cost it competes with
    double value = 0.0;
  };

  bool traced = false;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::vector<StageRow> stages;
  std::vector<BreakEvenRow> break_even;

  // --- dispatch-path section: how the queues moved the invocations ---

  // One row per worker shard, from that worker's BoundedMpscQueue wait
  // accounting.
  struct WorkerLaneRow {
    std::size_t worker = 0;
    std::uint64_t batches = 0;
    std::uint64_t dequeued = 0;
    Histogram batch_sizes;
    // Always 0: workers park as soon as their queue is empty, with no spin
    // phase. Not rendered; kept because graftbench reports it.
    std::uint64_t spin_wakeups = 0;
    std::uint64_t parks = 0;             // consumer condvar sleeps entered
    std::uint64_t notifies_sent = 0;     // condvar wakes actually issued
    std::uint64_t notifies_skipped = 0;  // skipped because nobody waited
    std::uint64_t producer_waits = 0;    // pushes that slept on a full queue
  };

  // Submission/dispatch mechanics for the whole dispatcher; present
  // (rendered) whenever `workers` is non-empty.
  struct DispatchStats {
    std::uint64_t inline_hits = 0;    // invocations run on the caller's thread
    std::uint64_t inline_misses = 0;  // claim lost; fell back to the queue
    std::uint64_t shed_expired = 0;   // deadline passed in queue; body never ran
    std::vector<WorkerLaneRow> workers;
  };
  DispatchStats dispatch;

  // Network front-end section, filled by netfront::Server::FillTelemetry
  // when a server fronts this dispatcher.
  NetfrontSection netfront;
};

}  // namespace graftd

#endif  // GRAFTLAB_SRC_GRAFTD_TELEMETRY_H_
