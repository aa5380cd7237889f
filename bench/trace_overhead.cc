// tracelab overhead gate + live-vs-offline break-even agreement.
//
// Observability that perturbs the measurement is worse than none: the paper's
// numbers are microsecond-scale crossings, so the tracer must be provably
// cheap before its output is trusted. This bench drives identical MD5/C
// stream workloads through graftd three ways and compares wall time:
//
//   baseline  - no tracer attached (the seed configuration);
//   disabled  - tracer attached, SetEnabled(false): every record call is a
//               relaxed load + branch. Gate: <= 3% over baseline.
//   enabled   - full recording into the per-thread rings. Gate: <= 15%.
//
// Interleaved min-of-reps keeps the gate robust on noisy single-core CI
// hosts: the minimum is the schedule-luck-free estimate of each config.
//
// The second half checks that the live break-even panel (observed spans,
// TelemetrySnapshot::break_even) agrees with the offline computation
// (the means of bench/graft_measures.h's fresh-instance runs through the
// same src/stats/break_even.h formulas) within 2x for the eviction and MD5
// shapes.
//
// Exit status is the gate: nonzero on any overhead or agreement failure.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/graft_measures.h"
#include "src/core/technology.h"
#include "src/diskmod/disk_model.h"
#include "src/graftd/dispatcher.h"
#include "src/grafts/factory.h"
#include "src/obslab/snapshot.h"
#include "src/stats/break_even.h"
#include "src/stats/harness.h"
#include "src/tracelab/export.h"
#include "src/tracelab/trace.h"

namespace {

using core::Technology;
using namespace std::chrono_literals;

constexpr std::size_t kChunk = 64u << 10;
constexpr std::size_t kPayload = 64u << 10;

enum class TraceMode { kBaseline, kDisabled, kEnabled };

// One rep: drive `invocations` MD5/C invocations through a 1-worker
// dispatcher (single-core-friendly: one producer, no modeled I/O) and
// return the drain wall time in microseconds.
double RunRep(TraceMode mode, const std::vector<std::uint8_t>& data, std::size_t invocations) {
  graftd::DispatcherOptions options;
  options.workers = 1;
  options.queue_capacity = invocations + 1;
  graftd::Dispatcher dispatcher(options);
  tracelab::Tracer tracer;
  if (mode != TraceMode::kBaseline) {
    tracer.SetEnabled(mode == TraceMode::kEnabled);
    dispatcher.set_tracer(&tracer);
  }
  const graftd::GraftId id =
      dispatcher.RegisterStreamGraft("md5/C", [](envs::PreemptToken* token) {
        return grafts::CreateMd5Graft(Technology::kC, token);
      });
  // Warm the worker-private instance so the timed region measures steady
  // state, not first-use construction.
  {
    graftd::Invocation warmup;
    warmup.graft = id;
    warmup.data = streamk::Bytes(data.data(), data.size());
    warmup.chunk = kChunk;
    dispatcher.Submit(std::move(warmup));
    dispatcher.Drain();
  }
  stats::Timer timer;
  for (std::size_t i = 0; i < invocations; ++i) {
    graftd::Invocation invocation;
    invocation.graft = id;
    invocation.data = streamk::Bytes(data.data(), data.size());
    invocation.chunk = kChunk;
    dispatcher.Submit(std::move(invocation));
  }
  dispatcher.Drain();
  return timer.ElapsedUs();
}

double RelDiff(double live, double offline) {
  const double hi = live > offline ? live : offline;
  const double lo = live > offline ? offline : live;
  return lo <= 0.0 ? 1e9 : hi / lo;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::Options::Parse(argc, argv);
  bench::PrintHeader("tracelab: tracing overhead gate + live break-even agreement",
                     "observability must not perturb the paper's microsecond-scale costs");

  std::vector<std::uint8_t> data(kPayload);
  std::mt19937_64 rng(1996);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng());
  }

  const std::size_t invocations = options.full ? 96 : 32;
  const std::size_t reps = options.full ? 7 : 5;

  // --- Overhead gate ---
  bench::PrintSection("Overhead: 1-worker MD5/C dispatch, interleaved min-of-reps");
  double min_us[3] = {1e300, 1e300, 1e300};
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const TraceMode mode :
         {TraceMode::kBaseline, TraceMode::kDisabled, TraceMode::kEnabled}) {
      const double us = RunRep(mode, data, invocations);
      double& slot = min_us[static_cast<int>(mode)];
      slot = us < slot ? us : slot;
    }
  }
  const double base = min_us[0];
  const double disabled_pct = (min_us[1] - base) / base * 100.0;
  const double enabled_pct = (min_us[2] - base) / base * 100.0;
  const bool disabled_ok = disabled_pct <= 3.0;
  const bool enabled_ok = enabled_pct <= 15.0;
  std::printf("  baseline (no tracer)   %9.1f us\n", base);
  std::printf("  compiled-in, disabled  %9.1f us  %+6.2f%%  (gate <= 3%%)  %s\n", min_us[1],
              disabled_pct, disabled_ok ? "PASS" : "FAIL");
  std::printf("  fully enabled          %9.1f us  %+6.2f%%  (gate <= 15%%) %s\n\n", min_us[2],
              enabled_pct, enabled_ok ? "PASS" : "FAIL");

  bench::JsonReport report("trace_overhead");
  report.AddUs("overhead/baseline", invocations, base / static_cast<double>(invocations), 0);
  report.AddUs("overhead/disabled", invocations, min_us[1] / static_cast<double>(invocations), 0);
  report.AddUs("overhead/enabled", invocations, min_us[2] / static_cast<double>(invocations), 0);

  // --- Live vs offline break-even ---
  bench::PrintSection("Live break-even vs offline computation (agreement gate: within 2x)");
  const diskmod::DiskModel disk = diskmod::PaperEraDisk();
  const double fault_us = disk.PageFaultUs(1);
  const double transfer_us = disk.TransferUs(kPayload);

  // Offline: the medians the Figure 1 / Table 5 pipelines use.
  const double offline_evict_us = bench::MeasureEvictionUs(Technology::kC, options.full ? 5 : 3);
  const double offline_md5_us = bench::MeasureMd5Us(Technology::kC, options.full ? 5 : 3, kPayload);
  const double offline_evict_be = stats::EvictionBreakEven(fault_us, offline_evict_us);
  const double offline_md5_ratio = stats::Md5DiskRatio(offline_md5_us, transfer_us);

  // Live: the same shapes through a traced dispatcher, panel read from the
  // snapshot. The modeled I/O feeds mirror the offline reference costs.
  graftd::DispatcherOptions live_options;
  live_options.workers = 1;
  live_options.queue_capacity = 256;
  graftd::Dispatcher dispatcher(live_options);
  tracelab::Tracer tracer;
  dispatcher.set_tracer(&tracer);
  const graftd::GraftId md5 =
      dispatcher.RegisterStreamGraft("md5/C", [](envs::PreemptToken* token) {
        return grafts::CreateMd5Graft(Technology::kC, token);
      });
  const graftd::GraftId evict =
      dispatcher.RegisterEvictionGraft("evict/C", [](envs::PreemptToken* token) {
        return grafts::CreateEvictionGraft(Technology::kC, token);
      });
  const graftd::GraftId ldisk = dispatcher.RegisterBlackBoxGraft(
      "ldisk/C", [](const ldisk::Geometry& geometry, envs::PreemptToken* token) {
        return grafts::CreateLogicalDiskGraft(Technology::kC, geometry, token);
      });
  const auto io_md5 = std::chrono::microseconds(static_cast<std::int64_t>(transfer_us));
  const auto io_fault = std::chrono::microseconds(static_cast<std::int64_t>(fault_us));
  for (int i = 0; i < 8; ++i) {
    graftd::Invocation invocation;
    invocation.graft = md5;
    invocation.data = streamk::Bytes(data.data(), data.size());
    invocation.chunk = kChunk;
    invocation.simulated_io = io_md5;
    dispatcher.Submit(std::move(invocation));
    graftd::Invocation lookup;
    lookup.graft = evict;
    lookup.eviction_lookups = 2048;
    lookup.simulated_io = io_fault;
    dispatcher.Submit(std::move(lookup));
    graftd::Invocation writes;
    writes.graft = ldisk;
    writes.ldisk_writes = 20000;
    writes.simulated_io = io_md5;
    dispatcher.Submit(std::move(writes));
  }
  dispatcher.Drain();
  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();

  double live_evict_be = 0.0;
  double live_md5_ratio = 0.0;
  double live_ldisk_us = 0.0;
  for (const auto& row : snapshot.break_even) {
    if (row.metric == "eviction_break_even") {
      live_evict_be = row.value;
    } else if (row.metric == "md5_disk_ratio") {
      live_md5_ratio = row.value;
    } else if (row.metric == "per_block_overhead_us") {
      live_ldisk_us = row.value;
    }
  }
  const double evict_x = RelDiff(live_evict_be, offline_evict_be);
  const double md5_x = RelDiff(live_md5_ratio, offline_md5_ratio);
  const bool evict_ok = evict_x <= 2.0;
  const bool md5_ok = md5_x <= 2.0;
  std::printf("  eviction break-even  live %10.1f  offline %10.1f  (%.2fx)  %s\n", live_evict_be,
              offline_evict_be, evict_x, evict_ok ? "PASS" : "FAIL");
  std::printf("  md5/disk ratio       live %10.4f  offline %10.4f  (%.2fx)  %s\n", live_md5_ratio,
              offline_md5_ratio, md5_x, md5_ok ? "PASS" : "FAIL");
  std::printf("  ldisk per-block overhead (live only): %.3f us\n\n", live_ldisk_us);
  report.Add("break_even/evict_live_vs_offline", 1, evict_x * 1e3, evict_ok ? 1 : 0);
  report.Add("break_even/md5_live_vs_offline", 1, md5_x * 1e3, md5_ok ? 1 : 0);

  // --- Exported trace sanity: the mixed run above, as Chrome JSON ---
  const tracelab::TraceDump dump = tracer.Dump();
  const std::string trace_path = "trace_overhead_mixed.json";
  const bool wrote = tracelab::WriteChromeTrace(dump, trace_path);
  std::printf("trace: %zu events (%llu dropped) -> %s\n", dump.event_count(),
              static_cast<unsigned long long>(dump.dropped()), trace_path.c_str());
  std::printf("%s\n", obslab::SnapshotText(snapshot).c_str());
  report.Write();

  const bool pass = disabled_ok && enabled_ok && evict_ok && md5_ok && wrote;
  std::printf("trace_overhead gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
