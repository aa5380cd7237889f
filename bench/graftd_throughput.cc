// graftd dispatch-engine scaling bench.
//
// The paper measures one graft invocation at a time; graftd's claim is that
// a multi-core runtime can dispatch many concurrently. This bench drives
// MD5 stream grafts through the dispatcher exactly the way the paper frames
// Table 5 — each invocation rides along with a modeled 64KB-per-transfer
// disk read (diskmod paper-era geometry), so while one worker waits for its
// transfer the others compute. Throughput is measured end-to-end at 1, 2,
// and 4 workers; the unsafe-C row must reach >= 3x single-worker throughput
// at 4 workers. A pure-CPU mode (--cpu, no modeled I/O) is also available
// for multi-core hosts.
//
// A second section measures the crossing itself: small-body invocations
// of a near-free "touch" graft with no modeled I/O, so the harness's own
// submit/dispatch toll IS the measurement. Per-item Submit through the
// worker queues is compared against batched submission and the inline
// fast path, each round running all three back to back. The inline row
// runs the same dispatcher, supervisor and RunOne with only the queue
// crossing missing, so queue ns/inv over inline ns/inv, taken per round
// and medianed over three rounds, is a same-run price of the queue
// crossing; it must stay at or below kMaxQueueOverInline. Every run must
// also produce the identical digest checksum (the queues may reorder,
// never corrupt or drop).
//
// After the sweeps the bench runs every technology through a 4-worker
// dispatcher and prints the merged per-graft telemetry snapshot
// (counters + log-bucketed latency histogram), including a supervised
// always-faulting graft and a budgeted runaway graft so the quarantine and
// preemption columns are exercised, plus a black-box/ldisk section.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/technology.h"
#include "src/diskmod/disk_model.h"
#include "src/envs/fault.h"
#include "src/graftd/dispatcher.h"
#include "src/grafts/factory.h"
#include "src/grafts/minnow_grafts.h"
#include "src/obslab/plane.h"
#include "src/obslab/snapshot.h"
#include "src/stats/harness.h"
#include "src/tracelab/export.h"
#include "src/tracelab/trace.h"

namespace {

using core::Technology;
using namespace std::chrono_literals;

constexpr std::size_t kChunk = 64u << 10;    // the paper's disk transfer unit
constexpr std::size_t kPayload = 64u << 10;  // one transfer per invocation

std::vector<std::uint8_t> MakeData(std::size_t bytes) {
  std::vector<std::uint8_t> data(bytes);
  std::mt19937_64 rng(1996);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng());
  }
  return data;
}

graftd::StreamGraftFactory Md5Factory(Technology technology) {
  return [technology](envs::PreemptToken* token) {
    return grafts::CreateMd5Graft(technology, token);
  };
}

class AlwaysFaultGraft : public core::StreamGraft {
 public:
  void Consume(const std::uint8_t*, std::size_t) override { throw envs::NilFault(); }
  md5::Digest Finish() override { throw envs::NilFault(); }
  const char* technology() const override { return "faulty"; }
};

class RunawayGraft : public core::StreamGraft {
 public:
  explicit RunawayGraft(envs::PreemptToken* token) : token_(token) {}
  void Consume(const std::uint8_t*, std::size_t) override {
    for (;;) {
      token_->Poll();
      std::this_thread::sleep_for(50us);
    }
  }
  md5::Digest Finish() override { return md5::Digest{}; }
  const char* technology() const override { return "runaway"; }

 private:
  envs::PreemptToken* token_;
};

// Pushes `invocations` stream invocations from `producers` threads and
// returns the wall-clock seconds from first submit to drain.
double DriveStream(graftd::Dispatcher& dispatcher, graftd::GraftId id,
                   const std::vector<std::uint8_t>& data, std::size_t invocations,
                   std::size_t producers, std::chrono::microseconds simulated_io) {
  stats::Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(producers);
  const std::size_t per_producer = invocations / producers;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const std::size_t extra = p == 0 ? invocations % producers : 0;
      for (std::size_t i = 0; i < per_producer + extra; ++i) {
        graftd::Invocation invocation;
        invocation.graft = id;
        invocation.data = streamk::Bytes(data.data(), data.size());
        invocation.chunk = kChunk;
        invocation.simulated_io = simulated_io;
        dispatcher.Submit(std::move(invocation));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  dispatcher.Drain();
  return timer.ElapsedUs() / 1e6;
}

// Minimal stream graft for the crossing-collapse sweep: provably touches
// its input (first/last byte of every chunk folded into the digest) but
// costs only a few nanoseconds, so invocation throughput measures the
// harness's own submit/dispatch toll — the paper's fixed per-invocation
// crossing — rather than the extension body.
class TouchGraft : public core::StreamGraft {
 public:
  void Consume(const std::uint8_t* data, std::size_t len) override {
    acc_ = acc_ * 1099511628211ull + data[0] + (static_cast<std::uint64_t>(data[len - 1]) << 8) +
           len;
  }
  md5::Digest Finish() override {
    md5::Digest digest{};
    std::memcpy(digest.data(), &acc_, sizeof(acc_));
    acc_ = 0;
    return digest;
  }
  const char* technology() const override { return "touch"; }

 private:
  std::uint64_t acc_ = 0;
};

// One crossing variant: how invocations reach the workers.
struct CrossingVariant {
  const char* name;
  const char* key;    // JSON report row
  std::size_t batch;  // 0 = per-item Submit
  bool inline_path;   // DispatcherOptions::inline_fast_path
};

// Upper bound on the crossing gate's queue/inline ratio: the worst of 27
// default-build runs on a 4-core x86-64 box (1.74; median 1.59) plus 20%.
// A 1 us spin added to each blocking push reads 9.8-13.5.
constexpr double kMaxQueueOverInline = 2.1;

struct CrossingResult {
  double seconds = 0.0;
  std::uint64_t checksum = 0;  // XOR of completed digests (order-free)
  std::uint64_t ok = 0;
  std::uint64_t inline_hits = 0;
};

// Drives `invocations` tiny-payload TouchGraft invocations (no modeled
// I/O) from `producers` threads through a fresh 4-worker dispatcher
// configured per `variant`. Invocation i fingerprints a distinct 64-byte
// window of `data` (so digests differ), and every completed digest is
// XOR-folded into an order-independent checksum: the queues may reorder,
// but a dropped, duplicated, or corrupted invocation changes the fold.
CrossingResult DriveCrossing(const CrossingVariant& variant,
                             const std::vector<std::uint8_t>& data, std::size_t invocations,
                             std::size_t producers) {
  graftd::DispatcherOptions dispatch_options;
  dispatch_options.workers = 4;
  dispatch_options.queue_capacity = 256;
  dispatch_options.inline_fast_path = variant.inline_path;
  graftd::Dispatcher dispatcher(dispatch_options);
  const graftd::GraftId id = dispatcher.RegisterStreamGraft(
      "touch", [](envs::PreemptToken*) -> std::unique_ptr<core::StreamGraft> {
        return std::make_unique<TouchGraft>();
      });

  CrossingResult result;
  std::atomic<std::uint64_t> checksum{0};
  std::atomic<std::uint64_t> ok{0};
  const auto on_result = [&checksum, &ok](const core::GraftHost::StreamRunResult& run) {
    if (!run.ok) {
      return;
    }
    ok.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t folded = 0;
    std::memcpy(&folded, run.digest.data(), sizeof(folded));
    std::uint64_t hi = 0;
    std::memcpy(&hi, run.digest.data() + sizeof(folded), sizeof(hi));
    checksum.fetch_xor(folded ^ hi, std::memory_order_relaxed);
  };
  constexpr std::size_t kSmallBody = 64;
  const std::size_t windows = data.size() - kSmallBody + 1;
  const auto make_invocation = [&](std::size_t index) {
    graftd::Invocation invocation;
    invocation.graft = id;
    invocation.data = streamk::Bytes(data.data() + index % windows, kSmallBody);
    invocation.chunk = kChunk;
    invocation.on_stream_result = on_result;
    return invocation;
  };

  stats::Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(producers);
  const std::size_t per_producer = invocations / producers;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const std::size_t mine = per_producer + (p == 0 ? invocations % producers : 0);
      const std::size_t base = p * per_producer + (p == 0 ? 0 : invocations % producers);
      if (variant.batch == 0) {
        for (std::size_t i = 0; i < mine; ++i) {
          dispatcher.Submit(make_invocation(base + i));
        }
        return;
      }
      std::vector<graftd::Invocation> batch;
      for (std::size_t done = 0; done < mine;) {
        const std::size_t n = std::min(variant.batch, mine - done);
        batch.clear();
        for (std::size_t i = 0; i < n; ++i) {
          batch.push_back(make_invocation(base + done + i));
        }
        const std::size_t accepted = dispatcher.SubmitBatch(batch);
        done += accepted;
        if (accepted == 0) {
          break;  // dispatcher closed under us; nothing more will land
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  dispatcher.Drain();
  result.seconds = timer.ElapsedUs() / 1e6;
  result.checksum = checksum.load();
  result.ok = ok.load();
  result.inline_hits = dispatcher.Snapshot().dispatch.inline_hits;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::Options::Parse(argc, argv);
  bool cpu_only = false;
  bool trace = false;
  bool metrics_dump = false;
  std::string trace_path = "trace_graftd.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cpu") == 0) {
      cpu_only = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace = true;
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--metrics-dump") == 0) {
      metrics_dump = true;
    }
  }

  bench::PrintHeader("graftd: concurrent graft dispatch throughput",
                     "paper SS5.5 framing (MD5 overlapped with disk I/O), scaled out");

  const auto data = MakeData(kPayload);
  const diskmod::DiskModel disk = diskmod::PaperEraDisk();
  const auto io_us = cpu_only ? std::chrono::microseconds(0)
                              : std::chrono::microseconds(static_cast<std::int64_t>(
                                    disk.TransferUs(kPayload)));
  const std::size_t invocations = options.full ? 256 : 64;
  const std::size_t producers = 4;

  std::printf("payload %zuKB per invocation, %zu invocations, %zu producer threads\n",
              kPayload >> 10, invocations, producers);
  if (cpu_only) {
    std::printf("mode: pure CPU (no modeled I/O); scaling needs real cores\n\n");
  } else {
    std::printf("mode: disk-fed; each invocation overlaps a modeled %.1fms 64KB-chain\n"
                "transfer (paper-era disk), so workers scale by overlapping I/O\n\n",
                static_cast<double>(io_us.count()) / 1e3);
  }

  // --- Scaling sweep: unsafe C across worker counts ---
  bench::PrintSection("Dispatch scaling, MD5 stream graft, unsafe C");
  bench::JsonReport report("graftd_throughput");
  double base_throughput = 0.0;
  double speedup_at_4 = 0.0;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    graftd::DispatcherOptions dispatch_options;
    dispatch_options.workers = workers;
    dispatch_options.queue_capacity = 256;
    dispatch_options.inline_fast_path = false;  // the workers' scaling is under test
    graftd::Dispatcher dispatcher(dispatch_options);
    const graftd::GraftId id = dispatcher.RegisterStreamGraft("md5/C", Md5Factory(Technology::kC));
    const double seconds = DriveStream(dispatcher, id, data, invocations, producers, io_us);
    const double mb = static_cast<double>(invocations * kPayload) / (1u << 20);
    const double throughput = mb / seconds;
    if (workers == 1) {
      base_throughput = throughput;
    }
    const double speedup = throughput / base_throughput;
    if (workers == 4) {
      speedup_at_4 = speedup;
    }
    std::printf("  %zu worker%s  %7.1f MB/s   speedup %.2fx\n", workers, workers == 1 ? " " : "s",
                throughput, speedup);
    report.Add("scaling/md5_C/workers" + std::to_string(workers), invocations,
               seconds * 1e9 / static_cast<double>(invocations),
               bench::Checksum(data.data(), data.size()));
  }
  std::printf("  4-worker speedup %.2fx vs single worker -> %s (target >= 3x)\n\n", speedup_at_4,
              speedup_at_4 >= 3.0 ? "PASS" : "FAIL");

  // --- Crossing: small bodies, the harness toll itself ---
  bench::PrintSection("Crossing: small-body touch graft, 4 workers, 4 producers");
  // 64-byte bodies sliced from a 1KB pool through the near-free TouchGraft:
  // the body is a few ns, so the submit/dispatch crossing is essentially
  // all of each invocation — the quantity under test. Distinct windows
  // keep the XOR checksum non-degenerate.
  const auto small_data = MakeData(1u << 10);
  const std::size_t small_invocations = options.full ? 40000 : 8000;
  constexpr CrossingVariant kVariants[] = {
      {"queue", "crossing/touch/queue", 0, false},
      {"queue+batch32", "crossing/touch/queue_batch", 32, false},
      {"queue+inline", "crossing/touch/queue_inline", 0, true},
  };
  constexpr std::size_t kQueue = 0;
  constexpr std::size_t kInline = 2;
  constexpr std::size_t kRounds = 3;
  constexpr std::size_t kVariantCount = std::size(kVariants);
  // runs[v][r]: variant v in round r. Each round runs every variant back
  // to back, so a round's queue/inline ratio compares runs that saw the
  // same host conditions.
  CrossingResult runs[kVariantCount][kRounds];
  const auto ns_per_inv = [](const CrossingResult& run) {
    return run.seconds * 1e9 / static_cast<double>(run.ok);
  };
  std::uint64_t reference_checksum = 0;
  bool checksums_agree = true;
  double ratios[kRounds];
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t v = 0; v < kVariantCount; ++v) {
      runs[v][r] = DriveCrossing(kVariants[v], small_data, small_invocations, producers);
      if (r == 0 && v == 0) {
        reference_checksum = runs[v][r].checksum;
      }
      checksums_agree = checksums_agree && runs[v][r].checksum == reference_checksum;
    }
    ratios[r] = ns_per_inv(runs[kQueue][r]) / ns_per_inv(runs[kInline][r]);
  }
  for (std::size_t v = 0; v < kVariantCount; ++v) {
    // Report each variant's median round.
    CrossingResult* reps = runs[v];
    std::sort(reps, reps + kRounds, [](const CrossingResult& a, const CrossingResult& b) {
      return a.seconds < b.seconds;
    });
    const CrossingResult& run = reps[kRounds / 2];
    const double ns = ns_per_inv(run);
    std::printf("  %-13s %9.0f inv/s  %7.1f ns/inv   checksum %016llx%s\n", kVariants[v].name,
                static_cast<double>(run.ok) / run.seconds, ns,
                static_cast<unsigned long long>(run.checksum),
                kVariants[v].inline_path
                    ? ("   (" + std::to_string(run.inline_hits) + " inline hits)").c_str()
                    : "");
    report.Add(kVariants[v].key, run.ok, ns, run.checksum);
  }
  std::sort(std::begin(ratios), std::end(ratios));
  const double queue_over_inline = ratios[kRounds / 2];
  const bool crossing_ok = queue_over_inline <= kMaxQueueOverInline;
  std::printf("  queue/inline ns per invocation, median of %zu rounds: %.2fx (sorted %.2f %.2f "
              "%.2f) -> %s (bound <= %.2fx); checksums %s\n\n",
              kRounds, queue_over_inline, ratios[0], ratios[1], ratios[2],
              crossing_ok ? "PASS" : "FAIL", kMaxQueueOverInline,
              checksums_agree ? "agree" : "DISAGREE");

  // --- Per-technology supervised runs with telemetry ---
  const std::vector<Technology> technologies =
      options.full ? std::vector<Technology>{Technology::kC, Technology::kModula3,
                                             Technology::kModula3Trap, Technology::kSfi,
                                             Technology::kSfiFull, Technology::kJava,
                                             Technology::kJavaTranslated}
                   : std::vector<Technology>{Technology::kC, Technology::kModula3,
                                             Technology::kSfi, Technology::kJava};
  // (Tcl is omitted: at ~4 orders of magnitude over C, one 64KB invocation
  // is minutes — the same reason the paper skipped Tcl for Table 6.)

  bench::PrintSection("Supervised 4-worker run, all technologies + misbehaving grafts");
  graftd::DispatcherOptions dispatch_options;
  dispatch_options.workers = 4;
  dispatch_options.queue_capacity = 256;
  dispatch_options.policy.fault_threshold = 3;
  dispatch_options.policy.base_backoff = 50ms;
  dispatch_options.policy.max_quarantines = 3;
  dispatch_options.inline_fast_path = false;  // every invocation runs on a worker
  graftd::Dispatcher dispatcher(dispatch_options);

  // --trace: record the supervised run as nested spans and export Chrome
  // trace-event JSON (chrome://tracing or ui.perfetto.dev can open it).
  tracelab::Tracer tracer;
  if (trace) {
    dispatcher.set_tracer(&tracer);
  }

  std::vector<graftd::GraftId> ids;
  std::vector<graftd::GraftId> eviction_ids;
  for (const Technology technology : technologies) {
    ids.push_back(dispatcher.RegisterStreamGraft(
        std::string("md5/") + core::TechnologyName(technology), Md5Factory(technology)));
    eviction_ids.push_back(dispatcher.RegisterEvictionGraft(
        std::string("evict/") + core::TechnologyName(technology),
        [technology](envs::PreemptToken* token) {
          return grafts::CreateEvictionGraft(technology, token);
        }));
  }
  // A profiled Minnow VM: its per-opcode retire counts flow through
  // StreamGraft::ExecutionProfile into the snapshot's vm_opcodes tables —
  // the telemetry the superinstruction fusion set was selected from.
  const graftd::GraftId profiled = dispatcher.RegisterStreamGraft(
      "md5/Java+profile", [](envs::PreemptToken*) {
        grafts::MinnowConfig config;
        config.profile_opcodes = true;
        return std::make_unique<grafts::MinnowMd5Graft>(config);
      });
  const graftd::GraftId faulty = dispatcher.RegisterStreamGraft(
      "faulty", [](envs::PreemptToken*) { return std::make_unique<AlwaysFaultGraft>(); });
  const graftd::GraftId runaway = dispatcher.RegisterStreamGraft(
      "runaway", [](envs::PreemptToken* token) { return std::make_unique<RunawayGraft>(token); });
  const graftd::GraftId ldisk = dispatcher.RegisterBlackBoxGraft(
      "ldisk/C", [](const ldisk::Geometry& geometry, envs::PreemptToken* token) {
        return grafts::CreateLogicalDiskGraft(Technology::kC, geometry, token);
      });

  // --metrics-dump: attach the obslab plane to the supervised run and print
  // one Prometheus scrape at the end — the one-shot equivalent of a wire
  // kAdminMetrics scrape, for offline inspection of the same series.
  std::unique_ptr<obslab::Plane> plane;
  if (metrics_dump) {
    plane = std::make_unique<obslab::Plane>();
    plane->Attach(dispatcher);
    if (trace) {
      plane->AttachTracer(&tracer);
    }
  }

  // The mixed workload rides the paper's disk feeds: MD5 overlaps a 64KB
  // transfer (Table 5), eviction competes with the one-page fault it would
  // avoid (Figure 1), ldisk bookkeeping rides its own transfer (Table 6).
  const auto md5_io = io_us;
  const auto evict_io = cpu_only ? std::chrono::microseconds(0)
                                 : std::chrono::microseconds(static_cast<std::int64_t>(
                                       disk.PageFaultUs(1)));
  const auto ldisk_io = io_us;

  const std::size_t per_tech = options.full ? 32 : 12;
  for (std::size_t t = 0; t < technologies.size(); ++t) {
    for (std::size_t i = 0; i < per_tech; ++i) {
      graftd::Invocation invocation;
      invocation.graft = ids[t];
      invocation.data = streamk::Bytes(data.data(), data.size());
      invocation.chunk = kChunk;
      invocation.simulated_io = md5_io;
      dispatcher.Submit(std::move(invocation));
    }
    for (std::size_t i = 0; i < per_tech / 2; ++i) {
      graftd::Invocation invocation;
      invocation.graft = eviction_ids[t];
      invocation.eviction_lookups = 512;  // one Table 2 burst per invocation
      invocation.simulated_io = evict_io;
      dispatcher.Submit(std::move(invocation));
    }
  }
  for (std::size_t i = 0; i < per_tech / 2 + 1; ++i) {
    graftd::Invocation invocation;
    invocation.graft = profiled;
    invocation.data = streamk::Bytes(data.data(), data.size());
    invocation.chunk = kChunk;
    dispatcher.Submit(std::move(invocation));
  }
  for (int i = 0; i < 8; ++i) {  // quarantined after 3
    graftd::Invocation invocation;
    invocation.graft = faulty;
    invocation.data = streamk::Bytes(data.data(), data.size());
    dispatcher.Submit(std::move(invocation));
  }
  for (int i = 0; i < 4; ++i) {  // each preempted at 2ms by the shared wheel
    graftd::Invocation invocation;
    invocation.graft = runaway;
    invocation.data = streamk::Bytes(data.data(), 64);
    invocation.budget = 2ms;
    dispatcher.Submit(std::move(invocation));
  }
  for (int i = 0; i < 8; ++i) {
    graftd::Invocation invocation;
    invocation.graft = ldisk;
    invocation.ldisk_writes = 20000;
    invocation.simulated_io = ldisk_io;
    dispatcher.Submit(std::move(invocation));
  }
  dispatcher.Drain();

  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  std::printf("wheel: %llu deadlines armed, %llu fired; contained faults across shards: %llu\n\n",
              static_cast<unsigned long long>(dispatcher.deadline_wheel().armed()),
              static_cast<unsigned long long>(dispatcher.deadline_wheel().fired()),
              static_cast<unsigned long long>(dispatcher.contained_faults()));

  bench::PrintSection("Telemetry snapshot (obslab registry JSON)");
  std::printf("%s\n", obslab::SnapshotJson(snapshot).c_str());

  if (trace) {
    const tracelab::TraceDump dump = tracer.Dump();
    tracelab::WriteChromeTrace(dump, trace_path);
    std::printf("\ntrace: wrote %llu events (%llu dropped) to %s\n",
                static_cast<unsigned long long>(dump.event_count()),
                static_cast<unsigned long long>(dump.dropped()), trace_path.c_str());
  }

  // One row per supervised graft: mean service latency, with the outcome
  // counters folded into the checksum (runs that fault or preempt
  // differently must not silently compare equal).
  for (const auto& row : snapshot.grafts) {
    const graftd::GraftCounters& c = row.counters;
    if (c.invocations == 0) {
      continue;
    }
    const std::uint64_t outcomes[] = {c.ok, c.faults, c.preempts, c.disk_faults};
    report.Add("supervised/" + row.name, c.invocations, c.latency.mean_us() * 1e3,
               bench::Checksum(outcomes, sizeof(outcomes)));
  }
  if (plane != nullptr) {
    bench::PrintSection("obslab metrics dump (Prometheus text)");
    std::printf("%s\n", plane->Exposition(obslab::kFormatPrometheus).c_str());
  }

  report.Write();
  const bool scaling_ok = speedup_at_4 >= 3.0;
  return scaling_ok && crossing_ok && checksums_agree ? 0 : 1;
}
