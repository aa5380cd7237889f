// graftd dispatch engine: N producers -> fixed worker pool -> sharded hosts.
//
// Turns GraftLab's one-shot measurement harness into a runtime: producers
// submit graft invocations (stream/MD5 or black-box/logical-disk work);
// workers pull them in batches from per-worker submission queues and run
// them against worker-private core::GraftHost shards, gated by the shared
// Supervisor and timed into worker-local telemetry.
//
// The submission/dispatch hot path is built to keep the harness's own
// crossing cost out of the numbers it reports (the paper's fixed
// per-invocation toll):
//
//   * one bounded MPSC queue per worker (src/graftd/queue.h): a mutex
//     ring whose condvar wakes are waiter-counted, so a push only pays a
//     notify when the worker is actually parked, and an idle worker parks
//     at once, leaving its core to the producers (netfront IO threads);
//   * batched submission — SubmitBatch/TrySubmitBatch amortize one
//     lock/wake episode over a whole span of invocations, and workers
//     dequeue up to max_batch per lock round-trip;
//   * an inline fast path — when the submitting thread targets an idle
//     shard, the invocation runs on the caller's thread and skips the
//     queue entirely: the moral equivalent of the paper's "compiled into
//     the kernel" column. Per-item Submit/TrySubmit take it on their own;
//     a batch takes it only through RunBatchInline, which a front-end
//     calls when the batch is all the work it holds (run to completion:
//     it would otherwise wake a worker and go to sleep itself).
//
// All three paths carry full tracelab span attribution (queue-wait,
// crossing, body) and go through the same supervisor admission/outcome
// scoring, so quarantine/degrade semantics are path-independent.
//
// Sharding model: graft *registrations* are global (one GraftId, one policy
// record, one merged telemetry row), graft *instances* are per worker —
// each worker lazily constructs its own instance from the registered
// factory, wired to its own host's PreemptToken. Extension state is
// worker-private; the inline fast path may touch it from the submitting
// thread, but only under the shard's execution claim (an atomic busy flag
// that serializes inline runs against worker batches). No graft keeps
// thread-affine state, so serializing the callers is all it takes.
//
// Budget enforcement: one shared DeadlineWheel serves every worker, so the
// per-invocation cost of a wall-clock budget is an O(1) Arm/Cancel instead
// of the historical thread spawn/join. Interpreted grafts additionally get
// the policy's fuel budget set before each invocation.

#ifndef GRAFTLAB_SRC_GRAFTD_DISPATCHER_H_
#define GRAFTLAB_SRC_GRAFTD_DISPATCHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/core/graft.h"
#include "src/core/graft_host.h"
#include "src/faultlab/injector.h"
#include "src/graftd/deadline_wheel.h"
#include "src/graftd/queue.h"
#include "src/graftd/supervisor.h"
#include "src/graftd/telemetry.h"
#include "src/tracelab/trace.h"
#include "src/vmsim/frame.h"

namespace graftd {

// Builds a worker-private stream graft; `preempt` is the owning worker
// host's token (wire it into compiled-safe technologies).
using StreamGraftFactory =
    std::function<std::unique_ptr<core::StreamGraft>(envs::PreemptToken* preempt)>;

// Builds a worker-private black-box graft over the worker host's geometry.
using BlackBoxGraftFactory = std::function<std::unique_ptr<core::BlackBoxGraft>(
    const ldisk::Geometry& geometry, envs::PreemptToken* preempt)>;

// Builds a worker-private eviction (Prioritization) graft; the worker owns
// the LRU rig it is pointed at (see WorkerShard::EvictionRig).
using EvictionGraftFactory =
    std::function<std::unique_ptr<core::PrioritizationGraft>(envs::PreemptToken* preempt)>;

// Terminal outcome of one invocation, delivered through
// Invocation::on_complete on the executing thread (a worker, or the
// submitter itself on the inline fast path). Unlike on_stream_result —
// which only fires when a stream graft actually ran — on_complete fires
// exactly once for every invocation that was accepted by Submit/
// SubmitBatch, including supervisor rejections: the hook a network
// front-end needs to route a reply (or a shed notice) back to the
// originating connection without leaking sessions.
enum class CompletionStatus : std::uint8_t {
  kOk,
  kFault,      // contained extension fault
  kPreempt,    // wall-clock budget or fuel exhausted
  kDiskFault,  // the backing device failed
  kRejectedQuarantined,
  kRejectedDetached,
  kRejectedDegraded,  // shed: the graft's device is failing
  kExpired,           // deadline passed in queue; the body never ran
};

struct Completion {
  CompletionStatus status = CompletionStatus::kOk;
  // Stream grafts: the digest the graft produced (valid when kOk; zero for
  // other shapes and for rejections).
  md5::Digest digest{};
  std::uint64_t elapsed_ns = 0;  // service time; 0 for rejections
};

// One unit of work. Stream invocations fingerprint `data` in `chunk`
// pieces; black-box invocations replay `ldisk_writes` block writes;
// eviction invocations walk the worker's LRU rig `eviction_lookups` times.
// The caller keeps `data` alive until the invocation completes (Drain()).
struct Invocation {
  GraftId graft = 0;
  streamk::Bytes data{};
  std::size_t chunk = 64u << 10;
  std::uint64_t ldisk_writes = 0;
  std::uint64_t eviction_lookups = 0;
  // Wall-clock budget override; 0 uses the supervisor policy default.
  std::chrono::microseconds budget{0};
  // Absolute deadline in steady-clock nanoseconds (the dispatcher clock's
  // epoch); 0 = none. Work whose deadline has passed when a worker picks it
  // up is shed with CompletionStatus::kExpired *before* the graft body runs
  // — the wire-to-worker propagation of a client's per-request timeout.
  std::uint64_t deadline_ns = 0;
  // Models the time the kernel spends feeding this stream from the disk
  // (the paper's Table 5 framing: MD5 rides along with a 64KB-per-transfer
  // read). Workers wait this long before computing, so dispatch overlaps
  // I/O across workers exactly as the paper overlaps MD5 with the disk.
  std::chrono::microseconds simulated_io{0};
  // Optional completion hook, called on the executing thread (a worker,
  // or the submitter itself on the inline fast path).
  std::function<void(const core::GraftHost::StreamRunResult&)> on_stream_result;
  // Optional terminal hook: fires exactly once per accepted invocation,
  // on every RunOne path including supervisor rejections (see Completion).
  std::function<void(const Completion&)> on_complete;

  // Stamped by Submit/TrySubmit when a tracer is attached and enabled:
  // the invocation's trace id and the submit timestamp the worker turns
  // into the cross-thread queue-wait span. Not caller fields.
  std::uint64_t trace_id = 0;
  std::uint64_t submit_ns = 0;
};

struct DispatcherOptions {
  std::size_t workers = 4;
  std::size_t queue_capacity = 1024;  // per worker queue
  std::size_t max_batch = 32;
  // The one switch for the inline fast path (Submit, TrySubmit and
  // RunBatchInline); off, every invocation crosses a worker queue.
  bool inline_fast_path = true;
  SupervisorPolicy policy{};
  core::GraftHostOptions host_options{};
  std::chrono::microseconds wheel_tick{500};
};

class Dispatcher {
 public:
  explicit Dispatcher(DispatcherOptions options = DispatcherOptions{},
                      const Clock* clock = RealClock::Instance());
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // Registration is not synchronized against dispatch: register every graft
  // before the first Submit.
  GraftId RegisterStreamGraft(std::string name, StreamGraftFactory factory);
  GraftId RegisterBlackBoxGraft(std::string name, BlackBoxGraftFactory factory);
  GraftId RegisterEvictionGraft(std::string name, EvictionGraftFactory factory);

  // Round-robin submit. Submit blocks on a full queue (and is the fairness
  // choice for benchmarks); TrySubmit returns false instead — the
  // backpressure signal for producers that can shed load. Both may run the
  // invocation inline on the calling thread (idle shard); a true return
  // means the invocation was executed or durably queued either way.
  bool Submit(Invocation invocation);
  bool TrySubmit(Invocation invocation);

  // Batched submission: stamps and hands the whole span to one shard in a
  // single synchronization episode (one queue lock, at most one worker
  // wake). Accepted invocations are moved from; returns how many were
  // accepted. SubmitBatch blocks for queue space and is short only when the
  // dispatcher shuts down mid-batch; TrySubmitBatch stops at the first
  // full queue (partial acceptance is the backpressure signal). Neither
  // runs anything inline — batching amortizes the queue crossing instead
  // of skipping it; RunBatchInline is the batch's inline path.
  std::size_t SubmitBatch(std::span<Invocation> batch);
  std::size_t TrySubmitBatch(std::span<Invocation> batch);

  // Batch inline fast path: runs the whole span on the calling thread, in
  // order, under the execution claim of the caller's next round-robin
  // shard — if that shard is idle (the claim is free), the dispatcher is
  // still accepting, and inline_fast_path is on. Returns true once every
  // invocation has run and fired its on_complete; false if it refused, in
  // which case nothing ran and the span is intact for TrySubmitBatch. Meant
  // for a producer whose batch is all the work it holds: handing it to a
  // worker would only wake the worker while the producer goes to sleep.
  bool RunBatchInline(std::span<Invocation> batch);

  // Blocks until every accepted invocation has completed.
  void Drain();

  // Drains nothing: closes the queues, joins the workers, waits out any
  // in-flight inline run. Idempotent; called by the destructor.
  void Shutdown();

  // Merged cross-worker view; safe to call while dispatching.
  TelemetrySnapshot Snapshot() const;

  Supervisor& supervisor() { return supervisor_; }
  DeadlineWheel& deadline_wheel() { return wheel_; }
  std::size_t workers() const { return shards_.size(); }

  // The dispatcher clock as absolute nanoseconds — the timebase
  // Invocation::deadline_ns is compared against. Front-ends stamp deadlines
  // with this (not a raw steady_clock read) so fake-clock tests line up.
  std::uint64_t NowNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock_->Now().time_since_epoch())
            .count());
  }

  // Invocations shed with kExpired before their body ran, across workers.
  std::uint64_t shed_expired() const { return shed_expired_.load(std::memory_order_relaxed); }

  // Total contained faults across all host shards.
  std::uint64_t contained_faults() const;

  // Total device faults (DiskFull, hard errors, injections) across shards.
  std::uint64_t disk_faults() const;

  // Attaches the fault injector whose per-site counters Snapshot() exports.
  // Not synchronized against dispatch: attach before the first Submit.
  void set_injector(const faultlab::Injector* injector) { injector_ = injector; }
  const faultlab::Injector* injector() const { return injector_; }

  // Observability seam: fires exactly once per invocation that reached
  // RunOne, on the executing thread, with the terminal status and service
  // time (0 for rejections/sheds). This is the obslab plane's feed — the
  // flight-recorder ring and disk-fault snapshot triggers hang off it —
  // but the dispatcher only sees a std::function, so the dependency
  // direction stays graftd <- obslab. Not synchronized against dispatch:
  // set before the first Submit. Keep the hook lock-free and cheap; it
  // runs inside the dispatch hot path.
  void set_outcome_hook(
      std::function<void(GraftId, CompletionStatus, std::uint64_t elapsed_ns)> hook) {
    outcome_hook_ = std::move(hook);
  }

  // Attaches the tracer: invocations become nested queue/dispatch/crossing/
  // body/disk spans, supervisor transitions and injections become instants,
  // and Snapshot() folds the aggregated stage timings plus the live
  // break-even panel into the telemetry. The tracer must outlive the
  // dispatcher. Not synchronized against dispatch: attach before the first
  // Submit (and after the grafts are registered, or register after — sites
  // are interned on both paths).
  void set_tracer(tracelab::Tracer* tracer);
  tracelab::Tracer* tracer() const { return tracer_; }

 private:
  // Pre-interned per-graft stage sites ("queue:<name>", ...), resolved at
  // registration/attach time so the hot path never touches the intern map.
  struct StageSites {
    tracelab::SiteId queue = 0;
    tracelab::SiteId dispatch = 0;
    tracelab::SiteId crossing = 0;
    tracelab::SiteId body = 0;
    tracelab::SiteId disk = 0;
    tracelab::SiteId ops = 0;
  };

  enum class GraftShape { kStream, kBlackBox, kEviction };

  struct Registration {
    std::string name;
    GraftShape shape = GraftShape::kStream;
    StreamGraftFactory stream_factory;
    BlackBoxGraftFactory blackbox_factory;
    EvictionGraftFactory eviction_factory;
    StageSites sites;
  };

  // Worker-private kernel furniture for eviction grafts: the LRU queue the
  // graft walks, shaped like bench/graft_measures.h MeasureEvictionUs (64
  // hot pages, 128 cold frames) so live per-lookup cost is comparable to
  // the offline benches.
  struct EvictionRig {
    std::unique_ptr<core::PrioritizationGraft> graft;
    std::vector<vmsim::Frame> frames;
    vmsim::LruQueue queue;
  };

  struct WorkerShard {
    explicit WorkerShard(const DispatcherOptions& options)
        : queue(options.queue_capacity), host(options.host_options) {}

    BoundedMpscQueue<Invocation> queue;
    // Execution claim: held by the worker while running a batch, or by a
    // submitting thread while running an invocation inline. Never held
    // while blocked on the queue, so claim waits are bounded by one
    // invocation/batch body.
    std::atomic<bool> busy{false};
    // Inline executions on this shard. Written only by the claim holder
    // (plain load+store, no RMW — the claim CAS orders successive writers);
    // Snapshot reads it relaxed and sums across shards.
    std::atomic<std::uint64_t> inline_hits{0};
    core::GraftHost host;
    // Lazily built worker-private stream instances, indexed by GraftId.
    // (Black-box grafts are built fresh per invocation: the log-structured
    // disk has no cleaner, so reuse would run the device out of segments.)
    std::vector<std::unique_ptr<core::StreamGraft>> stream_instances;
    // Lazily built worker-private eviction rigs, indexed by GraftId.
    std::vector<std::unique_ptr<EvictionRig>> eviction_rigs;
    // Worker-local counters; the mutex is uncontended except while a
    // Snapshot() reader is merging.
    mutable std::mutex stats_mu;
    std::vector<GraftCounters> stats;
    DispatchCounters dispatch;  // batch sizes; guarded by stats_mu
    std::thread thread;
  };

  void WorkerLoop(WorkerShard& shard);
  void RunOne(WorkerShard& shard, const Invocation& invocation);
  bool TryRunInline(WorkerShard& shard, std::span<Invocation> batch);
  void ClaimShard(WorkerShard& shard);
  void NotifyDrain();
  GraftCounters& StatsFor(WorkerShard& shard, GraftId id);
  GraftId Register(Registration registration);
  void InternSites(Registration& registration);
  void StampTrace(Invocation& invocation);

  const DispatcherOptions options_;
  const Clock* clock_;  // deadline expiry checks in RunOne
  Supervisor supervisor_;
  DeadlineWheel wheel_;
  const faultlab::Injector* injector_ = nullptr;
  tracelab::Tracer* tracer_ = nullptr;
  std::function<void(GraftId, CompletionStatus, std::uint64_t)> outcome_hook_;
  std::vector<std::unique_ptr<WorkerShard>> shards_;

  mutable std::mutex registry_mu_;
  // Append-only before dispatch begins; read lock-free on the hot path
  // (registration-before-first-Submit is the documented contract).
  std::vector<Registration> registry_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> next_shard_{0};
  std::atomic<std::uint64_t> inline_misses_{0};
  std::atomic<std::uint64_t> shed_expired_{0};
  std::atomic<bool> accepting_{true};
  std::atomic<std::uint32_t> drain_waiters_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  bool shut_down_ = false;
};

}  // namespace graftd

#endif  // GRAFTLAB_SRC_GRAFTD_DISPATCHER_H_
