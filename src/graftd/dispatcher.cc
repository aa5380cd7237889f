#include "src/graftd/dispatcher.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

#include "src/stats/break_even.h"
#include "src/stats/harness.h"
#include "src/tracelab/export.h"

namespace graftd {

namespace {

// Mirrors bench/graft_measures.h MeasureEvictionUs: 64-entry hot list,
// frames paged at 100000+i so none are ever hot — the graft walks the whole
// chain, the paper's Table 2 lookup shape.
constexpr int kEvictionHotListSize = 64;
constexpr std::size_t kEvictionColdFrames = 64;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// Pause-then-yield backoff for the shard-claim spin (ClaimShard). Pure
// CpuRelax is right when the claim holder runs on another core; on an
// oversubscribed (or single-core) host the holder needs *this* core, and
// spinning a whole scheduler quantum starves it. After kRelaxSpins rounds
// the waiter starts donating its timeslice.
class SpinBackoff {
 public:
  void Pause() {
    if (rounds_ < kRelaxSpins) {
      ++rounds_;
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }

 private:
  static constexpr std::uint32_t kRelaxSpins = 64;
  std::uint32_t rounds_ = 0;
};

// Per-item submissions and inline batches round-robin through the shards
// with a thread-local cursor: a plain increment instead of a contended
// global fetch_add. The hashed start offset de-phases producer threads, so
// lockstep submitters land on different shards instead of fighting for the
// same inline claim. Queued batches keep the global cursor (one RMW
// amortized per batch).
thread_local std::uint64_t t_next_shard =
    std::hash<std::thread::id>{}(std::this_thread::get_id());

}  // namespace

Dispatcher::Dispatcher(DispatcherOptions options, const Clock* clock)
    : options_(options),
      clock_(clock),
      supervisor_(options.policy, clock) {
  const std::size_t workers = std::max<std::size_t>(1, options_.workers);
  shards_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    shards_.push_back(std::make_unique<WorkerShard>(options_));
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, raw = shard.get()] { WorkerLoop(*raw); });
  }
}

Dispatcher::~Dispatcher() { Shutdown(); }

void Dispatcher::InternSites(Registration& registration) {
  // Caller holds registry_mu_ (or is still single-threaded in set_tracer's
  // documented attach window).
  if (tracer_ == nullptr) {
    return;
  }
  registration.sites.queue = tracer_->Intern("queue:" + registration.name);
  registration.sites.dispatch = tracer_->Intern("dispatch:" + registration.name);
  registration.sites.crossing = tracer_->Intern("crossing:" + registration.name);
  registration.sites.body = tracer_->Intern("body:" + registration.name);
  registration.sites.disk = tracer_->Intern("disk:" + registration.name);
  registration.sites.ops = tracer_->Intern("ops:" + registration.name);
}

GraftId Dispatcher::Register(Registration registration) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  const GraftId id = supervisor_.Register(registration.name);
  InternSites(registration);
  registry_.push_back(std::move(registration));
  return id;
}

GraftId Dispatcher::RegisterStreamGraft(std::string name, StreamGraftFactory factory) {
  Registration registration;
  registration.name = std::move(name);
  registration.shape = GraftShape::kStream;
  registration.stream_factory = std::move(factory);
  return Register(std::move(registration));
}

GraftId Dispatcher::RegisterBlackBoxGraft(std::string name, BlackBoxGraftFactory factory) {
  Registration registration;
  registration.name = std::move(name);
  registration.shape = GraftShape::kBlackBox;
  registration.blackbox_factory = std::move(factory);
  return Register(std::move(registration));
}

GraftId Dispatcher::RegisterEvictionGraft(std::string name, EvictionGraftFactory factory) {
  Registration registration;
  registration.name = std::move(name);
  registration.shape = GraftShape::kEviction;
  registration.eviction_factory = std::move(factory);
  return Register(std::move(registration));
}

void Dispatcher::set_tracer(tracelab::Tracer* tracer) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  tracer_ = tracer;
  supervisor_.set_tracer(tracer);
  for (Registration& registration : registry_) {
    InternSites(registration);
  }
}

void Dispatcher::StampTrace(Invocation& invocation) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    invocation.trace_id = tracer_->NextTraceId();
    invocation.submit_ns = tracer_->NowNs();
  }
}

// The inline fast path: run the invocations on the calling thread when the
// target shard's execution claim is free. Skips the queue, the worker wake,
// and the context switch — the harness analogue of compiling the extension
// into the kernel — while still passing through StampTrace before and the
// full supervised RunOne inside, so spans, admission, and outcome scoring
// are path-independent.
bool Dispatcher::TryRunInline(WorkerShard& shard, std::span<Invocation> batch) {
  if (!options_.inline_fast_path) {
    return false;
  }
  bool expected = false;
  if (!shard.busy.compare_exchange_strong(expected, true, std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
    inline_misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (!accepting_.load(std::memory_order_seq_cst)) {
    // Shutdown is waiting for the claim; fall through to the queue, which
    // is (or is about to be) closed and will refuse cleanly.
    shard.busy.store(false, std::memory_order_release);
    return false;
  }
  // No submitted_/completed_ accounting: the invocations submit AND
  // complete inside this call, so leaving both counters untouched keeps
  // the drain invariant (completed == submitted) in one atomic step — a
  // concurrent Drain() linearizes before or after the whole batch, both
  // valid orders for an unordered race. Two lock-prefixed RMWs and the
  // drain-wake check stay off the fast path.
  shard.inline_hits.store(shard.inline_hits.load(std::memory_order_relaxed) + batch.size(),
                          std::memory_order_relaxed);
  for (const Invocation& invocation : batch) {
    RunOne(shard, invocation);
  }
  shard.busy.store(false, std::memory_order_release);
  return true;
}

bool Dispatcher::RunBatchInline(std::span<Invocation> batch) {
  WorkerShard& shard = *shards_[t_next_shard++ % shards_.size()];
  for (Invocation& invocation : batch) {
    StampTrace(invocation);
  }
  return TryRunInline(shard, batch);
}

bool Dispatcher::Submit(Invocation invocation) {
  const std::size_t index = t_next_shard++ % shards_.size();
  WorkerShard& shard = *shards_[index];
  StampTrace(invocation);
  if (TryRunInline(shard, {&invocation, 1})) {
    return true;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const bool pushed = shard.queue.Push(std::move(invocation));
  if (!pushed) {
    // A Drain() may have parked against the optimistically inflated count;
    // this rollback can be what makes its predicate true, so it needs the
    // same seq_cst + notify pairing a completion gets (no worker completion
    // is guaranteed to follow, e.g. rejection during shutdown).
    submitted_.fetch_sub(1, std::memory_order_seq_cst);
    NotifyDrain();
  }
  return pushed;
}

bool Dispatcher::TrySubmit(Invocation invocation) {
  const std::size_t index = t_next_shard++ % shards_.size();
  WorkerShard& shard = *shards_[index];
  StampTrace(invocation);
  if (TryRunInline(shard, {&invocation, 1})) {
    return true;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const bool pushed = shard.queue.TryPush(std::move(invocation));
  if (!pushed) {
    // See Submit: the rollback may complete a parked Drain's predicate.
    submitted_.fetch_sub(1, std::memory_order_seq_cst);
    NotifyDrain();
  }
  return pushed;
}

std::size_t Dispatcher::SubmitBatch(std::span<Invocation> batch) {
  if (batch.empty()) {
    return 0;
  }
  const std::size_t index =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  WorkerShard& shard = *shards_[index];
  for (Invocation& invocation : batch) {
    StampTrace(invocation);
  }
  submitted_.fetch_add(batch.size(), std::memory_order_relaxed);
  const std::size_t accepted = shard.queue.PushBatch(batch);
  if (accepted < batch.size()) {
    // See Submit: the rollback may complete a parked Drain's predicate.
    submitted_.fetch_sub(batch.size() - accepted, std::memory_order_seq_cst);
    NotifyDrain();
  }
  return accepted;
}

std::size_t Dispatcher::TrySubmitBatch(std::span<Invocation> batch) {
  if (batch.empty()) {
    return 0;
  }
  const std::size_t index =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  WorkerShard& shard = *shards_[index];
  for (Invocation& invocation : batch) {
    StampTrace(invocation);
  }
  submitted_.fetch_add(batch.size(), std::memory_order_relaxed);
  const std::size_t accepted = shard.queue.TryPushBatch(batch);
  if (accepted < batch.size()) {
    // See Submit: the rollback may complete a parked Drain's predicate.
    submitted_.fetch_sub(batch.size() - accepted, std::memory_order_seq_cst);
    NotifyDrain();
  }
  return accepted;
}

void Dispatcher::Drain() {
  drain_waiters_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this] {
      // seq_cst read: one leg of the Dekker pairing with NotifyDrain (see
      // the proof sketch there).
      return completed_.load(std::memory_order_seq_cst) ==
             submitted_.load(std::memory_order_acquire);
    });
  }
  drain_waiters_.fetch_sub(1, std::memory_order_seq_cst);
}

// Waiter-counted drain wake: completions only touch the condvar when a
// Drain() is actually parked. The caller's completed_ increment and the
// load here are both seq_cst, as are the waiter's drain_waiters_ increment
// and its predicate read of completed_ — four accesses in the single SC
// total order, so "waiter misses the completion AND completer misses the
// waiter" would need a cycle (inc-completed < load-waiters < inc-waiters <
// load-completed < inc-completed) and cannot happen: the wake is never
// lost, and the hot path pays no standalone fence.
void Dispatcher::NotifyDrain() {
  if (drain_waiters_.load(std::memory_order_seq_cst) > 0) {
    {
      std::lock_guard<std::mutex> lock(drain_mu_);
    }
    drain_cv_.notify_all();
  }
}

void Dispatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (shut_down_) {
      return;
    }
    shut_down_ = true;
  }
  // Stop new inline claims, close the queues (producers from here on get a
  // clean refusal), join the workers, then wait out any inline run still
  // holding a shard claim.
  accepting_.store(false, std::memory_order_seq_cst);
  for (auto& shard : shards_) {
    shard->queue.Close();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
  for (auto& shard : shards_) {
    ClaimShard(*shard);
    shard->busy.store(false, std::memory_order_release);
  }
}

// Takes the shard's execution claim; waits are bounded by one inline
// invocation (the claim is never held across a blocking queue wait).
void Dispatcher::ClaimShard(WorkerShard& shard) {
  bool expected = false;
  SpinBackoff backoff;
  while (!shard.busy.compare_exchange_weak(expected, true, std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
    expected = false;
    backoff.Pause();
  }
}

void Dispatcher::WorkerLoop(WorkerShard& shard) {
  std::vector<Invocation> batch;
  batch.reserve(options_.max_batch);
  for (;;) {
    batch.clear();
    const std::size_t n = shard.queue.PopBatch(batch, options_.max_batch);
    if (n == 0) {
      return;  // closed and drained
    }
    ClaimShard(shard);
    for (const Invocation& invocation : batch) {
      RunOne(shard, invocation);
    }
    shard.busy.store(false, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(shard.stats_mu);
      ++shard.dispatch.batches;
      shard.dispatch.dequeued += n;
      shard.dispatch.batch_sizes.Record(n);
    }
    completed_.fetch_add(n, std::memory_order_seq_cst);
    NotifyDrain();
  }
}

GraftCounters& Dispatcher::StatsFor(WorkerShard& shard, GraftId id) {
  // Caller holds shard.stats_mu.
  if (shard.stats.size() <= id) {
    shard.stats.resize(id + 1);
  }
  return shard.stats[id];
}

void Dispatcher::RunOne(WorkerShard& shard, const Invocation& invocation) {
  const GraftId id = invocation.graft;

  // Lock-free: the registry is append-only and frozen before dispatch
  // begins (registration-before-first-Submit contract), so the hot path
  // pays neither the registry mutex nor a Registration copy.
  const Registration& registration = registry_.at(id);

  // Tracing is active only for invocations stamped at submit time while the
  // tracer was enabled — a mid-run SetEnabled(true) starts with the next
  // submission, never with half-traced invocations.
  tracelab::Tracer* tracer =
      tracer_ != nullptr && tracer_->enabled() && invocation.trace_id != 0 ? tracer_ : nullptr;
  const tracelab::ScopedTraceId scoped_trace(tracer != nullptr ? invocation.trace_id : 0);
  if (tracer != nullptr) {
    // Queue wait crosses threads (begin on the producer, end here), so it is
    // one complete event rather than a begin/end pair. On the inline fast
    // path the "wait" is just the claim check, honestly near-zero.
    const std::uint64_t now = tracer->NowNs();
    tracer->Complete(registration.sites.queue, invocation.submit_ns,
                     now >= invocation.submit_ns ? now - invocation.submit_ns : 0,
                     invocation.trace_id);
  }
  // Service span: admission through outcome accounting, on the executing
  // thread (worker, or the submitter inline).
  tracelab::Span dispatch_span(tracer, registration.sites.dispatch, invocation.trace_id);

  // A rejection is still a terminal outcome for the submitter: count it,
  // then deliver the completion so front-ends can answer the session.
  const auto reject = [this, &shard, &invocation, id](CompletionStatus status,
                                                      std::uint64_t GraftCounters::*counter) {
    {
      std::lock_guard<std::mutex> lock(shard.stats_mu);
      ++(StatsFor(shard, id).*counter);
    }
    if (outcome_hook_) {
      outcome_hook_(id, status, 0);
    }
    if (invocation.on_complete) {
      Completion completion;
      completion.status = status;
      invocation.on_complete(completion);
    }
  };
  // Deadline shed: work whose client already gave up is dropped before the
  // supervisor, the instance build, and the body — expiry is not the
  // graft's fault, so no outcome is scored against it. The dispatch span
  // still brackets the decision (trace evidence: dispatch count grows,
  // body count does not).
  if (invocation.deadline_ns != 0 && NowNs() >= invocation.deadline_ns) {
    shed_expired_.fetch_add(1, std::memory_order_relaxed);
    reject(CompletionStatus::kExpired, &GraftCounters::shed_expired);
    return;
  }
  switch (supervisor_.Admit(id)) {
    case AdmitDecision::kRejectDetached:
      reject(CompletionStatus::kRejectedDetached, &GraftCounters::rejected_detached);
      return;
    case AdmitDecision::kRejectQuarantined:
      reject(CompletionStatus::kRejectedQuarantined, &GraftCounters::rejected_quarantined);
      return;
    case AdmitDecision::kRejectDegraded:
      // Shedding: the graft's device is failing, don't feed it more writes.
      reject(CompletionStatus::kRejectedDegraded, &GraftCounters::rejected_degraded);
      return;
    case AdmitDecision::kRun:
      break;
  }

  const tracelab::StageTrace stage_trace{tracer, registration.sites.crossing,
                                         registration.sites.body, invocation.trace_id};

  // Profiler attribution: from here to return, SIGPROF samples landing on
  // this thread charge to this graft. The admitted stretch opens in the
  // crossing stage (instance builds below are crossing cost); the body and
  // disk sections re-stamp finer stages, unwinding through the RAII slots.
  const tracelab::ScopedProfSlot prof_crossing(id + 1, tracelab::ProfStage::kCrossing);

  // Worker-private instance, built on first use under the shard's
  // execution claim (so the inline fast path can build it too).
  // Per-invocation construction (black-box grafts, first-use stream/eviction
  // builds) is crossing cost — the host->technology entry machinery — so it
  // runs under the crossing site; the host adds its own crossing span for
  // the per-invocation entry work (token reset, deadline arm, fuel set).
  std::unique_ptr<core::BlackBoxGraft> blackbox;
  EvictionRig* rig = nullptr;
  switch (registration.shape) {
    case GraftShape::kStream: {
      if (shard.stream_instances.size() <= id) {
        shard.stream_instances.resize(id + 1);
      }
      if (!shard.stream_instances[id]) {
        tracelab::Span crossing(tracer, registration.sites.crossing, invocation.trace_id);
        shard.stream_instances[id] = registration.stream_factory(&shard.host.preempt_token());
      }
      break;
    }
    case GraftShape::kBlackBox: {
      // Fresh per invocation: the logical disk runs no cleaner (paper §5.6),
      // so each replay must start with an empty log or the device fills up.
      tracelab::Span crossing(tracer, registration.sites.crossing, invocation.trace_id);
      blackbox =
          registration.blackbox_factory(shard.host.disk_geometry(), &shard.host.preempt_token());
      break;
    }
    case GraftShape::kEviction: {
      if (shard.eviction_rigs.size() <= id) {
        shard.eviction_rigs.resize(id + 1);
      }
      if (!shard.eviction_rigs[id]) {
        tracelab::Span crossing(tracer, registration.sites.crossing, invocation.trace_id);
        auto built = std::make_unique<EvictionRig>();
        built->graft = registration.eviction_factory(&shard.host.preempt_token());
        built->frames.resize(kEvictionHotListSize + kEvictionColdFrames);
        for (std::size_t i = 0; i < built->frames.size(); ++i) {
          built->frames[i].page = 100000 + i;  // never hot
          built->queue.PushMru(&built->frames[i]);
        }
        for (int p = 1; p <= kEvictionHotListSize; ++p) {
          built->graft->HotListAdd(static_cast<vmsim::PageId>(p));
        }
        shard.eviction_rigs[id] = std::move(built);
      }
      rig = shard.eviction_rigs[id].get();
      break;
    }
  }

  // The modeled disk feed: this worker is "waiting for the transfer", so
  // siblings overlap their own transfers and compute meanwhile.
  if (invocation.simulated_io.count() > 0) {
    tracelab::Span disk_span(tracer, registration.sites.disk, invocation.trace_id);
    const tracelab::ScopedProfSlot prof_disk(id + 1, tracelab::ProfStage::kDisk);
    std::this_thread::sleep_for(invocation.simulated_io);
  }

  const SupervisorPolicy& policy = supervisor_.policy();
  const std::chrono::microseconds budget =
      invocation.budget.count() > 0 ? invocation.budget : policy.default_budget;

  core::GraftHost::FaultClass fault_class = core::GraftHost::FaultClass::kNone;
  std::uint64_t fuel_used = 0;
  std::uint64_t ops = 0;
  md5::Digest completion_digest{};
  const tracelab::ScopedProfSlot prof_body(id + 1, tracelab::ProfStage::kBody);
  stats::Timer timer;
  switch (registration.shape) {
    case GraftShape::kStream: {
      core::StreamGraft& graft = *shard.stream_instances[id];
      if (policy.fuel_budget >= 0) {
        graft.SetFuel(policy.fuel_budget);
      }
      const core::GraftHost::StreamRunResult result =
          shard.host.RunStreamGraft(graft, invocation.data, invocation.chunk, budget, &stage_trace);
      if (policy.fuel_budget >= 0) {
        const std::int64_t remaining = graft.FuelRemaining();
        if (remaining >= 0 && remaining <= policy.fuel_budget) {
          fuel_used = static_cast<std::uint64_t>(policy.fuel_budget - remaining);
        } else if (remaining < 0) {
          // Exhaustion leaves the counter below zero: the whole budget burned.
          fuel_used = static_cast<std::uint64_t>(policy.fuel_budget);
        }
        graft.SetFuel(-1);  // do not meter the graft outside supervised runs
      }
      fault_class = result.fault_class;
      completion_digest = result.digest;
      if (invocation.on_stream_result) {
        invocation.on_stream_result(result);
      }
      break;
    }
    case GraftShape::kBlackBox: {
      const core::GraftHost::BlackBoxResult result = shard.host.RunLogicalDisk(
          *blackbox, invocation.ldisk_writes, /*validate=*/false, budget, &stage_trace);
      fault_class = result.fault_class;
      ops = result.replay.writes;
      break;
    }
    case GraftShape::kEviction: {
      const core::GraftHost::EvictionRunResult result = shard.host.RunEvictionGraft(
          *rig->graft, rig->queue.head(), invocation.eviction_lookups, budget, &stage_trace);
      fault_class = result.fault_class;
      ops = result.lookups;
      break;
    }
  }
  Outcome outcome = Outcome::kOk;
  switch (fault_class) {
    case core::GraftHost::FaultClass::kNone: outcome = Outcome::kOk; break;
    case core::GraftHost::FaultClass::kExtension: outcome = Outcome::kFault; break;
    case core::GraftHost::FaultClass::kPreempt: outcome = Outcome::kPreempt; break;
    // DiskFull, hard I/O failure, or an injected device fault: score it
    // against the device track so the supervisor degrades, not detaches.
    case core::GraftHost::FaultClass::kDiskFull:
    case core::GraftHost::FaultClass::kDisk: outcome = Outcome::kDiskFault; break;
  }
  const std::uint64_t elapsed_ns = static_cast<std::uint64_t>(timer.ElapsedNs());
  CompletionStatus completion_status = CompletionStatus::kOk;
  switch (outcome) {
    case Outcome::kOk: completion_status = CompletionStatus::kOk; break;
    case Outcome::kFault: completion_status = CompletionStatus::kFault; break;
    case Outcome::kPreempt: completion_status = CompletionStatus::kPreempt; break;
    case Outcome::kDiskFault: completion_status = CompletionStatus::kDiskFault; break;
  }
  if (outcome_hook_) {
    outcome_hook_(id, completion_status, elapsed_ns);
  }
  if (invocation.on_complete) {
    Completion completion;
    completion.status = completion_status;
    completion.digest = completion_digest;
    completion.elapsed_ns = elapsed_ns;
    invocation.on_complete(completion);
  }
  if (tracer != nullptr && ops > 0) {
    // Shape operations completed (eviction lookups, ldisk block writes):
    // the denominator the break-even panel divides body time by.
    tracer->Counter(registration.sites.ops, ops, invocation.trace_id);
  }

  supervisor_.OnOutcome(id, outcome);

  std::lock_guard<std::mutex> lock(shard.stats_mu);
  GraftCounters& stats = StatsFor(shard, id);
  ++stats.invocations;
  switch (outcome) {
    case Outcome::kOk: ++stats.ok; break;
    case Outcome::kFault: ++stats.faults; break;
    case Outcome::kPreempt: ++stats.preempts; break;
    case Outcome::kDiskFault: ++stats.disk_faults; break;
  }
  stats.fuel_used += fuel_used;
  stats.latency.Record(elapsed_ns);
  if (registration.shape == GraftShape::kStream) {
    // Profiled VMs report cumulative counts per worker instance; overwrite
    // (not add) here, and let Snapshot's cross-shard Merge do the summing.
    auto profile = shard.stream_instances[id]->ExecutionProfile();
    if (!profile.empty()) {
      stats.vm_opcodes = std::move(profile);
    }
  }
}

TelemetrySnapshot Dispatcher::Snapshot() const {
  TelemetrySnapshot snapshot;
  const std::vector<Supervisor::GraftStatus> supervision = supervisor_.StatusAll();
  snapshot.grafts.resize(supervision.size());
  for (std::size_t id = 0; id < supervision.size(); ++id) {
    snapshot.grafts[id].name = supervision[id].name;
    snapshot.grafts[id].supervision = supervision[id];
  }
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->stats_mu);
    for (std::size_t id = 0; id < shard->stats.size() && id < snapshot.grafts.size(); ++id) {
      snapshot.grafts[id].counters.Merge(shard->stats[id]);
    }
  }

  // Dispatch-path mechanics: how invocations moved. Queue counters are
  // read under the queue's own lock — safe against live dispatch.
  for (const auto& shard : shards_) {
    snapshot.dispatch.inline_hits += shard->inline_hits.load(std::memory_order_relaxed);
  }
  snapshot.dispatch.inline_misses = inline_misses_.load(std::memory_order_relaxed);
  snapshot.dispatch.shed_expired = shed_expired_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const WorkerShard& shard = *shards_[i];
    TelemetrySnapshot::WorkerLaneRow row;
    row.worker = i;
    {
      std::lock_guard<std::mutex> lock(shard.stats_mu);
      row.batches = shard.dispatch.batches;
      row.dequeued = shard.dispatch.dequeued;
      row.batch_sizes = shard.dispatch.batch_sizes;
    }
    const auto stats = shard.queue.wait_stats();
    row.parks = stats.consumer_waits;
    row.notifies_sent = stats.notifies_sent;
    row.notifies_skipped = stats.notifies_skipped;
    row.producer_waits = stats.producer_waits;
    snapshot.dispatch.workers.push_back(std::move(row));
  }

  if (injector_ != nullptr) {
    snapshot.injections = injector_->Counters();
  }
  if (tracer_ != nullptr) {
    snapshot.traced = true;
    tracelab::TraceDump dump = tracer_->Dump();
    snapshot.trace_events = dump.event_count();
    snapshot.trace_dropped = dump.dropped();
    const tracelab::StageSummary summary = tracelab::Aggregate(dump);

    std::vector<Registration> registry;
    {
      std::lock_guard<std::mutex> lock(registry_mu_);
      registry = registry_;
    }
    const auto cell = [&summary](tracelab::SiteId site) {
      const tracelab::SpanStats& stats = summary.Span(site);
      TelemetrySnapshot::StageCell out;
      out.count = stats.count;
      out.total_us = stats.total_us();
      return out;
    };
    for (const Registration& registration : registry) {
      TelemetrySnapshot::StageRow row;
      row.graft = registration.name;
      row.queue = cell(registration.sites.queue);
      row.dispatch = cell(registration.sites.dispatch);
      row.crossing = cell(registration.sites.crossing);
      row.body = cell(registration.sites.body);
      row.disk = cell(registration.sites.disk);
      row.ops = summary.Counter(registration.sites.ops).sum;
      if (row.queue.count == 0 && row.dispatch.count == 0) {
        continue;  // never dispatched while traced
      }

      // Live break-even: feed the observed stage means into the paper's §5
      // formulas (src/stats/break_even.h). The disk span — the modeled
      // kernel-side transfer/fault time — is the reference every technology
      // cost competes with.
      TelemetrySnapshot::BreakEvenRow be;
      be.graft = registration.name;
      switch (registration.shape) {
        case GraftShape::kEviction:
          // Graft lookup cost vs the page fault it avoids: how many lookups
          // until a saved fault pays for the grafted policy (§5.2).
          if (row.ops > 0 && row.disk.count > 0) {
            be.metric = "eviction_break_even";
            be.per_op_us = row.body.total_us / static_cast<double>(row.ops);
            be.reference_us = row.disk.mean_us();
            be.value = stats::EvictionBreakEven(be.reference_us, be.per_op_us);
            snapshot.break_even.push_back(be);
          }
          break;
        case GraftShape::kStream:
          // MD5 compute vs the 64KB transfer it overlaps: <1 means the
          // fingerprint hides inside the disk read (§5.5, Table 5).
          if (row.body.count > 0 && row.disk.count > 0) {
            be.metric = "md5_disk_ratio";
            be.per_op_us = row.body.mean_us();
            be.reference_us = row.disk.mean_us();
            be.value = stats::Md5DiskRatio(be.per_op_us, be.reference_us);
            snapshot.break_even.push_back(be);
          }
          break;
        case GraftShape::kBlackBox:
          // Bookkeeping cost per block write (§5.6).
          if (row.ops > 0 && row.body.count > 0) {
            be.metric = "per_block_overhead_us";
            be.per_op_us = stats::PerBlockOverheadUs(row.body.total_us, row.ops);
            be.reference_us = row.disk.count > 0 ? row.disk.mean_us() : 0.0;
            be.value = be.per_op_us;
            snapshot.break_even.push_back(be);
          }
          break;
      }
      snapshot.stages.push_back(std::move(row));
    }
  }
  return snapshot;
}

std::uint64_t Dispatcher::contained_faults() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->host.contained_faults();
  }
  return total;
}

std::uint64_t Dispatcher::disk_faults() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->host.disk_faults();
  }
  return total;
}

}  // namespace graftd
