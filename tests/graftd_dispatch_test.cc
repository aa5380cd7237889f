// Dispatcher integration tests: multi-producer submission against the
// worker pool (the ThreadSanitizer target — CI builds this file with
// -fsanitize=thread), fault containment and quarantine through the full
// dispatch path, budget preemption via the shared wheel, black-box
// dispatch, and backpressure accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "src/envs/fault.h"
#include "src/graftd/dispatcher.h"
#include "src/grafts/factory.h"
#include "src/md5/md5.h"

namespace {

using namespace std::chrono_literals;

std::vector<std::uint8_t> MakeData(std::size_t bytes) {
  std::vector<std::uint8_t> data(bytes);
  std::mt19937_64 rng(1996);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng());
  }
  return data;
}

graftd::StreamGraftFactory Md5Factory(core::Technology technology) {
  return [technology](envs::PreemptToken* token) {
    return grafts::CreateMd5Graft(technology, token);
  };
}

// A stream graft that faults on every invocation — the repeat offender the
// supervisor exists for.
class AlwaysFaultGraft : public core::StreamGraft {
 public:
  void Consume(const std::uint8_t*, std::size_t) override { throw envs::NilFault(); }
  md5::Digest Finish() override { throw envs::NilFault(); }
  const char* technology() const override { return "faulty"; }
};

// A stream graft that never yields the CPU voluntarily but polls its token,
// like a compiled-safe graft stuck in a loop.
class RunawayGraft : public core::StreamGraft {
 public:
  explicit RunawayGraft(envs::PreemptToken* token) : token_(token) {}
  void Consume(const std::uint8_t*, std::size_t) override {
    for (;;) {
      token_->Poll();
      std::this_thread::sleep_for(20us);
    }
  }
  md5::Digest Finish() override { return md5::Digest{}; }
  const char* technology() const override { return "runaway"; }

 private:
  envs::PreemptToken* token_;
};

TEST(Dispatcher, MultiProducerDispatchAccountsEveryInvocation) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 32;
  const auto data = MakeData(16u << 10);
  const md5::Digest expected = md5::Sum(std::span(data.data(), data.size()));

  graftd::DispatcherOptions options;
  options.workers = 4;
  options.queue_capacity = 64;
  options.max_batch = 8;
  graftd::Dispatcher dispatcher(options);
  const graftd::GraftId id =
      dispatcher.RegisterStreamGraft("md5/C", Md5Factory(core::Technology::kC));

  std::atomic<std::uint64_t> digests_ok{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        graftd::Invocation invocation;
        invocation.graft = id;
        invocation.data = streamk::Bytes(data.data(), data.size());
        invocation.chunk = 4u << 10;
        invocation.on_stream_result = [&](const core::GraftHost::StreamRunResult& result) {
          if (result.ok && result.digest == expected) {
            digests_ok.fetch_add(1, std::memory_order_relaxed);
          }
        };
        ASSERT_TRUE(dispatcher.Submit(std::move(invocation)));
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  dispatcher.Drain();

  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  ASSERT_EQ(snapshot.grafts.size(), 1u);
  const graftd::GraftCounters& counters = snapshot.grafts[0].counters;
  EXPECT_EQ(counters.invocations, kProducers * kPerProducer);
  EXPECT_EQ(counters.ok, kProducers * kPerProducer);
  EXPECT_EQ(counters.faults, 0u);
  EXPECT_EQ(counters.latency.count, kProducers * kPerProducer);
  EXPECT_EQ(digests_ok.load(), kProducers * kPerProducer);
  EXPECT_EQ(dispatcher.contained_faults(), 0u);
}

TEST(Dispatcher, FaultingGraftIsQuarantinedThenRejected) {
  graftd::DispatcherOptions options;
  options.workers = 1;  // sequential processing => deterministic streaks
  options.policy.fault_threshold = 3;
  options.policy.base_backoff = std::chrono::duration_cast<std::chrono::microseconds>(1h);
  graftd::Dispatcher dispatcher(options);
  const graftd::GraftId faulty = dispatcher.RegisterStreamGraft(
      "faulty", [](envs::PreemptToken*) { return std::make_unique<AlwaysFaultGraft>(); });
  const graftd::GraftId healthy =
      dispatcher.RegisterStreamGraft("md5/C", Md5Factory(core::Technology::kC));

  const auto data = MakeData(1024);
  for (int i = 0; i < 8; ++i) {
    graftd::Invocation invocation;
    invocation.graft = faulty;
    invocation.data = streamk::Bytes(data.data(), data.size());
    ASSERT_TRUE(dispatcher.Submit(std::move(invocation)));
  }
  // The healthy graft keeps running while its neighbor is quarantined.
  for (int i = 0; i < 4; ++i) {
    graftd::Invocation invocation;
    invocation.graft = healthy;
    invocation.data = streamk::Bytes(data.data(), data.size());
    ASSERT_TRUE(dispatcher.Submit(std::move(invocation)));
  }
  dispatcher.Drain();

  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  const graftd::GraftCounters& faulty_counters = snapshot.grafts[faulty].counters;
  EXPECT_EQ(faulty_counters.faults, 3u);                // threshold
  EXPECT_EQ(faulty_counters.rejected_quarantined, 5u);  // the rest bounced
  EXPECT_EQ(snapshot.grafts[faulty].supervision.state, graftd::GraftState::kQuarantined);
  EXPECT_EQ(snapshot.grafts[healthy].counters.ok, 4u);
  EXPECT_EQ(dispatcher.contained_faults(), 3u);
}

TEST(Dispatcher, RunawayGraftIsPreemptedByTheSharedWheel) {
  graftd::DispatcherOptions options;
  options.workers = 2;
  options.policy.default_budget = 2ms;
  options.policy.fault_threshold = 100;  // keep it admitted; we test preemption
  options.wheel_tick = 200us;
  graftd::Dispatcher dispatcher(options);
  const graftd::GraftId runaway = dispatcher.RegisterStreamGraft(
      "runaway", [](envs::PreemptToken* token) { return std::make_unique<RunawayGraft>(token); });

  const auto data = MakeData(64);
  for (int i = 0; i < 4; ++i) {
    graftd::Invocation invocation;
    invocation.graft = runaway;
    invocation.data = streamk::Bytes(data.data(), data.size());
    ASSERT_TRUE(dispatcher.Submit(std::move(invocation)));
  }
  dispatcher.Drain();

  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  EXPECT_EQ(snapshot.grafts[runaway].counters.preempts, 4u);
  EXPECT_GE(dispatcher.deadline_wheel().fired(), 4u);
}

TEST(Dispatcher, InterpretedGraftFuelIsMeteredAndExhaustionPreempts) {
  graftd::DispatcherOptions options;
  options.workers = 1;
  options.policy.fuel_budget = 200;  // far too little for an MD5 block
  options.policy.fault_threshold = 100;
  graftd::Dispatcher dispatcher(options);
  const graftd::GraftId java =
      dispatcher.RegisterStreamGraft("md5/Java", Md5Factory(core::Technology::kJava));

  const auto data = MakeData(256);
  graftd::Invocation invocation;
  invocation.graft = java;
  invocation.data = streamk::Bytes(data.data(), data.size());
  ASSERT_TRUE(dispatcher.Submit(std::move(invocation)));
  dispatcher.Drain();

  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  EXPECT_EQ(snapshot.grafts[java].counters.preempts, 1u);
  EXPECT_EQ(snapshot.grafts[java].counters.fuel_used, 200u);
}

TEST(Dispatcher, BlackBoxWorkloadDispatches) {
  graftd::DispatcherOptions options;
  options.workers = 2;
  options.host_options.disk_geometry.num_blocks = 4096;
  graftd::Dispatcher dispatcher(options);
  const graftd::GraftId ldisk = dispatcher.RegisterBlackBoxGraft(
      "ldisk/C", [](const ldisk::Geometry& geometry, envs::PreemptToken* token) {
        return grafts::CreateLogicalDiskGraft(core::Technology::kC, geometry, token);
      });

  for (int i = 0; i < 6; ++i) {
    graftd::Invocation invocation;
    invocation.graft = ldisk;
    invocation.ldisk_writes = 2000;
    ASSERT_TRUE(dispatcher.Submit(std::move(invocation)));
  }
  dispatcher.Drain();

  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  EXPECT_EQ(snapshot.grafts[ldisk].counters.ok, 6u);
  EXPECT_EQ(snapshot.grafts[ldisk].counters.faults, 0u);
}

// --- Submission-path tests: queue, batches, inline fast path ---

// Producer/worker geometry a submission-path test drives the per-worker
// queues with. Each such test runs twice: the *MutexQueue case with several
// producers sharing several worker queues, and the *SpscLanes case (named
// for the per-producer SPSC lanes the queue replaced) with one producer
// feeding one worker, the queue's single-producer single-consumer shape.
struct QueueShape {
  std::size_t producers;
  std::size_t workers;
};

constexpr QueueShape kSharedQueues{3, 2};
constexpr QueueShape kSingleProducerQueue{1, 1};

// Every accepted SubmitBatch invocation completes exactly once with the
// right digest.
void DriveSubmitBatch(QueueShape shape) {
  const std::size_t kProducers = shape.producers;
  constexpr std::size_t kBatches = 8;
  constexpr std::size_t kBatchSize = 16;
  const auto data = MakeData(4096);
  const md5::Digest expected = md5::Sum(std::span(data.data(), data.size()));

  graftd::DispatcherOptions options;
  options.workers = shape.workers;
  options.queue_capacity = 32;
  graftd::Dispatcher dispatcher(options);
  const graftd::GraftId id =
      dispatcher.RegisterStreamGraft("md5/C", Md5Factory(core::Technology::kC));

  std::atomic<std::uint64_t> digests_ok{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (std::size_t b = 0; b < kBatches; ++b) {
        std::vector<graftd::Invocation> batch(kBatchSize);
        for (auto& invocation : batch) {
          invocation.graft = id;
          invocation.data = streamk::Bytes(data.data(), data.size());
          invocation.on_stream_result = [&](const core::GraftHost::StreamRunResult& result) {
            if (result.ok && result.digest == expected) {
              digests_ok.fetch_add(1, std::memory_order_relaxed);
            }
          };
        }
        EXPECT_EQ(dispatcher.SubmitBatch(batch), kBatchSize);
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  dispatcher.Drain();

  const std::uint64_t total = kProducers * kBatches * kBatchSize;
  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  EXPECT_EQ(snapshot.grafts[id].counters.ok, total);
  EXPECT_EQ(digests_ok.load(), total);
  // Batches never take the inline path even when enabled (default).
  EXPECT_EQ(snapshot.dispatch.inline_hits, 0u);
}

TEST(Dispatcher, SubmitBatchDispatchesEverythingSpscLanes) {
  DriveSubmitBatch(kSingleProducerQueue);
}

TEST(Dispatcher, SubmitBatchDispatchesEverythingMutexQueue) {
  DriveSubmitBatch(kSharedQueues);
}

TEST(Dispatcher, TrySubmitBatchPartialAcceptanceSignalsBackpressure) {
  graftd::DispatcherOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  graftd::Dispatcher dispatcher(options);
  const graftd::GraftId slow =
      dispatcher.RegisterStreamGraft("md5/C", Md5Factory(core::Technology::kC));

  // Stall the single worker so the queue fills; the oversized batch must be
  // cut short, not blocked on or dropped.
  const auto data = MakeData(64);
  std::vector<graftd::Invocation> batch(64);
  for (auto& invocation : batch) {
    invocation.graft = slow;
    invocation.data = streamk::Bytes(data.data(), data.size());
    invocation.simulated_io = 2ms;
  }
  const std::size_t accepted = dispatcher.TrySubmitBatch(batch);
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, batch.size());

  dispatcher.Drain();
  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  // Exactly the accepted prefix ran: drain accounting survived the short
  // batch (nothing leaked, nothing ran twice).
  EXPECT_EQ(snapshot.grafts[slow].counters.invocations, accepted);
  EXPECT_EQ(snapshot.grafts[slow].counters.ok, accepted);
}

// Regression: a blocking batch larger than the queue capacity, submitted to
// a quiet dispatcher whose worker has parked, must wake the worker while it
// waits for space. The batch-end wake alone never runs in that state — the
// producer fills the queue and sleeps on full, the worker sleeps on empty —
// so this deadlocks without WaitForSpace's hand-off to the parked consumer.
// A one-slot ring makes the producer wait for space on every item.
void DriveOversizedBatchWakesParkedWorker(std::size_t queue_capacity) {
  graftd::DispatcherOptions options;
  options.workers = 1;
  options.queue_capacity = queue_capacity;  // far smaller than the batch below
  graftd::Dispatcher dispatcher(options);
  const graftd::GraftId id =
      dispatcher.RegisterStreamGraft("md5/C", Md5Factory(core::Technology::kC));

  // Let the idle worker park on its empty queue before the batch arrives.
  std::this_thread::sleep_for(50ms);

  const auto data = MakeData(64);
  std::vector<graftd::Invocation> batch(64);
  for (auto& invocation : batch) {
    invocation.graft = id;
    invocation.data = streamk::Bytes(data.data(), data.size());
  }
  ASSERT_EQ(dispatcher.SubmitBatch(batch), batch.size());
  dispatcher.Drain();
  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  EXPECT_EQ(snapshot.grafts[id].counters.ok, batch.size());
}

TEST(Dispatcher, OversizedBatchWakesParkedWorkerSpscLanes) {
  DriveOversizedBatchWakesParkedWorker(1);
}

TEST(Dispatcher, OversizedBatchWakesParkedWorkerMutexQueue) {
  DriveOversizedBatchWakesParkedWorker(8);
}

void DriveSubmitAfterShutdown(QueueShape shape) {
  graftd::DispatcherOptions options;
  options.workers = shape.workers;
  graftd::Dispatcher dispatcher(options);
  graftd::GraftTraits traits;
  traits.reentrant_safe = true;  // even the inline path must refuse
  const graftd::GraftId id =
      dispatcher.RegisterStreamGraft("md5/C", Md5Factory(core::Technology::kC), traits);

  const auto data = MakeData(64);
  const auto make_invocation = [&] {
    graftd::Invocation invocation;
    invocation.graft = id;
    invocation.data = streamk::Bytes(data.data(), data.size());
    return invocation;
  };
  ASSERT_TRUE(dispatcher.Submit(make_invocation()));
  dispatcher.Shutdown();

  EXPECT_FALSE(dispatcher.Submit(make_invocation()));
  EXPECT_FALSE(dispatcher.TrySubmit(make_invocation()));
  std::vector<graftd::Invocation> batch(4);
  for (auto& invocation : batch) {
    invocation = make_invocation();
  }
  EXPECT_EQ(dispatcher.SubmitBatch(batch), 0u);
  EXPECT_EQ(dispatcher.TrySubmitBatch(batch), 0u);
  // Only the pre-shutdown invocation is accounted.
  EXPECT_EQ(dispatcher.Snapshot().grafts[id].counters.invocations, 1u);
}

TEST(Dispatcher, SubmitAfterShutdownIsRefusedSpscLanes) {
  DriveSubmitAfterShutdown(kSingleProducerQueue);
}

TEST(Dispatcher, SubmitAfterShutdownIsRefusedMutexQueue) {
  DriveSubmitAfterShutdown(kSharedQueues);
}

TEST(Dispatcher, InlineFastPathRunsOnTheSubmittingThread) {
  constexpr std::uint64_t kInvocations = 16;
  const auto data = MakeData(1024);
  const md5::Digest expected = md5::Sum(std::span(data.data(), data.size()));

  graftd::DispatcherOptions options;
  options.workers = 2;
  graftd::Dispatcher dispatcher(options);
  graftd::GraftTraits traits;
  traits.reentrant_safe = true;
  const graftd::GraftId id =
      dispatcher.RegisterStreamGraft("md5/C", Md5Factory(core::Technology::kC), traits);

  const std::thread::id submitter = std::this_thread::get_id();
  std::uint64_t ran_on_submitter = 0;
  for (std::uint64_t i = 0; i < kInvocations; ++i) {
    graftd::Invocation invocation;
    invocation.graft = id;
    invocation.data = streamk::Bytes(data.data(), data.size());
    invocation.on_stream_result = [&](const core::GraftHost::StreamRunResult& result) {
      if (std::this_thread::get_id() == submitter && result.ok && result.digest == expected) {
        ++ran_on_submitter;
      }
    };
    ASSERT_TRUE(dispatcher.Submit(std::move(invocation)));
  }
  dispatcher.Drain();

  // A single submitter against idle shards always wins the claim: every
  // invocation ran inline, on this thread, with full accounting.
  EXPECT_EQ(ran_on_submitter, kInvocations);
  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  EXPECT_EQ(snapshot.dispatch.inline_hits, kInvocations);
  EXPECT_EQ(snapshot.grafts[id].counters.ok, kInvocations);
  EXPECT_EQ(snapshot.grafts[id].counters.latency.count, kInvocations);
}

TEST(Dispatcher, InlineFastPathPreservesQuarantineSemantics) {
  graftd::DispatcherOptions options;
  options.workers = 1;
  options.policy.fault_threshold = 3;
  options.policy.base_backoff = std::chrono::duration_cast<std::chrono::microseconds>(1h);
  graftd::Dispatcher dispatcher(options);
  graftd::GraftTraits traits;
  traits.reentrant_safe = true;
  const graftd::GraftId faulty = dispatcher.RegisterStreamGraft(
      "faulty", [](envs::PreemptToken*) { return std::make_unique<AlwaysFaultGraft>(); },
      traits);

  // Single-threaded inline submission: the streak is deterministic even
  // though no worker ever touches these invocations.
  const auto data = MakeData(64);
  for (int i = 0; i < 8; ++i) {
    graftd::Invocation invocation;
    invocation.graft = faulty;
    invocation.data = streamk::Bytes(data.data(), data.size());
    ASSERT_TRUE(dispatcher.Submit(std::move(invocation)));
  }
  dispatcher.Drain();

  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  EXPECT_EQ(snapshot.dispatch.inline_hits, 8u);
  EXPECT_EQ(snapshot.grafts[faulty].counters.faults, 3u);
  EXPECT_EQ(snapshot.grafts[faulty].counters.rejected_quarantined, 5u);
  EXPECT_EQ(snapshot.grafts[faulty].supervision.state, graftd::GraftState::kQuarantined);
  EXPECT_EQ(dispatcher.contained_faults(), 3u);
}

TEST(Dispatcher, InlineAndQueuedPathsProduceEquivalentTraces) {
  constexpr std::uint64_t kInvocations = 6;
  const auto data = MakeData(2048);

  // Same workload twice: once forced through the queue, once inline.
  // The trace must attribute the same spans either way — stage counts are
  // path-independent even though the executing thread differs.
  const auto run = [&](bool inline_path) {
    graftd::DispatcherOptions options;
    options.workers = 1;
    options.inline_fast_path = inline_path;
    graftd::Dispatcher dispatcher(options);
    tracelab::Tracer tracer;
    dispatcher.set_tracer(&tracer);
    graftd::GraftTraits traits;
    traits.reentrant_safe = inline_path;
    const graftd::GraftId id =
        dispatcher.RegisterStreamGraft("md5/C", Md5Factory(core::Technology::kC), traits);
    for (std::uint64_t i = 0; i < kInvocations; ++i) {
      graftd::Invocation invocation;
      invocation.graft = id;
      invocation.data = streamk::Bytes(data.data(), data.size());
      EXPECT_TRUE(dispatcher.Submit(std::move(invocation)));
    }
    dispatcher.Drain();
    return dispatcher.Snapshot();
  };

  const graftd::TelemetrySnapshot queued = run(false);
  const graftd::TelemetrySnapshot inlined = run(true);

  EXPECT_EQ(queued.dispatch.inline_hits, 0u);
  EXPECT_EQ(inlined.dispatch.inline_hits, kInvocations);

  ASSERT_EQ(queued.stages.size(), 1u);
  ASSERT_EQ(inlined.stages.size(), 1u);
  const auto& queued_row = queued.stages[0];
  const auto& inlined_row = inlined.stages[0];
  EXPECT_EQ(queued_row.queue.count, kInvocations);
  EXPECT_EQ(inlined_row.queue.count, kInvocations);
  EXPECT_EQ(queued_row.dispatch.count, kInvocations);
  EXPECT_EQ(inlined_row.dispatch.count, kInvocations);
  EXPECT_EQ(queued_row.body.count, kInvocations);
  EXPECT_EQ(inlined_row.body.count, kInvocations);
  // Crossing: one host-entry span per invocation plus one lazy instance
  // build on whichever thread ran first.
  EXPECT_EQ(queued_row.crossing.count, inlined_row.crossing.count);
  // Outcome accounting is identical.
  EXPECT_EQ(queued.grafts[0].counters.ok, inlined.grafts[0].counters.ok);
}

// The ThreadSanitizer stress target: every submission flavor from multiple
// threads, racing a Snapshot() poller.
void DriveConcurrentStress(QueueShape shape) {
  const std::size_t kProducers = shape.producers;
  constexpr std::size_t kPerProducer = 48;
  constexpr std::size_t kBatchSize = 8;
  const auto data = MakeData(1024);

  graftd::DispatcherOptions options;
  options.workers = shape.workers;
  options.queue_capacity = 16;
  graftd::Dispatcher dispatcher(options);
  graftd::GraftTraits traits;
  traits.reentrant_safe = true;  // let inline runs race worker batches
  const graftd::GraftId id =
      dispatcher.RegisterStreamGraft("md5/C", Md5Factory(core::Technology::kC), traits);

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
      EXPECT_LE(snapshot.grafts[id].counters.invocations,
                kProducers * kPerProducer);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto make_invocation = [&] {
        graftd::Invocation invocation;
        invocation.graft = id;
        invocation.data = streamk::Bytes(data.data(), data.size());
        return invocation;
      };
      for (std::size_t i = 0; i < kPerProducer;) {
        if (p == 0 && i % (2 * kBatchSize) == 0 && i + kBatchSize <= kPerProducer) {
          // Producer 0 mixes in batched submission.
          std::vector<graftd::Invocation> batch(kBatchSize);
          for (auto& invocation : batch) {
            invocation = make_invocation();
          }
          accepted.fetch_add(dispatcher.SubmitBatch(batch), std::memory_order_relaxed);
          i += kBatchSize;
          continue;
        }
        if (dispatcher.Submit(make_invocation())) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  dispatcher.Drain();
  done.store(true, std::memory_order_release);
  poller.join();

  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  EXPECT_EQ(snapshot.grafts[id].counters.invocations, accepted.load());
  EXPECT_EQ(snapshot.grafts[id].counters.ok, accepted.load());
}

TEST(Dispatcher, ConcurrentSubmissionAndSnapshotStressSpscLanes) {
  DriveConcurrentStress(kSingleProducerQueue);
}

TEST(Dispatcher, ConcurrentSubmissionAndSnapshotStressMutexQueue) {
  DriveConcurrentStress(kSharedQueues);
}

TEST(Dispatcher, TrySubmitSignalsBackpressure) {
  graftd::DispatcherOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  graftd::Dispatcher dispatcher(options);
  const graftd::GraftId slow = dispatcher.RegisterStreamGraft(
      "md5/C", Md5Factory(core::Technology::kC));

  // Stall the single worker with a long modeled I/O so the queue backs up.
  const auto data = MakeData(64);
  bool saw_backpressure = false;
  for (int i = 0; i < 32; ++i) {
    graftd::Invocation invocation;
    invocation.graft = slow;
    invocation.data = streamk::Bytes(data.data(), data.size());
    invocation.simulated_io = 5ms;
    if (!dispatcher.TrySubmit(std::move(invocation))) {
      saw_backpressure = true;
      break;
    }
  }
  EXPECT_TRUE(saw_backpressure);
  dispatcher.Drain();  // accepted work still completes exactly once
  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  EXPECT_GT(snapshot.grafts[slow].counters.ok, 0u);
}

TEST(Dispatcher, ExpiredDeadlineIsShedBeforeTheBodyRuns) {
  graftd::FakeClock clock;
  graftd::DispatcherOptions options;
  options.workers = 1;
  graftd::Dispatcher dispatcher(options, &clock);
  tracelab::Tracer tracer;
  dispatcher.set_tracer(&tracer);
  const graftd::GraftId id =
      dispatcher.RegisterStreamGraft("md5/C", Md5Factory(core::Technology::kC));
  const auto data = MakeData(1024);
  clock.Advance(1ms);  // NowNs() == 1'000'000

  // Already past its deadline when the worker picks it up: shed with
  // kExpired, and the graft body must never run.
  std::atomic<int> expired{0};
  graftd::Invocation stale;
  stale.graft = id;
  stale.data = streamk::Bytes(data.data(), data.size());
  stale.deadline_ns = 1;  // long past on the fake clock
  stale.on_complete = [&](const graftd::Completion& completion) {
    if (completion.status == graftd::CompletionStatus::kExpired) {
      expired.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ASSERT_TRUE(dispatcher.Submit(std::move(stale)));

  // A comfortable future deadline runs normally.
  std::atomic<int> ok{0};
  graftd::Invocation live;
  live.graft = id;
  live.data = streamk::Bytes(data.data(), data.size());
  live.deadline_ns = dispatcher.NowNs() + 1'000'000'000ull;
  live.on_complete = [&](const graftd::Completion& completion) {
    if (completion.status == graftd::CompletionStatus::kOk) {
      ok.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ASSERT_TRUE(dispatcher.Submit(std::move(live)));
  dispatcher.Drain();

  EXPECT_EQ(expired.load(), 1);
  EXPECT_EQ(ok.load(), 1);
  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  EXPECT_EQ(snapshot.grafts[id].counters.shed_expired, 1u);
  EXPECT_EQ(snapshot.grafts[id].counters.ok, 1u);
  EXPECT_EQ(snapshot.dispatch.shed_expired, 1u);
  // Expiry is not the graft's fault: no failure streak accrues.
  EXPECT_EQ(snapshot.grafts[id].supervision.consecutive_failures, 0u);
  // Trace evidence the body never started: the dispatch span bracketed
  // both decisions, the body span only the live one.
  ASSERT_EQ(snapshot.stages.size(), 1u);
  EXPECT_EQ(snapshot.stages[0].dispatch.count, 2u);
  EXPECT_EQ(snapshot.stages[0].body.count, 1u);
}

}  // namespace
