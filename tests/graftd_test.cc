// graftd unit tests: histogram math, bounded queue semantics, deterministic
// supervisor state machine (fake clock, no sleeps), deadline-wheel firing
// and cancellation, and the PreemptToken lifecycle regressions for
// back-to-back budgeted runs.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "src/core/deadline_wheel.h"
#include "src/core/graft_host.h"
#include "src/envs/fault.h"
#include "src/envs/safe_env.h"
#include "src/graftd/clock.h"
#include "src/graftd/queue.h"
#include "src/graftd/supervisor.h"
#include "src/graftd/telemetry.h"
#include "src/grafts/factory.h"
#include "src/obslab/registry.h"
#include "src/obslab/snapshot.h"

namespace {

using namespace std::chrono_literals;

// --- LatencyHistogram (graftd::Histogram recording nanoseconds) ---

TEST(LatencyHistogram, CountsMeanAndMax) {
  graftd::Histogram h;
  h.Record(1000);
  h.Record(3000);
  h.Record(8000);
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.mean_us(), 4.0);
  EXPECT_EQ(h.max, 8000u);
}

TEST(LatencyHistogram, PercentileIsBucketUpperBound) {
  graftd::Histogram h;
  for (int i = 0; i < 99; ++i) {
    h.Record(1000);  // the bucket [960, 1023]
  }
  h.Record(1u << 20);  // ~1ms outlier
  // p50 lands in the 1000ns bucket; its upper bound is 1023ns.
  EXPECT_LE(h.PercentileUs(50), 1.024);
  EXPECT_GE(h.PercentileUs(50), 1.0);
  // p99.9 must see the outlier's bucket.
  EXPECT_GE(h.PercentileUs(99.9), 1000.0);
}

TEST(LatencyHistogram, MergeIsExact) {
  graftd::Histogram a;
  graftd::Histogram b;
  a.Record(100);
  a.Record(200);
  b.Record(400000);
  a.Merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.max, 400000u);
  EXPECT_NEAR(a.mean_us(), (100 + 200 + 400000) / 3.0 / 1000.0, 1e-9);
}

TEST(LatencyHistogram, SummaryMentionsPercentiles) {
  graftd::TelemetrySnapshot snapshot;
  graftd::TelemetrySnapshot::Row row;
  row.name = "g";
  row.counters.latency.Record(5000);
  snapshot.grafts.push_back(row);
  const std::string text = obslab::SnapshotText(snapshot);
  EXPECT_EQ(obslab::SeriesSum(text, R"(graftlab_graft_latency_p50_us{graft="g"})"), 5.0) << text;
  EXPECT_EQ(obslab::SeriesSum(text, R"(graftlab_graft_latency_p99_us{graft="g"})"), 5.0) << text;
}

// --- BoundedMpscQueue ---

TEST(BoundedMpscQueue, BackpressureOnOverflow) {
  graftd::BoundedMpscQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full: producer sees backpressure
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(out, 8), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_TRUE(queue.TryPush(4));  // space freed
}

TEST(BoundedMpscQueue, BatchedDequeueIsFifoAndBounded) {
  graftd::BoundedMpscQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(queue.TryPush(i));
  }
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(out, 4), 4u);  // batch cap respected
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  out.clear();
  EXPECT_EQ(queue.PopBatch(out, 100), 6u);
  EXPECT_EQ(out.front(), 4);
  EXPECT_EQ(out.back(), 9);
}

TEST(BoundedMpscQueue, CloseDrainsThenReturnsZero) {
  graftd::BoundedMpscQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(7));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(8));  // closed to producers
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(out, 4), 1u);  // drains what was queued
  EXPECT_EQ(queue.PopBatch(out, 4), 0u);  // then signals exhaustion
}

TEST(BoundedMpscQueue, BlockingPushWaitsForSpace) {
  graftd::BoundedMpscQueue<int> queue(1);
  ASSERT_TRUE(queue.TryPush(1));
  std::thread producer([&] { EXPECT_TRUE(queue.Push(2)); });
  std::this_thread::sleep_for(5ms);  // let the producer block on full
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(out, 1), 1u);
  producer.join();
  out.clear();
  EXPECT_EQ(queue.PopBatch(out, 1), 1u);
  EXPECT_EQ(out.front(), 2);
}

// --- Supervisor (deterministic via FakeClock) ---

graftd::SupervisorPolicy TestPolicy() {
  graftd::SupervisorPolicy policy;
  policy.fault_threshold = 3;
  policy.base_backoff = 1000us;
  policy.backoff_multiplier = 2;
  policy.max_backoff = 1s;
  policy.max_quarantines = 2;  // K: third threshold crossing detaches
  return policy;
}

TEST(Supervisor, QuarantineAfterConsecutiveFaults) {
  graftd::FakeClock clock;
  graftd::Supervisor supervisor(TestPolicy(), &clock);
  const graftd::GraftId id = supervisor.Register("flaky");

  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(supervisor.Admit(id), graftd::AdmitDecision::kRun);
    supervisor.OnOutcome(id, graftd::Outcome::kFault);
    EXPECT_EQ(supervisor.state(id), graftd::GraftState::kHealthy);
  }
  EXPECT_EQ(supervisor.Admit(id), graftd::AdmitDecision::kRun);
  supervisor.OnOutcome(id, graftd::Outcome::kFault);  // third consecutive
  EXPECT_EQ(supervisor.state(id), graftd::GraftState::kQuarantined);
  EXPECT_EQ(supervisor.Admit(id), graftd::AdmitDecision::kRejectQuarantined);
}

TEST(Supervisor, SuccessResetsTheStreak) {
  graftd::FakeClock clock;
  graftd::Supervisor supervisor(TestPolicy(), &clock);
  const graftd::GraftId id = supervisor.Register("recovers");

  supervisor.OnOutcome(id, graftd::Outcome::kFault);
  supervisor.OnOutcome(id, graftd::Outcome::kFault);
  supervisor.OnOutcome(id, graftd::Outcome::kOk);  // streak broken
  supervisor.OnOutcome(id, graftd::Outcome::kFault);
  supervisor.OnOutcome(id, graftd::Outcome::kFault);
  EXPECT_EQ(supervisor.state(id), graftd::GraftState::kHealthy);
}

TEST(Supervisor, PreemptionCountsTowardQuarantine) {
  graftd::FakeClock clock;
  graftd::Supervisor supervisor(TestPolicy(), &clock);
  const graftd::GraftId id = supervisor.Register("runaway");
  for (int i = 0; i < 3; ++i) {
    supervisor.OnOutcome(id, graftd::Outcome::kPreempt);
  }
  EXPECT_EQ(supervisor.state(id), graftd::GraftState::kQuarantined);
}

TEST(Supervisor, ReadmissionAfterBackoffThenExponentialGrowth) {
  graftd::FakeClock clock;
  graftd::Supervisor supervisor(TestPolicy(), &clock);
  const graftd::GraftId id = supervisor.Register("flaky");

  // First quarantine: backoff = base (1ms).
  for (int i = 0; i < 3; ++i) {
    supervisor.OnOutcome(id, graftd::Outcome::kFault);
  }
  ASSERT_EQ(supervisor.state(id), graftd::GraftState::kQuarantined);
  clock.Advance(999us);
  EXPECT_EQ(supervisor.Admit(id), graftd::AdmitDecision::kRejectQuarantined);
  clock.Advance(1us);  // backoff fully elapsed
  EXPECT_EQ(supervisor.Admit(id), graftd::AdmitDecision::kRun);
  EXPECT_EQ(supervisor.state(id), graftd::GraftState::kHealthy);
  EXPECT_EQ(supervisor.Status(id).readmissions, 1u);

  // Second quarantine: backoff doubles to 2ms.
  for (int i = 0; i < 3; ++i) {
    supervisor.OnOutcome(id, graftd::Outcome::kFault);
  }
  ASSERT_EQ(supervisor.state(id), graftd::GraftState::kQuarantined);
  clock.Advance(1ms);
  EXPECT_EQ(supervisor.Admit(id), graftd::AdmitDecision::kRejectQuarantined);
  clock.Advance(1ms);
  EXPECT_EQ(supervisor.Admit(id), graftd::AdmitDecision::kRun);
}

TEST(Supervisor, PermanentDetachAfterKQuarantines) {
  graftd::FakeClock clock;
  graftd::Supervisor supervisor(TestPolicy(), &clock);  // K = 2
  const graftd::GraftId id = supervisor.Register("hopeless");

  for (std::uint32_t quarantine = 1; quarantine <= 2; ++quarantine) {
    for (int i = 0; i < 3; ++i) {
      supervisor.OnOutcome(id, graftd::Outcome::kFault);
    }
    ASSERT_EQ(supervisor.state(id), graftd::GraftState::kQuarantined);
    clock.Advance(1h);  // any backoff elapses
    ASSERT_EQ(supervisor.Admit(id), graftd::AdmitDecision::kRun);
  }
  // Chances exhausted: the next threshold crossing detaches permanently.
  for (int i = 0; i < 3; ++i) {
    supervisor.OnOutcome(id, graftd::Outcome::kFault);
  }
  EXPECT_EQ(supervisor.state(id), graftd::GraftState::kDetached);
  clock.Advance(24h);
  EXPECT_EQ(supervisor.Admit(id), graftd::AdmitDecision::kRejectDetached);
  EXPECT_EQ(supervisor.Status(id).quarantines, 2u);
}

TEST(Supervisor, BackoffSaturatesAtMax) {
  graftd::SupervisorPolicy policy = TestPolicy();
  policy.max_backoff = 3ms;
  policy.max_quarantines = 10;
  graftd::FakeClock clock;
  graftd::Supervisor supervisor(policy, &clock);
  const graftd::GraftId id = supervisor.Register("flaky");

  // Quarantine 4 times: backoffs 1ms, 2ms, 3ms (capped), 3ms.
  for (int q = 0; q < 4; ++q) {
    for (int i = 0; i < 3; ++i) {
      supervisor.OnOutcome(id, graftd::Outcome::kFault);
    }
    ASSERT_EQ(supervisor.state(id), graftd::GraftState::kQuarantined);
    if (q == 3) {
      clock.Advance(3ms - 1us);
      EXPECT_EQ(supervisor.Admit(id), graftd::AdmitDecision::kRejectQuarantined);
      clock.Advance(1us);
    } else {
      clock.Advance(1h);
    }
    ASSERT_EQ(supervisor.Admit(id), graftd::AdmitDecision::kRun);
  }
}

// --- Supervisor: disk-fault degradation track ---

TEST(Supervisor, DiskFaultsDegradeInsteadOfQuarantine) {
  graftd::SupervisorPolicy policy = TestPolicy();
  policy.disk_fault_threshold = 2;
  policy.degraded_backoff = 10ms;
  graftd::FakeClock clock;
  graftd::Supervisor supervisor(policy, &clock);
  const graftd::GraftId id = supervisor.Register("ldisk/C");

  supervisor.OnOutcome(id, graftd::Outcome::kDiskFault);
  EXPECT_EQ(supervisor.state(id), graftd::GraftState::kHealthy);
  supervisor.OnOutcome(id, graftd::Outcome::kDiskFault);  // threshold crossed
  EXPECT_EQ(supervisor.state(id), graftd::GraftState::kDegraded);
  EXPECT_EQ(supervisor.Admit(id), graftd::AdmitDecision::kRejectDegraded);
  // The device failing never counts toward quarantine or detach.
  EXPECT_EQ(supervisor.Status(id).quarantines, 0u);
  EXPECT_EQ(supervisor.Status(id).degradations, 1u);
}

TEST(Supervisor, DegradedGraftShedsThenRecoversAfterBackoff) {
  graftd::SupervisorPolicy policy = TestPolicy();
  policy.disk_fault_threshold = 2;
  policy.degraded_backoff = 10ms;
  graftd::FakeClock clock;
  graftd::Supervisor supervisor(policy, &clock);
  const graftd::GraftId id = supervisor.Register("ldisk/C");

  supervisor.OnOutcome(id, graftd::Outcome::kDiskFault);
  supervisor.OnOutcome(id, graftd::Outcome::kDiskFault);
  ASSERT_EQ(supervisor.state(id), graftd::GraftState::kDegraded);
  clock.Advance(10ms - 1us);
  EXPECT_EQ(supervisor.Admit(id), graftd::AdmitDecision::kRejectDegraded);
  clock.Advance(1us);  // shedding window over: probe with real traffic
  EXPECT_EQ(supervisor.Admit(id), graftd::AdmitDecision::kRun);
  EXPECT_EQ(supervisor.state(id), graftd::GraftState::kHealthy);
  EXPECT_EQ(supervisor.Status(id).recoveries, 1u);
  EXPECT_EQ(supervisor.Status(id).consecutive_disk_faults, 0u);
}

TEST(Supervisor, OkResetsTheDiskFaultStreak) {
  graftd::SupervisorPolicy policy = TestPolicy();
  policy.disk_fault_threshold = 2;
  graftd::FakeClock clock;
  graftd::Supervisor supervisor(policy, &clock);
  const graftd::GraftId id = supervisor.Register("ldisk/C");

  supervisor.OnOutcome(id, graftd::Outcome::kDiskFault);
  supervisor.OnOutcome(id, graftd::Outcome::kOk);  // transient blip healed
  supervisor.OnOutcome(id, graftd::Outcome::kDiskFault);
  EXPECT_EQ(supervisor.state(id), graftd::GraftState::kHealthy);
  EXPECT_EQ(supervisor.Status(id).degradations, 0u);
}

TEST(Supervisor, DiskFaultStreakDoesNotMixWithExtensionFaults) {
  graftd::SupervisorPolicy policy = TestPolicy();  // fault_threshold = 3
  policy.disk_fault_threshold = 3;
  graftd::FakeClock clock;
  graftd::Supervisor supervisor(policy, &clock);
  const graftd::GraftId id = supervisor.Register("ldisk/C");

  // Alternating tracks: neither streak reaches its own threshold.
  supervisor.OnOutcome(id, graftd::Outcome::kFault);
  supervisor.OnOutcome(id, graftd::Outcome::kDiskFault);
  supervisor.OnOutcome(id, graftd::Outcome::kFault);
  supervisor.OnOutcome(id, graftd::Outcome::kDiskFault);
  EXPECT_EQ(supervisor.state(id), graftd::GraftState::kHealthy);
}

// --- DeadlineWheel ---

TEST(DeadlineWheel, TripsTokenAfterDeadline) {
  core::DeadlineWheel wheel(core::DeadlineWheel::Options{200us, 64});
  envs::PreemptToken token;
  envs::SafeLangEnv env(&token);
  bool preempted = false;
  const auto ticket = wheel.Arm(token, 2ms);
  try {
    // Poll until tripped; bail out after 5s of wall clock (test failure).
    const auto give_up = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < give_up) {
      env.Poll();
      std::this_thread::sleep_for(100us);
    }
  } catch (const envs::PreemptFault&) {
    preempted = true;
  }
  wheel.Cancel(ticket);  // no-op: already fired
  EXPECT_TRUE(preempted);
  EXPECT_EQ(wheel.fired(), 1u);
}

TEST(DeadlineWheel, CancelPreventsFiring) {
  core::DeadlineWheel wheel(core::DeadlineWheel::Options{200us, 64});
  envs::PreemptToken token;
  const auto ticket = wheel.Arm(token, 2ms);
  wheel.Cancel(ticket);
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(token.stop_requested());
  EXPECT_EQ(wheel.fired(), 0u);
}

TEST(DeadlineWheel, ManyConcurrentDeadlinesAllFire) {
  core::DeadlineWheel wheel(core::DeadlineWheel::Options{200us, 16});
  // More deadlines than slots, spread over several rounds.
  std::vector<envs::PreemptToken> tokens(64);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    wheel.Arm(tokens[i], std::chrono::microseconds(200 + 150 * i));
  }
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (wheel.fired() < tokens.size() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(wheel.fired(), tokens.size());
  for (const auto& token : tokens) {
    EXPECT_TRUE(token.stop_requested());
  }
}

// --- PreemptToken lifecycle across budgeted runs (regression) ---

TEST(BudgetLifecycle, BackToBackBudgetedRunsDoNotInheritTrip) {
  core::GraftHost host;
  envs::SafeLangEnv env(&host.preempt_token());

  // First run busy-loops until preempted.
  const bool first = host.RunWithBudget(2ms, [&] {
    for (;;) {
      env.Poll();
      std::this_thread::sleep_for(50us);
    }
  });
  EXPECT_FALSE(first);
  // The tripped token must not leak into the next invocation: without the
  // reset the very first Poll() here would spuriously throw.
  const bool second = host.RunWithBudget(10s, [&] {
    for (int i = 0; i < 100; ++i) {
      env.Poll();
    }
  });
  EXPECT_TRUE(second);
  EXPECT_EQ(host.contained_faults(), 1u);
}

TEST(BudgetLifecycle, TokenResetEvenWhenBodyThrowsThroughBudget) {
  core::GraftHost host;
  // A graft fault (not a preemption) unwinds through RunWithBudget; the
  // token must still come out clean for the next, unbudgeted invocation.
  EXPECT_THROW(host.RunWithBudget(10s,
                                  [&] {
                                    host.preempt_token().RequestStop();  // as if tripped mid-run
                                    throw envs::NilFault();
                                  }),
               envs::NilFault);
  EXPECT_FALSE(host.preempt_token().stop_requested());
  EXPECT_NO_THROW(host.preempt_token().Poll());
}

TEST(BudgetLifecycle, SharedWheelBackToBackRuns) {
  core::GraftHost host;
  envs::SafeLangEnv env(&host.preempt_token());

  for (int round = 0; round < 3; ++round) {
    const bool preempted_run = host.RunWithBudget(1ms, [&] {
      for (;;) {
        env.Poll();
        std::this_thread::sleep_for(50us);
      }
    });
    EXPECT_FALSE(preempted_run) << "round " << round;
    const bool quick_run = host.RunWithBudget(10s, [&] { env.Poll(); });
    EXPECT_TRUE(quick_run) << "round " << round;
  }
  EXPECT_EQ(host.contained_faults(), 3u);
}

TEST(BudgetLifecycle, RunStreamGraftHonorsBudgetViaWheel) {
  core::GraftHost host;

  // Modula-3 polls the token at loop back edges, so a tiny budget preempts
  // a large fingerprint; the next small one succeeds on the same instance.
  auto graft = grafts::CreateMd5Graft(core::Technology::kModula3, &host.preempt_token());
  std::vector<std::uint8_t> big(8u << 20, 0xAB);
  const auto slow =
      host.RunStreamGraft(*graft, streamk::Bytes(big.data(), big.size()), 64u << 10, 500us);
  EXPECT_FALSE(slow.ok());
  EXPECT_TRUE(slow.preempted());

  std::vector<std::uint8_t> small(1024, 0xCD);
  auto fresh = grafts::CreateMd5Graft(core::Technology::kModula3, &host.preempt_token());
  const auto quick =
      host.RunStreamGraft(*fresh, streamk::Bytes(small.data(), small.size()), 1024, 10s);
  EXPECT_TRUE(quick.ok());
  EXPECT_FALSE(quick.preempted());
}

}  // namespace
