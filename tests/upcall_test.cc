// Tests for the upcall machinery: the engine's handoff semantics, the
// synthetic upcall's calibration, and the Table 1 signal benchmark.

#include <gtest/gtest.h>

#include <atomic>

#include "src/stats/harness.h"
#include "src/upcall/process_upcall.h"
#include "src/upcall/signal_bench.h"
#include "src/upcall/upcall_engine.h"

namespace {

TEST(UpcallEngine, DeliversArgumentsAndReplies) {
  upcall::UpcallEngine engine([](std::uint64_t arg) { return arg * 2 + 1; });
  EXPECT_EQ(engine.Upcall(0), 1u);
  EXPECT_EQ(engine.Upcall(21), 43u);
  EXPECT_EQ(engine.upcalls(), 2u);
}

TEST(UpcallEngine, HandlerRunsOnServerThread) {
  const auto caller = std::this_thread::get_id();
  std::thread::id server;
  upcall::UpcallEngine engine([&](std::uint64_t arg) {
    server = std::this_thread::get_id();
    return arg;
  });
  engine.Upcall(1);
  EXPECT_NE(server, caller);
}

TEST(UpcallEngine, ManySequentialUpcallsAreStable) {
  std::uint64_t sum = 0;
  upcall::UpcallEngine engine([&](std::uint64_t arg) {
    sum += arg;
    return sum;
  });
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    expect += i;
    ASSERT_EQ(engine.Upcall(i), expect);
  }
}

TEST(UpcallEngine, MeasureRoundTripIsPositive) {
  upcall::UpcallEngine engine([](std::uint64_t arg) { return arg; });
  const auto rt = engine.MeasureRoundTrip(/*runs=*/3, /*iters_per_run=*/500);
  EXPECT_GT(rt.mean_us, 0.0);
  EXPECT_LT(rt.mean_us, 10000.0);  // sanity: not milliseconds
}

TEST(UpcallEngine, DestructorJoinsCleanly) {
  for (int i = 0; i < 20; ++i) {
    upcall::UpcallEngine engine([](std::uint64_t arg) { return arg; });
    engine.Upcall(i);
  }  // each destruction must not hang or crash
}

TEST(SyntheticUpcall, ScalesWithRequestedCost) {
  // The property Figure 1's sweep relies on is the work each cost buys, not
  // how long it took on this run: wall-clock timing belongs in the benches.
  const upcall::SyntheticUpcall synthetic;
  EXPECT_EQ(synthetic.SpinIterations(0.0), 0u);  // free upcall burns nothing
  EXPECT_EQ(synthetic.SpinIterations(-5.0), 0u);
  const std::uint64_t i10 = synthetic.SpinIterations(10.0);
  const std::uint64_t i40 = synthetic.SpinIterations(40.0);
  EXPECT_GT(i10, 0u);
  // Linear up to the truncation of each product to a whole iteration.
  EXPECT_GE(i40 + 4, 4 * i10);
  EXPECT_LE(i40, 4 * i10 + 4);
  synthetic.Invoke(0.0);  // returns without spinning
}

TEST(ProcessUpcall, DeliversArgumentsAcrossProcesses) {
  upcall::ProcessUpcallEngine engine([](std::uint64_t arg) { return arg * 3 + 1; });
  EXPECT_EQ(engine.Upcall(0), 1u);
  EXPECT_EQ(engine.Upcall(10), 31u);
  EXPECT_EQ(engine.upcalls(), 2u);
}

TEST(ProcessUpcall, ServerStateIsIsolated) {
  // Handler state mutates in the *server process*; the client's copy of the
  // captured variable must not change — the isolation the paper's
  // user-level servers exist to provide.
  std::uint64_t client_copy = 0;
  upcall::ProcessUpcallEngine engine([&client_copy](std::uint64_t arg) {
    client_copy += arg;       // runs in the child: invisible here
    return client_copy;       // server-side accumulator
  });
  EXPECT_EQ(engine.Upcall(5), 5u);
  EXPECT_EQ(engine.Upcall(7), 12u);  // server remembers
  EXPECT_EQ(client_copy, 0u);        // client never sees it
}

TEST(ProcessUpcall, ManySequentialUpcalls) {
  upcall::ProcessUpcallEngine engine([](std::uint64_t arg) { return arg ^ 0xFF; });
  for (std::uint64_t i = 0; i < 2000; ++i) {
    ASSERT_EQ(engine.Upcall(i), i ^ 0xFF);
  }
}

TEST(ProcessUpcall, DestructorReapsServer) {
  for (int i = 0; i < 10; ++i) {
    upcall::ProcessUpcallEngine engine([](std::uint64_t arg) { return arg; });
    engine.Upcall(1);
  }  // no zombie pileup (the suite would hang or fork-fail if leaked)
}

TEST(ProcessUpcall, RoundTripCostsMoreThanThreadHandoff) {
  upcall::ProcessUpcallEngine process_engine([](std::uint64_t arg) { return arg; });
  const auto rt = process_engine.MeasureRoundTrip(3, 300);
  EXPECT_GT(rt.mean_us, 0.5);  // two kernel crossings cannot be free
  EXPECT_LT(rt.mean_us, 20000.0);
}

TEST(SignalBench, ProducesPlausibleFigure) {
  const auto result = upcall::MeasureSignalHandling(/*runs=*/3, /*rounds_per_run=*/50);
  if (!result.ok) {
    GTEST_SKIP() << "signal benchmark unavailable in this environment";
  }
  // Handling must cost more than ignoring, and land in a sane range.
  EXPECT_GT(result.handled_us, result.ignored_us);
  EXPECT_GT(result.per_signal_us, 0.0);
  EXPECT_LT(result.per_signal_us, 1000.0);
}

}  // namespace
