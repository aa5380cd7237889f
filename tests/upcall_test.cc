// Tests for the upcall machinery: the engine's mailbox crossing into a
// forked server, its fault containment, the Upcall grafts built on it, the
// synthetic upcall's calibration, and the Table 1 signal benchmark.
//
// Every engine here forks exactly one server, and no test forks in a loop
// of unbounded length.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/core/deadline_wheel.h"
#include "src/core/graft_host.h"
#include "src/core/technology.h"
#include "src/envs/fault.h"
#include "src/envs/preempt.h"
#include "src/grafts/factory.h"
#include "src/grafts/upcall_grafts.h"
#include "src/md5/md5.h"
#include "src/upcall/signal_bench.h"
#include "src/upcall/upcall_engine.h"
#include "src/vmsim/frame.h"

namespace {

using upcall::Request;
using upcall::UpcallEngine;

// A server whose handler is `handler`, stateless.
template <typename F>
UpcallEngine::ServerFactory Stateless(F handler) {
  return [handler] { return UpcallEngine::Handler(handler); };
}

TEST(UpcallEngine, DeliversArgumentsAndReplies) {
  UpcallEngine engine(Stateless([](const Request& request) {
    return request.op * 1000 + request.args[0] * 2 + request.args[1] + request.args[2];
  }));
  EXPECT_EQ(engine.Upcall(0), 0u);
  EXPECT_EQ(engine.Upcall(3, 21, 1, 4), 3047u);
  EXPECT_EQ(engine.upcalls(), 2u);
}

TEST(UpcallEngine, HandlerRunsInServerProcess) {
  UpcallEngine engine(Stateless(
      [](const Request&) { return static_cast<std::uint64_t>(::getpid()); }));
  const std::uint64_t server = engine.Upcall(0);
  EXPECT_NE(server, static_cast<std::uint64_t>(::getpid()));
  EXPECT_EQ(server, static_cast<std::uint64_t>(engine.server_pid()));
}

TEST(UpcallEngine, ManySequentialUpcallsAreStable) {
  UpcallEngine engine([] {
    auto sum = std::make_shared<std::uint64_t>(0);
    return [sum](const Request& request) { return *sum += request.args[0]; };
  });
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    expect += i;
    ASSERT_EQ(engine.Upcall(0, i), expect);
  }
}

TEST(UpcallEngine, MeasureRoundTripIsPositive) {
  UpcallEngine engine(Stateless([](const Request& request) { return request.args[0]; }));
  const auto rt = engine.MeasureRoundTrip(/*runs=*/3, /*iters_per_run=*/500);
  EXPECT_GT(rt.mean_us(), 0.0);
  EXPECT_LT(rt.mean_us(), 10000.0);  // sanity: not milliseconds
}

TEST(UpcallEngine, DestructorJoinsCleanly) {
  // Each destruction must stop its server without hanging or crashing,
  // whether the server has answered a call or is still waiting for one.
  for (std::uint64_t i = 0; i < 20; ++i) {
    UpcallEngine engine(Stateless([](const Request& request) { return request.args[0]; }));
    if (i % 2 == 0) {
      EXPECT_EQ(engine.Upcall(0, i), i);
    }
  }
}

TEST(UpcallEngine, SleepingSidesAreWoken) {
  // Op 1 outlasts the caller's spin, so the caller sleeps on the reply
  // word; the caller's pause between calls outlasts the server's spin, so
  // the server sleeps on the request word. Every reply must still arrive.
  UpcallEngine engine(Stateless([](const Request& request) {
    if (request.op == 1) {
      ::usleep(2000);
    }
    return request.args[0] + 1;
  }));
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_EQ(engine.Upcall(static_cast<std::uint32_t>(i % 2), i), i + 1);
    ::usleep(2000);
  }
  EXPECT_EQ(engine.upcalls(), 6u);
}

TEST(ProcessUpcall, DeliversArgumentsAcrossProcesses) {
  // The payload crosses both ways: the server sums what it was sent and
  // writes the bytes back reversed.
  UpcallEngine engine(Stateless([](const Request& request) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < request.payload_len; ++i) {
      sum += request.payload[i];
    }
    std::vector<std::uint8_t> reversed(request.payload, request.payload + request.payload_len);
    for (std::size_t i = 0; i < reversed.size(); ++i) {
      request.payload[i] = reversed[reversed.size() - 1 - i];
    }
    return sum;
  }));
  const std::uint8_t sent[] = {1, 2, 3, 250};
  std::memcpy(engine.payload(), sent, sizeof(sent));
  EXPECT_EQ(engine.Upcall(0, 0, 0, 0, sizeof(sent)), 256u);
  const std::uint8_t* back = engine.payload();
  EXPECT_EQ(back[0], 250);
  EXPECT_EQ(back[3], 1);
}

TEST(ProcessUpcall, ServerStateIsIsolated) {
  // The handler mutates the captured variable in the *server process*; the
  // caller's copy must not change — the isolation the paper's user-level
  // servers exist to provide.
  std::uint64_t client_copy = 0;
  UpcallEngine engine([&client_copy] {
    return [&client_copy](const Request& request) {
      client_copy += request.args[0];  // runs in the child: invisible here
      return client_copy;              // server-side accumulator
    };
  });
  EXPECT_EQ(engine.Upcall(0, 5), 5u);
  EXPECT_EQ(engine.Upcall(0, 7), 12u);  // server remembers
  EXPECT_EQ(client_copy, 0u);           // caller never sees it
}

TEST(ProcessUpcall, ManySequentialUpcalls) {
  // Payloads of every size class up to the whole mailbox, back to back.
  UpcallEngine engine(Stateless([](const Request& request) {
    std::uint64_t sum = request.payload_len << 32;
    for (std::size_t i = 0; i < request.payload_len; ++i) {
      sum += request.payload[i];
    }
    return sum;
  }));
  for (std::size_t i = 0; i < 2000; ++i) {
    const std::size_t len = (i * 7919) % (UpcallEngine::kPayloadBytes + 1);
    std::memset(engine.payload(), static_cast<int>(i & 0xFF), len);
    const std::uint64_t expect = (std::uint64_t{len} << 32) + len * (i & 0xFF);
    ASSERT_EQ(engine.Upcall(0, 0, 0, 0, len), expect) << "call " << i;
  }
  EXPECT_THROW(engine.Upcall(0, 0, 0, 0, UpcallEngine::kPayloadBytes + 1), std::length_error);
}

TEST(ProcessUpcall, DestructorReapsServer) {
  for (int i = 0; i < 3; ++i) {
    pid_t server = -1;
    {
      UpcallEngine engine(Stateless([](const Request& request) { return request.args[0]; }));
      EXPECT_EQ(engine.Upcall(0, 1), 1u);
      server = engine.server_pid();
      ASSERT_GT(server, 0);
    }
    // Reaped, not a zombie: the pid is no longer our child.
    EXPECT_EQ(::waitpid(server, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
  }
}

TEST(ProcessUpcall, MeasureRoundTripCountsEveryCall) {
  // Timing belongs to Table 1; here, the measurement must really cross:
  // one upcall per iteration, in the warmup run and the three timed runs.
  UpcallEngine engine(Stateless([](const Request& request) { return request.args[0]; }));
  const auto rt = engine.MeasureRoundTrip(/*runs=*/3, /*iters_per_run=*/300);
  EXPECT_EQ(rt.per_iter_us.count(), 3u);
  EXPECT_EQ(engine.upcalls(), (1u + 3u) * 300u);
}

TEST(ProcessUpcall, KilledServerFaultsEveryLaterCall) {
  UpcallEngine engine(Stateless([](const Request& request) { return request.args[0]; }));
  EXPECT_EQ(engine.Upcall(0, 9), 9u);
  ASSERT_EQ(::kill(engine.server_pid(), SIGKILL), 0);
  EXPECT_THROW(engine.Upcall(0, 1), envs::EnvFault);
  EXPECT_EQ(engine.server_pid(), -1);  // reaped by the failing call
  EXPECT_THROW(engine.Upcall(0, 2), envs::EnvFault);
  EXPECT_EQ(engine.upcalls(), 1u);
}

TEST(ProcessUpcall, HungServerIsPreemptedByItsToken) {
  envs::PreemptToken token;
  UpcallEngine engine(Stateless([](const Request& request) -> std::uint64_t {
                        while (request.op == 1) {
                          ::pause();  // hangs until killed
                        }
                        return 0;
                      }),
                      &token);
  EXPECT_EQ(engine.Upcall(0), 0u);
  {
    core::ArmGuard deadline(core::DeadlineWheel::Shared(), token, std::chrono::milliseconds(20));
    EXPECT_THROW(engine.Upcall(1), envs::PreemptFault);
  }
  EXPECT_EQ(engine.server_pid(), -1);  // killed and reaped
  token.Reset();
  EXPECT_THROW(engine.Upcall(0), envs::EnvFault);
}

TEST(ProcessUpcall, HandlerExceptionEndsTheServer) {
  UpcallEngine engine(Stateless([](const Request& request) -> std::uint64_t {
    if (request.op == 1) {
      throw std::runtime_error("server bug");
    }
    return 7;
  }));
  EXPECT_EQ(engine.Upcall(0), 7u);
  EXPECT_THROW(engine.Upcall(1), envs::EnvFault);
}

// --- The Upcall grafts on the engine ---

TEST(UpcallGraft, KilledStreamServerIsAContainedFault) {
  core::GraftHost host;
  grafts::UpcallMd5Graft graft;
  const std::vector<std::uint8_t> data(1000, 0x5A);
  const auto good = host.RunStreamGraft(graft, {data.data(), data.size()}, 256);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.digest, md5::Sum({data.data(), data.size()}));

  ASSERT_EQ(::kill(graft.server_pid(), SIGKILL), 0);
  const auto dead = host.RunStreamGraft(graft, {data.data(), data.size()}, 256);
  EXPECT_FALSE(dead.ok());
  EXPECT_FALSE(dead.preempted());
  EXPECT_EQ(dead.fault_message, "upcall server died");
  EXPECT_EQ(host.contained_faults(), 1u);
}

TEST(UpcallGraft, KilledLogicalDiskServerIsAnExtensionFault) {
  core::GraftHostOptions options;
  options.disk_geometry.num_blocks = 256;
  options.disk_geometry.blocks_per_segment = 16;
  core::GraftHost host(options);
  grafts::UpcallLogicalDiskGraft graft(options.disk_geometry);
  ASSERT_EQ(::kill(graft.server_pid(), SIGKILL), 0);
  const auto result = host.RunLogicalDisk(graft, 64);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.fault_class, core::GraftHost::FaultClass::kExtension);
  EXPECT_EQ(host.contained_faults(), 1u);
  EXPECT_EQ(host.disk_faults(), 0u);
}

TEST(UpcallGraft, EvictionSearchCrossesMailboxChunks) {
  // A chain longer than one mailbox of page ids whose first chunk is all
  // hot: the server answers "none" for it and finds the victim in the next.
  constexpr std::size_t kChunk = UpcallEngine::kPayloadBytes / sizeof(std::int64_t);
  std::vector<vmsim::Frame> frames(kChunk + 3);
  vmsim::LruQueue queue;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].page = i <= kChunk ? 7 : 8 + i;
    queue.PushMru(&frames[i]);
  }
  auto upcall = grafts::CreateEvictionGraft(core::Technology::kUpcall);
  auto native = grafts::CreateEvictionGraft(core::Technology::kC);
  for (auto* graft : {upcall.get(), native.get()}) {
    graft->HotListAdd(7);
  }
  EXPECT_EQ(upcall->ChooseVictim(queue.head()), &frames[kChunk + 1]);
  EXPECT_EQ(native->ChooseVictim(queue.head()), &frames[kChunk + 1]);

  // Everything hot across both chunks: the kernel's default, as in C.
  for (auto* graft : {upcall.get(), native.get()}) {
    graft->HotListAdd(frames[kChunk + 1].page);
    graft->HotListAdd(frames[kChunk + 2].page);
  }
  EXPECT_EQ(upcall->ChooseVictim(queue.head()), queue.head());
  EXPECT_EQ(native->ChooseVictim(queue.head()), queue.head());
}

// --- Figure 1's synthetic upcall and Table 1's signal benchmark ---

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

TEST(SignalBench, ProducesPlausibleFigure) {
  const auto result = upcall::MeasureSignalHandling(/*runs=*/3, /*rounds_per_run=*/50);
  if (!result.ok) {
    GTEST_SKIP() << "signal benchmark unavailable in this environment";
  }
  // Structural only: every round ran in both modes and took time. Whether
  // handling costs more than ignoring is a timing claim; table1_signals
  // gates on it (its exit status), away from a loaded test box.
  EXPECT_EQ(result.rounds, 3u * 50u);
  EXPECT_GT(result.handled_us, 0.0);
  EXPECT_GT(result.ignored_us, 0.0);
}

}  // namespace
