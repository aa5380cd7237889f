// chaoslab end-to-end tests: the self-healing netfront::Client against a
// server seeded with faultlab injections. Covers retry-through-reset,
// exactly-once-visible resubmission via the dedup window, the per-graft
// circuit breaker's closed -> open -> half-open -> closed cycle, deadline
// propagation from the wire to the worker, IO-thread crash adoption, the
// 5%-conn-kill / >=99.9%-success acceptance bar, and injector determinism.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/technology.h"
#include "src/faultlab/fault.h"
#include "src/faultlab/injector.h"
#include "src/graftd/clock.h"
#include "src/graftd/dispatcher.h"
#include "src/grafts/factory.h"
#include "src/md5/md5.h"
#include "src/netfront/client.h"
#include "src/netfront/server.h"
#include "src/netfront/wire.h"
#include "src/obslab/registry.h"
#include "src/obslab/snapshot.h"

namespace {

using graftd::Dispatcher;
using graftd::DispatcherOptions;
using netfront::Client;
using netfront::ClientOptions;
using netfront::ErrorCode;
using netfront::FrameDecoder;
using netfront::FrameType;
using netfront::Server;
using netfront::ServerOptions;

std::vector<std::uint8_t> Payload(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(seed + 13 * i);
  }
  return p;
}

graftd::StreamGraftFactory Md5Factory() {
  return [](envs::PreemptToken* preempt) {
    return grafts::CreateMd5Graft(core::Technology::kC, preempt);
  };
}

// Counts completed executions: the side-effect ledger the exactly-once
// assertions read.
class CountingGraft : public core::StreamGraft {
 public:
  explicit CountingGraft(std::atomic<std::uint64_t>* executions) : executions_(executions) {}
  void Consume(const std::uint8_t* data, std::size_t len) override { md5_.Update({data, len}); }
  md5::Digest Finish() override {
    executions_->fetch_add(1, std::memory_order_relaxed);
    md5::Digest digest = md5_.Final();
    md5_.Reset();
    return digest;
  }
  const char* technology() const override { return "counting"; }

 private:
  std::atomic<std::uint64_t>* executions_;
  md5::Context md5_;
};

// Fixed service time: lets a queued request outlive a short wire deadline.
class SlowGraft : public core::StreamGraft {
 public:
  explicit SlowGraft(std::chrono::microseconds delay) : delay_(delay) {}
  void Consume(const std::uint8_t* data, std::size_t len) override { md5_.Update({data, len}); }
  md5::Digest Finish() override {
    std::this_thread::sleep_for(delay_);
    md5::Digest digest = md5_.Final();
    md5_.Reset();
    return digest;
  }
  const char* technology() const override { return "test-slow"; }

 private:
  std::chrono::microseconds delay_;
  md5::Context md5_;
};

// Accepts on an ephemeral loopback port and hands every connection to
// Server::AddConnection, which places connections round-robin across the IO
// threads. Tests that need to know which thread owns a connection listen
// through this instead of Server::ListenTcp, whose EPOLLEXCLUSIVE accept
// lets any thread win. Reconnects take the same path.
class RoundRobinAcceptor {
 public:
  // `server` must already be started.
  explicit RoundRobinAcceptor(Server& server) : server_(server) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd_ < 0 || bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        listen(fd_, 16) != 0 ||
        getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      for (;;) {
        const int conn = accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (conn < 0) {
          if (errno == EINTR) continue;
          return;  // shut down
        }
        if (!server_.AddConnection(conn)) close(conn);
      }
    });
  }
  ~RoundRobinAcceptor() {
    if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);  // wakes the blocked accept
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) close(fd_);
  }
  RoundRobinAcceptor(const RoundRobinAcceptor&) = delete;
  RoundRobinAcceptor& operator=(const RoundRobinAcceptor&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  Server& server_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

// Minimal blocking client for the tests that must see raw wire replies
// (error codes, deadline frames) without the self-healing layered on top.
class RawClient {
 public:
  ~RawClient() { Close(); }

  bool Connect(std::uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  bool Send(const std::vector<std::uint8_t>& frame) {
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t w = send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (w <= 0) {
        return false;
      }
      sent += static_cast<std::size_t>(w);
    }
    return true;
  }

  bool ReadFrame(FrameDecoder::Frame& frame) {
    for (;;) {
      if (decoder_.Next(frame) == FrameDecoder::Result::kFrame) {
        return true;
      }
      if (decoder_.failed()) {
        return false;
      }
      std::uint8_t buf[4096];
      const ssize_t r = recv(fd_, buf, sizeof(buf), 0);
      if (r <= 0) {
        return false;
      }
      decoder_.Feed(buf, static_cast<std::size_t>(r));
    }
  }

  void Close() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

ErrorCode CodeOf(const FrameDecoder::Frame& frame) {
  return static_cast<ErrorCode>(frame.payload[0] |
                               (static_cast<std::uint16_t>(frame.payload[1]) << 8));
}

TEST(NetfrontClient, RetriesRideThroughInjectedConnResets) {
  DispatcherOptions dopts;
  dopts.workers = 2;
  Dispatcher dispatcher(dopts);
  const graftd::GraftId md5_id = dispatcher.RegisterStreamGraft("md5", Md5Factory());

  faultlab::FaultPlan plan;
  plan.seed = 11;
  faultlab::FaultSpec reset;
  reset.site = "netfront/read";
  reset.kind = faultlab::FaultKind::kTransientError;
  reset.every_nth = 7;  // every 7th read event resets the connection
  plan.Add(reset);
  faultlab::Injector injector(plan);

  ServerOptions sopts;
  sopts.io_threads = 2;
  sopts.injector = &injector;
  sopts.dedup_window = 1024;
  Server server(dispatcher, sopts);
  const std::uint32_t wire_md5 = server.ExposeGraft(md5_id);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  ClientOptions copts;
  copts.port = server.port();
  copts.seed = 5;
  Client client(copts);
  const auto payload = Payload(256, 17);
  const md5::Digest expected = md5::Sum({payload.data(), payload.size()});
  std::size_t ok = 0;
  constexpr std::size_t kCalls = 200;
  for (std::size_t i = 0; i < kCalls; ++i) {
    const Client::Result result = client.Call(wire_md5, payload.data(), payload.size());
    if (result.ok && std::memcmp(result.digest.data(), expected.data(), 8) == 0) {
      ++ok;
    }
  }
  EXPECT_EQ(ok, kCalls);
  // The plan fired: connections died and the client healed them.
  EXPECT_GT(injector.total_injected(), 0u);
  EXPECT_GT(client.stats().reconnects, 0u);
  server.Stop();
}

TEST(NetfrontClient, LostReplyIsRepaidFromTheDedupWindowWithoutReExecution) {
  DispatcherOptions dopts;
  dopts.workers = 1;
  Dispatcher dispatcher(dopts);
  std::atomic<std::uint64_t> executions{0};
  const graftd::GraftId counting_id =
      dispatcher.RegisterStreamGraft("counting", [&executions](envs::PreemptToken*) {
        return std::make_unique<CountingGraft>(&executions);
      });

  // The first reply flush dies: the body ran, the client never heard.
  faultlab::FaultPlan plan;
  plan.seed = 3;
  faultlab::FaultSpec reset;
  reset.site = "netfront/write";
  reset.kind = faultlab::FaultKind::kTransientError;
  reset.every_nth = 1;
  reset.budget = 1;
  plan.Add(reset);
  faultlab::Injector injector(plan);

  ServerOptions sopts;
  sopts.io_threads = 1;
  sopts.injector = &injector;
  sopts.dedup_window = 64;
  Server server(dispatcher, sopts);
  const std::uint32_t wire_id = server.ExposeGraft(counting_id);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  ClientOptions copts;
  copts.port = server.port();
  copts.seed = 9;
  Client client(copts);
  const auto payload = Payload(512, 5);
  const md5::Digest expected = md5::Sum({payload.data(), payload.size()});
  const Client::Result result = client.Call(wire_id, payload.data(), payload.size());

  // The retry was answered from the dedup window: correct digest, exactly
  // one execution, and the server counted the replay.
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(std::memcmp(result.digest.data(), expected.data(), 8), 0);
  EXPECT_GT(result.attempts, 1u);
  EXPECT_EQ(executions.load(), 1u);
  EXPECT_EQ(injector.total_injected(), 1u);
  EXPECT_GE(client.stats().reconnects, 1u);
  server.Stop();

  graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  server.FillTelemetry(snapshot.netfront);
  EXPECT_GE(snapshot.netfront.tenants[0].retries_deduped, 1u);
  // Admissions never exceeded distinct requests: the no-duplicates bar.
  EXPECT_EQ(snapshot.netfront.tenants[0].accepted, 1u);
}

TEST(NetfrontClient, BreakerOpensShedsAtAdmissionThenProbesClosed) {
  graftd::FakeClock clock;
  DispatcherOptions dopts;
  dopts.workers = 1;
  // Breaker trips before quarantine machinery would engage.
  dopts.policy.breaker_threshold = 2;
  dopts.policy.fault_threshold = 10;
  Dispatcher dispatcher(dopts, &clock);
  const graftd::GraftId md5_id = dispatcher.RegisterStreamGraft("md5", Md5Factory());

  ServerOptions sopts;
  sopts.io_threads = 1;
  Server server(dispatcher, sopts);
  const std::uint32_t wire_md5 = server.ExposeGraft(md5_id);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  // Two scored failures open the breaker.
  dispatcher.supervisor().OnOutcome(md5_id, graftd::Outcome::kFault);
  dispatcher.supervisor().OnOutcome(md5_id, graftd::Outcome::kFault);
  ASSERT_EQ(dispatcher.Snapshot().grafts[md5_id].supervision.breaker,
            graftd::BreakerState::kOpen);

  const auto payload = Payload(64, 2);
  ClientOptions copts;
  copts.port = server.port();
  copts.seed = 21;
  copts.max_retries = 2;
  Client client(copts);

  // Open breaker + frozen clock: every attempt is shed at admission and
  // the call surfaces the breaker error after exhausting its retries.
  const Client::Result shed = client.Call(wire_md5, payload.data(), payload.size());
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.error, ErrorCode::kBreakerOpen);
  EXPECT_EQ(shed.attempts, 3u);

  // Past the backoff, the next request is admitted as the half-open probe;
  // it succeeds, which closes the breaker for everything after it.
  clock.Advance(std::chrono::milliseconds(50));
  const md5::Digest expected = md5::Sum({payload.data(), payload.size()});
  const Client::Result probe = client.Call(wire_md5, payload.data(), payload.size());
  ASSERT_TRUE(probe.ok);
  EXPECT_EQ(std::memcmp(probe.digest.data(), expected.data(), 8), 0);
  const Client::Result after = client.Call(wire_md5, payload.data(), payload.size());
  EXPECT_TRUE(after.ok);

  server.Stop();
  graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  server.FillTelemetry(snapshot.netfront);
  EXPECT_EQ(snapshot.grafts[md5_id].supervision.breaker, graftd::BreakerState::kClosed);
  EXPECT_EQ(snapshot.grafts[md5_id].supervision.breaker_opens, 1u);
  EXPECT_GE(snapshot.netfront.tenants[0].breaker_open, 3u);
  // The rendered telemetry carries the breaker columns.
  const std::string closed =
      R"("graftlab_breaker_state","type":"gauge","labels":{"graft":"md5","state":"closed"})";
  EXPECT_NE(obslab::SnapshotJson(snapshot).find(closed), std::string::npos);
  EXPECT_GE(obslab::SeriesSum(obslab::SnapshotText(snapshot), "graftlab_tenant_breaker_open_total"),
            3.0);
}

TEST(NetfrontClient, WireDeadlineShedsQueuedWorkBeforeTheBodyRuns) {
  DispatcherOptions dopts;
  dopts.workers = 1;
  Dispatcher dispatcher(dopts);
  const graftd::GraftId slow_id =
      dispatcher.RegisterStreamGraft("slow", [](envs::PreemptToken*) {
        return std::make_unique<SlowGraft>(std::chrono::milliseconds(20));
      });

  ServerOptions sopts;
  sopts.io_threads = 1;
  sopts.staging_high = 4096;
  Server server(dispatcher, sopts);
  const std::uint32_t wire_slow = server.ExposeGraft(slow_id);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  RawClient raw;
  ASSERT_TRUE(raw.Connect(server.port()));
  const auto payload = Payload(32, 8);
  // Three 20ms requests clog the single worker; the deadline request
  // queued behind them has 1ms to live and must be shed, not run.
  std::vector<std::uint8_t> frames;
  for (std::uint64_t i = 0; i < 3; ++i) {
    netfront::AppendRequest(frames, 0, wire_slow, i, payload.data(), payload.size());
  }
  netfront::AppendRequestDeadline(frames, 0, wire_slow, 99, 1000, payload.data(),
                                  payload.size());
  ASSERT_TRUE(raw.Send(frames));

  std::size_t ok = 0;
  bool expired_seen = false;
  for (int i = 0; i < 4; ++i) {
    FrameDecoder::Frame reply;
    ASSERT_TRUE(raw.ReadFrame(reply));
    if (reply.header.type == FrameType::kResponse) {
      ++ok;
    } else {
      ASSERT_EQ(reply.header.type, FrameType::kError);
      EXPECT_EQ(reply.header.request_id, 99u);
      EXPECT_EQ(CodeOf(reply), ErrorCode::kExpired);
      expired_seen = true;
    }
  }
  EXPECT_EQ(ok, 3u);
  EXPECT_TRUE(expired_seen);
  raw.Close();
  server.Stop();

  graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  server.FillTelemetry(snapshot.netfront);
  EXPECT_EQ(snapshot.grafts[slow_id].counters.shed_expired, 1u);
  EXPECT_EQ(snapshot.grafts[slow_id].counters.ok, 3u);
  EXPECT_EQ(snapshot.dispatch.shed_expired, 1u);
}

TEST(NetfrontClient, IoThreadCrashIsAdoptedAndCallsKeepSucceeding) {
  DispatcherOptions dopts;
  dopts.workers = 2;
  Dispatcher dispatcher(dopts);
  const graftd::GraftId md5_id = dispatcher.RegisterStreamGraft("md5", Md5Factory());

  // One crash, a few hundred IO-loop passes in: both clients are
  // connected by then, one per IO thread (the acceptor below places them
  // round-robin), so the dying thread owns a connection the survivor must
  // adopt.
  faultlab::FaultPlan plan;
  plan.seed = 7;
  faultlab::FaultSpec crash;
  crash.site = "netfront/io_thread";
  crash.kind = faultlab::FaultKind::kCrash;
  crash.every_nth = 200;
  crash.budget = 1;
  plan.Add(crash);
  faultlab::Injector injector(plan);

  ServerOptions sopts;
  sopts.io_threads = 2;
  sopts.injector = &injector;
  sopts.dedup_window = 1024;
  Server server(dispatcher, sopts);
  const std::uint32_t wire_md5 = server.ExposeGraft(md5_id);
  server.Start();
  RoundRobinAcceptor acceptor(server);
  ASSERT_NE(acceptor.port(), 0);

  ClientOptions copts;
  copts.port = acceptor.port();
  Client a(copts), b(copts);
  const auto payload = Payload(128, 4);
  const md5::Digest expected = md5::Sum({payload.data(), payload.size()});
  // a connects (and is placed) before b does.
  ASSERT_TRUE(a.Call(wire_md5, payload.data(), payload.size()).ok);
  ASSERT_TRUE(b.Call(wire_md5, payload.data(), payload.size()).ok);

  // Pump until the crash fires (every call forces IO-loop passes on both
  // threads: reads on the owner, completion wakes on both).
  graftd::NetfrontSection section;
  std::uint64_t pumped = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    const Client::Result ra = a.Call(wire_md5, payload.data(), payload.size());
    const Client::Result rb = b.Call(wire_md5, payload.data(), payload.size());
    EXPECT_TRUE(ra.ok);
    EXPECT_TRUE(rb.ok);
    pumped += 2;
    server.FillTelemetry(section);
    if (section.io_thread_crashes >= 1) {
      break;
    }
  }
  ASSERT_EQ(section.io_thread_crashes, 1u) << "crash never fired";
  // The dying thread owned one of the two live connections.
  EXPECT_GE(section.conns_adopted, 1u);

  // Life goes on: both clients keep getting correct replies on whatever
  // connection (original or adopted) they now ride.
  for (int i = 0; i < 20; ++i) {
    const Client::Result ra = a.Call(wire_md5, payload.data(), payload.size());
    const Client::Result rb = b.Call(wire_md5, payload.data(), payload.size());
    ASSERT_TRUE(ra.ok);
    ASSERT_TRUE(rb.ok);
    EXPECT_EQ(std::memcmp(ra.digest.data(), expected.data(), 8), 0);
    EXPECT_EQ(std::memcmp(rb.digest.data(), expected.data(), 8), 0);
  }
  server.Stop();

  graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  server.FillTelemetry(snapshot.netfront);
  // Nothing wedged or double-resolved across the crash.
  EXPECT_EQ(snapshot.netfront.tenants[0].accepted,
            snapshot.netfront.tenants[0].completed_ok +
                snapshot.netfront.tenants[0].completed_error);
  EXPECT_GE(
      obslab::SeriesSum(obslab::SnapshotText(snapshot), "graftlab_net_io_thread_crashes_total"),
      1.0);
}

TEST(NetfrontClient, FivePercentConnKillsSustainTripleNineSuccess) {
  // The acceptance bar: with ~5% of connections killed mid-stream, clients
  // with <= 3 retries sustain >= 99.9% success.
  DispatcherOptions dopts;
  dopts.workers = 2;
  Dispatcher dispatcher(dopts);
  const graftd::GraftId md5_id = dispatcher.RegisterStreamGraft("md5", Md5Factory());

  faultlab::FaultPlan plan;
  plan.seed = 1996;
  faultlab::FaultSpec reset;
  reset.site = "netfront/read";
  reset.kind = faultlab::FaultKind::kTransientError;
  reset.every_nth = 20;  // ~1-2 reads per request => ~5-10% killed mid-stream
  plan.Add(reset);
  faultlab::Injector injector(plan);

  ServerOptions sopts;
  sopts.io_threads = 2;
  sopts.staging_high = 4096;
  sopts.injector = &injector;
  sopts.dedup_window = 4096;
  Server server(dispatcher, sopts);
  const std::uint32_t wire_md5 = server.ExposeGraft(md5_id);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  constexpr std::uint64_t kClients = 4;
  constexpr std::uint64_t kPerClient = 250;
  std::vector<std::uint64_t> oks(kClients, 0);
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ClientOptions copts;
      copts.port = server.port();
      copts.seed = 100 + t;
      copts.max_retries = 3;
      Client client(copts);
      const auto payload = Payload(200, static_cast<std::uint8_t>(t));
      const md5::Digest expected = md5::Sum({payload.data(), payload.size()});
      for (std::uint64_t i = 0; i < kPerClient; ++i) {
        const Client::Result result = client.Call(wire_md5, payload.data(), payload.size());
        if (result.ok && std::memcmp(result.digest.data(), expected.data(), 8) == 0) {
          ++oks[t];
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  std::uint64_t ok = 0;
  for (const std::uint64_t v : oks) {
    ok += v;
  }
  EXPECT_GT(injector.total_injected(), 10u);  // the chaos actually ran
  // >= 99.9% of 1000 calls.
  EXPECT_GE(ok, kClients * kPerClient - 1);
  server.Stop();
}

TEST(NetfrontClient, InjectorSequenceIsDeterministicPerSeed) {
  // Same plan + same seed + same single-threaded hit sequence => the same
  // injection decisions, hit for hit — what makes a chaos soak replayable.
  const auto run = [](std::uint64_t seed) {
    faultlab::FaultPlan plan;
    plan.seed = seed;
    faultlab::FaultSpec bernoulli;
    bernoulli.site = "x";
    bernoulli.kind = faultlab::FaultKind::kTransientError;
    bernoulli.probability = 0.3;
    plan.Add(bernoulli);
    faultlab::FaultSpec nth;
    nth.site = "y";
    nth.kind = faultlab::FaultKind::kCrash;
    nth.every_nth = 17;
    plan.Add(nth);
    faultlab::Injector injector(plan);
    std::vector<bool> pattern;
    for (int i = 0; i < 500; ++i) {
      pattern.push_back(injector.Hit("x").has_value());
      pattern.push_back(injector.Hit("y").has_value());
    }
    return pattern;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // and the seed actually matters
}

}  // namespace
