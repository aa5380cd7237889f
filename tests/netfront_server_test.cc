// netfront::Server integration tests over real sockets: request/response
// round trips with digest verification, per-tenant DRR fairness under
// saturation, degraded-graft shedding at the socket, token-bucket quotas,
// hostile-frame hangups, slow-reader closes, and telemetry accounting.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/technology.h"
#include "src/graftd/dispatcher.h"
#include "src/grafts/factory.h"
#include "src/md5/md5.h"
#include "src/netfront/server.h"
#include "src/netfront/wire.h"
#include "src/obslab/registry.h"
#include "src/obslab/snapshot.h"

namespace {

using graftd::Dispatcher;
using graftd::DispatcherOptions;
using netfront::ErrorCode;
using netfront::FrameDecoder;
using netfront::FrameType;
using netfront::Server;
using netfront::ServerOptions;
using netfront::TenantConfig;

// A stream graft with a fixed service time: makes one worker an easily
// saturated bottleneck so DRR fairness is observable.
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

// A stream graft that holds its shard until the test opens the latch:
// Finish() announces that it is running, then waits.
class LatchGraft : public core::StreamGraft {
 public:
  LatchGraft(std::atomic<bool>* entered, std::atomic<bool>* open)
      : entered_(entered), open_(open) {}
  void Consume(const std::uint8_t*, std::size_t) override {}
  md5::Digest Finish() override {
    entered_->store(true, std::memory_order_release);
    while (!open_->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return md5::Digest{};
  }
  const char* technology() const override { return "test-latch"; }

 private:
  std::atomic<bool>* entered_;
  std::atomic<bool>* open_;
};

// Blocking client for a netfront server: sends requests, decodes replies.
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }

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

  void Adopt(int fd) { fd_ = fd; }

  bool SendRequest(std::uint16_t tenant, std::uint32_t graft, std::uint64_t id,
                   const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> frame;
    netfront::AppendRequest(frame, tenant, graft, id, payload.data(), payload.size());
    return SendRaw(frame.data(), frame.size());
  }

  bool SendRaw(const std::uint8_t* data, std::size_t len) {
    std::size_t sent = 0;
    while (sent < len) {
      const ssize_t w = send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
      if (w <= 0) {
        return false;
      }
      sent += static_cast<std::size_t>(w);
    }
    return true;
  }

  // Blocks until one frame decodes or the peer hangs up (returns false).
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

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

std::vector<std::uint8_t> Payload(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(seed + 13 * i);
  }
  return p;
}

TEST(NetfrontServer, RoundTripVerifiesDigest) {
  DispatcherOptions dopts;
  dopts.workers = 1;
  Dispatcher dispatcher(dopts);
  const graftd::GraftId md5_id = dispatcher.RegisterStreamGraft(
      "md5", [](envs::PreemptToken* preempt) {
        return grafts::CreateMd5Graft(core::Technology::kC, preempt);
      });

  ServerOptions sopts;
  sopts.io_threads = 1;
  Server server(dispatcher, sopts);
  const std::uint32_t wire_md5 = server.ExposeGraft(md5_id);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  const auto payload = Payload(4096, 21);
  ASSERT_TRUE(client.SendRequest(0, wire_md5, 1234, payload));

  FrameDecoder::Frame reply;
  ASSERT_TRUE(client.ReadFrame(reply));
  EXPECT_EQ(reply.header.type, FrameType::kResponse);
  EXPECT_EQ(reply.header.request_id, 1234u);
  ASSERT_EQ(reply.payload.size(), 8u);
  const md5::Digest expected = md5::Sum({payload.data(), payload.size()});
  EXPECT_EQ(std::memcmp(reply.payload.data(), expected.data(), 8), 0);

  client.Close();
  server.Stop();

  graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  server.FillTelemetry(snapshot.netfront);
  ASSERT_TRUE(snapshot.netfront.present);
  EXPECT_EQ(snapshot.netfront.tenants[0].accepted, 1u);
  EXPECT_EQ(snapshot.netfront.tenants[0].completed_ok, 1u);
  EXPECT_EQ(snapshot.netfront.frame_errors, 0u);
  // Renders without throwing and carries the tenant rows.
  EXPECT_EQ(obslab::SeriesSum(obslab::SnapshotText(snapshot), "graftlab_tenant_accepted_total"),
            1.0);
  EXPECT_NE(obslab::SnapshotJson(snapshot).find("\"graftlab_tenant_accepted_total\""),
            std::string::npos);
}

TEST(NetfrontServer, IdleServerRepliesWithoutAWorkerHop) {
  // Sequential round trips: each request is the only staged work and its
  // shard is idle, so the IO thread runs it and flushes the reply itself —
  // no worker dequeue, no eventfd wake.
  DispatcherOptions dopts;
  dopts.workers = 2;
  Dispatcher dispatcher(dopts);
  const graftd::GraftId md5_id = dispatcher.RegisterStreamGraft(
      "md5", [](envs::PreemptToken* preempt) {
        return grafts::CreateMd5Graft(core::Technology::kC, preempt);
      });
  ServerOptions sopts;
  sopts.io_threads = 1;
  Server server(dispatcher, sopts);
  const std::uint32_t wire_md5 = server.ExposeGraft(md5_id);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  constexpr std::uint64_t kRequests = 32;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const auto payload = Payload(64 + 61 * i, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(client.SendRequest(0, wire_md5, i, payload));
    FrameDecoder::Frame reply;
    ASSERT_TRUE(client.ReadFrame(reply));
    ASSERT_EQ(reply.header.type, FrameType::kResponse);
    EXPECT_EQ(reply.header.request_id, i);
    const md5::Digest expected = md5::Sum({payload.data(), payload.size()});
    ASSERT_EQ(reply.payload.size(), 8u);
    EXPECT_EQ(std::memcmp(reply.payload.data(), expected.data(), 8), 0) << "request " << i;
  }

  // Read before Stop(), whose shutdown wakes would count.
  graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  server.FillTelemetry(snapshot.netfront);
  EXPECT_EQ(snapshot.dispatch.inline_hits, kRequests);
  for (const auto& worker : snapshot.dispatch.workers) {
    EXPECT_EQ(worker.dequeued, 0u) << "worker " << worker.worker;
  }
  ASSERT_EQ(snapshot.netfront.io_threads.size(), 1u);
  EXPECT_EQ(snapshot.netfront.io_threads[0].wakeups, 0u);
  EXPECT_EQ(snapshot.netfront.tenants[0].completed_ok, kRequests);
  client.Close();
  server.Stop();
}

TEST(NetfrontServer, BusyShardFallsBackToTheQueue) {
  // A latch-blocked graft holds the only shard: the IO thread cannot claim
  // it, so the wire requests take the worker queue and are answered, once
  // each, after the latch opens.
  DispatcherOptions dopts;
  dopts.workers = 1;
  Dispatcher dispatcher(dopts);
  std::atomic<bool> entered{false};
  std::atomic<bool> open{false};
  const graftd::GraftId latch_id =
      dispatcher.RegisterStreamGraft("latch", [&](envs::PreemptToken*) {
        return std::make_unique<LatchGraft>(&entered, &open);
      });
  const graftd::GraftId md5_id = dispatcher.RegisterStreamGraft(
      "md5", [](envs::PreemptToken* preempt) {
        return grafts::CreateMd5Graft(core::Technology::kC, preempt);
      });
  ServerOptions sopts;
  sopts.io_threads = 1;
  Server server(dispatcher, sopts);
  const std::uint32_t wire_md5 = server.ExposeGraft(md5_id);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  // Queued batches never run inline, so the worker takes the latch.
  graftd::Invocation blocker;
  blocker.graft = latch_id;
  ASSERT_EQ(dispatcher.SubmitBatch({&blocker, 1}), 1u);
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  constexpr std::uint64_t kRequests = 4;
  const auto payload = Payload(256, 7);
  std::vector<std::uint8_t> frames;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    netfront::AppendRequest(frames, 0, wire_md5, i, payload.data(), payload.size());
  }
  ASSERT_TRUE(client.SendRaw(frames.data(), frames.size()));

  // Wait until every request is in the dispatcher; none can have run.
  graftd::NetfrontSection section;
  for (;;) {
    server.FillTelemetry(section);
    if (section.tenants[0].accepted == kRequests) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(section.tenants[0].completed_ok, 0u);
  graftd::TelemetrySnapshot held = dispatcher.Snapshot();
  EXPECT_EQ(held.dispatch.inline_hits, 0u);
  EXPECT_GE(held.dispatch.inline_misses, 1u);

  open.store(true, std::memory_order_release);
  const md5::Digest expected = md5::Sum({payload.data(), payload.size()});
  std::vector<int> replies(kRequests, 0);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    FrameDecoder::Frame reply;
    ASSERT_TRUE(client.ReadFrame(reply));
    ASSERT_EQ(reply.header.type, FrameType::kResponse);
    ASSERT_LT(reply.header.request_id, kRequests);
    ++replies[reply.header.request_id];
    EXPECT_EQ(std::memcmp(reply.payload.data(), expected.data(), 8), 0);
  }
  EXPECT_EQ(replies, std::vector<int>(kRequests, 1));
  client.Close();
  server.Stop();

  graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  server.FillTelemetry(snapshot.netfront);
  EXPECT_EQ(snapshot.netfront.tenants[0].completed_ok, kRequests);
  EXPECT_EQ(snapshot.grafts[md5_id].counters.ok, kRequests);
  EXPECT_EQ(snapshot.dispatch.inline_hits, 0u);
  ASSERT_EQ(snapshot.dispatch.workers.size(), 1u);
  EXPECT_EQ(snapshot.dispatch.workers[0].dequeued, kRequests + 1);  // + the blocker
}

TEST(NetfrontServer, ManyRequestsPipelinedOnOneConnection) {
  DispatcherOptions dopts;
  dopts.workers = 2;
  Dispatcher dispatcher(dopts);
  const graftd::GraftId md5_id = dispatcher.RegisterStreamGraft(
      "md5", [](envs::PreemptToken* preempt) {
        return grafts::CreateMd5Graft(core::Technology::kC, preempt);
      });

  ServerOptions sopts;
  sopts.io_threads = 2;
  Server server(dispatcher, sopts);
  const std::uint32_t wire_md5 = server.ExposeGraft(md5_id);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  constexpr std::size_t kRequests = 500;
  const auto payload = Payload(64, 3);
  const md5::Digest expected = md5::Sum({payload.data(), payload.size()});

  std::thread writer([&] {
    for (std::size_t i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(client.SendRequest(0, wire_md5, i, payload));
    }
  });
  std::vector<bool> seen(kRequests, false);
  for (std::size_t i = 0; i < kRequests; ++i) {
    FrameDecoder::Frame reply;
    ASSERT_TRUE(client.ReadFrame(reply));
    ASSERT_EQ(reply.header.type, FrameType::kResponse);
    ASSERT_LT(reply.header.request_id, kRequests);
    EXPECT_FALSE(seen[reply.header.request_id]);
    seen[reply.header.request_id] = true;
    EXPECT_EQ(std::memcmp(reply.payload.data(), expected.data(), 8), 0);
  }
  writer.join();
  client.Close();
  server.Stop();
}

TEST(NetfrontServer, DrrFairnessTracksWeightsUnderSaturation) {
  // One worker at ~100us per request is the bottleneck; two tenants with
  // a 10:1 weight ratio each stage a deep backlog on the same IO thread,
  // and mid-drain their completed counts must track the weights.
  DispatcherOptions dopts;
  dopts.workers = 1;
  dopts.queue_capacity = 64;
  Dispatcher dispatcher(dopts);
  const graftd::GraftId slow_id = dispatcher.RegisterStreamGraft(
      "slow", [](envs::PreemptToken*) {
        return std::make_unique<SlowGraft>(std::chrono::microseconds(100));
      });

  ServerOptions options;
  options.io_threads = 1;
  options.staging_high = 4096;
  TenantConfig gold_cfg;
  gold_cfg.name = "gold";
  gold_cfg.weight = 10;
  TenantConfig bronze_cfg;
  bronze_cfg.name = "bronze";
  bronze_cfg.weight = 1;
  options.tenants = {gold_cfg, bronze_cfg};
  Server server(dispatcher, options);
  const std::uint32_t wire_slow = server.ExposeGraft(slow_id);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  Client gold, bronze;
  ASSERT_TRUE(gold.Connect(server.port()));
  ASSERT_TRUE(bronze.Connect(server.port()));
  constexpr std::size_t kPerTenant = 1500;
  const auto payload = Payload(16, 9);
  for (std::size_t i = 0; i < kPerTenant; ++i) {
    ASSERT_TRUE(gold.SendRequest(0, wire_slow, i, payload));
    ASSERT_TRUE(bronze.SendRequest(1, wire_slow, i, payload));
  }

  // Measure the ratio over a mid-drain *delta* window: the first few
  // hundred completions include the startup transient (shallow, arrival-
  // order backlogs drain near 1:1 before DRR has anything to arbitrate),
  // and near the end gold's backlog empties (~completion 1650), after
  // which bronze drains alone. Completions 400 -> 1300 are pure
  // saturated-DRR territory: both tenants backlogged the whole way.
  graftd::NetfrontSection section;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const auto WaitForTotal = [&](std::uint64_t target) {
    for (;;) {
      server.FillTelemetry(section);
      const std::uint64_t total =
          section.tenants[0].completed_ok + section.tenants[1].completed_ok;
      if (total >= target) {
        return true;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  ASSERT_TRUE(WaitForTotal(400)) << "server stalled";
  const double gold_a = static_cast<double>(section.tenants[0].completed_ok);
  const double bronze_a = static_cast<double>(section.tenants[1].completed_ok);
  ASSERT_TRUE(WaitForTotal(1300)) << "server stalled";
  const double gold_delta = static_cast<double>(section.tenants[0].completed_ok) - gold_a;
  const double bronze_delta = static_cast<double>(section.tenants[1].completed_ok) - bronze_a;
  ASSERT_GT(bronze_delta, 0.0);
  const double ratio = gold_delta / bronze_delta;
  EXPECT_GE(ratio, 6.0) << "gold+=" << gold_delta << " bronze+=" << bronze_delta;
  EXPECT_LE(ratio, 16.0) << "gold+=" << gold_delta << " bronze+=" << bronze_delta;

  // Readers drain everything so shutdown is clean.
  std::thread gold_reader([&] {
    FrameDecoder::Frame reply;
    for (std::size_t i = 0; i < kPerTenant; ++i) {
      if (!gold.ReadFrame(reply)) {
        break;
      }
    }
  });
  FrameDecoder::Frame reply;
  for (std::size_t i = 0; i < kPerTenant; ++i) {
    if (!bronze.ReadFrame(reply)) {
      break;
    }
  }
  gold_reader.join();
  gold.Close();
  bronze.Close();
  server.Stop();
}

TEST(NetfrontServer, DegradedGraftShedsAtTheSocket) {
  DispatcherOptions options;
  options.workers = 1;
  // A long backoff keeps the graft degraded for the whole test.
  options.policy.degraded_backoff = std::chrono::seconds(30);
  Dispatcher dispatcher(options);
  const graftd::GraftId md5_id = dispatcher.RegisterStreamGraft(
      "md5", [](envs::PreemptToken* preempt) {
        return grafts::CreateMd5Graft(core::Technology::kC, preempt);
      });
  // Force degradation the same way the supervisor tests do: consecutive
  // disk faults past the threshold.
  for (std::uint32_t i = 0; i < dispatcher.supervisor().policy().disk_fault_threshold; ++i) {
    dispatcher.supervisor().OnOutcome(md5_id, graftd::Outcome::kDiskFault);
  }
  ASSERT_EQ(dispatcher.supervisor().state(md5_id), graftd::GraftState::kDegraded);

  ServerOptions sopts;
  sopts.io_threads = 1;
  Server server(dispatcher, sopts);
  const std::uint32_t wire_md5 = server.ExposeGraft(md5_id);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  const auto payload = Payload(64, 1);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.SendRequest(0, wire_md5, i, payload));
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    FrameDecoder::Frame reply;
    ASSERT_TRUE(client.ReadFrame(reply));
    EXPECT_EQ(reply.header.type, FrameType::kError);
    ASSERT_EQ(reply.payload.size(), 2u);
    const auto code = static_cast<ErrorCode>(reply.payload[0] |
                                             (static_cast<std::uint16_t>(reply.payload[1]) << 8));
    EXPECT_EQ(code, ErrorCode::kShedDegraded);
  }
  client.Close();
  server.Stop();

  graftd::NetfrontSection section;
  server.FillTelemetry(section);
  EXPECT_EQ(section.tenants[0].shed_degraded, 5u);
  EXPECT_EQ(section.tenants[0].accepted, 0u);  // nothing reached a queue
}

TEST(NetfrontServer, TokenBucketQuotaRejectsBeyondBurst) {
  DispatcherOptions dopts;
  dopts.workers = 1;
  Dispatcher dispatcher(dopts);
  const graftd::GraftId md5_id = dispatcher.RegisterStreamGraft(
      "md5", [](envs::PreemptToken* preempt) {
        return grafts::CreateMd5Graft(core::Technology::kC, preempt);
      });

  ServerOptions options;
  options.io_threads = 1;
  // 1 req/s refill, burst of 5: a rapid volley of 12 gets exactly 5 in.
  TenantConfig metered;
  metered.name = "metered";
  metered.rate_per_sec = 1.0;
  metered.burst = 5.0;
  options.tenants = {metered};
  Server server(dispatcher, options);
  const std::uint32_t wire_md5 = server.ExposeGraft(md5_id);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  const auto payload = Payload(8, 4);
  for (std::uint64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(client.SendRequest(0, wire_md5, i, payload));
  }
  std::size_t ok = 0, quota = 0;
  for (std::uint64_t i = 0; i < 12; ++i) {
    FrameDecoder::Frame reply;
    ASSERT_TRUE(client.ReadFrame(reply));
    if (reply.header.type == FrameType::kResponse) {
      ++ok;
    } else {
      ASSERT_EQ(reply.header.type, FrameType::kError);
      const auto code = static_cast<ErrorCode>(
          reply.payload[0] | (static_cast<std::uint16_t>(reply.payload[1]) << 8));
      EXPECT_EQ(code, ErrorCode::kQuotaExceeded);
      ++quota;
    }
  }
  EXPECT_EQ(ok, 5u);
  EXPECT_EQ(quota, 7u);
  client.Close();
  server.Stop();

  graftd::NetfrontSection section;
  server.FillTelemetry(section);
  EXPECT_EQ(section.tenants[0].quota_rejected, 7u);
}

TEST(NetfrontServer, UnknownTenantAndGraftGetErrorReplies) {
  DispatcherOptions dopts;
  dopts.workers = 1;
  Dispatcher dispatcher(dopts);
  const graftd::GraftId md5_id = dispatcher.RegisterStreamGraft(
      "md5", [](envs::PreemptToken* preempt) {
        return grafts::CreateMd5Graft(core::Technology::kC, preempt);
      });
  ServerOptions sopts;
  sopts.io_threads = 1;
  Server server(dispatcher, sopts);
  server.ExposeGraft(md5_id);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  const auto payload = Payload(8, 2);
  ASSERT_TRUE(client.SendRequest(42, 0, 1, payload));  // no such tenant
  ASSERT_TRUE(client.SendRequest(0, 42, 2, payload));  // no such graft
  FrameDecoder::Frame reply;
  ASSERT_TRUE(client.ReadFrame(reply));
  EXPECT_EQ(static_cast<ErrorCode>(reply.payload[0]), ErrorCode::kUnknownTenant);
  ASSERT_TRUE(client.ReadFrame(reply));
  EXPECT_EQ(static_cast<ErrorCode>(reply.payload[0]), ErrorCode::kUnknownGraft);
  client.Close();
  server.Stop();
}

TEST(NetfrontServer, HostileFrameHangsUpAndCountsFrameError) {
  DispatcherOptions dopts;
  dopts.workers = 1;
  Dispatcher dispatcher(dopts);
  ServerOptions sopts;
  sopts.io_threads = 1;
  Server server(dispatcher, sopts);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  const std::uint8_t garbage[64] = {0xFF, 0xFE, 0xFD};
  ASSERT_TRUE(client.SendRaw(garbage, sizeof(garbage)));
  // The server must hang up on the poisoned stream.
  FrameDecoder::Frame reply;
  EXPECT_FALSE(client.ReadFrame(reply));
  client.Close();

  graftd::NetfrontSection section;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    server.FillTelemetry(section);
    if (section.frame_errors >= 1) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(section.frame_errors, 1u);
  server.Stop();
}

TEST(NetfrontServer, SlowReaderIsClosedAtTheHardCap) {
  DispatcherOptions dopts;
  dopts.workers = 2;
  Dispatcher dispatcher(dopts);
  const graftd::GraftId md5_id = dispatcher.RegisterStreamGraft(
      "md5", [](envs::PreemptToken* preempt) {
        return grafts::CreateMd5Graft(core::Technology::kC, preempt);
      });

  ServerOptions options;
  options.io_threads = 1;
  options.staging_high = 8192;
  // A tiny hard cap so a non-reading client trips it fast. The pause
  // watermark sits at the cap: the flush path checks the close first, so
  // the server never stops reading this client before it closes it (a
  // pause below the cap would leave both sides waiting on each other).
  options.write_buffer_high = 8192;
  options.write_buffer_hard = 8192;
  Server server(dispatcher, options);
  const std::uint32_t wire_md5 = server.ExposeGraft(md5_id);
  server.Start();

  // socketpair: both ends under test control, with shrunken buffers so
  // the kernel can't absorb the reply flood on the client's behalf.
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int small = 4096;
  setsockopt(fds[0], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  setsockopt(fds[1], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ASSERT_TRUE(server.AddConnection(fds[1]));

  // ~2000 replies x 32B = 64KB of replies the client never reads. The
  // sends never block: a full socket buffer is retried for at most ~5s in
  // all, and a send error means the server already closed us.
  const auto payload = Payload(16, 6);
  std::vector<std::uint8_t> frame;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    netfront::AppendRequest(frame, 0, wire_md5, i, payload.data(), payload.size());
  }
  std::size_t sent = 0;
  for (int waits = 0; sent < frame.size() && waits < 5000;) {
    const ssize_t w =
        send(fds[0], frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
    } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      ++waits;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } else {
      break;
    }
  }

  graftd::NetfrontSection section;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    server.FillTelemetry(section);
    if (section.slow_reader_closes >= 1) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "hard cap never tripped";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  close(fds[0]);
  server.Stop();
}

TEST(NetfrontServer, SlowReaderPausesReadsAtTheHighWatermark) {
  DispatcherOptions dopts;
  dopts.workers = 2;
  Dispatcher dispatcher(dopts);
  const graftd::GraftId md5_id = dispatcher.RegisterStreamGraft(
      "md5", [](envs::PreemptToken* preempt) {
        return grafts::CreateMd5Graft(core::Technology::kC, preempt);
      });

  ServerOptions options;
  options.io_threads = 1;
  options.staging_high = 8192;
  // Low pause watermark, unreachable hard cap: the reply flood must go
  // through the pause/resume hysteresis, never the close.
  options.write_buffer_high = 2048;
  options.write_buffer_hard = 64u << 20;
  Server server(dispatcher, options);
  const std::uint32_t wire_md5 = server.ExposeGraft(md5_id);
  server.Start();

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int small = 4096;
  setsockopt(fds[0], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  setsockopt(fds[1], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ASSERT_TRUE(server.AddConnection(fds[1]));

  Client client;
  client.Adopt(fds[0]);
  // The sends must run on their own thread: once the server pauses reads,
  // a blocking sender wedges against the full kernel buffers, and the
  // main thread has to be free to read replies so the backlog can drain
  // and reads resume.
  std::thread writer([&] {
    const auto payload = Payload(16, 6);
    for (std::uint64_t i = 0; i < 2000; ++i) {
      if (!client.SendRequest(0, wire_md5, i, payload)) {
        return;
      }
    }
  });

  graftd::NetfrontSection section;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool pause_seen = true;
  for (;;) {
    server.FillTelemetry(section);
    if (section.read_pauses >= 1) {
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      pause_seen = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(pause_seen) << "read pause never tripped";
  EXPECT_EQ(section.slow_reader_closes, 0u);

  // Start reading: the buffered replies drain, reads resume, the writer
  // unwedges, and every accepted request eventually gets its reply.
  FrameDecoder::Frame frame;
  std::size_t replies = 0;
  while (replies < 2000 && client.ReadFrame(frame)) {
    ++replies;
  }
  writer.join();
  EXPECT_EQ(replies, 2000u);
  client.Close();
  server.Stop();
}

TEST(NetfrontServer, StopDrainsInFlightWork) {
  DispatcherOptions dopts;
  dopts.workers = 1;
  Dispatcher dispatcher(dopts);
  const graftd::GraftId slow_id = dispatcher.RegisterStreamGraft(
      "slow", [](envs::PreemptToken*) {
        return std::make_unique<SlowGraft>(std::chrono::microseconds(200));
      });
  ServerOptions sopts;
  sopts.io_threads = 1;
  sopts.staging_high = 4096;
  Server server(dispatcher, sopts);
  const std::uint32_t wire_slow = server.ExposeGraft(slow_id);
  ASSERT_TRUE(server.ListenTcp(0));
  server.Start();

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  const auto payload = Payload(8, 5);
  constexpr std::size_t kRequests = 300;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.SendRequest(0, wire_slow, i, payload));
  }
  // Give the server a beat to stage some of the burst, then stop while
  // work is still in flight: Stop must drain, not orphan.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.Stop();

  graftd::NetfrontSection section;
  server.FillTelemetry(section);
  const std::uint64_t resolved = section.tenants[0].completed_ok +
                                 section.tenants[0].completed_error +
                                 section.tenants[0].shed_overload;
  // Every admitted request was resolved one way or another; with the
  // socket burst racing Stop some tail requests may never have been read
  // off the socket at all, which is fine — nothing may leak or wedge.
  EXPECT_EQ(section.tenants[0].accepted,
            section.tenants[0].completed_ok + section.tenants[0].completed_error);
  EXPECT_GT(resolved, 0u);
  client.Close();
}

}  // namespace
