#include "graftbench/wire.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <thread>

#include "graftbench/probe_graft.h"
#include "src/core/technology.h"
#include "src/graftd/dispatcher.h"
#include "src/grafts/factory.h"
#include "src/netfront/server.h"
#include "src/netfront/wire.h"

namespace graftbench {

namespace {

// Request ids index these rings; no request stays outstanding long enough
// for its slot to be reused.
constexpr std::size_t kRing = 1u << 16;
constexpr std::uint64_t kRingMask = kRing - 1;
// Set-up requests carry ids no measured request uses.
constexpr std::uint64_t kSetupId = 1ull << 62;
constexpr std::uint64_t kDrainNs = 5'000'000'000ull;

std::uint64_t Prefix(const md5::Digest& digest) {
  std::uint64_t prefix = 0;
  std::memcpy(&prefix, digest.data(), sizeof(prefix));
  return prefix;
}

std::uint64_t Prefix(const std::vector<std::uint8_t>& reply) {
  std::uint64_t prefix = 0;
  std::memcpy(&prefix, reply.data(), sizeof(prefix));
  return prefix;
}

// A traced payload: the mix's bytes with the request id in the first 8, so
// spans recorded inside the graft can be joined to their request.
void StampPayload(const Payload& payload, std::uint64_t id, std::vector<std::uint8_t>& out) {
  out.assign(payload.bytes.begin(), payload.bytes.end());
  std::memcpy(out.data(), &id, sizeof(id));
}

struct ClientConn {
  int fd = -1;
  netfront::FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  std::size_t outstanding = 0;
};

bool Flush(ClientConn& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t wrote = send(conn.fd, conn.out.data() + conn.out_pos,
                               conn.out.size() - conn.out_pos, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return true;  // the rest goes on the next pass
      }
      return false;
    }
    conn.out_pos += static_cast<std::size_t>(wrote);
  }
  conn.out.clear();
  conn.out_pos = 0;
  return true;
}

// Reads everything buffered on `conn` and hands each reply frame to
// `on_frame(frame, recv_ns, decode_start_ns)`. False on EOF, socket error or
// a poisoned reply stream.
template <typename OnFrame>
bool Drain(ClientConn& conn, OnFrame&& on_frame) {
  std::uint8_t buf[64u << 10];
  for (;;) {
    const ssize_t got = recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    }
    if (got <= 0) {
      return false;
    }
    const std::uint64_t recv_ns = NowNs();
    conn.decoder.Feed(buf, static_cast<std::size_t>(got));
    netfront::FrameDecoder::Frame frame;
    for (;;) {
      const std::uint64_t decode_ns = NowNs();
      if (conn.decoder.Next(frame) != netfront::FrameDecoder::Result::kFrame) {
        break;
      }
      on_frame(frame, recv_ns, decode_ns);
    }
    if (conn.decoder.failed()) {
      return false;
    }
  }
}

// The served stack plus the generator's connections. Members are declared
// so the dispatcher outlives the server.
class Stack {
 public:
  Stack(const WireConfig& config, const PayloadMix& mix, SpanLog* spans)
      : dispatcher_(DispatcherOptionsFor()) {
    const std::uint64_t inject_ns = config.inject_ns;
    const graftd::GraftId id = dispatcher_.RegisterStreamGraft(
        "md5", [inject_ns, spans](envs::PreemptToken* preempt) {
          return MaybeProbe(grafts::CreateMd5Graft(core::Technology::kC, preempt), inject_ns,
                            spans);
        });
    netfront::ServerOptions options;
    options.io_threads = kIoThreads;
    options.staging_high = 4096;  // open-loop bursts; shed only on real pile-ups
    server_ = std::make_unique<netfront::Server>(dispatcher_, options);
    wire_graft_ = server_->ExposeGraft(id);
    if (!server_->ListenTcp(0)) {
      return;
    }
    server_->Start();
    epoll_fd_ = epoll_create1(0);
    conns_.resize(kConns);
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (!Connect(c)) {
        return;
      }
    }
    ok_ = FirstReplies(mix, spans != nullptr);
  }

  ~Stack() {
    for (ClientConn& conn : conns_) {
      if (conn.fd >= 0) {
        close(conn.fd);
      }
    }
    if (epoll_fd_ >= 0) {
      close(epoll_fd_);
    }
    server_->Stop();
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  bool ok() const { return ok_; }
  std::uint32_t wire_graft() const { return wire_graft_; }
  std::vector<ClientConn>& conns() { return conns_; }
  int epoll_fd() const { return epoll_fd_; }

  graftd::TelemetrySnapshot Telemetry() const {
    graftd::TelemetrySnapshot snapshot = dispatcher_.Snapshot();
    server_->FillTelemetry(snapshot.netfront);
    return snapshot;
  }

 private:
  static graftd::DispatcherOptions DispatcherOptionsFor() {
    graftd::DispatcherOptions options;
    options.workers = kWorkers;
    return options;
  }

  bool Connect(std::size_t c) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return false;
    }
    conns_[c].fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server_->port());
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    return epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  // One verified reply per connection: the stack is warm end to end.
  bool FirstReplies(const PayloadMix& mix, bool traced) {
    std::vector<std::uint8_t> stamped;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      const Payload& payload = mix.pool[c % mix.pool.size()];
      const std::uint8_t* bytes = payload.bytes.data();
      if (traced) {
        StampPayload(payload, kSetupId | c, stamped);
        bytes = stamped.data();
      }
      netfront::AppendRequest(conns_[c].out, 0, wire_graft_, kSetupId | c, bytes,
                              payload.bytes.size());
      if (!Flush(conns_[c])) {
        return false;
      }
    }
    std::size_t verified = 0;
    bool ok = true;
    const std::uint64_t deadline = NowNs() + kDrainNs;
    epoll_event events[16];
    while (verified < conns_.size() && ok && NowNs() < deadline) {
      const int ready = epoll_wait(epoll_fd_, events, 16, 100);
      for (int e = 0; e < ready; ++e) {
        ok &= Drain(conns_[events[e].data.u64], [&](const netfront::FrameDecoder::Frame& frame,
                                                     std::uint64_t, std::uint64_t) {
          const std::size_t c = frame.header.request_id & ~kSetupId;
          const Payload& payload = mix.pool[c % mix.pool.size()];
          std::vector<std::uint8_t> expect_bytes = payload.bytes;
          if (traced) {
            StampPayload(payload, frame.header.request_id, expect_bytes);
          }
          const md5::Digest expect = md5::Sum({expect_bytes.data(), expect_bytes.size()});
          ok &= frame.header.type == netfront::FrameType::kResponse &&
                frame.payload.size() == 8 && Prefix(frame.payload) == Prefix(expect);
          ++verified;
        });
      }
    }
    return ok && verified == conns_.size();
  }

  graftd::Dispatcher dispatcher_;
  std::unique_ptr<netfront::Server> server_;
  std::uint32_t wire_graft_ = 0;
  std::vector<ClientConn> conns_;
  int epoll_fd_ = -1;
  bool ok_ = false;
};

}  // namespace

double MeasureWireSetup(const WireConfig& config, const PayloadMix& mix) {
  IdleSpinner spinner;
  const std::uint64_t start = NowNs();
  Stack stack(config, mix, nullptr);
  const std::uint64_t ready = NowNs();
  return stack.ok() ? static_cast<double>(ready - start) / 1e9 : -1.0;
}

WireResult RunWire(const WireConfig& config, const PayloadMix& mix, double seconds,
                   SpanLog* spans) {
  WireResult result;
  // Sleep precisely to the next send instant instead of the default 50us
  // timer slack: open-loop sends are due every 200us on average.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  IdleSpinner spinner;
  Stack stack(config, mix, spans);
  if (!stack.ok()) {
    result.fatal = true;
    return result;
  }
  std::vector<ClientConn>& conns = stack.conns();
  const bool traced = spans != nullptr;

  std::vector<std::uint64_t> sent_ns(kRing, 0);
  std::vector<std::uint64_t> sent_id(kRing, ~0ull);
  std::vector<std::uint64_t> expect(traced ? kRing : 0, 0);
  std::vector<std::uint8_t> stamped;
  result.latency_us.reserve(1u << 20);

  const std::uint64_t start = NowNs();
  const std::uint64_t warm_end = start + static_cast<std::uint64_t>(kWarmupS * 1e9);
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  // Independent users: exponential gaps with the configured mean rate.
  SplitMix arrivals(config.seed ^ 0x617272697661ull);
  const double mean_gap_ns = 1e9 / static_cast<double>(kOpenRate);
  const auto gap = [&] {
    const double u = static_cast<double>(arrivals.Next() >> 11) * 0x1.0p-53;
    return static_cast<std::uint64_t>(-std::log1p(-u) * mean_gap_ns);
  };
  std::uint64_t next_sched = start + gap();
  std::uint64_t proc0 = 0, thread0 = 0, spin0 = 0, proc1 = 0, thread1 = 0, spin1 = 0;
  bool in_window = false, window_done = false;
  std::uint64_t window_ok = 0;     // verified replies sent in the window
  std::uint64_t window_recv = 0;   // verified replies received in the window
  std::uint64_t outstanding = 0;
  std::uint64_t next_id = 0;

  // Encodes request `id` on `conn`; `t0` is when its latency clock starts
  // (the scheduled instant in the open loop, the send in the closed loop).
  auto issue = [&](std::uint64_t id, ClientConn& conn, std::uint64_t t0) {
    const Payload& payload = mix.ForRequest(id);
    const std::uint8_t* bytes = payload.bytes.data();
    if (traced) {
      StampPayload(payload, id, stamped);
      expect[id & kRingMask] = Prefix(md5::Sum({stamped.data(), stamped.size()}));
      bytes = stamped.data();
    }
    const std::uint64_t encode_ns = NowNs();
    netfront::AppendRequest(conn.out, 0, stack.wire_graft(), id, bytes, payload.bytes.size());
    if (traced) {
      spans->Record(Layer::kEncode, Layer::kRequest, id, encode_ns, NowNs());
    }
    sent_ns[id & kRingMask] = config.open_loop ? t0 : encode_ns;
    sent_id[id & kRingMask] = id;
    ++conn.outstanding;
    ++outstanding;
    ++result.attempted;
  };

  auto on_frame = [&](ClientConn& conn, const netfront::FrameDecoder::Frame& frame,
                      std::uint64_t recv_ns, std::uint64_t decode_ns) {
    const std::uint64_t id = frame.header.request_id;
    const std::uint64_t slot = id & kRingMask;
    --conn.outstanding;
    --outstanding;
    if (sent_id[slot] != id) {
      ++result.mismatches;  // a reply to a request that was never sent
      return;
    }
    if (frame.header.type != netfront::FrameType::kResponse || frame.payload.size() != 8) {
      ++result.errors;
      return;
    }
    const std::uint64_t want = traced ? expect[slot] : Prefix(mix.ForRequest(id).digest);
    if (Prefix(frame.payload) != want) {
      ++result.mismatches;
      return;
    }
    ++result.ok;
    if (recv_ns >= warm_end && recv_ns < end) {
      ++window_recv;
    }
    const std::uint64_t t0 = sent_ns[slot];
    if (t0 >= warm_end && t0 < end) {
      ++window_ok;
      result.latency_us.push_back(static_cast<double>(recv_ns - t0) / 1e3);
      if (traced) {
        spans->Record(Layer::kDecode, Layer::kRequest, id, decode_ns, NowNs());
        spans->Record(Layer::kRequest, Layer::kCount, id, t0, recv_ns);
      }
    }
  };

  if (!config.open_loop) {
    for (std::size_t d = 0; d < kDepth; ++d) {
      for (ClientConn& conn : conns) {
        issue(next_id++, conn, 0);
      }
    }
  }

  epoll_event events[16];
  for (;;) {
    const std::uint64_t now = NowNs();
    if (!in_window && now >= warm_end) {
      in_window = true;
      proc0 = ProcessCpuNs();
      thread0 = ThreadCpuNs();
      spin0 = spinner.CpuNs();
    }
    if (in_window && !window_done && now >= end) {
      window_done = true;
      proc1 = ProcessCpuNs();
      thread1 = ThreadCpuNs();
      spin1 = spinner.CpuNs();
    }
    const bool sending = now < end;
    if (sending && config.open_loop) {
      // Everything scheduled before `now` goes out now, however far behind.
      for (; next_sched <= now; next_sched += gap(), ++next_id) {
        if (next_sched >= warm_end) {
          result.late_max_us =
              std::max(result.late_max_us, static_cast<double>(now - next_sched) / 1e3);
        }
        issue(next_id, conns[next_id % conns.size()], next_sched);
      }
    } else if (sending) {
      for (ClientConn& conn : conns) {
        while (conn.outstanding < kDepth) {
          issue(next_id++, conn, 0);
        }
      }
    }
    for (ClientConn& conn : conns) {
      if (!conn.out.empty() && !Flush(conn)) {
        result.fatal = true;
      }
    }
    if (result.fatal || (!sending && outstanding == 0) || now > end + kDrainNs) {
      break;
    }
    std::uint64_t wait_ns = 10'000'000;
    if (sending && config.open_loop) {
      const std::uint64_t after = NowNs();
      wait_ns = next_sched > after ? next_sched - after : 0;
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000ull),
                           static_cast<long>(wait_ns % 1'000'000'000ull)};
    const int ready = epoll_pwait2(stack.epoll_fd(), events, 16, &timeout, nullptr);
    for (int e = 0; e < ready; ++e) {
      ClientConn& conn = conns[events[e].data.u64];
      const bool alive =
          Drain(conn, [&](const netfront::FrameDecoder::Frame& frame, std::uint64_t recv_ns,
                          std::uint64_t decode_ns) { on_frame(conn, frame, recv_ns, decode_ns); });
      if (!alive) {
        result.fatal = true;
      }
    }
  }
  result.lost = result.attempted - result.ok - result.errors - result.mismatches;
  result.telemetry = stack.Telemetry();

  std::sort(result.latency_us.begin(), result.latency_us.end());
  result.window_s = static_cast<double>(end - warm_end) / 1e9;
  if (window_ok > 0 && window_done) {
    const double replies = static_cast<double>(window_ok);
    result.throughput_rps = static_cast<double>(window_recv) / result.window_s;
    const std::uint64_t server_ns = (proc1 - proc0) - (thread1 - thread0) - (spin1 - spin0);
    result.server_cpu_us_per_req = static_cast<double>(server_ns) / 1e3 / replies;
    result.gen_cpu_us_per_req = static_cast<double>(thread1 - thread0) / 1e3 / replies;
  }
  return result;
}

CrossingResult RunCrossing(const WireConfig& config, const PayloadMix& mix, double seconds,
                           SpanLog& spans) {
  constexpr std::size_t kBuffers = 4096;  // payloads in flight at most
  CrossingResult result;
  IdleSpinner spinner;
  graftd::DispatcherOptions options;
  options.workers = kWorkers;
  graftd::Dispatcher dispatcher(options);
  const graftd::GraftId id = dispatcher.RegisterStreamGraft(
      "md5", [&spans](envs::PreemptToken* preempt) {
        return MaybeProbe(grafts::CreateMd5Graft(core::Technology::kC, preempt), 0, &spans,
                          Layer::kCrossing);
      });

  std::vector<std::vector<std::uint8_t>> buffers(kBuffers);
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  const std::size_t depth = config.open_loop ? kBuffers : kConns * kDepth;
  const double ns_per_req = 1e9 / static_cast<double>(kOpenRate);
  // The first requests build the worker's graft instance; keep them out of
  // the spans.
  const std::uint64_t warm = 256;

  const std::uint64_t start = NowNs();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t k = 0;
  while (NowNs() < end) {
    if (config.open_loop) {
      const auto due = start + static_cast<std::uint64_t>(static_cast<double>(k) * ns_per_req);
      for (std::uint64_t now = NowNs(); now < due; now = NowNs()) {
        if (due - now > 30'000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 20'000));
        }
      }
    }
    if (k - completed.load(std::memory_order_acquire) >= depth) {
      std::this_thread::yield();
      continue;
    }
    std::vector<std::uint8_t>& buffer = buffers[k % kBuffers];
    StampPayload(mix.ForRequest(k), k, buffer);
    const md5::Digest expect = md5::Sum({buffer.data(), buffer.size()});
    graftd::Invocation invocation;
    invocation.graft = id;
    invocation.data = streamk::Bytes{buffer.data(), buffer.size()};
    const std::uint64_t submit_ns = NowNs();
    invocation.on_complete = [&, k, expect, submit_ns](const graftd::Completion& completion) {
      if (k >= warm) {
        spans.Record(Layer::kCrossing, Layer::kCount, k, submit_ns, NowNs());
      }
      if (completion.status != graftd::CompletionStatus::kOk || completion.digest != expect) {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
      completed.fetch_add(1, std::memory_order_release);
    };
    if (dispatcher.TrySubmitBatch(std::span<graftd::Invocation>(&invocation, 1)) == 1) {
      ++k;
    }
  }
  dispatcher.Drain();
  result.attempted = k;
  result.failed = failed.load() + (completed.load() == k ? 0 : k - completed.load());
  return result;
}

double MeasureCodecNs(const PayloadMix& mix, double seconds) {
  std::vector<std::uint8_t> wire;
  netfront::FrameDecoder requests;
  netfront::FrameDecoder replies;
  netfront::FrameDecoder::Frame frame;
  const std::uint64_t start = NowNs();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t k = 0;
  std::uint64_t now = start;
  for (; now < end; now = NowNs()) {
    for (int i = 0; i < 256; ++i, ++k) {
      const Payload& payload = mix.ForRequest(k);
      wire.clear();
      netfront::AppendRequest(wire, 0, 0, k, payload.bytes.data(), payload.bytes.size());
      requests.Feed(wire.data(), wire.size());
      if (requests.Next(frame) != netfront::FrameDecoder::Result::kFrame ||
          frame.payload != payload.bytes) {
        return 0.0;
      }
      wire.clear();
      netfront::AppendResponse(wire, 0, 0, k, payload.digest.data());
      replies.Feed(wire.data(), wire.size());
      if (replies.Next(frame) != netfront::FrameDecoder::Result::kFrame ||
          frame.header.request_id != k || Prefix(frame.payload) != Prefix(payload.digest)) {
        return 0.0;
      }
    }
  }
  return static_cast<double>(now - start) / static_cast<double>(k);
}

double MeasureMd5BodyNs(const PayloadMix& mix, double seconds) {
  auto graft = grafts::CreateMd5Graft(core::Technology::kC);
  const std::uint64_t start = NowNs();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t k = 0;
  std::uint64_t now = start;
  for (; now < end; now = NowNs()) {
    for (int i = 0; i < 256; ++i, ++k) {
      const Payload& payload = mix.ForRequest(k);
      graft->Consume(payload.bytes.data(), payload.bytes.size());
      if (graft->Finish() != payload.digest) {
        return 0.0;
      }
    }
  }
  return static_cast<double>(now - start) / static_cast<double>(k);
}

}  // namespace graftbench
