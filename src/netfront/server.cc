#include "src/netfront/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace netfront {

namespace {

// epoll_data tag: fd kind in the high half, connection slot in the low.
constexpr std::uint64_t kKindListener = 1;
constexpr std::uint64_t kKindEventFd = 2;
constexpr std::uint64_t kKindConn = 3;

std::uint64_t Tag(std::uint64_t kind, std::size_t slot) {
  return (kind << 32) | static_cast<std::uint32_t>(slot);
}

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

ErrorCode ErrorCodeFor(graftd::CompletionStatus status) {
  switch (status) {
    case graftd::CompletionStatus::kOk:
      return ErrorCode::kNone;
    case graftd::CompletionStatus::kRejectedQuarantined:
    case graftd::CompletionStatus::kRejectedDetached:
      return ErrorCode::kRejected;
    case graftd::CompletionStatus::kRejectedDegraded:
      return ErrorCode::kShedDegraded;
    case graftd::CompletionStatus::kExpired:
      return ErrorCode::kExpired;
    case graftd::CompletionStatus::kFault:
    case graftd::CompletionStatus::kPreempt:
    case graftd::CompletionStatus::kDiskFault:
      return ErrorCode::kFault;
  }
  return ErrorCode::kFault;
}

}  // namespace

Server::Server(graftd::Dispatcher& dispatcher, ServerOptions options)
    : dispatcher_(dispatcher), options_(std::move(options)) {
  std::vector<TenantConfig> configs = options_.tenants;
  if (configs.empty()) {
    configs.emplace_back();
  }
  for (const TenantConfig& config : configs) {
    auto state = std::make_unique<TenantState>();
    state->config = config;
    state->bucket = std::make_unique<TokenBucket>(config.rate_per_sec, config.burst);
    tenants_.push_back(std::move(state));
  }
  for (std::size_t i = 0; i < std::max<std::size_t>(1, options_.io_threads); ++i) {
    io_threads_.push_back(std::make_unique<IoThread>());
  }
}

Server::~Server() { Stop(); }

std::uint32_t Server::ExposeGraft(graftd::GraftId id) {
  wire_grafts_.push_back(id);
  return static_cast<std::uint32_t>(wire_grafts_.size() - 1);
}

bool Server::ListenTcp(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return false;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 1024) != 0) {
    close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    return false;
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  return true;
}

void Server::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  if (options_.tracer != nullptr) {
    site_decode_ = options_.tracer->Intern("nf:decode");
    site_drain_ = options_.tracer->Intern("nf:drain");
    site_encode_ = options_.tracer->Intern("nf:encode");
    site_flush_ = options_.tracer->Intern("nf:flush");
  }
  running_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < io_threads_.size(); ++i) {
    IoThread& io = *io_threads_[i];
    io.index = i;
    io.epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    io.event_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = Tag(kKindEventFd, 0);
    epoll_ctl(io.epoll_fd, EPOLL_CTL_ADD, io.event_fd, &ev);
    if (listen_fd_ >= 0) {
      epoll_event lev{};
      lev.events = EPOLLIN | EPOLLEXCLUSIVE;
      lev.data.u64 = Tag(kKindListener, 0);
      epoll_ctl(io.epoll_fd, EPOLL_CTL_ADD, listen_fd_, &lev);
    }
    io.staged.resize(tenants_.size());
    io.credit.assign(tenants_.size(), 0);
  }
  for (std::size_t i = 0; i < io_threads_.size(); ++i) {
    io_threads_[i]->thread = std::thread([this, i] { IoLoop(i); });
  }
}

bool Server::AddConnection(int fd) {
  if (!running_.load(std::memory_order_acquire)) {
    return false;
  }
  // Skip IO threads an injected crash has killed; at least one stays alive
  // (CrashIoThread refuses to kill the last one).
  for (std::size_t attempt = 0; attempt < io_threads_.size(); ++attempt) {
    const std::size_t index =
        next_io_.fetch_add(1, std::memory_order_relaxed) % io_threads_.size();
    IoThread& io = *io_threads_[index];
    {
      std::lock_guard<std::mutex> lock(io.inbox_mu);
      if (io.dead.load(std::memory_order_relaxed)) {
        continue;
      }
      io.adopted_fds.push_back(fd);
    }
    Wake(io);
    return true;
  }
  return false;
}

void Server::Stop() {
  if (!started_ || stopped_) {
    return;
  }
  stopped_ = true;
  // Phase 1: drain. IO threads keep flushing staged work and completions;
  // new requests are shed at admission (draining_ check). Bounded wait —
  // a jammed dispatcher must not wedge shutdown.
  draining_.store(true, std::memory_order_release);
  for (auto& io : io_threads_) {
    Wake(*io);
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    std::size_t staged = 0;
    for (auto& io : io_threads_) {
      staged += io->staged_total.load(std::memory_order_relaxed);
    }
    if (staged == 0 && in_flight_.load(std::memory_order_acquire) == 0) {
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Every accepted invocation's on_complete fires before Drain() returns,
  // so after this no new completion can race the teardown below.
  dispatcher_.Drain();
  running_.store(false, std::memory_order_release);
  for (auto& io : io_threads_) {
    Wake(*io);
  }
  for (auto& io : io_threads_) {
    if (io->thread.joinable()) {
      io->thread.join();
    }
  }
  // Single-threaded teardown: orphaned completions (their IO thread exited
  // before encoding the reply), never-submitted staged requests, sockets.
  for (auto& io : io_threads_) {
    for (CompletionRecord& record : io->completions) {
      delete record.request;
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
    io->completions.clear();
    for (int fd : io->adopted_fds) {
      close(fd);
    }
    io->adopted_fds.clear();
    for (auto& conn : io->adopted_conns) {
      close(conn->fd);
      connections_closed_.fetch_add(1, std::memory_order_relaxed);
    }
    io->adopted_conns.clear();
    for (auto& deque : io->staged) {
      for (StagedRequest& staged : deque) {
        delete staged.request;
      }
      deque.clear();
    }
    io->staged_total.store(0, std::memory_order_relaxed);
    for (auto& conn : io->conns) {
      if (conn) {
        close(conn->fd);
        connections_closed_.fetch_add(1, std::memory_order_relaxed);
        conn.reset();
      }
    }
    if (io->event_fd >= 0) {
      close(io->event_fd);
      io->event_fd = -1;
    }
    if (io->epoll_fd >= 0) {
      close(io->epoll_fd);
      io->epoll_fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::FillTelemetry(graftd::NetfrontSection& section) const {
  section.present = true;
  section.connections_opened = connections_opened_.load(std::memory_order_relaxed);
  section.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  section.connections_active = section.connections_opened - section.connections_closed;
  section.frame_errors = frame_errors_.load(std::memory_order_relaxed);
  section.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  section.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  section.read_pauses = read_pauses_.load(std::memory_order_relaxed);
  section.slow_reader_closes = slow_reader_closes_.load(std::memory_order_relaxed);
  section.io_thread_crashes = io_thread_crashes_.load(std::memory_order_relaxed);
  section.conns_adopted = conns_adopted_.load(std::memory_order_relaxed);
  section.crash_orphans = crash_orphans_.load(std::memory_order_relaxed);
  section.tenants.clear();
  for (const auto& tenant : tenants_) {
    graftd::NetfrontSection::TenantRow row;
    row.name = tenant->config.name;
    row.weight = tenant->config.weight;
    row.accepted = tenant->accepted.load(std::memory_order_relaxed);
    row.completed_ok = tenant->completed_ok.load(std::memory_order_relaxed);
    row.completed_error = tenant->completed_error.load(std::memory_order_relaxed);
    row.shed_degraded = tenant->shed_degraded.load(std::memory_order_relaxed);
    row.shed_overload = tenant->shed_overload.load(std::memory_order_relaxed);
    row.quota_rejected = tenant->quota_rejected.load(std::memory_order_relaxed);
    row.breaker_open = tenant->breaker_open.load(std::memory_order_relaxed);
    row.retries_deduped = tenant->retries_deduped.load(std::memory_order_relaxed);
    section.tenants.push_back(std::move(row));
  }
  section.io_threads.clear();
  for (std::size_t i = 0; i < io_threads_.size(); ++i) {
    const IoThread& io = *io_threads_[i];
    graftd::NetfrontSection::IoThreadRow row;
    row.thread = i;
    {
      std::lock_guard<std::mutex> lock(io.stats_mu);
      row.decoded_frames = io.decoded_frames;
      row.submit_batches = io.submit_batches;
      row.submit_sizes = io.submit_sizes;
      row.wakeups = io.wakeups;
    }
    section.io_threads.push_back(std::move(row));
  }
}

void Server::IoLoop(std::size_t index) {
  IoThread& io = *io_threads_[index];
  // Profiler attribution: SIGPROF samples landing on an IO thread charge
  // to the front end's "net" stage (no graft) for the thread's lifetime.
  const tracelab::ScopedProfSlot prof_net(0, tracelab::ProfStage::kNet);
  std::vector<std::uint8_t> rbuf(options_.read_chunk);
  std::vector<epoll_event> events(256);
  while (running_.load(std::memory_order_acquire)) {
    // Promote slots freed during the previous batch: a stale event still
    // queued for a closed slot can never alias a new connection.
    io.free_slots.insert(io.free_slots.end(), io.dead_slots.begin(), io.dead_slots.end());
    io.dead_slots.clear();
    if (options_.injector != nullptr) {
      if (auto fault = options_.injector->Hit("netfront/io_thread");
          fault && fault->kind == faultlab::FaultKind::kCrash && CrashIoThread(io)) {
        return;  // simulated IO-thread death; survivors adopted everything
      }
    }
    const int timeout_ms =
        io.staged_total.load(std::memory_order_relaxed) > 0
            ? 1
            : (draining_.load(std::memory_order_acquire) ? 5 : 100);
    const int n =
        epoll_wait(io.epoll_fd, events.data(), static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint64_t kind = tag >> 32;
      const std::size_t slot = static_cast<std::uint32_t>(tag);
      if (kind == kKindListener) {
        HandleListener(io);
        continue;
      }
      if (kind == kKindEventFd) {
        for (;;) {
          std::uint64_t drained = 0;
          const ssize_t r = read(io.event_fd, &drained, sizeof(drained));
          if (r > 0) {
            continue;  // counter swallowed; loop in case of a racing write
          }
          if (r < 0 && errno == EINTR) {
            continue;
          }
          // EAGAIN: the eventfd is drained — benign, not an error (and an
          // undrained counter would only re-report, never lose a wake).
          break;
        }
        {
          std::lock_guard<std::mutex> lock(io.stats_mu);
          ++io.wakeups;
        }
        continue;  // inboxes drain at the loop bottom either way
      }
      if (slot >= io.conns.size() || !io.conns[slot]) {
        continue;  // closed earlier in this batch
      }
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConn(io, slot);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        HandleWritable(io, slot);
      }
      if (io.conns[slot] && (events[i].events & EPOLLIN) != 0) {
        HandleReadable(io, slot, rbuf);
      }
    }
    // Drained every pass, not just on eventfd wake: a lost wake (injected
    // or a kernel-coalesced one) delays work by at most the epoll timeout.
    AdoptInbox(io);
    ProcessCompletions(io);
    DrainStaged(io);
  }
}

void Server::HandleListener(IoThread& io) {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // EAGAIN or a transient accept error; epoll re-reports
    }
    InstallConn(io, fd);
  }
}

std::size_t Server::InstallConn(IoThread& io, int fd) {
  SetNonBlocking(fd);
  const int one = 1;
  // Best effort: fails harmlessly on non-TCP fds (socketpair tests).
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::size_t slot;
  if (!io.free_slots.empty()) {
    slot = io.free_slots.back();
    io.free_slots.pop_back();
  } else {
    slot = io.conns.size();
    io.conns.emplace_back();
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->gen = connections_opened_.fetch_add(1, std::memory_order_relaxed) + 1;
  io.conns[slot] = std::move(conn);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = Tag(kKindConn, slot);
  epoll_ctl(io.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  return slot;
}

void Server::AdoptInbox(IoThread& io) {
  std::vector<int> fds;
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(io.inbox_mu);
    fds.swap(io.adopted_fds);
    conns.swap(io.adopted_conns);
  }
  for (int fd : fds) {
    InstallConn(io, fd);
  }
  for (auto& conn : conns) {
    InstallAdopted(io, std::move(conn));
  }
}

std::size_t Server::InstallAdopted(IoThread& io, std::unique_ptr<Conn> conn) {
  std::size_t slot;
  if (!io.free_slots.empty()) {
    slot = io.free_slots.back();
    io.free_slots.pop_back();
  } else {
    slot = io.conns.size();
    io.conns.emplace_back();
  }
  // The connection keeps its generation, decoder state and write buffer;
  // only the epoll registration moves. Replies to requests the dead thread
  // submitted still route by the *old* (io_thread, slot, gen) triple and
  // are accounted as orphans — the client's retry replays them from the
  // dedup window.
  const int fd = conn->fd;
  conn->want_write = conn->out_pos < conn->out.size();
  epoll_event ev{};
  ev.events = (conn->read_paused ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
              (conn->want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = Tag(kKindConn, slot);
  io.conns[slot] = std::move(conn);
  epoll_ctl(io.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  return slot;
}

void Server::HandleReadable(IoThread& io, std::size_t slot, std::vector<std::uint8_t>& buf) {
  bool torn_read = false;
  bool torn_frames = false;
  if (options_.injector != nullptr) {
    if (auto fault = options_.injector->Hit("netfront/read")) {
      switch (fault->kind) {
        case faultlab::FaultKind::kTransientError:
        case faultlab::FaultKind::kCrash:
          // Injected connection reset: the peer sees a mid-stream close.
          CloseConn(io, slot);
          return;
        case faultlab::FaultKind::kLatencySpike:
          // Read stall: this IO thread blocks, so every connection it owns
          // lags — the whole-thread blast radius is the point.
          std::this_thread::sleep_for(
              std::chrono::microseconds(static_cast<std::int64_t>(fault->param)));
          break;
        case faultlab::FaultKind::kTornWrite:
          torn_read = true;  // deliver a single byte this pass
          break;
      }
    }
    if (auto fault = options_.injector->Hit("netfront/frame");
        fault && fault->kind == faultlab::FaultKind::kTornWrite) {
      // The decoder sees every byte boundary of this chunk — the
      // incremental-parse sweep the proto tests do, but live on a socket.
      torn_frames = true;
    }
  }
  for (;;) {
    Conn* conn = io.conns[slot].get();
    if (!conn || conn->read_paused) {
      return;
    }
    const std::size_t want = torn_read ? 1 : buf.size();
    const ssize_t r = recv(conn->fd, buf.data(), want, 0);
    if (r > 0) {
      bytes_in_.fetch_add(static_cast<std::uint64_t>(r), std::memory_order_relaxed);
      if (torn_frames) {
        for (ssize_t i = 0; i < r; ++i) {
          conn->decoder.Feed(buf.data() + static_cast<std::size_t>(i), 1);
          if (!DecodeFrames(io, slot)) {
            return;  // connection closed mid-sweep
          }
        }
      } else {
        conn->decoder.Feed(buf.data(), static_cast<std::size_t>(r));
        if (!DecodeFrames(io, slot)) {
          return;  // connection closed (hostile frame or slow-reader cap)
        }
      }
      if (static_cast<std::size_t>(r) < want || torn_read) {
        return;  // short read: socket drained (torn: one byte was the ration)
      }
      continue;
    }
    if (r == 0) {
      CloseConn(io, slot);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;  // drained; epoll re-reports when more arrives
    }
    if (errno == EINTR) {
      continue;  // interrupted before any bytes moved: retry
    }
    CloseConn(io, slot);
    return;
  }
}

bool Server::DecodeFrames(IoThread& io, std::size_t slot) {
  Conn* conn = io.conns[slot].get();
  const bool traced = options_.tracer != nullptr && options_.tracer->enabled();
  const std::uint64_t t0 = traced ? options_.tracer->NowNs() : 0;
  std::uint64_t decoded = 0;
  FrameDecoder::Frame frame;
  for (;;) {
    const FrameDecoder::Result result = conn->decoder.Next(frame);
    if (result == FrameDecoder::Result::kNeedMore) {
      break;
    }
    if (result == FrameDecoder::Result::kError) {
      frame_errors_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(io, slot);
      return false;
    }
    ++decoded;
    if (frame.header.type == FrameType::kRequest) {
      AdmitRequest(io, slot, frame);
    } else if (frame.header.type == FrameType::kAdminMetrics) {
      // Scrapes are answered inline, before quota and staging: read-only,
      // and they must work precisely when the admission path is shedding.
      HandleAdmin(io, slot, frame);
    }
    // Other non-request frames from a client are structurally valid noise;
    // decode past them rather than desyncing the stream.
  }
  if (decoded > 0) {
    std::lock_guard<std::mutex> lock(io.stats_mu);
    io.decoded_frames += decoded;
  }
  if (traced && decoded > 0) {
    options_.tracer->Complete(site_decode_, t0, options_.tracer->NowNs() - t0,
                              options_.tracer->NextTraceId());
  }
  FlushConn(io, slot);  // shed replies accumulated during admission
  return io.conns[slot] != nullptr;
}

void Server::HandleAdmin(IoThread& io, std::size_t slot, const FrameDecoder::Frame& frame) {
  Conn* conn = io.conns[slot].get();
  const FrameHeader& header = frame.header;
  if (header.tenant >= tenants_.size() || !tenants_[header.tenant]->config.admin ||
      !options_.admin_metrics) {
    AppendError(conn->out, header.tenant, header.graft, header.request_id,
                ErrorCode::kAdminDenied);
    return;
  }
  const std::uint8_t format = frame.payload.empty() ? 0 : frame.payload[0];
  std::string body = options_.admin_metrics(format);
  if (body.size() > kMaxPayload) {
    body.resize(kMaxPayload);  // a truncated scrape beats a poisoned stream
  }
  AppendAdminMetrics(conn->out, header.tenant, header.request_id,
                     reinterpret_cast<const std::uint8_t*>(body.data()), body.size());
}

void Server::AdmitRequest(IoThread& io, std::size_t slot, FrameDecoder::Frame& frame) {
  Conn* conn = io.conns[slot].get();
  const FrameHeader& header = frame.header;
  if (header.tenant >= tenants_.size()) {
    AppendError(conn->out, header.tenant, header.graft, header.request_id,
                ErrorCode::kUnknownTenant);
    return;
  }
  TenantState& tenant = *tenants_[header.tenant];
  if (header.graft >= wire_grafts_.size()) {
    AppendError(conn->out, header.tenant, header.graft, header.request_id,
                ErrorCode::kUnknownGraft);
    return;
  }
  const graftd::GraftId graft = wire_grafts_[header.graft];
  // Duplicate of a request already seen (a client retry): answer from the
  // dedup window — before quota, so a replay never burns tokens.
  if (DedupCheck(conn, header)) {
    return;
  }
  // Degraded grafts shed at the front door: the request never touches a
  // queue, and the client learns immediately that the device is failing.
  if (draining_.load(std::memory_order_acquire)) {
    tenant.shed_overload.fetch_add(1, std::memory_order_relaxed);
    AppendError(conn->out, header.tenant, header.graft, header.request_id,
                ErrorCode::kShedOverload);
    return;
  }
  if (dispatcher_.supervisor().state(graft) == graftd::GraftState::kDegraded) {
    tenant.shed_degraded.fetch_add(1, std::memory_order_relaxed);
    AppendError(conn->out, header.tenant, header.graft, header.request_id,
                ErrorCode::kShedDegraded);
    return;
  }
  // Circuit breaker: a graft that keeps faulting is shed here, at the
  // socket, instead of riding the queue to a worker that will reject it.
  if (!dispatcher_.supervisor().BreakerAdmit(graft)) {
    tenant.breaker_open.fetch_add(1, std::memory_order_relaxed);
    AppendError(conn->out, header.tenant, header.graft, header.request_id,
                ErrorCode::kBreakerOpen);
    return;
  }
  if (!tenant.bucket->TryTake(SteadyNowNs())) {
    tenant.quota_rejected.fetch_add(1, std::memory_order_relaxed);
    AppendError(conn->out, header.tenant, header.graft, header.request_id,
                ErrorCode::kQuotaExceeded);
    return;
  }
  if (io.staged[header.tenant].size() >= options_.staging_high) {
    tenant.shed_overload.fetch_add(1, std::memory_order_relaxed);
    AppendError(conn->out, header.tenant, header.graft, header.request_id,
                ErrorCode::kShedOverload);
    return;
  }
  auto* request = new PendingRequest;
  request->tenant = header.tenant;
  request->wire_graft = header.graft;
  request->request_id = header.request_id;
  request->io_thread = io.index;
  request->conn_slot = slot;
  request->conn_gen = conn->gen;
  // The wire deadline is relative to receipt (no clock sync with the
  // peer); stamp it absolute on the dispatcher clock here so expiry means
  // the same thing in the staging deque, the worker queue, and the worker.
  request->deadline_ns =
      header.deadline_us == 0 ? 0 : dispatcher_.NowNs() + header.deadline_us * 1000;
  request->payload = std::move(frame.payload);
  DedupStage(header.tenant, header.request_id);
  ++conn->in_flight;
  io.staged[header.tenant].push_back(StagedRequest{request, graft});
  io.staged_total.fetch_add(1, std::memory_order_relaxed);
}

bool Server::DedupCheck(Conn* conn, const FrameHeader& header) {
  if (options_.dedup_window == 0) {
    return false;
  }
  TenantState& tenant = *tenants_[header.tenant];
  std::lock_guard<std::mutex> lock(tenant.dedup_mu);
  const auto it = tenant.dedup.find(header.request_id);
  if (it == tenant.dedup.end()) {
    return false;
  }
  if (it->second.done) {
    // Exactly-once-visible: replay the stored outcome; the graft body does
    // not run again.
    if (it->second.status == graftd::CompletionStatus::kOk) {
      AppendResponse(conn->out, header.tenant, header.graft, header.request_id,
                     it->second.digest.data());
    } else {
      AppendError(conn->out, header.tenant, header.graft, header.request_id,
                  ErrorCodeFor(it->second.status));
    }
  }
  // Not done: the original attempt is still in flight — swallow the retry;
  // its reply (or the client's next timeout) covers it.
  tenant.retries_deduped.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Server::DedupStage(std::uint16_t tenant_id, std::uint64_t request_id) {
  if (options_.dedup_window == 0) {
    return;
  }
  TenantState& tenant = *tenants_[tenant_id];
  std::lock_guard<std::mutex> lock(tenant.dedup_mu);
  const auto [it, inserted] = tenant.dedup.emplace(request_id, TenantState::DedupEntry{});
  if (!inserted) {
    return;  // already windowed (racing duplicate admitted on another thread)
  }
  tenant.dedup_order.push_back(request_id);
  while (tenant.dedup_order.size() > options_.dedup_window) {
    // FIFO eviction; erase tolerates ids DedupForget already removed.
    tenant.dedup.erase(tenant.dedup_order.front());
    tenant.dedup_order.pop_front();
  }
}

void Server::DedupResolve(std::uint16_t tenant_id, std::uint64_t request_id,
                          const graftd::Completion& completion) {
  if (options_.dedup_window == 0) {
    return;
  }
  TenantState& tenant = *tenants_[tenant_id];
  std::lock_guard<std::mutex> lock(tenant.dedup_mu);
  const auto it = tenant.dedup.find(request_id);
  if (it == tenant.dedup.end()) {
    return;  // evicted while in flight; a very late retry re-executes
  }
  it->second.done = true;
  it->second.status = completion.status;
  std::copy_n(completion.digest.data(), it->second.digest.size(), it->second.digest.begin());
}

void Server::DedupForget(std::uint16_t tenant_id, std::uint64_t request_id) {
  if (options_.dedup_window == 0) {
    return;
  }
  TenantState& tenant = *tenants_[tenant_id];
  std::lock_guard<std::mutex> lock(tenant.dedup_mu);
  const auto it = tenant.dedup.find(request_id);
  if (it != tenant.dedup.end() && !it->second.done) {
    tenant.dedup.erase(it);  // its id may linger in dedup_order; eviction copes
  }
}

void Server::DrainStaged(IoThread& io) {
  if (io.staged_total.load(std::memory_order_relaxed) == 0) {
    return;
  }
  const bool traced = options_.tracer != nullptr && options_.tracer->enabled();
  const std::uint64_t t0 = traced ? options_.tracer->NowNs() : 0;
  const std::size_t tenant_count = tenants_.size();
  // Deficit refresh: only once every backlogged tenant has spent its
  // credit. A queue-full interruption leaves credits (and therefore the
  // weight ratio) intact for the next pass.
  bool any_credit = false;
  for (std::size_t t = 0; t < tenant_count; ++t) {
    if (!io.staged[t].empty() && io.credit[t] > 0) {
      any_credit = true;
      break;
    }
  }
  if (!any_credit) {
    for (std::size_t t = 0; t < tenant_count; ++t) {
      io.credit[t] =
          io.staged[t].empty()
              ? 0
              : static_cast<std::int64_t>(options_.drr_quantum * tenants_[t]->config.weight);
    }
  }
  std::uint64_t submitted = 0;
  std::vector<graftd::Invocation> chunk;
  for (std::size_t offset = 0; offset < tenant_count; ++offset) {
    const std::size_t t = (io.drr_start + offset) % tenant_count;
    auto& deque = io.staged[t];
    while (io.credit[t] > 0 && !deque.empty()) {
      const std::size_t want =
          std::min({options_.submit_chunk, static_cast<std::size_t>(io.credit[t]), deque.size()});
      chunk.clear();
      chunk.reserve(want);
      for (std::size_t i = 0; i < want; ++i) {
        PendingRequest* request = deque[i].request;
        graftd::Invocation invocation;
        invocation.graft = deque[i].graft;
        invocation.deadline_ns = request->deadline_ns;
        invocation.data = streamk::Bytes(request->payload.data(), request->payload.size());
        invocation.on_complete = [this, request](const graftd::Completion& completion) {
          OnCompletion(request, completion);
        };
        chunk.push_back(std::move(invocation));
      }
      const std::size_t accepted = dispatcher_.TrySubmitBatch(chunk);
      if (accepted > 0) {
        deque.erase(deque.begin(), deque.begin() + static_cast<std::ptrdiff_t>(accepted));
        io.staged_total.fetch_sub(accepted, std::memory_order_relaxed);
        io.credit[t] -= static_cast<std::int64_t>(accepted);
        in_flight_.fetch_add(accepted, std::memory_order_release);
        tenants_[t]->accepted.fetch_add(accepted, std::memory_order_relaxed);
        submitted += accepted;
        std::lock_guard<std::mutex> lock(io.stats_mu);
        ++io.submit_batches;
        io.submit_sizes.Record(accepted);
      }
      if (accepted < want) {
        // Queue full: stop draining entirely and resume here next pass,
        // with every tenant's remaining credit untouched.
        io.drr_start = t;
        if (traced && submitted > 0) {
          options_.tracer->Complete(site_drain_, t0, options_.tracer->NowNs() - t0,
                                    options_.tracer->NextTraceId());
        }
        return;
      }
    }
  }
  io.drr_start = (io.drr_start + 1) % tenant_count;
  if (traced && submitted > 0) {
    options_.tracer->Complete(site_drain_, t0, options_.tracer->NowNs() - t0,
                              options_.tracer->NextTraceId());
  }
}

void Server::OnCompletion(PendingRequest* request, const graftd::Completion& completion) {
  IoThread& io = *io_threads_[request->io_thread];
  bool was_empty = false;
  bool delivered = false;
  {
    std::lock_guard<std::mutex> lock(io.inbox_mu);
    if (!io.dead.load(std::memory_order_relaxed)) {
      was_empty = io.completions.empty();
      io.completions.push_back(CompletionRecord{request, completion});
      delivered = true;
    }
  }
  if (!delivered) {
    // The owning IO thread crashed: there is no socket to reply on, but
    // the outcome still counts (drain invariants) and lands in the dedup
    // window so the client's retry replays it instead of re-executing.
    CompletionRecord record{request, completion};
    AccountOrphan(record);
    return;
  }
  if (was_empty) {
    Wake(io);
  }
}

void Server::AccountOrphan(CompletionRecord& record) {
  PendingRequest* request = record.request;
  TenantState& tenant = *tenants_[request->tenant];
  if (record.completion.status == graftd::CompletionStatus::kOk) {
    tenant.completed_ok.fetch_add(1, std::memory_order_relaxed);
  } else {
    tenant.completed_error.fetch_add(1, std::memory_order_relaxed);
  }
  DedupResolve(request->tenant, request->request_id, record.completion);
  if (options_.obs_latency && record.completion.status == graftd::CompletionStatus::kOk) {
    options_.obs_latency(request->tenant, record.completion.elapsed_ns);
  }
  delete request;
  in_flight_.fetch_sub(1, std::memory_order_release);
}

bool Server::CrashIoThread(IoThread& io) {
  // One crash at a time: two threads crashing concurrently could each pick
  // the other as survivor and strand every connection on a corpse.
  std::lock_guard<std::mutex> crash_lock(crash_mu_);
  std::vector<IoThread*> survivors;
  for (auto& other : io_threads_) {
    if (other.get() != &io && !other->dead.load(std::memory_order_acquire)) {
      survivors.push_back(other.get());
    }
  }
  if (survivors.empty()) {
    return false;  // never kill the last IO thread
  }
  io_thread_crashes_.fetch_add(1, std::memory_order_relaxed);
  if (options_.obs_event) {
    options_.obs_event("io_thread_crash");
  }
  // From here OnCompletion and AddConnection route around this thread.
  std::vector<CompletionRecord> completions;
  std::vector<int> fds;
  std::vector<std::unique_ptr<Conn>> inherited;
  {
    std::lock_guard<std::mutex> lock(io.inbox_mu);
    io.dead.store(true, std::memory_order_release);
    completions.swap(io.completions);
    fds.swap(io.adopted_fds);
    inherited.swap(io.adopted_conns);
  }
  // Replies already in the inbox die with the thread; account them so
  // accepted == completed after drain, and publish the outcome for replay.
  for (CompletionRecord& record : completions) {
    AccountOrphan(record);
  }
  // Staged-but-unsubmitted requests are simply lost. Forget their pending
  // dedup markers so the client's retry is admitted as a fresh attempt
  // rather than swallowed forever.
  std::uint64_t orphans = 0;
  for (auto& deque : io.staged) {
    for (StagedRequest& staged : deque) {
      DedupForget(staged.request->tenant, staged.request->request_id);
      delete staged.request;
      ++orphans;
    }
    deque.clear();
  }
  io.staged_total.store(0, std::memory_order_relaxed);
  crash_orphans_.fetch_add(orphans, std::memory_order_relaxed);
  // Hand every live connection — decoder state, unflushed replies,
  // generation — to the survivors. Generations are globally unique, so a
  // migrated conn can never alias a reused survivor slot.
  std::size_t next = 0;
  std::uint64_t adopted = 0;
  const auto bequeath = [&](std::unique_ptr<Conn> conn) {
    IoThread& survivor = *survivors[next++ % survivors.size()];
    {
      std::lock_guard<std::mutex> lock(survivor.inbox_mu);
      survivor.adopted_conns.push_back(std::move(conn));
    }
    Wake(survivor);
    ++adopted;
  };
  for (auto& conn : io.conns) {
    if (!conn) {
      continue;
    }
    epoll_ctl(io.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    bequeath(std::move(conn));
  }
  for (auto& conn : inherited) {
    bequeath(std::move(conn));  // adopted but never installed here
  }
  for (int fd : fds) {
    IoThread& survivor = *survivors[next++ % survivors.size()];
    {
      std::lock_guard<std::mutex> lock(survivor.inbox_mu);
      survivor.adopted_fds.push_back(fd);
    }
    Wake(survivor);
  }
  conns_adopted_.fetch_add(adopted, std::memory_order_relaxed);
  // Detach the shared listener from this epoll; accept readiness is level
  // triggered, so the surviving pollers keep getting it. The epoll and
  // event fds stay open until Stop() — closing them here could race a
  // worker's Wake() onto a recycled fd number.
  if (listen_fd_ >= 0) {
    epoll_ctl(io.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
  }
  return true;
}

void Server::ProcessCompletions(IoThread& io) {
  std::vector<CompletionRecord> records;
  {
    std::lock_guard<std::mutex> lock(io.inbox_mu);
    records.swap(io.completions);
  }
  if (records.empty()) {
    return;
  }
  const bool traced = options_.tracer != nullptr && options_.tracer->enabled();
  const std::uint64_t t0 = traced ? options_.tracer->NowNs() : 0;
  std::vector<std::size_t> touched;
  for (CompletionRecord& record : records) {
    PendingRequest* request = record.request;
    TenantState& tenant = *tenants_[request->tenant];
    const std::size_t slot = request->conn_slot;
    Conn* conn = slot < io.conns.size() ? io.conns[slot].get() : nullptr;
    if (conn && conn->gen == request->conn_gen) {
      if (record.completion.status == graftd::CompletionStatus::kOk) {
        AppendResponse(conn->out, request->tenant, request->wire_graft, request->request_id,
                       record.completion.digest.data());
        tenant.completed_ok.fetch_add(1, std::memory_order_relaxed);
      } else {
        AppendError(conn->out, request->tenant, request->wire_graft, request->request_id,
                    ErrorCodeFor(record.completion.status));
        tenant.completed_error.fetch_add(1, std::memory_order_relaxed);
      }
      --conn->in_flight;
      touched.push_back(slot);
    } else {
      // The connection died while the request was in flight; account the
      // completion but there is nowhere to send the reply.
      if (record.completion.status == graftd::CompletionStatus::kOk) {
        tenant.completed_ok.fetch_add(1, std::memory_order_relaxed);
      } else {
        tenant.completed_error.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Either way the outcome is published for replay: a retry after a lost
    // reply must see the stored result, not a second execution.
    DedupResolve(request->tenant, request->request_id, record.completion);
    if (options_.obs_latency && record.completion.status == graftd::CompletionStatus::kOk) {
      options_.obs_latency(request->tenant, record.completion.elapsed_ns);
    }
    delete request;
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
  if (traced) {
    options_.tracer->Complete(site_encode_, t0, options_.tracer->NowNs() - t0,
                              options_.tracer->NextTraceId());
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (std::size_t slot : touched) {
    if (io.conns[slot]) {
      FlushConn(io, slot);
    }
  }
}

void Server::HandleWritable(IoThread& io, std::size_t slot) { FlushConn(io, slot); }

void Server::FlushConn(IoThread& io, std::size_t slot) {
  Conn* conn = io.conns[slot].get();
  if (!conn) {
    return;
  }
  const bool traced = options_.tracer != nullptr && options_.tracer->enabled();
  const std::uint64_t t0 = traced ? options_.tracer->NowNs() : 0;
  // How many reply bytes this pass may move; a torn-write injection caps
  // it below the backlog, leaving a short write for EPOLLOUT to resume.
  std::size_t allowance = conn->out.size() - conn->out_pos;
  if (options_.injector != nullptr && allowance > 0) {
    if (auto fault = options_.injector->Hit("netfront/write")) {
      switch (fault->kind) {
        case faultlab::FaultKind::kTransientError:
        case faultlab::FaultKind::kCrash:
          // Injected reset with replies pending: the peer loses them all.
          CloseConn(io, slot);
          return;
        case faultlab::FaultKind::kLatencySpike:
          std::this_thread::sleep_for(
              std::chrono::microseconds(static_cast<std::int64_t>(fault->param)));
          break;
        case faultlab::FaultKind::kTornWrite:
          // Only a `param` fraction (at least one byte) goes out — every
          // reader downstream must survive frames torn mid-header.
          allowance = std::max<std::size_t>(
              1, static_cast<std::size_t>(fault->param * static_cast<double>(allowance)));
          break;
      }
    }
  }
  std::uint64_t wrote = 0;
  while (conn->out_pos < conn->out.size() && allowance > 0) {
    const std::size_t want = std::min(conn->out.size() - conn->out_pos, allowance);
    const ssize_t w = send(conn->fd, conn->out.data() + conn->out_pos, want, MSG_NOSIGNAL);
    if (w > 0) {
      conn->out_pos += static_cast<std::size_t>(w);
      wrote += static_cast<std::uint64_t>(w);
      allowance -= static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;  // interrupted before any bytes moved: retry
    }
    bytes_out_.fetch_add(wrote, std::memory_order_relaxed);
    CloseConn(io, slot);
    return;
  }
  bytes_out_.fetch_add(wrote, std::memory_order_relaxed);
  if (traced && wrote > 0) {
    options_.tracer->Complete(site_flush_, t0, options_.tracer->NowNs() - t0,
                              options_.tracer->NextTraceId());
  }
  if (conn->out_pos == conn->out.size()) {
    conn->out.clear();
    conn->out_pos = 0;
  } else if (conn->out_pos > (1u << 20)) {
    conn->out.erase(conn->out.begin(), conn->out.begin() + static_cast<std::ptrdiff_t>(conn->out_pos));
    conn->out_pos = 0;
  }
  const std::size_t backlog = conn->out.size() - conn->out_pos;
  if (backlog >= options_.write_buffer_hard) {
    slow_reader_closes_.fetch_add(1, std::memory_order_relaxed);
    CloseConn(io, slot);
    return;
  }
  UpdateReadPause(io, slot);
}

void Server::UpdateReadPause(IoThread& io, std::size_t slot) {
  Conn* conn = io.conns[slot].get();
  if (!conn) {
    return;
  }
  const std::size_t backlog = conn->out.size() - conn->out_pos;
  const bool want_write = backlog > 0;
  // Hysteresis: pause at the high watermark, resume at half of it, so a
  // connection hovering at the boundary doesn't thrash epoll_ctl.
  bool read_paused = conn->read_paused;
  if (!read_paused && backlog >= options_.write_buffer_high) {
    read_paused = true;
    read_pauses_.fetch_add(1, std::memory_order_relaxed);
  } else if (read_paused && backlog < options_.write_buffer_high / 2) {
    read_paused = false;
  }
  if (want_write != conn->want_write || read_paused != conn->read_paused) {
    conn->want_write = want_write;
    conn->read_paused = read_paused;
    Rearm(io, slot);
  }
}

void Server::Rearm(IoThread& io, std::size_t slot) {
  Conn* conn = io.conns[slot].get();
  epoll_event ev{};
  ev.events = (conn->read_paused ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
              (conn->want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = Tag(kKindConn, slot);
  epoll_ctl(io.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::CloseConn(IoThread& io, std::size_t slot) {
  Conn* conn = io.conns[slot].get();
  if (!conn) {
    return;
  }
  epoll_ctl(io.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  io.conns[slot].reset();
  io.dead_slots.push_back(slot);
}

void Server::Wake(IoThread& io) {
  if (io.event_fd < 0) {
    return;
  }
  if (options_.injector != nullptr && options_.injector->Hit("netfront/eventfd")) {
    // Lost wakeup: the eventfd write never lands. Recovery is structural —
    // every IoLoop pass (bounded by the epoll timeout) drains the inboxes
    // and staging deques whether or not a wake arrived.
    return;
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t written = write(io.event_fd, &one, sizeof(one));
}

}  // namespace netfront
