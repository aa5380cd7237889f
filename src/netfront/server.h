// netfront: the epoll front line that serves grafts over sockets.
//
// Threading model: N IO threads, each owning a private epoll instance, a
// slice of the connections, per-tenant staging deques, and a completion
// inbox. Each IO thread is one producer into the graftd dispatcher: its
// batches land in the workers' bounded MPSC queues (src/graftd/queue.h),
// with no per-thread registration, so IO threads may come and go. The
// shared TCP listener is registered in every IO thread's epoll with
// EPOLLEXCLUSIVE, so the kernel wakes one thread per pending accept and
// connections spread across the pool without a dedicated acceptor.
//
// Admission happens at the socket, in order:
//   1. unknown tenant/graft  -> error reply, never counted against quota
//   2. supervisor kDegraded  -> kShedDegraded reply (the paper's detach
//      story: a failing device sheds at the front door, not in the queue)
//   3. token bucket          -> kQuotaExceeded reply
//   4. staging backlog full  -> kShedOverload reply
// Only requests that pass all four are staged for dispatch.
//
// Dispatch: staged requests drain through deficit-weighted round robin.
// Each backlogged tenant holds a credit counter; credits refresh
// (+quantum x weight) only when every backlogged tenant has spent its
// credit, so queue-full interruptions never skew the ratio — under
// saturation, completed requests track configured weights exactly.
// Batches go down via TrySubmitBatch: partial acceptance is the
// backpressure signal and the remainder stays staged, in order.
//
// Completion routing: the dispatcher's on_complete hook fires on a worker
// thread; it enqueues the completion to the owning IO thread's inbox and
// wakes its eventfd. The IO thread validates the connection is still the
// one that sent the request (slot + generation), encodes the reply into
// the connection's write buffer, and flushes. Write-buffer backpressure:
// past `write_buffer_high` the connection's reads pause (EPOLLIN dropped,
// so a fast sender can't pump new requests while replies back up); past
// `write_buffer_hard` the slow reader is closed.
//
// chaoslab: with ServerOptions::injector attached, the IO path consults
// seeded fault sites —
//   netfront/read      conn reset / read stall / 1-byte torn reads
//   netfront/write     conn reset / write stall / short (torn) writes
//   netfront/frame     the decoder is fed one byte at a time
//   netfront/eventfd   a Wake() is silently dropped
//   netfront/io_thread kCrash kills the whole IO thread; survivors adopt
//                      its connections (decoder state, unflushed replies,
//                      generation) through their inboxes
// Recovery from a lost wake is structural, not event-driven: every IoLoop
// pass (bounded by the epoll timeout) drains the inboxes and the staging
// deques whether or not the eventfd fired. Crash orphans — staged requests
// and in-flight replies owned by the dead thread — are accounted inline so
// drain invariants hold; the client's retry path (request-id dedup window)
// makes the rerun exactly-once-visible.

#ifndef GRAFTLAB_SRC_NETFRONT_SERVER_H_
#define GRAFTLAB_SRC_NETFRONT_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/faultlab/injector.h"
#include "src/graftd/dispatcher.h"
#include "src/graftd/telemetry.h"
#include "src/netfront/tenant.h"
#include "src/netfront/wire.h"
#include "src/tracelab/trace.h"

namespace netfront {

struct ServerOptions {
  std::size_t io_threads = 2;
  // recv() chunk; also the initial read-buffer granularity.
  std::size_t read_chunk = 64u << 10;
  // Per-tenant, per-IO-thread staged-request cap: beyond this the request
  // is shed at the socket with kShedOverload.
  std::size_t staging_high = 512;
  // Write-buffer watermarks (bytes of un-flushed replies per connection).
  std::size_t write_buffer_high = 256u << 10;
  std::size_t write_buffer_hard = 4u << 20;
  // Max invocations per TrySubmitBatch call.
  std::size_t submit_chunk = 16;
  // DRR credit granted per refresh is quantum x tenant weight.
  std::uint64_t drr_quantum = 16;
  // Tenant table; wire tenant ids index it. Empty gets one default tenant.
  std::vector<TenantConfig> tenants;
  // Optional: network-stage spans (nf:decode, nf:drain, nf:encode,
  // nf:flush) land in this tracer. Must outlive the server.
  tracelab::Tracer* tracer = nullptr;
  // Optional: seeded chaos. The IO path consults the netfront/* sites
  // listed in the header comment. Must outlive the server.
  faultlab::Injector* injector = nullptr;
  // Per-tenant request-id dedup window (FIFO eviction). While a request id
  // is in the window, a duplicate is swallowed (original still in flight)
  // or answered from the stored outcome (already completed) — the graft
  // body never runs twice, so client retries are exactly-once-visible.
  // 0 disables dedup; retried ids then re-execute (the seed behavior).
  std::size_t dedup_window = 0;

  // --- observability seams (the obslab plane plugs in here; the server
  // only ever sees std::functions, so netfront never depends on obslab) ---

  // Serves kAdminMetrics frames: called with the requested exposition
  // format byte, returns the scrape body. Unset, every admin frame is
  // answered kAdminDenied. Admin frames bypass the token bucket (a scrape
  // must work precisely when quotas are exhausted) but are gated on
  // TenantConfig::admin.
  std::function<std::string(std::uint8_t format)> admin_metrics;
  // Front-end failure events worth a flight-recorder snapshot; currently
  // fired with "io_thread_crash" when an injected crash is adopted.
  std::function<void(const char* event)> obs_event;
  // Per-tenant completion latency feed (SLO watchdog): fired once per kOk
  // completion with the dispatcher-measured service time.
  std::function<void(std::uint16_t tenant, std::uint64_t elapsed_ns)> obs_latency;
};

class Server {
 public:
  // The dispatcher must outlive the server; register grafts on it before
  // Start() (the dispatcher's registration contract).
  Server(graftd::Dispatcher& dispatcher, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Maps a registered dispatcher graft onto the wire: returns the wire
  // graft id clients put in the frame header. Call before Start().
  std::uint32_t ExposeGraft(graftd::GraftId id);

  // Binds and listens on 127.0.0.1:`port` (0 picks an ephemeral port,
  // readable via port() afterwards). Optional: a server fed only through
  // AddConnection() needs no listener. Call before Start().
  bool ListenTcp(std::uint16_t port);
  std::uint16_t port() const { return port_; }

  void Start();

  // Adopts an already-connected socket (e.g. one end of a socketpair) into
  // the pool, round-robin across IO threads. Thread-safe after Start().
  bool AddConnection(int fd);

  // Drains staged work into the dispatcher, waits for in-flight
  // completions (bounded), then joins the IO threads and closes every
  // socket. Idempotent; called by the destructor. The dispatcher is left
  // running.
  void Stop();

  // Point-in-time "__netfront__" section for a TelemetrySnapshot.
  void FillTelemetry(graftd::NetfrontSection& section) const;

 private:
  // One request in flight between decode and reply. Owns the payload the
  // Invocation's span points into (the dispatcher requires the bytes stay
  // alive until completion). Identified back to its connection by
  // (io_thread, conn slot, generation) so completions for a connection
  // that died mid-flight are dropped instead of hitting a reused slot.
  struct PendingRequest {
    std::uint16_t tenant = 0;
    std::uint32_t wire_graft = 0;
    std::uint64_t request_id = 0;
    std::size_t io_thread = 0;
    std::size_t conn_slot = 0;
    std::uint64_t conn_gen = 0;
    // Absolute expiry on the dispatcher clock (0 = none), stamped at
    // admission from the v2 frame's relative deadline_us.
    std::uint64_t deadline_ns = 0;
    std::vector<std::uint8_t> payload;
  };

  struct CompletionRecord {
    PendingRequest* request = nullptr;
    graftd::Completion completion;
  };

  // A request admitted past the socket, waiting for queue space.
  struct StagedRequest {
    PendingRequest* request = nullptr;
    graftd::GraftId graft = 0;
  };

  struct Conn {
    int fd = -1;
    std::uint64_t gen = 0;
    FrameDecoder decoder;
    std::vector<std::uint8_t> out;  // un-flushed reply bytes
    std::size_t out_pos = 0;        // bytes of `out` already written
    bool want_write = false;        // EPOLLOUT currently armed
    bool read_paused = false;       // EPOLLIN dropped (backpressure)
    std::size_t in_flight = 0;      // pending requests owned by this conn
  };

  struct IoThread {
    std::size_t index = 0;  // position in the pool; stamped into requests
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;

    std::vector<std::unique_ptr<Conn>> conns;  // slot table, index = slot
    std::vector<std::size_t> free_slots;
    // Slots freed during the current event batch; promoted to free_slots
    // at the top of the next loop so a stale epoll event in the same
    // batch can never hit a reused slot.
    std::vector<std::size_t> dead_slots;

    // DRR state: one staging deque + credit counter per tenant.
    std::vector<std::deque<StagedRequest>> staged;
    std::vector<std::int64_t> credit;
    std::size_t drr_start = 0;
    // Read by Stop()'s drain wait from another thread.
    std::atomic<std::size_t> staged_total{0};

    // Set (under inbox_mu) when an injected crash killed this thread:
    // OnCompletion and AddConnection route around it from then on.
    std::atomic<bool> dead{false};

    // Cross-thread inboxes, all drained on eventfd wake (and every loop
    // pass, so a lost wake only delays them by the epoll timeout).
    std::mutex inbox_mu;
    std::vector<CompletionRecord> completions;
    std::vector<int> adopted_fds;
    // Whole connections inherited from a crashed IO thread.
    std::vector<std::unique_ptr<Conn>> adopted_conns;

    // Mechanics counters, guarded by stats_mu (uncontended except while
    // FillTelemetry merges).
    mutable std::mutex stats_mu;
    std::uint64_t decoded_frames = 0;
    std::uint64_t submit_batches = 0;
    graftd::Histogram submit_sizes;
    std::uint64_t wakeups = 0;
  };

  // Per-tenant shared counters (IO threads increment, FillTelemetry reads).
  struct TenantState {
    TenantConfig config;
    std::unique_ptr<TokenBucket> bucket;
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> completed_ok{0};
    std::atomic<std::uint64_t> completed_error{0};
    std::atomic<std::uint64_t> shed_degraded{0};
    std::atomic<std::uint64_t> shed_overload{0};
    std::atomic<std::uint64_t> quota_rejected{0};
    std::atomic<std::uint64_t> breaker_open{0};
    std::atomic<std::uint64_t> retries_deduped{0};

    // Request-id dedup window (see ServerOptions::dedup_window). An entry
    // exists from staging until FIFO eviction; done=false means the
    // original attempt is still in flight.
    struct DedupEntry {
      bool done = false;
      graftd::CompletionStatus status = graftd::CompletionStatus::kOk;
      std::array<std::uint8_t, 8> digest{};
    };
    std::mutex dedup_mu;
    std::unordered_map<std::uint64_t, DedupEntry> dedup;
    std::deque<std::uint64_t> dedup_order;  // FIFO eviction order
  };

  void IoLoop(std::size_t index);
  void HandleListener(IoThread& io);
  void HandleReadable(IoThread& io, std::size_t slot, std::vector<std::uint8_t>& buf);
  void HandleWritable(IoThread& io, std::size_t slot);
  // Decodes every complete frame currently buffered on the conn; returns
  // false if the conn was closed (hostile frame).
  bool DecodeFrames(IoThread& io, std::size_t slot);
  // Admission for one decoded request; stages it or writes a shed reply.
  void AdmitRequest(IoThread& io, std::size_t slot, FrameDecoder::Frame& frame);
  // One kAdminMetrics scrape: admin-tenant check, format byte, reply frame.
  void HandleAdmin(IoThread& io, std::size_t slot, const FrameDecoder::Frame& frame);
  // DRR drain of the staged backlog into the dispatcher.
  void DrainStaged(IoThread& io);
  void ProcessCompletions(IoThread& io);
  void AdoptInbox(IoThread& io);
  void FlushConn(IoThread& io, std::size_t slot);
  void UpdateReadPause(IoThread& io, std::size_t slot);
  void CloseConn(IoThread& io, std::size_t slot);
  void Rearm(IoThread& io, std::size_t slot);
  std::size_t InstallConn(IoThread& io, int fd);
  // Re-registers a connection inherited from a crashed IO thread, keeping
  // its generation, decoder state and write buffer.
  std::size_t InstallAdopted(IoThread& io, std::unique_ptr<Conn> conn);
  void Wake(IoThread& io);
  // Routes a worker-side completion to the owning IO thread's inbox.
  void OnCompletion(PendingRequest* request, const graftd::Completion& completion);
  // Accounts a completion whose IO thread is gone: tenant counters, dedup
  // publication, in_flight — everything but the (impossible) socket reply.
  void AccountOrphan(CompletionRecord& record);
  // Injected whole-IO-thread crash. Returns false (and does nothing) when
  // no other IO thread is alive to adopt the connections.
  bool CrashIoThread(IoThread& io);

  // Dedup window plumbing (all no-ops when dedup_window == 0).
  // Returns true when the frame was answered or swallowed as a duplicate.
  bool DedupCheck(Conn* conn, const FrameHeader& header);
  void DedupStage(std::uint16_t tenant_id, std::uint64_t request_id);
  void DedupResolve(std::uint16_t tenant_id, std::uint64_t request_id,
                    const graftd::Completion& completion);
  // Drops a pending (not-done) entry — the staged attempt died with a
  // crashed IO thread, so a retry must be admitted as a fresh attempt.
  void DedupForget(std::uint16_t tenant_id, std::uint64_t request_id);

  graftd::Dispatcher& dispatcher_;
  const ServerOptions options_;
  std::vector<std::unique_ptr<TenantState>> tenants_;
  std::vector<graftd::GraftId> wire_grafts_;  // wire id -> dispatcher id
  std::vector<std::unique_ptr<IoThread>> io_threads_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> next_io_{0};

  // Shared totals (IO threads increment).
  std::atomic<std::uint64_t> connections_opened_{0};
  std::atomic<std::uint64_t> connections_closed_{0};
  std::atomic<std::uint64_t> frame_errors_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> read_pauses_{0};
  std::atomic<std::uint64_t> slow_reader_closes_{0};
  std::atomic<std::uint64_t> io_thread_crashes_{0};
  std::atomic<std::uint64_t> conns_adopted_{0};
  std::atomic<std::uint64_t> crash_orphans_{0};

  // Serializes injected crashes so two threads can never pick each other
  // as the "survivor" and strand connections on a dead thread.
  std::mutex crash_mu_;

  // Interned trace sites (0 when no tracer).
  tracelab::SiteId site_decode_ = 0;
  tracelab::SiteId site_drain_ = 0;
  tracelab::SiteId site_encode_ = 0;
  tracelab::SiteId site_flush_ = 0;

  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace netfront

#endif  // GRAFTLAB_SRC_NETFRONT_SERVER_H_
