// netfront open-loop load generator.
//
// Drives the epoll front-line service with N simulated client sessions
// multiplexed over a fixed fan of loopback connections, at a fixed
// aggregate request rate that does not slow down when the server does
// (open loop: the latency you measure includes the queueing you caused).
// Each request's latency is measured from its *scheduled* send instant,
// not the actual write, so coordinated omission cannot hide a stall. The
// 8-byte digest prefix of every reply is verified against a precomputed
// MD5 sum of the request payload; a single mismatch fails the run.
//
// Defaults simulate 102,400 sessions over 128 connections; --full raises
// that to 1,048,576 sessions (the "million simulated clients" shape).
// Each session is a logical client with its own identity and connection
// affinity; sessions take turns issuing on their shared socket, so all of
// them are concurrently live across the run window.
//
// Exit codes (the CI gate): 0 ok; 1 p99 above --p99-gate-ms; 2 digest
// mismatch; 3 completion shortfall (replies lost or drained too slowly);
// 5 admin-scrape failure (--obs only).
//
// --obs attaches the obslab observability plane (metrics registry, SLO
// watchdog, flight recorder) through the ServerOptions seams, adds an
// admin tenant (wire tenant 1), and scrapes it over the kAdminMetrics
// frame at the end of the run; --metrics-dump additionally prints the
// full Prometheus exposition.
//
// --chaos=<seed> switches to the seeded chaos soak instead: the server
// runs with a faultlab plan derived purely from the seed (connection
// resets, read/write stalls, torn frames and torn reads, lost eventfd
// wakeups, whole-IO-thread crashes), and the traffic comes from
// self-healing netfront::Client instances (retry + reconnect + idempotent
// resubmission against the server's dedup window). The soak asserts the
// chaos invariants — every session exactly one terminal outcome, no
// duplicated side effects (accepted <= sessions under dedup), every
// verified digest correct, accepted == completed after drain, and the
// server neither hangs nor crashes — and writes BENCH_chaos.json
// (schema in EXPERIMENTS.md). Same seed, same fault plan, every run.
// Chaos always runs with the obslab plane attached: injected io-thread
// crashes land flight-recorder snapshots (flightrec_*.json), and the run
// ends with an admin-scrape delta (faults injected vs requests shed vs
// breaker opens vs snapshots written) read over the wire.
// Chaos exit codes: 0 ok; 2 digest mismatch; 4 invariant violation
// (including a failed admin scrape).

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/technology.h"
#include "src/faultlab/fault.h"
#include "src/faultlab/injector.h"
#include "src/graftd/dispatcher.h"
#include "src/graftd/histogram.h"
#include "src/graftd/telemetry.h"
#include "src/grafts/factory.h"
#include "src/md5/md5.h"
#include "src/netfront/client.h"
#include "src/netfront/server.h"
#include "src/netfront/wire.h"
#include "src/obslab/plane.h"
#include "src/obslab/registry.h"
#include "src/obslab/snapshot.h"

namespace {

// epoll tag of the pacing timer; connections are tagged by their index.
constexpr std::uint64_t kPaceTimerTag = ~0ull;

struct Flags {
  std::uint64_t sessions = 102'400;
  std::uint64_t conns = 128;
  std::uint64_t rate = 25'000;  // aggregate requests/sec, open loop
  double seconds = 5.0;
  double p99_gate_ms = 250.0;  // 0 disables the latency gate
  std::size_t io_threads = 2;
  std::size_t workers = 2;
  bool chaos = false;
  std::uint64_t chaos_seed = 0;
  std::uint64_t chaos_clients = 8;  // concurrent self-healing clients
  bool sessions_set = false;
  bool obs = false;           // attach the obslab plane + admin tenant
  bool metrics_dump = false;  // print the final Prometheus scrape (implies --obs)

  static Flags Parse(int argc, char** argv) {
    Flags flags;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--full") == 0) {
        flags.sessions = 1u << 20;
        flags.rate = 60'000;
        flags.seconds = 20.0;
      } else if (std::strncmp(arg, "--chaos=", 8) == 0) {
        flags.chaos = true;
        flags.chaos_seed = std::strtoull(arg + 8, nullptr, 10);
      } else if (std::strncmp(arg, "--chaos-clients=", 16) == 0) {
        flags.chaos_clients = std::strtoull(arg + 16, nullptr, 10);
      } else if (std::strncmp(arg, "--sessions=", 11) == 0) {
        flags.sessions = std::strtoull(arg + 11, nullptr, 10);
        flags.sessions_set = true;
      } else if (std::strncmp(arg, "--conns=", 8) == 0) {
        flags.conns = std::strtoull(arg + 8, nullptr, 10);
      } else if (std::strncmp(arg, "--rate=", 7) == 0) {
        flags.rate = std::strtoull(arg + 7, nullptr, 10);
      } else if (std::strncmp(arg, "--seconds=", 10) == 0) {
        flags.seconds = std::strtod(arg + 10, nullptr);
      } else if (std::strncmp(arg, "--p99-gate-ms=", 14) == 0) {
        flags.p99_gate_ms = std::strtod(arg + 14, nullptr);
      } else if (std::strncmp(arg, "--io-threads=", 13) == 0) {
        flags.io_threads = std::strtoull(arg + 13, nullptr, 10);
      } else if (std::strncmp(arg, "--workers=", 10) == 0) {
        flags.workers = std::strtoull(arg + 10, nullptr, 10);
      } else if (std::strcmp(arg, "--obs") == 0) {
        flags.obs = true;
      } else if (std::strcmp(arg, "--metrics-dump") == 0) {
        flags.metrics_dump = true;
        flags.obs = true;
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", arg);
        std::exit(64);
      }
    }
    flags.sessions = std::max<std::uint64_t>(flags.sessions, 1);
    flags.conns = std::clamp<std::uint64_t>(flags.conns, 1, 4096);
    flags.conns = std::min(flags.conns, flags.sessions);
    flags.rate = std::max<std::uint64_t>(flags.rate, 100);
    return flags;
  }
};

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// A handful of payload shapes cycled round-robin; the expected reply
// digest for each is precomputed once, so verification is an 8-byte
// memcmp on the hot path.
struct Variant {
  std::vector<std::uint8_t> payload;
  md5::Digest digest;
};

std::vector<Variant> MakeVariants() {
  const std::size_t sizes[] = {64, 192, 320, 448, 704, 960, 1536, 2048};
  std::vector<Variant> variants;
  for (std::size_t v = 0; v < sizeof(sizes) / sizeof(sizes[0]); ++v) {
    Variant variant;
    variant.payload.resize(sizes[v]);
    for (std::size_t i = 0; i < sizes[v]; ++i) {
      variant.payload[i] = static_cast<std::uint8_t>(31 * v + 7 * i + 3);
    }
    variant.digest = md5::Sum({variant.payload.data(), variant.payload.size()});
    variants.push_back(std::move(variant));
  }
  return variants;
}

// One loopback socket carrying many sessions' traffic.
struct ClientConn {
  int fd = -1;
  netfront::FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
};

bool FlushConn(ClientConn& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t wrote = send(conn.fd, conn.out.data() + conn.out_pos,
                               conn.out.size() - conn.out_pos, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;  // interrupted by a signal, not an error
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;  // kernel buffer full: the open loop keeps queueing locally
      }
      return false;
    }
    conn.out_pos += static_cast<std::size_t>(wrote);
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
  } else if (conn.out_pos > (1u << 20)) {
    conn.out.erase(conn.out.begin(),
                   conn.out.begin() + static_cast<std::ptrdiff_t>(conn.out_pos));
    conn.out_pos = 0;
  }
  return true;
}

// One admin scrape with a few attempts: under chaos the scrape connection
// itself can eat an injected reset, and AdminScrape deliberately has no
// internal retries.
bool ScrapeWithRetry(netfront::Client& client, std::string& out) {
  for (int attempt = 0; attempt < 10; ++attempt) {
    if (client.AdminScrape(obslab::kFormatPrometheus, out)) {
      return true;
    }
  }
  return false;
}

// Standard two-tenant table for --obs runs: tenant 0 is the traffic
// tenant (the implicit default the server would create on its own, plus
// an SLO target so the watchdog has something to watch), tenant 1 is the
// quota-exempt scrape identity.
std::vector<netfront::TenantConfig> ObsTenants() {
  std::vector<netfront::TenantConfig> tenants(2);
  tenants[0].slo_p99_us = 50'000.0;  // generous: service time, not queueing
  tenants[1].name = "admin";
  tenants[1].admin = true;
  return tenants;
}

// Wires the plane's netfront seams into the server options (the server
// never links obslab; it only sees these std::functions).
void WirePlane(obslab::Plane& plane, netfront::ServerOptions& sopts) {
  sopts.tenants = ObsTenants();
  sopts.admin_metrics = [&plane](std::uint8_t format) { return plane.Exposition(format); };
  sopts.obs_event = [&plane](const char* event) { plane.OnServerEvent(event); };
  sopts.obs_latency = [&plane](std::uint16_t tenant, std::uint64_t elapsed_ns) {
    plane.OnTenantLatency(tenant, elapsed_ns);
  };
  for (std::size_t t = 0; t < sopts.tenants.size(); ++t) {
    plane.slo().AddTenant(t, sopts.tenants[t].name, sopts.tenants[t].slo_p99_us);
  }
}

// splitmix64: the chaos plan must be a pure function of the seed, so all
// randomness in its derivation comes from this stream and nothing else.
std::uint64_t Mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Derives the seeded fault schedule. Same seed, same specs, same order —
// and every_nth triggers count per-site hits, so the injection *sequence*
// at each site is the same too. Every site the server exposes gets at
// least one spec; the trigger cadences and budgets vary with the seed.
faultlab::FaultPlan ChaosPlan(std::uint64_t seed) {
  std::uint64_t s = seed ^ 0xC4A05306C0C0DE5Eull;
  faultlab::FaultPlan plan;
  plan.seed = seed;
  auto add = [&plan](const char* site, faultlab::FaultKind kind, std::uint64_t every_nth,
                     std::uint64_t budget, double param) {
    faultlab::FaultSpec spec;
    spec.site = site;
    spec.kind = kind;
    spec.every_nth = every_nth;
    spec.budget = budget;
    spec.param = param;
    plan.Add(std::move(spec));
  };
  // Connection resets on the read path: the dominant chaos (clients see
  // mid-stream closes and must reconnect + resubmit).
  add("netfront/read", faultlab::FaultKind::kTransientError, 13 + Mix64(s) % 24,
      60 + Mix64(s) % 60, 0.0);
  // Read stalls: the owning IO thread blocks for param microseconds.
  add("netfront/read", faultlab::FaultKind::kLatencySpike, 17 + Mix64(s) % 30,
      20 + Mix64(s) % 20, static_cast<double>(500 + Mix64(s) % 2500));
  // Torn reads: deliver one byte, exercising resume-from-any-boundary.
  add("netfront/read", faultlab::FaultKind::kTornWrite, 5 + Mix64(s) % 8, 200 + Mix64(s) % 200,
      0.0);
  // Torn frame decode: the decoder sees every byte boundary of a chunk.
  add("netfront/frame", faultlab::FaultKind::kTornWrite, 7 + Mix64(s) % 10,
      100 + Mix64(s) % 100, 0.0);
  // Write-side resets: replies vanish after the body ran — the retry must
  // be deduped, not re-executed.
  add("netfront/write", faultlab::FaultKind::kTransientError, 19 + Mix64(s) % 30,
      40 + Mix64(s) % 40, 0.0);
  // Short writes: only a fraction of the reply backlog leaves per flush.
  add("netfront/write", faultlab::FaultKind::kTornWrite, 6 + Mix64(s) % 8, 150 + Mix64(s) % 150,
      0.25 + static_cast<double>(Mix64(s) % 50) / 100.0);
  // Lost eventfd wakeups: completions must still drain via the loop-bottom
  // sweep bounded by the epoll timeout.
  add("netfront/eventfd", faultlab::FaultKind::kTransientError, 3 + Mix64(s) % 5,
      100 + Mix64(s) % 100, 0.0);
  // IO-thread crashes: survivors adopt the dead thread's connections.
  add("netfront/io_thread", faultlab::FaultKind::kCrash, 400 + Mix64(s) % 400, 2, 0.0);
  return plan;
}

// The seeded chaos soak (--chaos=<seed>). Returns the process exit code.
int RunChaos(const Flags& flags) {
  const std::uint64_t sessions = flags.sessions_set ? flags.sessions : 4000;
  const std::uint64_t n_clients = std::clamp<std::uint64_t>(flags.chaos_clients, 1, 64);

  bench::PrintHeader("netfront chaos soak",
                     "seeded fault injection + self-healing clients (DESIGN.md par. 13)");

  const faultlab::FaultPlan plan = ChaosPlan(flags.chaos_seed);
  faultlab::Injector injector(plan);
  std::printf("seed=%llu sessions=%llu clients=%llu — fault plan:\n",
              static_cast<unsigned long long>(flags.chaos_seed),
              static_cast<unsigned long long>(sessions),
              static_cast<unsigned long long>(n_clients));
  for (const faultlab::FaultSpec& spec : plan.specs) {
    std::printf("  %-18s %-9s every_nth=%-4llu budget=%-4llu param=%.2f\n", spec.site.c_str(),
                faultlab::FaultKindName(spec.kind),
                static_cast<unsigned long long>(spec.every_nth),
                static_cast<unsigned long long>(spec.budget), spec.param);
  }
  std::printf("\n");

  graftd::DispatcherOptions dopts;
  dopts.workers = flags.workers;
  graftd::Dispatcher dispatcher(dopts);
  const graftd::GraftId md5_id =
      dispatcher.RegisterStreamGraft("md5", [](envs::PreemptToken* preempt) {
        return grafts::CreateMd5Graft(core::Technology::kC, preempt);
      });

  // Chaos always runs with the plane attached: the soak is exactly the
  // situation the flight recorder and admin scrape exist for.
  obslab::Plane plane;
  plane.Attach(dispatcher);
  plane.AttachInjector(&injector);

  netfront::ServerOptions sopts;
  // At least 4 IO threads so the plan's 2 crash budgets always leave
  // survivors to adopt the dead threads' connections.
  sopts.io_threads = std::max<std::size_t>(flags.io_threads, 4);
  sopts.staging_high = 4096;
  sopts.injector = &injector;
  // The dedup window is what turns client retries into exactly-once-visible
  // work; size it past the session count so nothing hot is ever evicted.
  sopts.dedup_window = 8192;
  WirePlane(plane, sopts);
  netfront::Server server(dispatcher, sopts);
  const std::uint32_t wire_md5 = server.ExposeGraft(md5_id);
  plane.AddNetfrontCollector(
      [&server](graftd::NetfrontSection& section) { server.FillTelemetry(section); });
  if (!server.ListenTcp(0)) {
    std::fprintf(stderr, "loadgen: ListenTcp failed\n");
    return 70;
  }
  server.Start();

  // Baseline admin scrape, for the end-of-run delta.
  netfront::ClientOptions admin_opts;
  admin_opts.port = server.port();
  admin_opts.tenant = 1;  // the admin identity in ObsTenants()
  admin_opts.seed = flags.chaos_seed ^ 0xAD31ull;
  netfront::Client admin(admin_opts);
  std::string scrape_before;
  const bool scraped_before = ScrapeWithRetry(admin, scrape_before);

  const auto variants = MakeVariants();
  struct ClientOutcome {
    std::uint64_t ok = 0;
    std::uint64_t terminal_err = 0;
    std::uint64_t gave_up = 0;   // timed out / no server answer
    std::uint64_t mismatches = 0;
    std::uint64_t no_outcome = 0;  // Result violating exactly-one (bug)
    std::uint64_t checksum = 0;
    netfront::Client::Stats stats;
    graftd::Histogram latency;
  };
  std::vector<ClientOutcome> outcomes(n_clients);

  const std::uint64_t start = NowNs();
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < n_clients; ++t) {
    threads.emplace_back([&, t]() {
      netfront::ClientOptions copts;
      copts.port = server.port();
      copts.tenant = 0;
      copts.seed = flags.chaos_seed * 0x100000001B3ull + t + 1;
      copts.attempt_timeout = std::chrono::milliseconds(250);
      copts.max_retries = 3;
      netfront::Client client(copts);
      ClientOutcome& mine = outcomes[t];
      // Sessions are striped across clients; each is one Call().
      for (std::uint64_t session = t; session < sessions; session += n_clients) {
        const Variant& variant = variants[session % variants.size()];
        const std::uint64_t t0 = NowNs();
        const netfront::Client::Result result =
            client.Call(wire_md5, variant.payload.data(), variant.payload.size());
        mine.latency.Record(NowNs() - t0);
        const int outcome_count = (result.ok ? 1 : 0) + (result.timed_out ? 1 : 0) +
                                  (result.error != netfront::ErrorCode::kNone ? 1 : 0);
        if (outcome_count != 1) {
          ++mine.no_outcome;
        } else if (result.ok) {
          if (std::memcmp(result.digest.data(), variant.digest.data(), 8) != 0) {
            ++mine.mismatches;
          } else {
            ++mine.ok;
            mine.checksum += bench::Checksum(result.digest.data(), result.digest.size());
          }
        } else if (result.timed_out) {
          ++mine.gave_up;
        } else {
          ++mine.terminal_err;
        }
      }
      mine.stats = client.stats();
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const std::uint64_t wall_ns = NowNs() - start;

  // Drain: clients are done, but requests whose connections died may still
  // be in flight. accepted == completed must hold once the server settles;
  // a server that cannot settle within the grace window has hung, which is
  // itself an invariant violation.
  bool drained = false;
  graftd::TelemetrySnapshot snapshot;
  const std::uint64_t drain_deadline = NowNs() + 10'000'000'000ull;
  while (NowNs() < drain_deadline) {
    snapshot = dispatcher.Snapshot();
    server.FillTelemetry(snapshot.netfront);
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;
    for (const auto& tenant : snapshot.netfront.tenants) {
      accepted += tenant.accepted;
      completed += tenant.completed_ok + tenant.completed_error;
    }
    if (completed >= accepted) {
      drained = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Final admin scrape over the wire (not a local registry read: this also
  // proves the kAdminMetrics path survived the soak), then the delta.
  std::string scrape_after;
  const bool scraped_after = ScrapeWithRetry(admin, scrape_after);
  server.Stop();
  snapshot = dispatcher.Snapshot();
  server.FillTelemetry(snapshot.netfront);
  std::printf("%s\n", obslab::SnapshotText(snapshot).c_str());

  bench::PrintSection("admin-scrape delta (chaos accounting over the wire)");
  bool scrape_ok = scraped_before && scraped_after;
  if (scrape_ok) {
    auto delta = [&](const char* metric) {
      return obslab::SeriesSum(scrape_after, metric).value_or(0.0) -
             obslab::SeriesSum(scrape_before, metric).value_or(0.0);
    };
    const double d_injections = delta("graftlab_fault_injections_total");
    const double d_sheds = delta("graftlab_tenant_shed_degraded_total") +
                           delta("graftlab_tenant_shed_overload_total") +
                           delta("graftlab_tenant_quota_rejected_total");
    const double d_breaker = delta("graftlab_breaker_opens_total");
    const double d_snapshots = delta("graftlab_flightrec_snapshots_total");
    const double d_crashes = delta("graftlab_net_io_thread_crashes_total");
    std::printf("  faults injected       %8.0f\n", d_injections);
    std::printf("  requests shed         %8.0f\n", d_sheds);
    std::printf("  breaker opens         %8.0f\n", d_breaker);
    std::printf("  io-thread crashes     %8.0f\n", d_crashes);
    std::printf("  flightrec snapshots   %8.0f  (+%0.f suppressed)\n\n", d_snapshots,
                delta("graftlab_flightrec_suppressed_total"));
    // Every adopted crash must have produced (or rate-limited into) a
    // flight-recorder trigger; with the 1s min interval and a fresh
    // process the first crash always lands a file.
    if (d_crashes > 0 && plane.recorder().snapshots_written() == 0) {
      std::printf("  WARNING: crashes observed but no flight-recorder snapshot written\n");
      scrape_ok = false;
    }
  } else {
    std::printf("  admin scrape FAILED (before=%d after=%d)\n", scraped_before ? 1 : 0,
                scraped_after ? 1 : 0);
  }
  if (flags.metrics_dump && scraped_after) {
    std::printf("--- final scrape (Prometheus text) ---\n%s\n", scrape_after.c_str());
  }

  // --- fault events actually injected ---
  bench::PrintSection("injected faults (per site)");
  const std::uint64_t fault_events = injector.total_injected();
  for (const auto& site : injector.Counters()) {
    std::printf("  %-18s hits=%-8llu injected=%llu\n", site.site.c_str(),
                static_cast<unsigned long long>(site.hits),
                static_cast<unsigned long long>(site.injected));
  }
  std::printf("  total injected: %llu\n\n", static_cast<unsigned long long>(fault_events));

  // --- aggregate client outcomes ---
  ClientOutcome total;
  graftd::Histogram latency;
  for (const ClientOutcome& mine : outcomes) {
    total.ok += mine.ok;
    total.terminal_err += mine.terminal_err;
    total.gave_up += mine.gave_up;
    total.mismatches += mine.mismatches;
    total.no_outcome += mine.no_outcome;
    total.checksum += mine.checksum;
    total.stats.calls += mine.stats.calls;
    total.stats.retries += mine.stats.retries;
    total.stats.reconnects += mine.stats.reconnects;
    total.stats.timeouts += mine.stats.timeouts;
    total.stats.shed_retries += mine.stats.shed_retries;
    latency.Merge(mine.latency);
  }
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t deduped = 0;
  for (const auto& tenant : snapshot.netfront.tenants) {
    accepted += tenant.accepted;
    completed += tenant.completed_ok + tenant.completed_error;
    deduped += tenant.retries_deduped;
  }
  const double success_rate =
      sessions > 0 ? static_cast<double>(total.ok) / static_cast<double>(sessions) : 0.0;
  const double p99_us = latency.PercentileUs(99);

  bench::PrintSection("self-healing client aggregate");
  std::printf("sessions %llu: ok %llu, terminal errors %llu, gave up %llu "
              "(success rate %.4f)\n",
              static_cast<unsigned long long>(sessions),
              static_cast<unsigned long long>(total.ok),
              static_cast<unsigned long long>(total.terminal_err),
              static_cast<unsigned long long>(total.gave_up), success_rate);
  std::printf("retries %llu, reconnects %llu, timeouts %llu, shed retries %llu, "
              "server-deduped %llu\n",
              static_cast<unsigned long long>(total.stats.retries),
              static_cast<unsigned long long>(total.stats.reconnects),
              static_cast<unsigned long long>(total.stats.timeouts),
              static_cast<unsigned long long>(total.stats.shed_retries),
              static_cast<unsigned long long>(deduped));
  std::printf("per-call p50 %.1fus  p99 %.1fus  max %.1fus  wall %.2fs\n\n",
              latency.PercentileUs(50), p99_us, static_cast<double>(latency.max) / 1e3,
              static_cast<double>(wall_ns) / 1e9);

  bench::JsonReport report("chaos");
  report.Add("chaos_sessions", sessions,
             sessions > 0 ? static_cast<double>(wall_ns) / static_cast<double>(sessions) : 0.0,
             total.checksum);
  report.Add("chaos_fault_events", fault_events, 0.0, flags.chaos_seed);
  // success rate is reported in parts-per-million in the ns_per_op slot
  // (the schema's only double); EXPERIMENTS.md documents this.
  report.Add("chaos_success_rate_ppm", total.ok, success_rate * 1e6, total.checksum);
  report.AddUs("chaos_call_p99", sessions, p99_us, total.checksum);
  report.Add("chaos_retries", total.stats.retries, 0.0, total.checksum);
  report.Add("chaos_reconnects", total.stats.reconnects, 0.0, total.checksum);
  report.Add("chaos_retries_deduped", deduped, 0.0, total.checksum);
  report.Write();

  // --- the chaos invariants ---
  int exit_code = 0;
  const std::uint64_t outcome_total = total.ok + total.terminal_err + total.gave_up;
  if (total.no_outcome == 0 && outcome_total + total.mismatches == sessions) {
    std::printf("INVARIANT outcomes: PASS (every session exactly one terminal outcome)\n");
  } else {
    std::printf("INVARIANT outcomes: FAIL (%llu/%llu accounted, %llu ill-formed)\n",
                static_cast<unsigned long long>(outcome_total),
                static_cast<unsigned long long>(sessions),
                static_cast<unsigned long long>(total.no_outcome));
    exit_code = 4;
  }
  if (total.mismatches == 0) {
    std::printf("INVARIANT digests: PASS (all %llu verified replies correct)\n",
                static_cast<unsigned long long>(total.ok));
  } else {
    std::printf("INVARIANT digests: FAIL (%llu mismatches)\n",
                static_cast<unsigned long long>(total.mismatches));
    exit_code = exit_code == 0 ? 2 : exit_code;
  }
  // Dedup makes retries of one call at-most-once-admitted, so admissions
  // can never exceed distinct sessions; a duplicate admission (the seed of
  // a duplicated side effect) trips this.
  if (accepted <= sessions) {
    std::printf("INVARIANT no-duplicates: PASS (%llu admissions <= %llu sessions, "
                "%llu retries deduped)\n",
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(sessions),
                static_cast<unsigned long long>(deduped));
  } else {
    std::printf("INVARIANT no-duplicates: FAIL (%llu admissions > %llu sessions)\n",
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(sessions));
    exit_code = 4;
  }
  if (drained && completed >= accepted) {
    std::printf("INVARIANT drain: PASS (accepted %llu == completed %llu, server settled)\n",
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(completed));
  } else {
    std::printf("INVARIANT drain: FAIL (accepted %llu, completed %llu after grace window)\n",
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(completed));
    exit_code = 4;
  }
  if (scrape_ok) {
    std::printf("INVARIANT admin-scrape: PASS (wire scrape served before and after the soak)\n");
  } else {
    std::printf("INVARIANT admin-scrape: FAIL\n");
    exit_code = 4;
  }
  std::printf("%s\n", exit_code == 0 ? "CHAOS SOAK: PASS" : "CHAOS SOAK: FAIL");
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (flags.chaos) {
    return RunChaos(flags);
  }

  bench::PrintHeader("netfront open-loop load generator",
                     "service front line for graft dispatch (DESIGN.md, netfront section)");

  // --- server side: dispatcher + netfront over loopback ---
  graftd::DispatcherOptions dopts;
  dopts.workers = flags.workers;
  graftd::Dispatcher dispatcher(dopts);
  const graftd::GraftId md5_id =
      dispatcher.RegisterStreamGraft("md5", [](envs::PreemptToken* preempt) {
        return grafts::CreateMd5Graft(core::Technology::kC, preempt);
      });

  std::unique_ptr<obslab::Plane> plane;
  if (flags.obs) {
    plane = std::make_unique<obslab::Plane>();
    plane->Attach(dispatcher);
  }

  netfront::ServerOptions sopts;
  sopts.io_threads = flags.io_threads;
  sopts.staging_high = 4096;  // open loop bursts; shed only on real pileups
  if (plane != nullptr) {
    WirePlane(*plane, sopts);
  }
  netfront::Server server(dispatcher, sopts);
  const std::uint32_t wire_md5 = server.ExposeGraft(md5_id);
  if (plane != nullptr) {
    plane->AddNetfrontCollector(
        [&server](graftd::NetfrontSection& section) { server.FillTelemetry(section); });
  }
  if (!server.ListenTcp(0)) {
    std::fprintf(stderr, "loadgen: ListenTcp failed\n");
    return 70;
  }
  server.Start();

  // --- client side: conns fan, each carrying sessions/conns sessions ---
  const auto variants = MakeVariants();
  std::vector<ClientConn> conns(flags.conns);
  const int client_epoll = epoll_create1(0);
  for (std::size_t c = 0; c < conns.size(); ++c) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    if (fd < 0 || connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      std::fprintf(stderr, "loadgen: connect %zu failed: %s\n", c, std::strerror(errno));
      return 70;
    }
    const int flags_now = fcntl(fd, F_GETFL, 0);
    fcntl(fd, F_SETFL, flags_now | O_NONBLOCK);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns[c].fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    epoll_ctl(client_epoll, EPOLL_CTL_ADD, fd, &ev);
  }
  // The pacing clock: armed to the next scheduled send, so a request
  // leaves within the timer slack of its instant instead of waiting for
  // the next millisecond tick of epoll_wait. steady_clock (NowNs) is
  // CLOCK_MONOTONIC on Linux, so the absolute times line up.
  const int pace_timer = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (pace_timer < 0) {
    std::fprintf(stderr, "loadgen: timerfd_create failed: %s\n", std::strerror(errno));
    return 70;
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kPaceTimerTag;
    epoll_ctl(client_epoll, EPOLL_CTL_ADD, pace_timer, &ev);
  }

  // Every session must issue at least once for the concurrency claim to
  // mean anything; stretch the run if the rate can't cover them in time.
  const std::uint64_t total = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(static_cast<double>(flags.rate) * flags.seconds),
      flags.sessions);
  const double ns_per_req = 1e9 / static_cast<double>(flags.rate);

  std::printf("sessions=%llu conns=%llu rate=%llu/s target=%llu requests "
              "(io_threads=%zu workers=%zu)\n\n",
              static_cast<unsigned long long>(flags.sessions),
              static_cast<unsigned long long>(flags.conns),
              static_cast<unsigned long long>(flags.rate),
              static_cast<unsigned long long>(total), flags.io_threads, flags.workers);

  graftd::Histogram latency;
  std::vector<std::uint8_t> session_hit(flags.sessions, 0);
  std::uint64_t sessions_served = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t completed_err = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t checksum = 0;

  const std::uint64_t start = NowNs();
  // Request k is due at this instant; latency is measured from it.
  const auto scheduled_ns = [&](std::uint64_t k) {
    return start + static_cast<std::uint64_t>(static_cast<double>(k) * ns_per_req);
  };
  // Replies must drain within a grace window after the last send; a stuck
  // server fails the completion gate instead of hanging the bench.
  const std::uint64_t drain_deadline = scheduled_ns(total) + 10'000'000'000ull;

  std::uint8_t rxbuf[64 << 10];
  epoll_event events[64];
  for (;;) {
    const std::uint64_t now = NowNs();

    // Open-loop pacing: everything scheduled before `now` is sent now,
    // regardless of how far behind the server is.
    if (issued < total) {
      const std::uint64_t due = std::min<std::uint64_t>(
          total, static_cast<std::uint64_t>(static_cast<double>(now - start) / ns_per_req) + 1);
      for (; issued < due; ++issued) {
        const std::uint64_t session = issued % flags.sessions;
        ClientConn& conn = conns[session % flags.conns];
        const Variant& variant = variants[issued % variants.size()];
        netfront::AppendRequest(conn.out, /*tenant=*/0, wire_md5, issued,
                                variant.payload.data(), variant.payload.size());
      }
    }
    for (ClientConn& conn : conns) {
      if (!conn.out.empty() && !FlushConn(conn)) {
        std::fprintf(stderr, "loadgen: send failed: %s\n", std::strerror(errno));
        return 70;
      }
    }

    if (issued < total) {
      const std::uint64_t next = scheduled_ns(issued);
      itimerspec when{};
      when.it_value.tv_sec = static_cast<time_t>(next / 1'000'000'000ull);
      when.it_value.tv_nsec = static_cast<long>(next % 1'000'000'000ull);
      timerfd_settime(pace_timer, TFD_TIMER_ABSTIME, &when, nullptr);
    }

    const int ready = epoll_wait(client_epoll, events, 64, 20);
    const std::uint64_t recv_now = NowNs();
    for (int e = 0; e < ready; ++e) {
      if (events[e].data.u64 == kPaceTimerTag) {
        std::uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t drained =
            read(pace_timer, &expirations, sizeof(expirations));
        continue;
      }
      ClientConn& conn = conns[events[e].data.u64];
      for (;;) {
        const ssize_t got = recv(conn.fd, rxbuf, sizeof(rxbuf), MSG_DONTWAIT);
        if (got < 0 && errno == EINTR) {
          continue;  // interrupted, not drained: try the same socket again
        }
        if (got <= 0) {
          break;
        }
        conn.decoder.Feed(rxbuf, static_cast<std::size_t>(got));
        netfront::FrameDecoder::Frame frame;
        while (conn.decoder.Next(frame) == netfront::FrameDecoder::Result::kFrame) {
          const std::uint64_t k = frame.header.request_id;
          if (frame.header.type == netfront::FrameType::kResponse && frame.payload.size() == 8) {
            const Variant& variant = variants[k % variants.size()];
            if (std::memcmp(frame.payload.data(), variant.digest.data(), 8) != 0) {
              ++mismatches;
            } else {
              ++completed_ok;
              checksum += bench::Checksum(frame.payload.data(), frame.payload.size());
              const std::uint64_t scheduled = scheduled_ns(k);
              latency.Record(recv_now > scheduled ? recv_now - scheduled : 0);
              std::uint8_t& hit = session_hit[k % flags.sessions];
              if (hit == 0) {
                hit = 1;
                ++sessions_served;
              }
            }
          } else {
            ++completed_err;
          }
        }
        if (conn.decoder.failed()) {
          std::fprintf(stderr, "loadgen: reply stream poisoned: %s\n", conn.decoder.error().c_str());
          return 70;
        }
      }
    }

    const std::uint64_t accounted = completed_ok + completed_err + mismatches;
    if (issued >= total && accounted >= total) {
      break;
    }
    if (NowNs() > drain_deadline) {
      std::fprintf(stderr, "loadgen: drain timeout with %llu replies outstanding\n",
                   static_cast<unsigned long long>(total - accounted));
      break;
    }
  }
  const std::uint64_t wall_ns = NowNs() - start;

  // Admin scrape over the wire while the server is still up: the CI
  // obs-smoke job greps this output for the metric schema.
  bool scrape_ok = true;
  std::string scrape;
  if (plane != nullptr) {
    netfront::ClientOptions admin_opts;
    admin_opts.port = server.port();
    admin_opts.tenant = 1;  // the admin identity in ObsTenants()
    netfront::Client admin(admin_opts);
    scrape_ok = ScrapeWithRetry(admin, scrape) &&
                scrape.find("graftlab_graft_invocations_total") != std::string::npos &&
                scrape.find("graftlab_tenant_accepted_total") != std::string::npos;
  }

  for (ClientConn& conn : conns) {
    close(conn.fd);
  }
  close(pace_timer);
  close(client_epoll);
  server.Stop();

  // --- report ---
  graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  server.FillTelemetry(snapshot.netfront);
  std::printf("%s\n", obslab::SnapshotText(snapshot).c_str());

  const double p50_us = latency.PercentileUs(50);
  const double p99_us = latency.PercentileUs(99);
  const double p999_us = latency.PercentileUs(99.9);
  const double wall_s = static_cast<double>(wall_ns) / 1e9;
  bench::PrintSection("open-loop latency (from scheduled send)");
  std::printf("issued %llu, ok %llu, errors %llu, mismatches %llu in %.2fs "
              "(%.0f req/s achieved)\n",
              static_cast<unsigned long long>(issued),
              static_cast<unsigned long long>(completed_ok),
              static_cast<unsigned long long>(completed_err),
              static_cast<unsigned long long>(mismatches), wall_s,
              static_cast<double>(completed_ok) / wall_s);
  std::printf("sessions served: %llu / %llu\n",
              static_cast<unsigned long long>(sessions_served),
              static_cast<unsigned long long>(flags.sessions));
  std::printf("p50 %.1fus  p99 %.1fus  p999 %.1fus  max %.1fus\n\n", p50_us, p99_us, p999_us,
              static_cast<double>(latency.max) / 1e3);

  bench::JsonReport report("netfront");
  report.AddUs("netfront_open_loop_p50", completed_ok, p50_us, checksum);
  report.AddUs("netfront_open_loop_p99", completed_ok, p99_us, checksum);
  report.AddUs("netfront_open_loop_p999", completed_ok, p999_us, checksum);
  report.Add("netfront_throughput", completed_ok,
             completed_ok > 0 ? static_cast<double>(wall_ns) / static_cast<double>(completed_ok)
                              : 0.0,
             checksum);
  report.Add("netfront_sessions_served", sessions_served,
             sessions_served > 0
                 ? static_cast<double>(wall_ns) / static_cast<double>(sessions_served)
                 : 0.0,
             checksum);
  report.Write();

  // --- gates ---
  int exit_code = 0;
  if (mismatches > 0) {
    std::printf("GATE digest: FAIL (%llu mismatched replies)\n",
                static_cast<unsigned long long>(mismatches));
    exit_code = 2;
  } else {
    std::printf("GATE digest: PASS (all %llu replies verified)\n",
                static_cast<unsigned long long>(completed_ok));
  }
  const double p99_ms = p99_us / 1e3;
  if (flags.p99_gate_ms > 0 && p99_ms > flags.p99_gate_ms) {
    std::printf("GATE p99 <= %.0fms: FAIL (%.2fms)\n", flags.p99_gate_ms, p99_ms);
    if (exit_code == 0) {
      exit_code = 1;
    }
  } else if (flags.p99_gate_ms > 0) {
    std::printf("GATE p99 <= %.0fms: PASS (%.2fms)\n", flags.p99_gate_ms, p99_ms);
  }
  if (plane != nullptr) {
    if (scrape_ok) {
      std::printf("GATE admin-scrape: PASS (%zu bytes, schema verified)\n", scrape.size());
    } else {
      std::printf("GATE admin-scrape: FAIL\n");
      if (exit_code == 0) {
        exit_code = 5;
      }
    }
    if (flags.metrics_dump) {
      std::printf("--- final scrape (Prometheus text) ---\n%s\n", scrape.c_str());
    }
  }
  // Lost replies (or sessions that never got one) mean the front line
  // dropped work on the floor — shed-with-an-error-frame is accounted
  // above and does NOT trip this.
  const std::uint64_t accounted = completed_ok + completed_err + mismatches;
  if (accounted < total || sessions_served < flags.sessions) {
    std::printf("GATE completion: FAIL (%llu/%llu replies, %llu/%llu sessions)\n",
                static_cast<unsigned long long>(accounted),
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(sessions_served),
                static_cast<unsigned long long>(flags.sessions));
    if (exit_code == 0) {
      exit_code = 3;
    }
  } else {
    std::printf("GATE completion: PASS (%llu/%llu replies, all sessions served)\n",
                static_cast<unsigned long long>(accounted),
                static_cast<unsigned long long>(total));
  }
  return exit_code;
}
