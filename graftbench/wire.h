// The served request: netfront::Server -> graftd::Dispatcher -> md5 graft,
// driven over loopback TCP by a single-threaded generator.

#ifndef GRAFTBENCH_WIRE_H_
#define GRAFTBENCH_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graftbench/common.h"
#include "src/graftd/telemetry.h"

namespace graftbench {

// The served stack and the generator's shape, shared by both workloads.
inline constexpr std::size_t kConns = 4;
inline constexpr std::size_t kIoThreads = 2;
inline constexpr std::size_t kWorkers = 2;
// Closed loop: outstanding requests per connection.
inline constexpr std::size_t kDepth = 8;
// Open loop: mean requests per second, Poisson arrivals. The whole run
// shares one CPU; 10k/s would leave it no idle time once the workers'
// spin-before-park is counted.
inline constexpr std::uint64_t kOpenRate = 5'000;
// The first second of every wire run is excluded from every wire metric.
inline constexpr double kWarmupS = 1.0;

struct WireConfig {
  std::uint64_t seed = 1;  // open loop: the arrival times
  bool open_loop = true;
  // Known slowdown: the served graft spins this long per Consume before
  // delegating to C md5 (the benchmark's own sensitivity check).
  std::uint64_t inject_ns = 0;
};

struct WireResult {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;      // error and shed frames
  std::uint64_t mismatches = 0;  // digest prefix differs from md5::Sum
  std::uint64_t lost = 0;        // no reply before the drain deadline
  bool fatal = false;            // socket or framing failure

  std::vector<double> latency_us;  // measured window, ascending
  double window_s = 0.0;
  double throughput_rps = 0.0;  // verified replies received in the window, per second
  // Process CPU minus the generator's and the idle spinner's, per reply.
  double server_cpu_us_per_req = 0.0;
  double gen_cpu_us_per_req = 0.0;
  double late_max_us = 0.0;  // open loop: latest send behind schedule

  // Program counters over the whole run (warm-up included).
  graftd::TelemetrySnapshot telemetry;

  std::uint64_t failed() const { return errors + mismatches + lost + (fatal ? 1 : 0); }
};

// Builds the served stack (dispatcher, graft registration, server, listen,
// connect) and waits for one verified reply per connection, then tears it
// down. Returns seconds from dispatcher construction to the last first
// reply, or a negative value if any step failed.
double MeasureWireSetup(const WireConfig& config, const PayloadMix& mix);

// Serves `seconds` of traffic (warm-up included). With `spans`, payloads
// carry their request id in the first 8 bytes (digests are then computed
// per request) and every request records its spans.
WireResult RunWire(const WireConfig& config, const PayloadMix& mix, double seconds,
                   SpanLog* spans);

// The same payloads sent straight into a dispatcher at the workload's rate
// (open loop) or depth (closed loop), with crossing and body spans.
struct CrossingResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
CrossingResult RunCrossing(const WireConfig& config, const PayloadMix& mix, double seconds,
                           SpanLog& spans);

// ns per request of encoding and decoding the workload's request and reply
// frames; 0 if a frame failed to round-trip.
double MeasureCodecNs(const PayloadMix& mix, double seconds);

// ns per request of CreateMd5Graft(kC) over the payload mix, called
// directly; 0 if a digest was wrong.
double MeasureMd5BodyNs(const PayloadMix& mix, double seconds);

}  // namespace graftbench

#endif  // GRAFTBENCH_WIRE_H_
