// graftbench: the served request end to end, and the paper's cost-vs-C
// table, in one run.
//
//   graftbench --workload <wire_open|wire_closed> --seed <n> --seconds <s>
//              --trace <0|1> [--inject-us <n>] [--inject-matrix-us <n>]
//              [--spans-out <path>]
//
// The whole run is pinned to one CPU, the last in its allowed set, and every
// thread the program starts inherits that. The generator, the server's IO
// threads and the dispatcher's workers then hand requests to each other by
// local context switches. Unpinned, each hand-off wakes an idle vCPU, and on a
// shared host that wake waits for the host scheduler: open-loop p50 moved
// between 85us and 1.7ms with host steal, where pinned runs stay within a few
// percent. While the served stack runs, an idle-priority spinner keeps that
// CPU from halting between requests (see IdleSpinner).
//
// Every run first builds the served stack five times (set-up time), then
// serves the workload's traffic over loopback TCP through netfront::Server
// -> graftd::Dispatcher -> C md5, then runs the three paper grafts under
// C, Modula-3, SFI, the Minnow interpreter and the Minnow JIT. Every reply
// digest and every matrix row is checked; any mismatch makes the run exit 1.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// metrics: it serves the workload once untraced and once with spans around
// each call into a layer, drives the dispatcher directly for the crossing,
// times the codec and the graft body on their own, and reads the counters
// the program exports (Dispatcher::Snapshot, Server::FillTelemetry,
// VM::jit_stats). --inject-us and --inject-matrix-us add a known slowdown:
// the served graft, or the JIT md5 row, spins that long per Consume.
//
// The last line of stdout is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "graftbench/common.h"
#include "graftbench/matrix.h"
#include "graftbench/wire.h"

namespace graftbench {
namespace {

constexpr int kSetupRuns = 5;
constexpr std::size_t kSpansWritten = 200'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t inject_ns = 0;
  std::uint64_t inject_matrix_ns = 0;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--inject-us") {
      args.inject_ns = std::strtoull(value, nullptr, 10) * 1000;
    } else if (flag == "--inject-matrix-us") {
      args.inject_matrix_ns = std::strtoull(value, nullptr, 10) * 1000;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (args.workload == "wire_open" || args.workload == "wire_closed") &&
         args.seconds >= 2.0;
}

// Returns the CPU the process is now pinned to, or -1.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      cpu = c;
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return cpu >= 0 && sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

WireConfig WireConfigFor(const Args& args) {
  WireConfig config;
  config.seed = args.seed;
  config.open_loop = args.workload == "wire_open";
  config.inject_ns = args.inject_ns;
  return config;
}

// Failures and attempts across every phase of a run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Add(std::uint64_t a, std::uint64_t f) {
    attempted += a;
    failed += f;
  }
};

double MeasureSetup(const WireConfig& config, const PayloadMix& mix, Tally& tally) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRuns; ++i) {
    const double s = MeasureWireSetup(config, mix);
    tally.Add(1, s < 0 ? 1 : 0);
    seconds.push_back(s);
  }
  return Median(seconds);
}

void PrintWire(const char* label, const WireResult& wire) {
  const Tail tail = TailOf(wire.latency_us);
  std::printf("%s: attempted %llu ok %llu errors %llu mismatches %llu lost %llu%s\n", label,
              static_cast<unsigned long long>(wire.attempted),
              static_cast<unsigned long long>(wire.ok),
              static_cast<unsigned long long>(wire.errors),
              static_cast<unsigned long long>(wire.mismatches),
              static_cast<unsigned long long>(wire.lost), wire.fatal ? " FATAL" : "");
  std::printf("  %.0f req/s over %.2fs; latency p50 %.1fus p99 %.1fus, tail p%g %.1fus "
              "(n=%zu samples); server cpu %.2fus/req, generator cpu %.2fus/req, "
              "generator late by at most %.1fus\n",
              wire.throughput_rps, wire.window_s, Percentile(wire.latency_us, 50),
              Percentile(wire.latency_us, 99), tail.percentile, tail.value, tail.samples,
              wire.server_cpu_us_per_req, wire.gen_cpu_us_per_req, wire.late_max_us);
}

void PrintMatrix(const MatrixResult& matrix) {
  std::printf("paper matrix: %zu rounds, %llu rows checked, %llu differ from C\n",
              matrix.rounds, static_cast<unsigned long long>(matrix.rows_run),
              static_cast<unsigned long long>(matrix.rows_failed));
  std::printf("  %-9s %12s", "graft", "C pass");
  for (std::size_t r = 1; r < kRows; ++r) {
    std::printf(" %8s/c", RowName(static_cast<Row>(r)));
  }
  std::printf("\n");
  for (std::size_t g = 0; g < kGrafts; ++g) {
    std::printf("  %-9s %10.1fus", GraftName(static_cast<Graft>(g)),
                Median(matrix.pass_ns[g][0]) / 1e3);
    for (std::size_t r = 1; r < kRows; ++r) {
      std::printf(" %10.2f", matrix.MedianRatio(static_cast<Graft>(g), static_cast<Row>(r)));
    }
    std::printf("\n");
  }
  std::printf("  median pass (us):");
  for (std::size_t g = 0; g < kGrafts; ++g) {
    std::printf(" %s", GraftName(static_cast<Graft>(g)));
    for (std::size_t r = 0; r < kRows; ++r) {
      std::printf(" %s=%.1f", RowName(static_cast<Row>(r)), Median(matrix.pass_ns[g][r]) / 1e3);
    }
  }
  std::printf("\n");
  // The spread behind each median: quartiles of the per-round ratios.
  std::printf("  per-round quartiles:");
  for (std::size_t g = 0; g < kGrafts; ++g) {
    for (std::size_t r = 1; r < kRows; ++r) {
      std::vector<double> sorted = matrix.ratio[g][r];
      std::sort(sorted.begin(), sorted.end());
      std::printf(" %s.%s %.2f-%.2f", GraftName(static_cast<Graft>(g)),
                  RowName(static_cast<Row>(r)), Percentile(sorted, 25), Percentile(sorted, 75));
    }
  }
  std::printf("\n");
}

void AddRatio(const MatrixResult& matrix, Graft graft, Row row, Metrics& metrics) {
  metrics.Add(std::string(GraftName(graft)) + "." + RowName(row) + "_x_c",
              matrix.MedianRatio(graft, row), "x");
}

// ldisk's Minnow rows are not gated: its C row is the memory-bound one, and
// between runs the host moved ldisk.jit_x_c from 9.2 to 7.4 (and the
// interpreter row with it) while md5 and eviction held. They are per-layer
// metrics; ldisk still counts in the SFI and Modula-3 geometric means.
void AddMatrixEndToEnd(const MatrixResult& matrix, Metrics& metrics) {
  for (Row row : {Row::kJit, Row::kInterp}) {
    for (Graft graft : {Graft::kMd5, Graft::kEviction}) {
      AddRatio(matrix, graft, row, metrics);
    }
  }
  metrics.Add("sfi_x_c", matrix.GeomeanRatio(Row::kSfi), "x");
  metrics.Add("m3_x_c", matrix.GeomeanRatio(Row::kModula3), "x");
}

int RunEndToEnd(const Args& args) {
  const CpuTicks before = CpuTicks::Read();
  const PayloadMix mix = MakePayloadMix(args.seed);
  const WireConfig config = WireConfigFor(args);
  Tally tally;

  const double wire_setup_s = MeasureSetup(config, mix, tally);
  const double wire_seconds = std::max(2.5, 0.5 * args.seconds);
  const WireResult wire = RunWire(config, mix, wire_seconds, nullptr);
  tally.Add(wire.attempted, wire.failed());
  const MatrixResult matrix =
      RunMatrix(MatrixConfig{args.seed, args.seconds - wire_seconds, args.inject_matrix_ns});
  tally.Add(matrix.rows_run, matrix.rows_failed);
  const CpuTicks after = CpuTicks::Read();

  PrintWire(args.workload.c_str(), wire);
  PrintMatrix(matrix);
  const Tail tail = TailOf(wire.latency_us);
  std::printf("noise: env.steal_frac %.4f, env.idle_frac %.4f, gen.late_max_us %.1f, "
              "gen.cpu_us_per_req %.2f, latency_tail_us p%g %.1f (n=%zu)\n",
              StealFrac(before, after), IdleFrac(before, after), wire.late_max_us,
              wire.gen_cpu_us_per_req, tail.percentile, tail.value, tail.samples);
  std::printf("failures: %llu of %llu attempted (fail_ratio %.6f)\n",
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<double>(tally.failed) / static_cast<double>(tally.attempted));

  Metrics metrics;
  metrics.Add("throughput_rps", wire.throughput_rps, "1/s");
  metrics.Add("latency_p50_us", Percentile(wire.latency_us, 50), "us");
  metrics.Add("server_cpu_us_per_req", wire.server_cpu_us_per_req, "us");
  metrics.Add("setup_s", wire_setup_s + Median(matrix.setup_ns) / 1e9, "s");
  AddMatrixEndToEnd(matrix, metrics);
  std::printf("end-to-end metrics:\n");
  metrics.PrintTable();
  const bool correct = tally.failed == 0;
  std::printf("%s\n", metrics.ResultLine(correct, tally.attempted, tally.failed).c_str());
  return correct ? 0 : 1;
}

// --- traced run ---

template <typename F>
std::uint64_t SumWorkers(const graftd::TelemetrySnapshot& t, F field) {
  std::uint64_t sum = 0;
  for (const auto& worker : t.dispatch.workers) {
    sum += field(worker);
  }
  return sum;
}

void AddCounters(const WireResult& wire, Metrics& metrics) {
  const graftd::NetfrontSection& nf = wire.telemetry.netfront;
  const double replies = static_cast<double>(std::max<std::uint64_t>(wire.ok, 1));
  std::uint64_t submitted = 0, batches = 0, wakeups = 0;
  std::uint64_t frames_max = 0, frames_min = ~0ull;
  for (const auto& io : nf.io_threads) {
    submitted += io.submit_sizes.total;
    batches += io.submit_batches;
    wakeups += io.wakeups;
    frames_max = std::max(frames_max, io.decoded_frames);
    frames_min = std::min(frames_min, io.decoded_frames);
  }
  std::uint64_t shed = 0;
  for (const auto& tenant : nf.tenants) {
    shed += tenant.shed_degraded + tenant.shed_overload + tenant.quota_rejected +
            tenant.breaker_open;
  }
  metrics.Add("netfront.frames_per_submit_batch",
              static_cast<double>(submitted) / static_cast<double>(std::max<std::uint64_t>(batches, 1)),
              "count");
  metrics.Add("netfront.io_frames_max_over_min",
              static_cast<double>(frames_max) /
                  static_cast<double>(std::max<std::uint64_t>(frames_min, 1)),
              "x");
  metrics.Add("netfront.wakeups_per_req", static_cast<double>(wakeups) / replies, "count");
  metrics.Add("netfront.shed_total", static_cast<double>(shed), "count");
  metrics.Add("netfront.read_pauses", static_cast<double>(nf.read_pauses), "count");

  const auto& t = wire.telemetry;
  const auto per_req = [&](std::uint64_t n) { return static_cast<double>(n) / replies; };
  metrics.Add("graftd.parks_per_req", per_req(SumWorkers(t, [](const auto& w) { return w.parks; })),
              "count");
  metrics.Add("graftd.spin_wakeups_per_req",
              per_req(SumWorkers(t, [](const auto& w) { return w.spin_wakeups; })), "count");
  metrics.Add("graftd.notifies_sent_per_req",
              per_req(SumWorkers(t, [](const auto& w) { return w.notifies_sent; })), "count");
  const std::uint64_t dequeued = SumWorkers(t, [](const auto& w) { return w.dequeued; });
  const std::uint64_t dequeues = SumWorkers(t, [](const auto& w) { return w.batches; });
  metrics.Add("graftd.dequeue_batch_mean",
              static_cast<double>(dequeued) /
                  static_cast<double>(std::max<std::uint64_t>(dequeues, 1)),
              "count");
}

void AddMatrixLayers(const MatrixResult& matrix, Metrics& metrics) {
  metrics.Add("md5.c_us", Median(matrix.pass_ns[0][0]) / 1e3, "us");
  metrics.Add("eviction.c_ns",
              Median(matrix.pass_ns[1][0]) / static_cast<double>(matrix.eviction_calls), "ns");
  metrics.Add("ldisk.c_us", Median(matrix.pass_ns[2][0]) / 1e3, "us");
  for (Row row : {Row::kSfi, Row::kModula3}) {
    for (std::size_t g = 0; g < kGrafts; ++g) {
      AddRatio(matrix, static_cast<Graft>(g), row, metrics);
    }
  }
  AddRatio(matrix, Graft::kLdisk, Row::kJit, metrics);
  AddRatio(matrix, Graft::kLdisk, Row::kInterp, metrics);
  constexpr std::size_t kJit = static_cast<std::size_t>(Row::kJit);
  for (std::size_t g = 0; g < kGrafts; ++g) {
    const std::string prefix = std::string("minnow.") + GraftName(static_cast<Graft>(g)) + ".";
    const MinnowCounters& c = matrix.minnow[g];
    // Parse, verify, elide, compile and the graft's init code. (JIT minus
    // interpreter construction is no compile time: init runs compiled.)
    metrics.Add(prefix + "jit_setup_ms", Median(matrix.construct_ns[g][kJit]) / 1e6, "ms");
    metrics.Add(prefix + "jit_bytes", static_cast<double>(c.jit_bytes), "bytes");
    metrics.Add(prefix + "jit_deopts", static_cast<double>(c.jit_deopts), "count");
    metrics.Add(prefix + "jit_bailouts", static_cast<double>(c.jit_bailouts), "count");
    metrics.Add(prefix + "checks_elided", static_cast<double>(c.checks_elided), "count");
    metrics.Add(prefix + "insns", static_cast<double>(c.insns), "count");
  }
}

void PrintLayerTable(const char* title, const std::vector<LayerTimes>& layers) {
  std::printf("%s\n  %-18s %10s %10s %10s %12s %12s\n", title, "layer", "spans", "p50 us",
              "p99 us", "self p50 us", "self p99 us");
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const LayerTimes& times = layers[l];
    if (times.total_us.empty()) {
      continue;
    }
    std::printf("  %-18s %10zu %10.2f %10.2f %12.2f %12.2f\n", LayerName(static_cast<Layer>(l)),
                times.total_us.size(), Percentile(times.total_us, 50),
                Percentile(times.total_us, 99), Percentile(times.self_us, 50),
                Percentile(times.self_us, 99));
  }
}

double P50(const std::vector<LayerTimes>& layers, Layer layer, bool self) {
  const LayerTimes& times = layers[static_cast<std::size_t>(layer)];
  return Percentile(self ? times.self_us : times.total_us, 50);
}

int RunTraced(const Args& args) {
  const CpuTicks before = CpuTicks::Read();
  const PayloadMix mix = MakePayloadMix(args.seed);
  const WireConfig config = WireConfigFor(args);
  const double s = args.seconds;
  Tally tally;
  SpanLog wire_spans;
  SpanLog crossing_spans;

  const WireResult plain = RunWire(config, mix, std::max(2.0, 0.25 * s), nullptr);
  tally.Add(plain.attempted, plain.failed());
  const WireResult traced = RunWire(config, mix, std::max(2.0, 0.25 * s), &wire_spans);
  tally.Add(traced.attempted, traced.failed());
  const CrossingResult crossing = RunCrossing(config, mix, 0.15 * s, crossing_spans);
  tally.Add(crossing.attempted, crossing.failed);
  const double codec_ns = MeasureCodecNs(mix, 0.05 * s);
  const double body_ns = MeasureMd5BodyNs(mix, 0.05 * s);
  tally.Add(2, (codec_ns > 0 ? 0 : 1) + (body_ns > 0 ? 0 : 1));
  const MatrixResult matrix = RunMatrix(MatrixConfig{args.seed, 0.25 * s, args.inject_matrix_ns});
  tally.Add(matrix.rows_run, matrix.rows_failed);
  const CpuTicks after = CpuTicks::Read();

  const std::vector<Span> served = wire_spans.Collect();
  const std::vector<Span> direct = crossing_spans.Collect();
  const std::vector<LayerTimes> wire_layers = Aggregate(served);
  const std::vector<LayerTimes> crossing_layers = Aggregate(direct);
  if (!args.spans_out.empty()) {
    std::vector<Span> all = served;
    all.insert(all.end(), direct.begin(), direct.end());
    if (!WriteSpans(all, kSpansWritten, args.spans_out)) {
      std::fprintf(stderr, "graftbench: cannot write %s\n", args.spans_out.c_str());
    }
  }

  PrintWire("untraced", plain);
  PrintWire("traced", traced);
  PrintLayerTable("served request spans (traced run):", wire_layers);
  PrintLayerTable("direct dispatcher spans:", crossing_layers);
  PrintMatrix(matrix);

  const double request_p50 = P50(wire_layers, Layer::kRequest, false);
  const double codec_p50 =
      P50(wire_layers, Layer::kEncode, false) + P50(wire_layers, Layer::kDecode, false);
  const double crossing_self_p50 = P50(crossing_layers, Layer::kCrossing, true);
  const double body_p50 = P50(wire_layers, Layer::kBody, false);
  const double overhead = request_p50 - Percentile(plain.latency_us, 50);
  std::printf("residual: request p50 %.2fus - codec %.2fus - crossing self %.2fus - body "
              "%.2fus = %.2fus (socket + IO loop self time)\n",
              request_p50, codec_p50, crossing_self_p50, body_p50,
              request_p50 - codec_p50 - crossing_self_p50 - body_p50);
  std::printf("tracing overhead: traced p50 %.2fus - untraced p50 %.2fus = %.2fus\n",
              request_p50, Percentile(plain.latency_us, 50), overhead);

  const auto& crossing_us = crossing_layers[static_cast<std::size_t>(Layer::kCrossing)].total_us;
  const Tail tail = TailOf(plain.latency_us);
  Metrics metrics;
  metrics.Add("netfront.codec_ns_per_req", codec_ns, "ns");
  AddCounters(plain, metrics);
  metrics.Add("netfront.residual_us_p50", request_p50 - codec_p50 - crossing_self_p50 - body_p50,
              "us");
  metrics.Add("graftd.crossing_us_p50", Percentile(crossing_us, 50), "us");
  metrics.Add("graftd.crossing_us_p99", Percentile(crossing_us, 99), "us");
  metrics.Add("md5.c_body_ns_per_req", body_ns, "ns");
  AddMatrixLayers(matrix, metrics);
  metrics.Add("env.steal_frac", StealFrac(before, after), "ratio");
  metrics.Add("gen.late_max_us", plain.late_max_us, "us");
  metrics.Add("gen.cpu_us_per_req", plain.gen_cpu_us_per_req, "us");
  metrics.Add("latency_p99_us", Percentile(plain.latency_us, 99), "us");
  metrics.Add("throughput_rps.traced", traced.throughput_rps, "1/s");
  metrics.Add("latency_tail_us", tail.value, "us");
  metrics.Add("trace.overhead_us_p50", overhead, "us");
  std::printf("per-layer metrics (latency_tail_us is p%g of %zu samples):\n", tail.percentile,
              tail.samples);
  metrics.PrintTable();
  const bool correct = tally.failed == 0;
  std::printf("%s\n", metrics.ResultLine(correct, tally.attempted, tally.failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace graftbench

int main(int argc, char** argv) {
  graftbench::Args args;
  if (!graftbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: graftbench --workload <wire_open|wire_closed> --seed <n> "
                 "--seconds <s>=2> --trace <0|1> [--inject-us <n>] [--inject-matrix-us <n>] "
                 "[--spans-out <path>]\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const int cpu = graftbench::PinToOneCpu();
  std::printf("graftbench %s seed %llu: %.0fs pinned to cpu %d; %zu connections, %zu IO "
              "threads, %zu workers; open loop at %llu req/s (Poisson), closed loop at %zu "
              "outstanding per connection\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              cpu, graftbench::kConns, graftbench::kIoThreads, graftbench::kWorkers,
              static_cast<unsigned long long>(graftbench::kOpenRate), graftbench::kDepth);
  return args.trace ? graftbench::RunTraced(args) : graftbench::RunEndToEnd(args);
}
