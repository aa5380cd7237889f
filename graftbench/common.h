// graftbench shared helpers: clocks, seeded inputs, exact percentiles, the
// host-noise record, span recording and the result line.
//
// Everything here lives outside the program under test: the benchmark only
// calls the modules' public functions and reads the counters they export.

#ifndef GRAFTBENCH_COMMON_H_
#define GRAFTBENCH_COMMON_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/md5/md5.h"

namespace graftbench {

// --- clocks ---

std::uint64_t NowNs();         // steady_clock
std::uint64_t ProcessCpuNs();  // CLOCK_PROCESS_CPUTIME_ID
std::uint64_t ThreadCpuNs();   // CLOCK_THREAD_CPUTIME_ID
// Busy-waits `ns` of wall time (the injected, known slowdown).
void SpinNs(std::uint64_t ns);

// Keeps the run's CPU out of the idle loop while the served stack waits for
// traffic. The spinner runs under SCHED_IDLE, so any thread that wakes
// preempts it at once; while it exists the pinned vCPU never halts, and a
// wake-up never waits for the host to schedule the vCPU back in. On a shared
// host that wait moved open-loop p50 between 61us and 146us from run to run.
// If SCHED_IDLE is refused the spinner exits at once rather than compete.
class IdleSpinner {
 public:
  IdleSpinner();
  ~IdleSpinner();
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;

  // CPU time the spinner has used: not the server's, so callers subtract it.
  std::uint64_t CpuNs();

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --- seeded inputs ---

// splitmix64: every input byte, order and stream derives from the seed.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

// The wire workloads' payload mix: 8 sizes from 64B to 2KB, each in a few
// seeded byte patterns, visited in a seeded order. Digests are computed by
// the benchmark with md5::Sum, independent of the graft that is served.
struct Payload {
  std::vector<std::uint8_t> bytes;
  md5::Digest digest{};
};

struct PayloadMix {
  std::vector<Payload> pool;
  std::vector<std::uint32_t> order;  // pool index of request k is order[k % size]

  const Payload& ForRequest(std::uint64_t k) const { return pool[order[k % order.size()]]; }
};

PayloadMix MakePayloadMix(std::uint64_t seed);

// --- exact percentiles over raw samples ---

// Nearest-rank percentile of ascending `sorted` (q in [0, 100]).
double Percentile(const std::vector<double>& sorted, double q);
double Median(std::vector<double> values);

// The highest of {99.99, 99.9, 99, 90, 50} with at least ten samples beyond
// it, with its value and the sample count.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail TailOf(const std::vector<double>& sorted);

// --- host noise ---

// Aggregate /proc/stat jiffies; steal_frac is steal over all ticks between
// two reads (0 when the file is unreadable).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t idle = 0;
  std::uint64_t total = 0;
  static CpuTicks Read();
};
double StealFrac(const CpuTicks& before, const CpuTicks& after);
double IdleFrac(const CpuTicks& before, const CpuTicks& after);

// --- spans recorded around the benchmark's calls into each layer ---

enum class Layer : std::uint8_t {
  kRequest,       // the served request: send -> verified reply
  kEncode,        // netfront::AppendRequest
  kDecode,        // netfront::FrameDecoder::Feed/Next on the reply stream
  kCrossing,      // Dispatcher::TrySubmitBatch -> Invocation::on_complete
  kBody,          // StreamGraft::Consume + Finish
  kCount,
};
const char* LayerName(Layer layer);

struct Span {
  Layer layer = Layer::kRequest;
  Layer parent = Layer::kCount;  // kCount for a root span
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

// Spans land in per-thread buffers (no lock on the record path after a
// thread's first span) and are merged when the run ends.
class SpanLog {
 public:
  void Record(Layer layer, Layer parent, std::uint64_t request, std::uint64_t start_ns,
              std::uint64_t end_ns);
  // Every span recorded so far; call once all recording threads are quiet.
  std::vector<Span> Collect() const;

 private:
  struct Buffer {
    const SpanLog* owner = nullptr;
    std::vector<Span> spans;
  };
  Buffer& Local();

  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Per-layer duration and self time (duration minus child spans of the same
// request), in microseconds, ascending. Only requests with a root span
// (request or crossing) count: warm-up and set-up traffic records no root.
struct LayerTimes {
  std::vector<double> total_us;
  std::vector<double> self_us;
};
std::vector<LayerTimes> Aggregate(const std::vector<Span>& spans);

// Writes at most `limit` spans as JSON lines: name, start, end, parent,
// request id.
bool WriteSpans(const std::vector<Span>& spans, std::size_t limit, const std::string& path);

// --- the result line ---

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Prints every metric as "name value unit" for a human reader.
  void PrintTable() const;
  // {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ResultLine(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace graftbench

#endif  // GRAFTBENCH_COMMON_H_
