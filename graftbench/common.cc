#include "graftbench/common.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <unordered_map>

namespace graftbench {

namespace {

std::uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

std::uint64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
std::uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

void SpinNs(std::uint64_t ns) {
  const std::uint64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

IdleSpinner::IdleSpinner()
    : thread_([this] {
        sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;
        }
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      }) {}

IdleSpinner::~IdleSpinner() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

std::uint64_t IdleSpinner::CpuNs() {
  clockid_t clock;
  return pthread_getcpuclockid(thread_.native_handle(), &clock) == 0 ? ClockNs(clock) : 0;
}

std::uint64_t SplitMix::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

PayloadMix MakePayloadMix(std::uint64_t seed) {
  constexpr std::size_t kSizes[] = {64, 192, 320, 448, 704, 960, 1536, 2048};
  constexpr std::size_t kPatterns = 4;   // byte patterns per size
  constexpr std::size_t kOrderLen = 256;  // requests before the order repeats
  SplitMix rng(seed ^ 0x6772616674ull);
  PayloadMix mix;
  for (std::size_t size : kSizes) {
    for (std::size_t p = 0; p < kPatterns; ++p) {
      Payload payload;
      payload.bytes.resize(size);
      for (auto& b : payload.bytes) {
        b = static_cast<std::uint8_t>(rng.Next());
      }
      payload.digest = md5::Sum({payload.bytes.data(), payload.bytes.size()});
      mix.pool.push_back(std::move(payload));
    }
  }
  // Every size appears equally often; the order is a seeded shuffle.
  for (std::size_t i = 0; i < kOrderLen; ++i) {
    mix.order.push_back(static_cast<std::uint32_t>(i % mix.pool.size()));
  }
  for (std::size_t i = mix.order.size() - 1; i > 0; --i) {
    std::swap(mix.order[i], mix.order[rng.Below(i + 1)]);
  }
  return mix;
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, sorted.size()) - 1;
  return sorted[index];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 50.0);
}

Tail TailOf(const std::vector<double>& sorted) {
  Tail tail;
  tail.samples = sorted.size();
  for (double q : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    const double beyond = static_cast<double>(sorted.size()) * (100.0 - q) / 100.0;
    if (beyond >= 10.0) {
      tail.percentile = q;
      tail.value = Percentile(sorted, q);
      return tail;
    }
  }
  return tail;
}

CpuTicks CpuTicks::Read() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") {
    return ticks;
  }
  // user nice system idle iowait irq softirq steal (guest fields are
  // already counted in user/nice)
  std::uint64_t field[8] = {};
  for (auto& f : field) {
    in >> f;
  }
  ticks.idle = field[3] + field[4];
  ticks.steal = field[7];
  for (auto f : field) {
    ticks.total += f;
  }
  return ticks;
}

double StealFrac(const CpuTicks& before, const CpuTicks& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) / static_cast<double>(total);
}

double IdleFrac(const CpuTicks& before, const CpuTicks& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.idle - before.idle) / static_cast<double>(total);
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kEncode: return "netfront.encode";
    case Layer::kDecode: return "netfront.decode";
    case Layer::kCrossing: return "graftd.crossing";
    case Layer::kBody: return "md5.body";
    case Layer::kCount: break;
  }
  return "?";
}

SpanLog::Buffer& SpanLog::Local() {
  thread_local Buffer* cached = nullptr;
  if (cached == nullptr || cached->owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    cached = buffers_.back().get();
    cached->owner = this;
    cached->spans.reserve(1u << 16);
  }
  return *cached;
}

void SpanLog::Record(Layer layer, Layer parent, std::uint64_t request, std::uint64_t start_ns,
                     std::uint64_t end_ns) {
  Local().spans.push_back(Span{layer, parent, request, start_ns, end_ns});
}

std::vector<Span> SpanLog::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::vector<LayerTimes> Aggregate(const std::vector<Span>& spans) {
  // Children's covered time per (parent layer, request).
  constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns[kLayers];
  std::unordered_map<std::uint64_t, bool> root;
  for (const Span& span : spans) {
    if (span.parent == Layer::kCount) {
      root[span.request] = true;
    }
  }
  for (const Span& span : spans) {
    if (span.parent != Layer::kCount && root.count(span.request)) {
      child_ns[static_cast<std::size_t>(span.parent)][span.request] +=
          span.end_ns - span.start_ns;
    }
  }
  std::vector<LayerTimes> out(kLayers);
  for (const Span& span : spans) {
    if (!root.count(span.request)) {
      continue;
    }
    const std::size_t index = static_cast<std::size_t>(span.layer);
    const std::uint64_t total = span.end_ns - span.start_ns;
    const auto it = child_ns[index].find(span.request);
    const std::uint64_t children = it == child_ns[index].end() ? 0 : it->second;
    out[index].total_us.push_back(static_cast<double>(total) / 1e3);
    out[index].self_us.push_back(static_cast<double>(total > children ? total - children : 0) /
                                 1e3);
  }
  for (LayerTimes& times : out) {
    std::sort(times.total_us.begin(), times.total_us.end());
    std::sort(times.self_us.begin(), times.self_us.end());
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, std::size_t limit, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  for (const Span& span : std::span<const Span>(spans).first(std::min(limit, spans.size()))) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64
                 ",\"parent\":\"%s\",\"request\":%" PRIu64 "}\n",
                 LayerName(span.layer), span.start_ns, span.end_ns,
                 span.parent == Layer::kCount ? "" : LayerName(span.parent), span.request);
  }
  return std::fclose(file) == 0;
}

void Metrics::Add(const std::string& name, double value, const std::string& unit) {
  entries_.push_back(Entry{name, value, unit});
}

void Metrics::PrintTable() const {
  for (const Entry& entry : entries_) {
    std::printf("  %-34s %16.6g %s\n", entry.name.c_str(), entry.value, entry.unit.c_str());
  }
}

std::string Metrics::ResultLine(bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    // %.17g keeps every digit; non-finite values would break the JSON.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(entries_[i].value) ? entries_[i].value : 0.0);
    out << (i == 0 ? "" : ", ") << '"' << entries_[i].name << "\": {\"value\": " << value
        << ", \"unit\": \"" << entries_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace graftbench
