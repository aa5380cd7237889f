#include "src/obslab/flight_recorder.h"

#include <bit>
#include <cstdio>

#include "src/tracelab/export.h"
#include "src/tracelab/json_util.h"

namespace obslab {

namespace {

// Mirrors graftd::CompletionStatus without the include (kept in sync by
// tests/obslab_test.cc).
constexpr const char* kStatusNames[] = {
    "ok",        "fault",    "preempt",  "disk_fault",
    "rejected_quarantined", "rejected_detached", "rejected_degraded", "expired",
};

std::string SanitizeEventForFilename(std::string_view event) {
  std::string out;
  out.reserve(event.size());
  for (const char c : event) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += ok ? c : '_';
  }
  return out.empty() ? std::string("event") : out;
}

}  // namespace

const char* FlightRecorder::StatusName(std::uint8_t status) {
  return status < std::size(kStatusNames) ? kStatusNames[status] : "?";
}

FlightRecorder::FlightRecorder(Options options) : options_(std::move(options)) {
  const std::size_t capacity =
      std::bit_ceil(options_.ring_size < 2 ? std::size_t{2} : options_.ring_size);
  slots_.reserve(capacity);
  for (std::size_t i = 0; i < capacity; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  mask_ = capacity - 1;
}

std::uint64_t FlightRecorder::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          options_.clock->Now().time_since_epoch())
          .count());
}

void FlightRecorder::RecordOutcome(std::uint32_t graft, std::uint8_t status,
                                   std::uint64_t elapsed_ns) {
  const std::uint64_t index = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = *slots_[index & mask_];
  // Odd seq marks the write window; the release on the closing store
  // publishes the fields to a reader that sees the same even value twice.
  const std::uint64_t seq = slot.seq.fetch_add(1, std::memory_order_acq_rel);
  slot.ts_ns.store(NowNs(), std::memory_order_relaxed);
  slot.trace_id.store(tracelab::CurrentTraceId(), std::memory_order_relaxed);
  slot.elapsed_ns.store(elapsed_ns, std::memory_order_relaxed);
  slot.graft.store(graft, std::memory_order_relaxed);
  slot.status.store(status, std::memory_order_relaxed);
  slot.seq.store(seq + 2, std::memory_order_release);
}

std::vector<FlightRecorder::Outcome> FlightRecorder::RecentOutcomes() const {
  std::vector<Outcome> out;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t count = head < slots_.size() ? head : slots_.size();
  out.reserve(count);
  // Oldest first: the slot head will overwrite next is the oldest record.
  for (std::uint64_t i = head - count; i != head; ++i) {
    const Slot& slot = *slots_[i & mask_];
    const std::uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    if ((seq_before & 1) != 0) {
      continue;  // torn: a writer is mid-update
    }
    Outcome copy;
    copy.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    copy.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    copy.elapsed_ns = slot.elapsed_ns.load(std::memory_order_relaxed);
    copy.graft = slot.graft.load(std::memory_order_relaxed);
    copy.status = slot.status.load(std::memory_order_relaxed);
    // A read-don't-modify-write instead of an acquire fence (which GCC's
    // TSan rejects): its release half keeps the loads above ahead of the
    // recheck.
    if (slot.seq.fetch_add(0, std::memory_order_acq_rel) != seq_before) {
      continue;  // overwritten while copying
    }
    out.push_back(copy);
  }
  return out;
}

std::string FlightRecorder::SnapshotJson(std::string_view event, std::uint64_t detail) {
  std::string out;
  out.reserve(16384);
  out += "{\"trigger\":{\"event\":";
  tracelab::AppendJsonString(out, std::string(event));
  out += ",\"detail\":";
  out += std::to_string(detail);
  out += ",\"ts_ns\":";
  out += std::to_string(NowNs());
  out += ",\"snapshots_written\":";
  out += std::to_string(snapshots_written_.load(std::memory_order_relaxed));
  out += "},\n\"outcomes\":[";
  bool first = true;
  for (const Outcome& outcome : RecentOutcomes()) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "\n  {\"ts_ns\":";
    out += std::to_string(outcome.ts_ns);
    out += ",\"graft\":";
    out += std::to_string(outcome.graft);
    out += ",\"status\":\"";
    out += StatusName(outcome.status);
    out += "\",\"elapsed_ns\":";
    out += std::to_string(outcome.elapsed_ns);
    out += ",\"trace_id\":";
    out += std::to_string(outcome.trace_id);
    out += '}';
  }
  out += "\n],\n\"traceEvents\":[";
  if (tracer_ != nullptr) {
    const tracelab::TraceDump dump = tracer_->DumpTail(options_.trace_tail);
    bool first_event = true;
    tracelab::AppendChromeTraceEvents(out, dump, first_event);
    out += "\n],\n\"otherData\":{\"dropped_events\":";
    out += std::to_string(dump.dropped());
    out += ",\"sites_dropped\":";
    out += std::to_string(tracer_->sites_dropped());
    out += '}';
  } else {
    out += "],\n\"otherData\":{}";
  }
  out += ",\n\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string FlightRecorder::Trigger(std::string_view event, std::uint64_t detail) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  const std::uint64_t written = snapshots_written_.load(std::memory_order_relaxed);
  const std::uint64_t now = NowNs();
  if (written >= options_.max_snapshots ||
      (options_.min_interval_ns != 0 && last_snapshot_ns_ != 0 &&
       now - last_snapshot_ns_ < options_.min_interval_ns)) {
    snapshots_suppressed_.fetch_add(1, std::memory_order_relaxed);
    return std::string();
  }
  const std::string path = options_.dir + "/flightrec_" + std::to_string(written) + "_" +
                           SanitizeEventForFilename(event) + ".json";
  const std::string body = SnapshotJson(event, detail);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "obslab: cannot write %s\n", path.c_str());
    snapshots_suppressed_.fetch_add(1, std::memory_order_relaxed);
    return std::string();
  }
  const std::size_t put = std::fwrite(body.data(), 1, body.size(), file);
  std::fclose(file);
  if (put != body.size()) {
    std::fprintf(stderr, "obslab: short write to %s\n", path.c_str());
    return std::string();
  }
  last_snapshot_ns_ = now;
  snapshots_written_.fetch_add(1, std::memory_order_relaxed);
  return path;
}

}  // namespace obslab
