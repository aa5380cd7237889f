// Fault flight recorder: a bounded overwrite-oldest ring of recent
// invocation outcomes, snapshotted to a "black box" file when something
// goes wrong.
//
// Unlike tracelab's SPSC rings (which drop new events when full — correct
// for a stream a collector is expected to drain), a flight recorder must
// keep the *most recent* history, so this ring overwrites the oldest slot.
// Writers claim a slot with one atomic fetch_add and publish through a
// per-slot sequence counter (odd while the write is in progress); the
// snapshot reader skips torn slots instead of blocking, so recording stays
// lock-free and a snapshot taken mid-dispatch is always safe. Two writers
// only collide on a slot when one stalls for a full ring lap — the reader
// then sees a torn or mixed record for that one slot and drops it.
//
// Trigger() writes one self-contained JSON file naming the triggering
// event, carrying the recent outcome ring, and — when a tracer is attached
// — embedding the tail of every thread's trace ring as a top-level
// "traceEvents" array, so the same file loads in Perfetto/chrome://tracing
// AND parses as the post-mortem record. Triggers are rate-limited
// (min_interval) and capped (max_snapshots) so a fault storm produces a
// handful of files, not a disk full; suppressed triggers are counted.
//
// Wired triggers (see obslab::Plane): supervisor breaker-open, quarantine,
// degraded entry and detach; netfront io-thread crash adoption; disk hard
// errors surfacing as kDiskFault completions; sustained SLO burn.

#ifndef GRAFTLAB_SRC_OBSLAB_FLIGHT_RECORDER_H_
#define GRAFTLAB_SRC_OBSLAB_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/graftd/clock.h"
#include "src/tracelab/trace.h"

namespace obslab {

class FlightRecorder {
 public:
  struct Options {
    std::size_t ring_size = 256;  // outcome records kept (rounded to pow2)
    std::string dir = ".";        // where snapshot files land
    // Minimum spacing between written snapshots; closer triggers are
    // counted as suppressed. 0 disables rate limiting.
    std::uint64_t min_interval_ns = 1'000'000'000;
    std::size_t max_snapshots = 8;  // hard cap on files per process
    std::size_t trace_tail = 256;   // trace events kept per thread
    const graftd::Clock* clock = graftd::RealClock::Instance();
  };

  // One recorded invocation outcome. status is the numeric
  // graftd::CompletionStatus (kept as a byte so this header needs no
  // dispatcher include); the snapshot names it via StatusName.
  struct Outcome {
    std::uint64_t ts_ns = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t elapsed_ns = 0;
    std::uint32_t graft = 0;
    std::uint8_t status = 0;
  };

  explicit FlightRecorder(Options options);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Hot path: lock-free, allocation-free.
  void RecordOutcome(std::uint32_t graft, std::uint8_t status, std::uint64_t elapsed_ns);

  // Optional: snapshots embed the tail of this tracer's rings. Attach
  // before recording starts; must outlive the recorder.
  void set_tracer(tracelab::Tracer* tracer) { tracer_ = tracer; }

  // Takes a snapshot named after the triggering event (plus an optional
  // numeric detail, e.g. the GraftId or tenant). Returns the file path, or
  // empty when rate-limited/capped. Thread-safe; concurrent triggers
  // serialize on the snapshot mutex.
  std::string Trigger(std::string_view event, std::uint64_t detail = 0);

  // The snapshot body Trigger writes (exposed so tests validate the JSON
  // without touching the filesystem).
  std::string SnapshotJson(std::string_view event, std::uint64_t detail);

  std::uint64_t snapshots_written() const {
    return snapshots_written_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshots_suppressed() const {
    return snapshots_suppressed_.load(std::memory_order_relaxed);
  }
  std::uint64_t outcomes_recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  // Stable copy of the ring, oldest first; torn slots skipped.
  std::vector<Outcome> RecentOutcomes() const;

  static const char* StatusName(std::uint8_t status);

 private:
  // The fields are relaxed atomics, so a reader racing a writer sees a
  // torn copy that the seq recheck discards, never a data race.
  struct Slot {
    mutable std::atomic<std::uint64_t> seq{0};  // even = stable; readers RMW it
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> elapsed_ns{0};
    std::atomic<std::uint32_t> graft{0};
    std::atomic<std::uint8_t> status{0};
  };

  std::uint64_t NowNs() const;

  const Options options_;
  tracelab::Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};

  std::mutex snapshot_mu_;
  std::uint64_t last_snapshot_ns_ = 0;
  std::atomic<std::uint64_t> snapshots_written_{0};
  std::atomic<std::uint64_t> snapshots_suppressed_{0};
};

}  // namespace obslab

#endif  // GRAFTLAB_SRC_OBSLAB_FLIGHT_RECORDER_H_
