// GraftHost: the simulated extensible kernel.
//
// Owns the kernel subsystems grafts hook into (the VM page cache, the
// stream layer, the logical disk) and enforces the two kernel-side
// guarantees the paper demands of any extension technology:
//
//   * containment — a graft that faults (bounds, NIL, VM trap, script
//     error) is detached and counted, never propagated into kernel state;
//   * preemption — a graft invocation can be run under a CPU budget; if it
//     exceeds the budget, the process-wide DeadlineWheel trips the safe
//     environments' poll token (compiled technologies) while VMs use their
//     own fuel. Both surface as FaultClass::kPreempt.

#ifndef GRAFTLAB_SRC_CORE_GRAFT_HOST_H_
#define GRAFTLAB_SRC_CORE_GRAFT_HOST_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/core/graft.h"
#include "src/envs/preempt.h"
#include "src/ldisk/logical_disk.h"
#include "src/streamk/stream.h"
#include "src/tracelab/trace.h"
#include "src/vmsim/page_cache.h"

namespace core {

struct GraftHostOptions {
  std::size_t page_frames = 1024;
  ldisk::Geometry disk_geometry;
};

class GraftHost {
 public:
  explicit GraftHost(const GraftHostOptions& options = GraftHostOptions{});

  // --- Prioritization hook ---
  vmsim::PageCache& page_cache() { return page_cache_; }
  void AttachEvictionGraft(PrioritizationGraft* graft) { page_cache_.SetEvictionGraft(graft); }
  void DetachEvictionGraft() { page_cache_.SetEvictionGraft(nullptr); }

  // --- Containment ---
  // Every Run* entry runs its graft body through one ladder and reports how
  // it ended. The paper's containment story only covers extension
  // misbehavior, so device-state failures (DiskFull), persistent or
  // injected disk errors (DiskHardError, faultlab), preemptions and genuine
  // extension faults are distinct outcomes; an exception that is not a
  // runtime_error (logic errors, allocation failures) is a host bug and
  // propagates instead of being counted against the graft.
  //
  // A `budget` of zero (the default) runs unbudgeted. `trace` (optional)
  // splits the invocation into a crossing span (the host->technology entry
  // machinery: token reset, deadline arm) and a body span on the active
  // trace.
  enum class FaultClass : std::uint8_t {
    kNone,
    kExtension,  // contained graft fault (bounds, NIL, trap, script error)
    kPreempt,    // wall-clock budget or fuel exhausted
    kDiskFull,   // device genuinely out of space
    kDisk,       // persistent or injected disk failure
  };
  struct RunResult {
    FaultClass fault_class = FaultClass::kNone;
    std::string fault_message;  // what() of the fault; empty when ok
    bool ok() const { return fault_class == FaultClass::kNone; }
    bool preempted() const { return fault_class == FaultClass::kPreempt; }
  };

  // --- Stream hook ---
  // Pumps `data` through `chain` into `sink` in `chunk` pieces, containing
  // faults: on a fault the stream is aborted, the fault counted, and false
  // returned. Kernel state stays intact.
  bool RunStream(streamk::Bytes data, std::size_t chunk, streamk::Chain& chain,
                 streamk::Sink& sink);

  // --- Stream hook, reusable-graft form ---
  // Runs one stream-graft invocation (consume `data` in `chunk` pieces,
  // finish the digest) directly against a caller-owned graft instance. This
  // is the graftd worker entry point: unlike RunStream it does not consume
  // a filter chain, so one graft instance serves many invocations.
  struct StreamRunResult : RunResult {
    md5::Digest digest{};
  };
  StreamRunResult RunStreamGraft(StreamGraft& graft, streamk::Bytes data, std::size_t chunk,
                                 std::chrono::microseconds budget = std::chrono::microseconds{0},
                                 const tracelab::StageTrace* trace = nullptr);

  // --- Black Box hook ---
  // Replays a skewed write workload through a logical-disk graft, with
  // validation against the host's shadow log when `validate` is set.
  struct BlackBoxResult : RunResult {
    ldisk::ReplayResult replay;
  };
  BlackBoxResult RunLogicalDisk(BlackBoxGraft& graft, std::uint64_t num_writes,
                                bool validate = true,
                                std::chrono::microseconds budget = std::chrono::microseconds{0},
                                const tracelab::StageTrace* trace = nullptr);

  // --- Prioritization hook, direct-invocation form ---
  // Runs `lookups` ChooseVictim calls against a caller-prepared LRU chain.
  // This is the graftd worker entry point for Prioritization grafts: the
  // paper's Table 2 operation (one full hot-list search, cold candidate)
  // repeated per invocation, so observed per-lookup cost is directly
  // comparable to the offline eviction benches.
  struct EvictionRunResult : RunResult {
    std::uint64_t lookups = 0;           // completed before any fault
    std::uint64_t last_victim_page = 0;  // keeps the search observable
  };
  EvictionRunResult RunEvictionGraft(PrioritizationGraft& graft, vmsim::Frame* lru_head,
                                     std::uint64_t lookups,
                                     std::chrono::microseconds budget = std::chrono::microseconds{0},
                                     const tracelab::StageTrace* trace = nullptr);

  // --- Preemption ---
  // Token handed to compiled-technology grafts at construction; budgeted
  // runs arm it on the process-wide DeadlineWheel.
  envs::PreemptToken& preempt_token() { return preempt_token_; }

  // Runs `body` under a wall-clock budget. Returns false if the body was
  // preempted (PreemptFault or fuel exhaustion); any other fault propagates.
  // The token is reset on every exit path, including when `body` throws a
  // non-preempt fault through this frame.
  bool RunWithBudget(std::chrono::microseconds budget, const std::function<void()>& body);

  std::uint64_t contained_faults() const {
    return contained_faults_.load(std::memory_order_relaxed);
  }
  // Disk-level failures (DiskFull, DiskHardError, injected faults) observed
  // by any run. Counted apart from contained_faults: the disk, not the
  // extension, misbehaved.
  std::uint64_t disk_faults() const { return disk_faults_.load(std::memory_order_relaxed); }
  const ldisk::Geometry& disk_geometry() const { return options_.disk_geometry; }

 private:
  GraftHostOptions options_;
  vmsim::PageCache page_cache_;
  // The one containment ladder behind every Run* entry: resets the token,
  // arms `budget` (if any), runs `body` and classifies what it throws into
  // `result`. With `contain` false, every fault but a preemption is
  // rethrown uncounted (RunWithBudget's contract).
  template <typename Body>
  void Contain(std::chrono::microseconds budget, const tracelab::StageTrace* trace, bool contain,
               RunResult& result, Body&& body);

  envs::PreemptToken preempt_token_;
  // Atomic so sibling host shards' supervisors may read any host's count
  // while it runs (graftd snapshots race with workers by design).
  std::atomic<std::uint64_t> contained_faults_{0};
  std::atomic<std::uint64_t> disk_faults_{0};
};

}  // namespace core

#endif  // GRAFTLAB_SRC_CORE_GRAFT_HOST_H_
