// The three paper grafts written in Minnow ("Java") and the kernel-side
// adapters that run them on the bytecode interpreter or, compiled at load
// time, on the JIT (core::Technology::kJava / kJavaTranslated).
//
// The grafts are genuine Minnow programs: the eviction graft keeps its hot
// list as a linked list of VM objects and walks the kernel's LRU chain
// through a host call; the MD5 graft implements all of RFC 1321 (buffering,
// rounds, padding) over VM arrays; the logical-disk graft keeps the block
// map, reverse map and segment live counts as VM arrays. The adapters do
// only what a real kernel/VM boundary does: marshal arguments, pin shared
// buffers, translate traps into extension faults.

#ifndef GRAFTLAB_SRC_GRAFTS_MINNOW_GRAFTS_H_
#define GRAFTLAB_SRC_GRAFTS_MINNOW_GRAFTS_H_

#include <memory>
#include <string>

#include "src/core/graft.h"
#include "src/minnow/jit.h"
#include "src/minnow/vm.h"

namespace grafts {

// Per-graft VM configuration. `fuse` applies superinstruction fusion
// (minnow/fuse.h), a load-time interpreter speedup with no semantic
// footprint, so it defaults on. `dispatch` and `profile_opcodes` pass
// straight through to VmOptions. `elide` runs the load-time check-elision
// pass (minnow/elide.h): accesses whose safety checks the abstract
// interpreter proves dead execute unchecked. `jit` selects
// DispatchMode::kJit — verified bytecode compiled to native code at load
// time (minnow/jit.h) with the interpreter as the deopt fallback; it is the
// Technology::kJavaTranslated row, and degrades to the interpreter in builds
// without JIT support.
struct MinnowConfig {
  bool fuse = true;
  minnow::DispatchMode dispatch = minnow::DispatchMode::kDefault;
  bool profile_opcodes = false;
  bool elide = false;
  bool jit = false;
};

// The small Minnow grafts (acl, readahead, sched) run on the default
// VmOptions: the interpreter for Technology::kJava, the JIT for
// kJavaTranslated. The name is the row's TechnologyName.
minnow::VmOptions JavaVmOptions(bool jit);
const char* JavaTechnologyName(bool jit);

// --- Prioritization ---

class MinnowEvictionGraft : public core::PrioritizationGraft {
 public:
  explicit MinnowEvictionGraft(MinnowConfig config = {});

  vmsim::Frame* ChooseVictim(vmsim::Frame* lru_head) override;
  void HotListAdd(vmsim::PageId page) override;
  void HotListRemove(vmsim::PageId page) override;
  void HotListClear() override;
  const char* technology() const override;

  minnow::VM& vm() { return *vm_; }

 private:

  bool jit_;
  std::unique_ptr<minnow::VM> vm_;

  // Walk context for the lru_page host call (valid during ChooseVictim).
  vmsim::Frame* walk_head_ = nullptr;
  vmsim::Frame* walk_cursor_ = nullptr;
  std::int64_t walk_pos_ = 0;
};

// --- Stream (MD5) ---

class MinnowMd5Graft : public core::StreamGraft {
 public:
  explicit MinnowMd5Graft(MinnowConfig config = {});

  void Consume(const std::uint8_t* data, std::size_t len) override;
  md5::Digest Finish() override;
  const char* technology() const override;

  // Supervisor fuel seam: one fuel unit per VM instruction.
  void SetFuel(std::int64_t fuel) override { vm_->SetFuel(fuel); }
  std::int64_t FuelRemaining() const override { return vm_->fuel(); }

  // Telemetry seam: cumulative per-opcode retire counts when the config
  // enables profile_opcodes; empty otherwise. Certified (check-elided)
  // programs additionally report their static checks_elided /
  // checks_retained certificate counts, so graftd telemetry can surface
  // how much of the safety tax the proof removed; JIT-compiled programs
  // report the compiled footprint and the deopt/bailout counts the same way.
  std::vector<std::pair<std::string, std::uint64_t>> ExecutionProfile() const override {
    auto counts = vm_->OpcodeCounts();
    if (vm_->program().elision.attached) {
      counts.emplace_back("checks_elided", vm_->program().elision.checks_elided);
      counts.emplace_back("checks_retained", vm_->program().elision.checks_retained);
    }
    if (const minnow::JitStats* jit = vm_->jit_stats()) {
      counts.emplace_back("jit_compiled_fns", jit->compiled_fns);
      counts.emplace_back("jit_bytes", jit->bytes);
      counts.emplace_back("jit_deopts", jit->deopts);
      counts.emplace_back("jit_bailouts", jit->bailouts);
      counts.emplace_back("jit_homed_slots", jit->homed_slots);
    }
    return counts;
  }

  minnow::VM& vm() { return *vm_; }

 private:
  void EnsureBuffer(std::size_t len);

  bool jit_;
  std::unique_ptr<minnow::VM> vm_;
  minnow::Object* buffer_ = nullptr;  // pinned shared byte[] for chunks
};

// --- Black Box (logical disk) ---

class MinnowLogicalDiskGraft : public core::BlackBoxGraft {
 public:
  explicit MinnowLogicalDiskGraft(const ldisk::Geometry& geometry, MinnowConfig config = {});

  ldisk::BlockId OnWrite(ldisk::BlockId logical) override;
  ldisk::BlockId Translate(ldisk::BlockId logical) override;
  const char* technology() const override;

  minnow::VM& vm() { return *vm_; }

 private:

  bool jit_;
  std::unique_ptr<minnow::VM> vm_;
};

// Exposed for tests: the graft sources.
const char* MinnowEvictionSource();
const char* MinnowMd5Source();
const char* MinnowLogicalDiskSource();

}  // namespace grafts

#endif  // GRAFTLAB_SRC_GRAFTS_MINNOW_GRAFTS_H_
