#include "src/minnow/vm.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "src/minnow/elide.h"
#include "src/minnow/jit.h"

// The computed-goto dispatcher needs GNU labels-as-values; the CMake option
// GRAFTLAB_THREADED_DISPATCH (on by default) injects the macro, and the
// compiler check keeps non-GNU builds on the portable switch loop.
#if defined(GRAFTLAB_THREADED_DISPATCH) && (defined(__GNUC__) || defined(__clang__))
#define GRAFTLAB_VM_COMPUTED_GOTO 1
#else
#define GRAFTLAB_VM_COMPUTED_GOTO 0
#endif

namespace minnow {

namespace {

constexpr std::uint64_t kU32Mask = 0xFFFFFFFFull;

Object* AsObject(Value v) { return reinterpret_cast<Object*>(v.bits); }

Object* RequireObject(Value v, const char* what) {
  Object* object = AsObject(v);
  if (object == nullptr) {
    throw Trap(std::string("null dereference in ") + what);
  }
  return object;
}

std::size_t CheckIndex(const Object* array, std::int64_t index) {
  const std::size_t length = array->array_length();
  if (index < 0 || static_cast<std::size_t>(index) >= length) {
    throw Trap("array index " + std::to_string(index) + " out of bounds [0, " +
               std::to_string(length) + ")");
  }
  return static_cast<std::size_t>(index);
}

// Extra frame slots beyond max_call_depth: the per-entry depth limit is
// relative to the entry frame, so a host function that reenters the VM may
// legitimately stack a few more frames than one entry alone could.
constexpr std::size_t kReentrySlack = 64;

std::vector<std::pair<std::string, std::uint64_t>> SortedCounts(
    std::vector<std::pair<std::string, std::uint64_t>> counts) {
  std::sort(counts.begin(), counts.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return counts;
}

}  // namespace

VM::VM(Program program, const VmOptions& options)
    : program_(std::move(program)),
      options_(options),
      heap_(options.heap_limit),
      arena_(options.stack_slots * sizeof(Value) +
             (options.max_call_depth + kReentrySlack) * sizeof(Frame) +
             (options.profile_opcodes ? (kNumOps + 2) * kNumOps * sizeof(std::uint64_t) : 0) +
             256),
      hosts_(program_.host_imports.size()),
      globals_(program_.globals.size()),
      fuel_(options.fuel) {
  stack_ = arena_.NewArray<Value>(options.stack_slots);
  stack_slots_ = options.stack_slots;
  frame_capacity_ = options.max_call_depth + kReentrySlack;
  frames_ = arena_.NewArray<Frame>(frame_capacity_);
  if (options.profile_opcodes) {
    op_counts_ = arena_.NewArray<std::uint64_t>(kNumOps);
    pair_counts_ = arena_.NewArray<std::uint64_t>((kNumOps + 1) * kNumOps);
  }
  threaded_ = options.dispatch != DispatchMode::kSwitch && ThreadedDispatchAvailable();
  if (options.elide_checks && !program_.elision.attached) {
    ElideChecks(program_);
  } else if (program_.elision.attached && !ElisionCertificateValid(program_)) {
    // A stamped program whose code no longer matches its proof is refused
    // outright — running it would execute unchecked accesses unproven.
    throw std::invalid_argument("elision certificate does not match the code");
  }
  // Native compilation happens after elision so `.nc` sites the certificate
  // proved safe are emitted without check instructions. Profiling VMs stay on
  // the interpreter: native code does not feed the opcode/pair tables.
  if (options.dispatch == DispatchMode::kJit && !options.profile_opcodes &&
      Jit::Available()) {
    jit_ = Jit::Compile(*this);
  }
}

VM::~VM() = default;

bool VM::JitDispatchAvailable() { return Jit::Available(); }

const JitStats* VM::jit_stats() const {
  return jit_ != nullptr ? &jit_->stats() : nullptr;
}

bool VM::ThreadedDispatchAvailable() {
#if GRAFTLAB_VM_COMPUTED_GOTO
  return true;
#else
  return false;
#endif
}

void VM::BindHost(const std::string& name, HostFn fn) {
  for (std::size_t i = 0; i < program_.host_imports.size(); ++i) {
    if (program_.host_imports[i].name == name) {
      hosts_[i] = std::move(fn);
      return;
    }
  }
  throw std::invalid_argument("no host import named '" + name + "'");
}

void VM::RunInit() {
  const int init = program_.FindFunction("@init");
  if (init >= 0) {
    Execute(init, {});
  }
  init_ran_ = true;
}

Value VM::Call(const std::string& name, std::span<const Value> args) {
  const int index = program_.FindFunction(name);
  if (index < 0) {
    throw std::invalid_argument("no function named '" + name + "'");
  }
  return CallIndex(index, args);
}

Value VM::CallIndex(int fn_index, std::span<const Value> args) {
  if (fn_index < 0 || static_cast<std::size_t>(fn_index) >= program_.functions.size()) {
    throw std::invalid_argument("function index out of range");
  }
  const auto& fn = program_.functions[static_cast<std::size_t>(fn_index)];
  if (static_cast<int>(args.size()) != fn.num_params) {
    throw std::invalid_argument("'" + fn.name + "' expects " + std::to_string(fn.num_params) +
                                " arguments");
  }
  // The elision proof's global invariants assume initialized globals; a
  // certified program may not run anything before RunInit.
  if (program_.elision.attached && !init_ran_) {
    throw Trap("certified program called before RunInit");
  }
  return Execute(fn_index, args);
}

void VM::MaybeCollect(std::size_t incoming_bytes) {
  if (heap_.ShouldCollect(incoming_bytes)) {
    heap_.Collect(*this);
  }
}

void VM::EnumerateRoots(Heap& heap) {
  // Precise: reference globals.
  for (std::size_t g = 0; g < globals_.size(); ++g) {
    if (program_.globals[g].is_ref) {
      void* candidate = reinterpret_cast<void*>(globals_[g].bits);
      if (candidate != nullptr && heap.IsObject(candidate)) {
        heap.Mark(static_cast<Object*>(candidate));
      }
    }
  }
  // Conservative: every live stack slot.
  for (std::size_t i = 0; i < sp_; ++i) {
    void* candidate = reinterpret_cast<void*>(stack_[i].bits);
    if (candidate != nullptr && heap.IsObject(candidate)) {
      heap.Mark(static_cast<Object*>(candidate));
    }
  }
  // Host pins.
  for (Object* object : pinned_) {
    heap.Mark(object);
  }
}

Object* VM::NewByteArray(std::span<const std::uint8_t> data) {
  MaybeCollect(data.size());
  Object* array = heap_.NewArray(TypeKind::kByte, data.size());
  std::memcpy(array->bytes.data(), data.data(), data.size());
  return array;
}

Object* VM::NewIntArray(std::span<const std::int64_t> data) {
  MaybeCollect(data.size() * 8);
  Object* array = heap_.NewArray(TypeKind::kInt, data.size());
  std::memcpy(array->longs.data(), data.data(), data.size() * sizeof(std::int64_t));
  return array;
}

Object* VM::NewU32Array(std::size_t length) {
  MaybeCollect(length * 4);
  return heap_.NewArray(TypeKind::kU32, length);
}

Value VM::GetGlobal(const std::string& name) const {
  for (std::size_t g = 0; g < globals_.size(); ++g) {
    if (program_.globals[g].name == name) {
      return globals_[g];
    }
  }
  throw std::invalid_argument("no global named '" + name + "'");
}

void VM::SetGlobal(const std::string& name, Value value) {
  // Host writes bypass the dataflow that established the elision proof's
  // global invariants, so certified programs refuse them.
  if (program_.elision.attached) {
    throw std::invalid_argument("SetGlobal on a certified (check-elided) program");
  }
  for (std::size_t g = 0; g < globals_.size(); ++g) {
    if (program_.globals[g].name == name) {
      globals_[g] = value;
      return;
    }
  }
  throw std::invalid_argument("no global named '" + name + "'");
}

std::vector<std::pair<std::string, std::uint64_t>> VM::OpcodeCounts() const {
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  if (op_counts_ == nullptr) {
    return counts;
  }
  for (std::size_t op = 0; op < kNumOps; ++op) {
    if (op_counts_[op] > 0) {
      counts.emplace_back(OpName(static_cast<Op>(op)), op_counts_[op]);
    }
  }
  return SortedCounts(std::move(counts));
}

std::vector<std::pair<std::string, std::uint64_t>> VM::OpcodePairCounts(std::size_t top_n) const {
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  if (pair_counts_ == nullptr) {
    return counts;
  }
  // Row kNumOps is the entry sentinel (no predecessor) — not a real pair.
  for (std::size_t prev = 0; prev < kNumOps; ++prev) {
    for (std::size_t cur = 0; cur < kNumOps; ++cur) {
      const std::uint64_t n = pair_counts_[prev * kNumOps + cur];
      if (n > 0) {
        counts.emplace_back(std::string(OpName(static_cast<Op>(prev))) + ">" +
                                OpName(static_cast<Op>(cur)),
                            n);
      }
    }
  }
  counts = SortedCounts(std::move(counts));
  if (counts.size() > top_n) {
    counts.resize(top_n);
  }
  return counts;
}

void VM::PushFrame(const FunctionCode& fn, std::size_t entry_frames) {
  if (nframes_ - entry_frames >= options_.max_call_depth || nframes_ == frame_capacity_) {
    throw Trap("call depth limit exceeded");
  }
  const std::size_t base = sp_ - static_cast<std::size_t>(fn.num_params);
  const std::size_t needed =
      static_cast<std::size_t>(fn.num_locals) + static_cast<std::size_t>(fn.max_stack);
  if (base + needed > stack_slots_) {
    throw Trap("VM stack overflow");
  }
  // The args already sit at base..base+num_params; null the rest.
  for (std::size_t i = static_cast<std::size_t>(fn.num_params);
       i < static_cast<std::size_t>(fn.num_locals); ++i) {
    stack_[base + i] = Value::Null();
  }
  sp_ = base + static_cast<std::size_t>(fn.num_locals);
  frames_[nframes_++] = Frame{&fn, 0, base};
}

Value VM::Execute(int fn_index, std::span<const Value> args) {
  const std::size_t entry_sp = sp_;
  const std::size_t entry_frames = nframes_;
  try {
    const auto& fn = program_.functions[static_cast<std::size_t>(fn_index)];
    if (sp_ + args.size() > stack_slots_) {
      throw Trap("VM stack overflow");
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
      stack_[sp_ + i] = args[i];
    }
    sp_ += args.size();
    PushFrame(fn, entry_frames);
    if (jit_ != nullptr) {
      return RunJit(fn_index, entry_frames);
    }
    return threaded_ ? RunThreaded(entry_frames) : RunSwitch(entry_frames);
  } catch (...) {
    // Unwind to the caller's state so the VM stays usable after a trap.
    nframes_ = entry_frames;
    sp_ = entry_sp;
    throw;
  }
}

Value VM::RunJit(int fn_index, std::size_t entry_frames) {
  if (jit_->compiled(fn_index)) {
    // ctx is authoritative for the mutable registers of execution while
    // native code runs; the entry frame was already pushed by Execute.
    JitCtx ctx;
    ctx.vm = this;
    ctx.stack = stack_;
    ctx.globals = globals_.data();
    ctx.frames = frames_;
    ctx.nframes = nframes_;
    ctx.sp = sp_;
    ctx.fuel = fuel_;
    ctx.retired = instructions_retired_;
    ctx.entry_frames = entry_frames;
    const std::uint32_t status = jit_->Enter(ctx, fn_index);
    nframes_ = ctx.nframes;
    sp_ = ctx.sp;
    fuel_ = ctx.fuel;
    instructions_retired_ = ctx.retired;
    if (status == kJitEntryReturned) {
      return Value{ctx.ret_bits};
    }
    if (status == kJitException) {
      std::exception_ptr pending = std::move(jit_pending_);
      jit_pending_ = nullptr;
      std::rethrow_exception(pending);
    }
    // kJitDeopt: native code reconstructed interpreter frame state (pc at the
    // instruction to re-execute, sp committed, ledgers corrected). Deopt is
    // wholesale — the rest of this entry runs interpreted, which keeps the
    // exit protocol trivial and the interpreter the single source of truth
    // for every slow path.
    jit_->CountDeopt();
  }
  return threaded_ ? RunThreaded(entry_frames) : RunSwitch(entry_frames);
}

// Shared per-instruction bookkeeping: retire, charge fuel, profile. `ip` must
// already point at the fetched instruction. Exhaustion is sticky: the
// budget stays 0 (the decrement left -1, which reads as unlimited) until the
// host refuels, so a second call on a spent VM traps at its first insn.
#define GRAFTLAB_VM_PRELUDE()                                          \
  do {                                                                 \
    ++instructions_retired_;                                           \
    if (fuel_ >= 0 && fuel_-- == 0) {                                  \
      fuel_ = 0;                                                       \
      throw FuelExhausted();                                           \
    }                                                                  \
    if (op_counts_ != nullptr) {                                       \
      const auto cur = static_cast<std::size_t>(ip->op);               \
      ++op_counts_[cur];                                               \
      ++pair_counts_[prev_op * kNumOps + cur];                         \
      prev_op = cur;                                                   \
    }                                                                  \
  } while (0)

Value VM::RunSwitch(std::size_t entry_frames) {
  Frame* frame = &frames_[nframes_ - 1];
  const Insn* code = frame->fn->code.data();
  std::size_t pc = frame->pc;
  Value* const stack = stack_;
  std::size_t sp = sp_;
  std::size_t prev_op = kNumOps;  // profile sentinel: no predecessor yet
  const Insn* ip;

  for (;;) {
    ip = &code[pc++];
    GRAFTLAB_VM_PRELUDE();
    switch (ip->op) {
#define GRAFTLAB_VM_OP(name) case Op::name:
#define GRAFTLAB_VM_END_OP break;
#include "src/minnow/vm_dispatch.inc"
#undef GRAFTLAB_VM_OP
#undef GRAFTLAB_VM_END_OP
    }
  }
}

// Pinned to a cache-line boundary: the handlers' offsets within their 64-byte
// lines then depend on this function alone, not on how much code the linker
// places before it. Without the pin, resizing unrelated code moved
// eviction.interp_x_c by 8-11% (EXPERIMENTS.md, code placement).
[[gnu::aligned(64)]] Value VM::RunThreaded(std::size_t entry_frames) {
#if GRAFTLAB_VM_COMPUTED_GOTO
  // One label per opcode, generated from the same X-macro as the enum, so
  // the table cannot drift out of order.
  static const void* const kLabels[] = {
#define GRAFTLAB_MINNOW_LABEL_ENTRY(op, ...) &&Lbl_##op,
      GRAFTLAB_MINNOW_OPS(GRAFTLAB_MINNOW_LABEL_ENTRY)
#undef GRAFTLAB_MINNOW_LABEL_ENTRY
  };
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kNumOps);

  Frame* frame = &frames_[nframes_ - 1];
  const Insn* code = frame->fn->code.data();
  std::size_t pc = frame->pc;
  Value* const stack = stack_;
  std::size_t sp = sp_;
  std::size_t prev_op = kNumOps;
  const Insn* ip;

// The dispatch is replicated at the end of every opcode body (instead of
// jumping back to one shared site) so the branch predictor sees one indirect
// branch per opcode — the classic win of token threading over switch.
#define GRAFTLAB_VM_DISPATCH()                           \
  do {                                                   \
    ip = &code[pc++];                                    \
    GRAFTLAB_VM_PRELUDE();                               \
    goto* kLabels[static_cast<std::size_t>(ip->op)];     \
  } while (0)

  GRAFTLAB_VM_DISPATCH();

#define GRAFTLAB_VM_OP(name) Lbl_##name:
#define GRAFTLAB_VM_END_OP GRAFTLAB_VM_DISPATCH();
#include "src/minnow/vm_dispatch.inc"
#undef GRAFTLAB_VM_OP
#undef GRAFTLAB_VM_END_OP
#undef GRAFTLAB_VM_DISPATCH

  __builtin_unreachable();
#else
  return RunSwitch(entry_frames);
#endif
}

#undef GRAFTLAB_VM_PRELUDE

}  // namespace minnow
