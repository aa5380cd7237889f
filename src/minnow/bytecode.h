// Minnow bytecode: the machine-independent format grafts are shipped in.
//
// A compact stack machine, in the mold of the JVM bytecode the paper's Java
// numbers come from. Every instruction is an opcode plus one signed 64-bit
// operand. The compiler guarantees type soundness; the load-time verifier
// (verifier.h) independently re-checks the structural properties the kernel
// must not take on faith (jump targets, stack discipline, slot and pool
// indices), mirroring how a kernel would treat downloaded code.
//
// The opcode set is defined once, one row per opcode, in GRAFTLAB_MINNOW_OPS.
// A row carries the opcode's mnemonic, its operand-stack shape, how control
// leaves it, what its operand holds, and the comparison it performs. The
// macro generates the enum, kNumOps, the OpInfo table, and the interpreter's
// computed-goto label table. The verifier, the JIT's flow analysis, the
// fuser, the elider and the disassembler all read each opcode's shape from
// that table through the helpers below, so none keeps its own copy. Adding
// an opcode means one row here plus its interpreter body (vm_dispatch.inc)
// and its JIT template (jit_emit_x64.inc). Opcode semantics:
//
//   kNop
//   kConstInt      push operand
//   kConstNull     push null reference
//   kLoadLocal     push locals[operand]
//   kStoreLocal    locals[operand] = pop
//   kLoadGlobal    push globals[operand]
//   kStoreGlobal   globals[operand] = pop
//   kPop, kDup
//
//   Signed 64-bit integer arithmetic (b = pop, a = pop, push a OP b):
//   kAddI kSubI kMulI kDivI kModI kNegI kAndI kOrI kXorI kShlI kShrI kNotI
//   (kDivI/kModI trap on divide by zero and INT64_MIN / -1; shift counts
//   masked to 63; kShrI is an arithmetic shift.)
//
//   u32 arithmetic, result truncated modulo 2^32:
//   kAddU kSubU kMulU kDivU kModU kShlU kShrU kNotU
//   (shift counts masked to 31; kShrU is a logical shift.)
//
//   Comparisons (push bool): kEqI kNeI kLtI kLeI kGtI kGeI kLtU kLeU kGtU
//   kGeU kEqRef kNeRef; kNotB is logical not.
//
//   Narrowing casts: kCastU32, kCastByte.
//
//   Control flow (branch operands are absolute instruction indices):
//   kJmp kJmpIfFalse kJmpIfTrue
//   kCall          operand = function index; args on stack left-to-right
//   kCallHost      operand = host import index
//   kRet           return top of stack
//   kRetVoid
//
//   Heap:
//   kNewStruct     operand = struct id
//   kNewArray      operand = element TypeKind; length popped from stack
//   kLoadField     operand = field index; object popped
//   kStoreField    value = pop, object = pop
//   kLoadElem      index = pop, array = pop
//   kStoreElem     value = pop, index = pop, array = pop
//   kArrayLen      array popped
//
//   kTrap          unconditional trap; operand selects the message
//
// Superinstructions (emitted only by fuse.h's FuseSuperinstructions, never
// by the compiler):
//
//   kLoadAddI      tos += locals[operand]            (kLoadLocal + kAddI)
//   kAddConstI     tos += operand                    (kConstInt + kAddI)
//   kConstStore    locals[slot] = const              (kConstInt + kStoreLocal;
//                  operand packs const<<32 | slot, see PackConstStore)
//   kBrEqI..kBrGeI pop b, pop a, jump to operand when a CMP b
//                  (comparison + kJmpIfTrue, or the inverted comparison +
//                  kJmpIfFalse)
//   kBrEqRef/kBrNeRef  reference forms of the above
//   kBrEqImmI..kBrGeImmI  pop a, jump to target when a CMP imm
//                  (kConstInt + comparison + branch; operand packs
//                  imm<<32 | target, see PackImmBranch)
//   kLoadLocal2    push locals[a], push locals[b]    (kLoadLocal + kLoadLocal;
//                  operand packs a<<32 | b, see PackSlotPair)
//   kLoadConstI    push locals[slot], push const     (kLoadLocal + kConstInt;
//                  operand packs const<<32 | slot like kConstStore)
//   kMoveLocal     locals[dst] = locals[src]         (kLoadLocal + kStoreLocal;
//                  operand packs src<<32 | dst)
//   kStoreLoad     locals[a] = pop, push locals[b]   (kStoreLocal + kLoadLocal;
//                  operand packs a<<32 | b)
//   kLoadGlobalLocal  push globals[g], push locals[s]  (kLoadGlobal +
//                  kLoadLocal; operand packs g<<32 | s)
//
// Unchecked variants (emitted only by elide.h's load-time check-elision
// pass, and only when its abstract interpreter has proven the elided
// runtime check can never fire; the verifier refuses them unless the
// program carries a matching elision certificate — see ElisionCertificate):
//
//   kLoadElemNC    kLoadElem without the null, array-kind, and bounds checks
//   kStoreElemNC   kStoreElem without the null, array-kind, and bounds checks
//   kLoadFieldNC   kLoadField without the null check (field-index check kept)
//   kStoreFieldNC  kStoreField without the null check (field-index check kept)
//   kDivNZ         kDivI without the zero-divisor and INT64_MIN/-1 checks
//   kModNZ         kModI without the zero-divisor and INT64_MIN/-1 checks
//   kArrayLenNC    kArrayLen without the null and array-kind checks

#ifndef GRAFTLAB_SRC_MINNOW_BYTECODE_H_
#define GRAFTLAB_SRC_MINNOW_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/minnow/types.h"

// X-macro over every opcode, in enum order: X(op, mnemonic, pops, pushes,
// control, operand, compare), with the last three naming a Control, an
// Operand and an Op (see OpInfo below). New opcodes go at the end so fused
// programs disassembled in old logs stay readable.
#define GRAFTLAB_MINNOW_OPS(X)                                                                  \
  X(kNop,             "nop",               0,         0,         kNext,   kNone,        kNop)   \
  X(kConstInt,        "const.i",           0,         1,         kNext,   kImm,         kNop)   \
  X(kConstNull,       "const.null",        0,         1,         kNext,   kNone,        kNop)   \
  X(kLoadLocal,       "load.local",        0,         1,         kNext,   kLocal,       kNop)   \
  X(kStoreLocal,      "store.local",       1,         0,         kNext,   kLocal,       kNop)   \
  X(kLoadGlobal,      "load.global",       0,         1,         kNext,   kGlobal,      kNop)   \
  X(kStoreGlobal,     "store.global",      1,         0,         kNext,   kGlobal,      kNop)   \
  X(kPop,             "pop",               1,         0,         kNext,   kNone,        kNop)   \
  X(kDup,             "dup",               1,         2,         kNext,   kNone,        kNop)   \
  X(kAddI,            "add.i",             2,         1,         kNext,   kNone,        kNop)   \
  X(kSubI,            "sub.i",             2,         1,         kNext,   kNone,        kNop)   \
  X(kMulI,            "mul.i",             2,         1,         kNext,   kNone,        kNop)   \
  X(kDivI,            "div.i",             2,         1,         kNext,   kNone,        kNop)   \
  X(kModI,            "mod.i",             2,         1,         kNext,   kNone,        kNop)   \
  X(kNegI,            "neg.i",             1,         1,         kNext,   kNone,        kNop)   \
  X(kAndI,            "and.i",             2,         1,         kNext,   kNone,        kNop)   \
  X(kOrI,             "or.i",              2,         1,         kNext,   kNone,        kNop)   \
  X(kXorI,            "xor.i",             2,         1,         kNext,   kNone,        kNop)   \
  X(kShlI,            "shl.i",             2,         1,         kNext,   kNone,        kNop)   \
  X(kShrI,            "shr.i",             2,         1,         kNext,   kNone,        kNop)   \
  X(kNotI,            "not.i",             1,         1,         kNext,   kNone,        kNop)   \
  X(kAddU,            "add.u",             2,         1,         kNext,   kNone,        kNop)   \
  X(kSubU,            "sub.u",             2,         1,         kNext,   kNone,        kNop)   \
  X(kMulU,            "mul.u",             2,         1,         kNext,   kNone,        kNop)   \
  X(kDivU,            "div.u",             2,         1,         kNext,   kNone,        kNop)   \
  X(kModU,            "mod.u",             2,         1,         kNext,   kNone,        kNop)   \
  X(kShlU,            "shl.u",             2,         1,         kNext,   kNone,        kNop)   \
  X(kShrU,            "shr.u",             2,         1,         kNext,   kNone,        kNop)   \
  X(kNotU,            "not.u",             1,         1,         kNext,   kNone,        kNop)   \
  X(kEqI,             "eq.i",              2,         1,         kNext,   kNone,        kEqI)   \
  X(kNeI,             "ne.i",              2,         1,         kNext,   kNone,        kNeI)   \
  X(kLtI,             "lt.i",              2,         1,         kNext,   kNone,        kLtI)   \
  X(kLeI,             "le.i",              2,         1,         kNext,   kNone,        kLeI)   \
  X(kGtI,             "gt.i",              2,         1,         kNext,   kNone,        kGtI)   \
  X(kGeI,             "ge.i",              2,         1,         kNext,   kNone,        kGeI)   \
  X(kLtU,             "lt.u",              2,         1,         kNext,   kNone,        kLtU)   \
  X(kLeU,             "le.u",              2,         1,         kNext,   kNone,        kLeU)   \
  X(kGtU,             "gt.u",              2,         1,         kNext,   kNone,        kGtU)   \
  X(kGeU,             "ge.u",              2,         1,         kNext,   kNone,        kGeU)   \
  X(kEqRef,           "eq.ref",            2,         1,         kNext,   kNone,        kEqRef) \
  X(kNeRef,           "ne.ref",            2,         1,         kNext,   kNone,        kNeRef) \
  X(kNotB,            "not.b",             1,         1,         kNext,   kNone,        kNop)   \
  X(kCastU32,         "cast.u32",          1,         1,         kNext,   kNone,        kNop)   \
  X(kCastByte,        "cast.byte",         1,         1,         kNext,   kNone,        kNop)   \
  X(kJmp,             "jmp",               0,         0,         kJump,   kTarget,      kNop)   \
  X(kJmpIfFalse,      "jmp.false",         1,         0,         kBranch, kTarget,      kNop)   \
  X(kJmpIfTrue,       "jmp.true",          1,         0,         kBranch, kTarget,      kNop)   \
  X(kCall,            "call",              kVarStack, kVarStack, kCall,   kFunction,    kNop)   \
  X(kCallHost,        "call.host",         kVarStack, kVarStack, kCall,   kHost,        kNop)   \
  X(kRet,             "ret",               1,         0,         kReturn, kNone,        kNop)   \
  X(kRetVoid,         "ret.void",          0,         0,         kReturn, kNone,        kNop)   \
  X(kNewStruct,       "new.struct",        0,         1,         kNext,   kStruct,      kNop)   \
  X(kNewArray,        "new.array",         1,         1,         kNext,   kElemKind,    kNop)   \
  X(kLoadField,       "load.field",        1,         1,         kNext,   kField,       kNop)   \
  X(kStoreField,      "store.field",       2,         0,         kNext,   kField,       kNop)   \
  X(kLoadElem,        "load.elem",         2,         1,         kNext,   kElemKind,    kNop)   \
  X(kStoreElem,       "store.elem",        3,         0,         kNext,   kElemKind,    kNop)   \
  X(kArrayLen,        "array.len",         1,         1,         kNext,   kNone,        kNop)   \
  X(kTrap,            "trap",              0,         0,         kTrap,   kImm,         kNop)   \
  X(kLoadAddI,        "load+add.i",        1,         1,         kNext,   kLocal,       kNop)   \
  X(kAddConstI,       "add.const.i",       1,         1,         kNext,   kImm,         kNop)   \
  X(kConstStore,      "const+store",       0,         0,         kNext,   kConstLocal,  kNop)   \
  X(kBrEqI,           "br.eq.i",           2,         0,         kBranch, kTarget,      kEqI)   \
  X(kBrNeI,           "br.ne.i",           2,         0,         kBranch, kTarget,      kNeI)   \
  X(kBrLtI,           "br.lt.i",           2,         0,         kBranch, kTarget,      kLtI)   \
  X(kBrLeI,           "br.le.i",           2,         0,         kBranch, kTarget,      kLeI)   \
  X(kBrGtI,           "br.gt.i",           2,         0,         kBranch, kTarget,      kGtI)   \
  X(kBrGeI,           "br.ge.i",           2,         0,         kBranch, kTarget,      kGeI)   \
  X(kBrEqRef,         "br.eq.ref",         2,         0,         kBranch, kTarget,      kEqRef) \
  X(kBrNeRef,         "br.ne.ref",         2,         0,         kBranch, kTarget,      kNeRef) \
  X(kBrEqImmI,        "br.eq.imm.i",       1,         0,         kBranch, kImmTarget,   kEqI)   \
  X(kBrNeImmI,        "br.ne.imm.i",       1,         0,         kBranch, kImmTarget,   kNeI)   \
  X(kBrLtImmI,        "br.lt.imm.i",       1,         0,         kBranch, kImmTarget,   kLtI)   \
  X(kBrLeImmI,        "br.le.imm.i",       1,         0,         kBranch, kImmTarget,   kLeI)   \
  X(kBrGtImmI,        "br.gt.imm.i",       1,         0,         kBranch, kImmTarget,   kGtI)   \
  X(kBrGeImmI,        "br.ge.imm.i",       1,         0,         kBranch, kImmTarget,   kGeI)   \
  X(kLoadLocal2,      "load.local2",       0,         2,         kNext,   kLocalPair,   kNop)   \
  X(kLoadConstI,      "load+const.i",      0,         2,         kNext,   kLocalConst,  kNop)   \
  X(kMoveLocal,       "move.local",        0,         0,         kNext,   kLocalPair,   kNop)   \
  X(kStoreLoad,       "store+load",        1,         1,         kNext,   kLocalPair,   kNop)   \
  X(kLoadGlobalLocal, "load.global+local", 0,         2,         kNext,   kGlobalLocal, kNop)   \
  X(kLoadElemNC,      "load.arr.nc",       2,         1,         kNext,   kElemKind,    kNop)   \
  X(kStoreElemNC,     "store.arr.nc",      3,         0,         kNext,   kElemKind,    kNop)   \
  X(kLoadFieldNC,     "deref.nc",          1,         1,         kNext,   kField,       kNop)   \
  X(kStoreFieldNC,    "deref.store.nc",    2,         0,         kNext,   kField,       kNop)   \
  X(kDivNZ,           "div.nz",            2,         1,         kNext,   kNone,        kNop)   \
  X(kModNZ,           "mod.nz",            2,         1,         kNext,   kNone,        kNop)   \
  X(kArrayLenNC,      "len.nc",            1,         1,         kNext,   kNone,        kNop)

namespace minnow {

enum class Op : std::uint8_t {
#define GRAFTLAB_MINNOW_ENUM_ENTRY(op, ...) op,
  GRAFTLAB_MINNOW_OPS(GRAFTLAB_MINNOW_ENUM_ENTRY)
#undef GRAFTLAB_MINNOW_ENUM_ENTRY
};

inline constexpr std::size_t kNumOps = 0
#define GRAFTLAB_MINNOW_COUNT_ENTRY(op, ...) +1
    GRAFTLAB_MINNOW_OPS(GRAFTLAB_MINNOW_COUNT_ENTRY)
#undef GRAFTLAB_MINNOW_COUNT_ENTRY
    ;

// How control leaves an instruction.
enum class Control : std::uint8_t {
  kNext,    // falls through to pc + 1
  kBranch,  // to its target or to pc + 1
  kJump,    // to its target only
  kCall,    // runs a function or host import, then falls through
  kReturn,  // leaves the function
  kTrap,    // raises a trap
};

// What an instruction's operand holds. The packed forms are built by the
// Pack* helpers below.
enum class Operand : std::uint8_t {
  kNone,         // nothing (the operand is ignored)
  kImm,          // an integer constant, or kTrap's message selector
  kLocal,        // a local slot
  kGlobal,       // a global index
  kFunction,     // a function index
  kHost,         // a host import index
  kStruct,       // a struct id
  kElemKind,     // an array element TypeKind
  kField,        // a field index
  kTarget,       // a branch target
  kImmTarget,    // imm<<32 | target (PackImmBranch)
  kConstLocal,   // const<<32 | slot, const stored into the slot (PackConstStore)
  kLocalConst,   // const<<32 | slot, slot then const pushed (PackConstStore)
  kLocalPair,    // a<<32 | b, two local slots (PackSlotPair)
  kGlobalLocal,  // g<<32 | s, a global and a local slot (PackSlotPair)
};

// The pops/pushes of kCall and kCallHost: the callee's signature decides
// them (ResolveShape).
inline constexpr int kVarStack = -1;

// One row of GRAFTLAB_MINNOW_OPS.
struct OpInfo {
  const char* name;
  int pops;
  int pushes;
  Control control;
  Operand operand;
  // Comparisons: the opcode itself. Fused compare-and-branches: the
  // comparison they branch on. Everything else: kNop.
  Op compare;
};

inline constexpr OpInfo kOpTable[] = {
#define GRAFTLAB_MINNOW_INFO_ENTRY(op, name, pops, pushes, control, operand, compare) \
  {name, pops, pushes, Control::control, Operand::operand, Op::compare},
    GRAFTLAB_MINNOW_OPS(GRAFTLAB_MINNOW_INFO_ENTRY)
#undef GRAFTLAB_MINNOW_INFO_ENTRY
};

// The row of a byte outside the opcode set: no shape, no successor.
inline constexpr OpInfo kUnknownOp = {"?", 0, 0, Control::kTrap, Operand::kNone, Op::kNop};

inline constexpr bool IsValidOp(Op op) { return static_cast<std::size_t>(op) < kNumOps; }

inline constexpr const OpInfo& InfoOf(Op op) {
  return IsValidOp(op) ? kOpTable[static_cast<std::size_t>(op)] : kUnknownOp;
}

inline constexpr const char* OpName(Op op) { return InfoOf(op).name; }

// True when the instruction names a branch target (see BranchTarget).
inline constexpr bool HasTarget(Op op) {
  const Control c = InfoOf(op).control;
  return c == Control::kBranch || c == Control::kJump;
}

// True when control may continue at pc + 1.
inline constexpr bool FallsThrough(Op op) {
  const Control c = InfoOf(op).control;
  return c == Control::kNext || c == Control::kBranch || c == Control::kCall;
}

// True when the instruction ends a basic block: it branches, calls, or leaves.
inline constexpr bool EndsBlock(Op op) { return InfoOf(op).control != Control::kNext; }

// The comparison that holds exactly when `cmp` does not; kNop when `cmp` is
// not a comparison.
inline constexpr Op NegateCompare(Op cmp) {
  switch (cmp) {
    case Op::kEqI: return Op::kNeI;
    case Op::kNeI: return Op::kEqI;
    case Op::kLtI: return Op::kGeI;
    case Op::kLeI: return Op::kGtI;
    case Op::kGtI: return Op::kLeI;
    case Op::kGeI: return Op::kLtI;
    case Op::kLtU: return Op::kGeU;
    case Op::kLeU: return Op::kGtU;
    case Op::kGtU: return Op::kLeU;
    case Op::kGeU: return Op::kLtU;
    case Op::kEqRef: return Op::kNeRef;
    case Op::kNeRef: return Op::kEqRef;
    default: return Op::kNop;
  }
}

// The fused compare-and-branch that branches on `cmp` with a `form` operand
// (kTarget or kImmTarget); kNop when there is none.
inline constexpr Op FusedBranch(Op cmp, Operand form) {
  for (std::size_t i = 0; cmp != Op::kNop && i < kNumOps; ++i) {
    if (kOpTable[i].control == Control::kBranch && kOpTable[i].operand == form &&
        kOpTable[i].compare == cmp) {
      return static_cast<Op>(i);
    }
  }
  return Op::kNop;
}

// True for the unchecked opcode variants only the check-elision pass
// (elide.h) may emit. The verifier rejects them unless the program's
// elision certificate is attached and its code hash matches. Bytes past the
// opcode table are no opcode at all (the verifier calls them unknown).
inline constexpr bool IsUncheckedOp(Op op) {
  return op >= Op::kLoadElemNC && IsValidOp(op);
}

// kConstStore packs a 32-bit constant and a local slot into one operand.
inline constexpr std::int64_t PackConstStore(std::int32_t value, std::uint32_t slot) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(static_cast<std::uint32_t>(value)) << 32 |
                                   slot);
}
inline constexpr std::int32_t ConstStoreValue(std::int64_t operand) {
  return static_cast<std::int32_t>(static_cast<std::uint64_t>(operand) >> 32);
}
inline constexpr std::uint32_t ConstStoreSlot(std::int64_t operand) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(operand));
}

// kBr*ImmI packs a 32-bit immediate and a branch target the same way.
inline constexpr std::int64_t PackImmBranch(std::int32_t imm, std::uint32_t target) {
  return PackConstStore(imm, target);
}
inline constexpr std::int32_t ImmBranchValue(std::int64_t operand) { return ConstStoreValue(operand); }
inline constexpr std::uint32_t ImmBranchTarget(std::int64_t operand) { return ConstStoreSlot(operand); }

// kLoadLocal2/kMoveLocal/kStoreLoad/kLoadGlobalLocal pack two u32 indices
// (slot/slot, src/dst, or global/slot) into one operand. kLoadConstI reuses
// the PackConstStore layout (const<<32 | slot).
inline constexpr std::int64_t PackSlotPair(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) << 32 | b);
}
inline constexpr std::uint32_t SlotPairA(std::int64_t operand) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(operand) >> 32);
}
inline constexpr std::uint32_t SlotPairB(std::int64_t operand) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(operand));
}

struct Insn {
  Op op = Op::kNop;
  std::int64_t operand = 0;
};

// The target of an instruction for which HasTarget holds.
inline constexpr std::int64_t BranchTarget(const Insn& insn) {
  return InfoOf(insn.op).operand == Operand::kImmTarget
             ? static_cast<std::int64_t>(ImmBranchTarget(insn.operand))
             : insn.operand;
}

inline constexpr void SetBranchTarget(Insn& insn, std::int64_t target) {
  if (InfoOf(insn.op).operand == Operand::kImmTarget) {
    insn.operand = PackImmBranch(ImmBranchValue(insn.operand), static_cast<std::uint32_t>(target));
  } else {
    insn.operand = target;
  }
}

struct FunctionCode {
  std::string name;
  int num_params = 0;
  int num_locals = 0;  // including params
  bool returns_value = false;
  std::vector<Insn> code;
  int max_stack = 0;  // filled by the verifier
};

// A struct's runtime layout: slot count plus which slots hold references
// (the GC's field map).
struct StructLayout {
  std::string name;
  int num_fields = 0;
  std::vector<bool> field_is_ref;
};

// One imported host function.
struct HostImport {
  std::string name;
  int arity = 0;
  bool returns_value = false;
};

struct GlobalSlot {
  std::string name;
  bool is_ref = false;
};

// Proof-carrying stamp attached by the check-elision pass (elide.h). The
// pass only rewrites an access to its unchecked variant when its abstract
// interpreter has proven the elided check can never fire; the certificate
// binds that proof to the exact post-rewrite opcode stream via an FNV-1a
// hash, so the verifier and the VM can refuse unchecked opcodes that did
// not come out of the elision pass (or were edited after it ran).
struct ElisionCertificate {
  bool attached = false;
  std::uint64_t code_hash = 0;  // ElisionCodeHash over the rewritten program
  // Static rewrite counts, by category (each elided site is one opcode
  // replaced 1:1, so fuel and retired-instruction counts are unchanged).
  std::uint64_t checks_elided = 0;    // total sites rewritten
  std::uint64_t checks_retained = 0;  // candidate sites left checked
  std::uint64_t elem_loads_elided = 0;
  std::uint64_t elem_stores_elided = 0;
  std::uint64_t field_accesses_elided = 0;
  std::uint64_t divs_elided = 0;
  std::uint64_t array_lens_elided = 0;
};

// A compiled, shippable Minnow module.
struct Program {
  std::vector<StructLayout> structs;
  std::vector<GlobalSlot> globals;
  std::vector<FunctionCode> functions;
  std::vector<HostImport> host_imports;
  ElisionCertificate elision;

  // Index of a function by name, -1 if absent.
  int FindFunction(const std::string& name) const {
    for (std::size_t i = 0; i < functions.size(); ++i) {
      if (functions[i].name == name) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

// An instruction's operand-stack shape.
struct StackShape {
  int pops = 0;
  int pushes = 0;
};

// The shape of `insn` in `program`: the table's, or for kCall and kCallHost
// the callee's arity and result. False for a byte outside the opcode set or
// a callee index out of range.
inline bool ResolveShape(const Program& program, const Insn& insn, StackShape& shape) {
  if (!IsValidOp(insn.op)) {
    return false;
  }
  const OpInfo& info = InfoOf(insn.op);
  shape = {info.pops, info.pushes};
  if (info.pops != kVarStack) {
    return true;
  }
  const auto index = static_cast<std::size_t>(insn.operand);
  if (info.operand == Operand::kFunction) {
    if (insn.operand < 0 || index >= program.functions.size()) {
      return false;
    }
    shape = {program.functions[index].num_params, program.functions[index].returns_value ? 1 : 0};
    return true;
  }
  if (insn.operand < 0 || index >= program.host_imports.size()) {
    return false;
  }
  shape = {program.host_imports[index].arity, program.host_imports[index].returns_value ? 1 : 0};
  return true;
}

// Human-readable disassembly, for tests and debugging.
std::string Disassemble(const FunctionCode& fn);

}  // namespace minnow

#endif  // GRAFTLAB_SRC_MINNOW_BYTECODE_H_
