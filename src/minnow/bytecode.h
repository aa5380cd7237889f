// Minnow bytecode: the machine-independent format grafts are shipped in.
//
// A compact stack machine, in the mold of the JVM bytecode the paper's Java
// numbers come from. Every instruction is an opcode plus one signed 64-bit
// operand. The compiler guarantees type soundness; the load-time verifier
// (verifier.h) independently re-checks the structural properties the kernel
// must not take on faith (jump targets, stack discipline, slot and pool
// indices), mirroring how a kernel would treat downloaded code.
//
// The opcode set is defined once through GRAFTLAB_MINNOW_OPS so the enum, the
// name table, the interpreter's computed-goto label table, and the opcode
// profiler can never drift out of sync. Opcode semantics:
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

// X-macro over every opcode, in enum order. New opcodes go at the end so
// fused programs disassembled in old logs stay readable.
#define GRAFTLAB_MINNOW_OPS(X) \
  X(kNop)                      \
  X(kConstInt)                 \
  X(kConstNull)                \
  X(kLoadLocal)                \
  X(kStoreLocal)               \
  X(kLoadGlobal)               \
  X(kStoreGlobal)              \
  X(kPop)                      \
  X(kDup)                      \
  X(kAddI)                     \
  X(kSubI)                     \
  X(kMulI)                     \
  X(kDivI)                     \
  X(kModI)                     \
  X(kNegI)                     \
  X(kAndI)                     \
  X(kOrI)                      \
  X(kXorI)                     \
  X(kShlI)                     \
  X(kShrI)                     \
  X(kNotI)                     \
  X(kAddU)                     \
  X(kSubU)                     \
  X(kMulU)                     \
  X(kDivU)                     \
  X(kModU)                     \
  X(kShlU)                     \
  X(kShrU)                     \
  X(kNotU)                     \
  X(kEqI)                      \
  X(kNeI)                      \
  X(kLtI)                      \
  X(kLeI)                      \
  X(kGtI)                      \
  X(kGeI)                      \
  X(kLtU)                      \
  X(kLeU)                      \
  X(kGtU)                      \
  X(kGeU)                      \
  X(kEqRef)                    \
  X(kNeRef)                    \
  X(kNotB)                     \
  X(kCastU32)                  \
  X(kCastByte)                 \
  X(kJmp)                      \
  X(kJmpIfFalse)               \
  X(kJmpIfTrue)                \
  X(kCall)                     \
  X(kCallHost)                 \
  X(kRet)                      \
  X(kRetVoid)                  \
  X(kNewStruct)                \
  X(kNewArray)                 \
  X(kLoadField)                \
  X(kStoreField)               \
  X(kLoadElem)                 \
  X(kStoreElem)                \
  X(kArrayLen)                 \
  X(kTrap)                     \
  X(kLoadAddI)                 \
  X(kAddConstI)                \
  X(kConstStore)               \
  X(kBrEqI)                    \
  X(kBrNeI)                    \
  X(kBrLtI)                    \
  X(kBrLeI)                    \
  X(kBrGtI)                    \
  X(kBrGeI)                    \
  X(kBrEqRef)                  \
  X(kBrNeRef)                  \
  X(kBrEqImmI)                 \
  X(kBrNeImmI)                 \
  X(kBrLtImmI)                 \
  X(kBrLeImmI)                 \
  X(kBrGtImmI)                 \
  X(kBrGeImmI)                 \
  X(kLoadLocal2)               \
  X(kLoadConstI)               \
  X(kMoveLocal)                \
  X(kStoreLoad)                \
  X(kLoadGlobalLocal)          \
  X(kLoadElemNC)               \
  X(kStoreElemNC)              \
  X(kLoadFieldNC)              \
  X(kStoreFieldNC)             \
  X(kDivNZ)                    \
  X(kModNZ)                    \
  X(kArrayLenNC)

namespace minnow {

enum class Op : std::uint8_t {
#define GRAFTLAB_MINNOW_ENUM_ENTRY(name) name,
  GRAFTLAB_MINNOW_OPS(GRAFTLAB_MINNOW_ENUM_ENTRY)
#undef GRAFTLAB_MINNOW_ENUM_ENTRY
};

inline constexpr std::size_t kNumOps = 0
#define GRAFTLAB_MINNOW_COUNT_ENTRY(name) +1
    GRAFTLAB_MINNOW_OPS(GRAFTLAB_MINNOW_COUNT_ENTRY)
#undef GRAFTLAB_MINNOW_COUNT_ENTRY
    ;

// True for the unchecked opcode variants only the check-elision pass
// (elide.h) may emit. The verifier rejects them unless the program's
// elision certificate is attached and its code hash matches.
inline constexpr bool IsUncheckedOp(Op op) {
  return op >= Op::kLoadElemNC;
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

const char* OpName(Op op);

// Human-readable disassembly, for tests and debugging.
std::string Disassemble(const FunctionCode& fn);

}  // namespace minnow

#endif  // GRAFTLAB_SRC_MINNOW_BYTECODE_H_
