// Load-time check elision for verified Minnow bytecode.
//
// The paper's safety tax is paid one check at a time: every array access is
// bounds-checked, every dereference null-checked, every division validated.
// ElideChecks is the 2020s answer (Rex/MOAT-style): an abstract interpreter
// runs over the *verified* bytecode at load time, computes per-instruction
// facts — value ranges, nullability, array-ness and array-length lower
// bounds — by forward dataflow, and rewrites accesses whose checks it can
// prove dead to the unchecked opcode variants (load.arr.nc, store.arr.nc,
// deref.nc, div.nz, ...). The rewrite is strictly 1:1, so fuel accounting
// and retired-instruction counts are bit-identical to the checked program —
// the differential fuzzer asserts exactly that.
//
// Soundness rests on four pillars:
//
//   1. The program has passed VerifyProgram, so stack depths are consistent
//      and every reachable merge point has one static shape. ElideChecks
//      re-verifies and refuses programs that do not hold up.
//   2. Function parameters are TOP: the host may call any function by name
//      with arbitrary arguments, so nothing is assumed about them.
//   3. Global facts are program-wide invariants: the join of the @init end
//      state and every value any function ever stores to the global,
//      iterated to fixpoint (with widening). Flow-sensitive refinement of a
//      global is killed back to its invariant at every call, because the
//      callee may store to it. If @init itself calls a function, all global
//      invariants are dropped — code would run before initialization
//      completed. The certificate therefore carries a precondition the VM
//      enforces: a certified program refuses Call before RunInit, and
//      refuses host-side SetGlobal outright.
//   4. An elided check must imply exactly what the runtime check tested:
//      nonnull means bits != 0 (what RequireObject tests), in-bounds means
//      0 <= index < a provable lower bound on the array's length (lengths
//      are immutable after kNewArray), and div.nz requires both a nonzero
//      divisor *and* ruling out INT64_MIN / -1.
//
// The proof is bound to the rewritten code by an FNV-1a hash stamped into
// Program::elision; VerifyProgram and the VM (hence the JIT, which compiles
// only what the VM loaded) refuse unchecked opcodes whose certificate is
// missing or stale.

#ifndef GRAFTLAB_SRC_MINNOW_ELIDE_H_
#define GRAFTLAB_SRC_MINNOW_ELIDE_H_

#include <cstdint>
#include <string>

#include "src/minnow/bytecode.h"
#include "src/minnow/types.h"

namespace minnow {

// One abstract 64-bit VM slot. A single lattice covers both interpretations
// of a slot: [lo, hi] is the signed range of the raw bits, nonnull means the
// bits are provably nonzero (the exact predicate the elided null check would
// have tested), and the array facts describe the object the bits point at
// when the slot holds a reference the checked VM would have accepted.
struct AbsVal {
  std::int64_t lo = INT64_MIN;
  std::int64_t hi = INT64_MAX;
  bool nonnull = false;      // bits != 0 proven
  bool is_array = false;     // proven reference to an array object
  bool elem_known = false;   // is_array and the element kind is proven
  TypeKind elem = TypeKind::kVoid;
  std::int64_t len_lo = 0;   // proven lower bound on the array's length

  static AbsVal Top() { return AbsVal{}; }
  static AbsVal Const(std::int64_t v) {
    AbsVal out;
    out.lo = v;
    out.hi = v;
    out.nonnull = v != 0;
    return out;
  }
  static AbsVal Null() { return Const(0); }
  // An integer known only by range; nonnull follows from the range.
  static AbsVal Range(std::int64_t lo, std::int64_t hi) {
    AbsVal out;
    out.lo = lo;
    out.hi = hi;
    out.nonnull = lo > 0 || hi < 0;
    return out;
  }

  bool ExcludesZero() const { return lo > 0 || hi < 0; }

  friend bool operator==(const AbsVal& a, const AbsVal& b) {
    return a.lo == b.lo && a.hi == b.hi && a.nonnull == b.nonnull &&
           a.is_array == b.is_array && a.elem_known == b.elem_known && a.elem == b.elem &&
           a.len_lo == b.len_lo;
  }
};

// Least upper bound: the fact that holds on either path into a merge.
AbsVal Join(const AbsVal& a, const AbsVal& b);

// Widening for loop heads: `next` must be Join(prev, incoming). Any bound
// still growing is blown to its extreme so fixpoints terminate; facts that
// only shrink (nonnull, is_array, len_lo toward 0) need no acceleration.
AbsVal Widen(const AbsVal& prev, const AbsVal& next);

// Static rewrite counts from one ElideChecks run.
struct ElideStats {
  std::uint64_t checks_elided = 0;
  std::uint64_t checks_retained = 0;
  std::uint64_t elem_loads_elided = 0;
  std::uint64_t elem_stores_elided = 0;
  std::uint64_t field_accesses_elided = 0;
  std::uint64_t divs_elided = 0;
  std::uint64_t array_lens_elided = 0;
};

// Analyzes `program` (which must pass VerifyProgram and contain no unchecked
// opcodes) and rewrites proven-safe sites to their unchecked variants,
// stamping Program::elision with the counts and the post-rewrite code hash.
// Idempotent on an already-certified program. Throws std::invalid_argument
// on verification failure or on unchecked opcodes without a certificate.
ElideStats ElideChecks(Program& program);

// FNV-1a over the opcode stream (plus the layout facts the proof depends
// on); what the certificate binds the proof to.
std::uint64_t ElisionCodeHash(const Program& program);

// True when the certificate is attached and matches the current code.
bool ElisionCertificateValid(const Program& program);

// Per-function listing of every candidate site and its elided/retained
// outcome, derived from the rewritten program — the golden-file format the
// precision-regression tests pin down.
std::string DumpElision(const Program& program);

}  // namespace minnow

#endif  // GRAFTLAB_SRC_MINNOW_ELIDE_H_
