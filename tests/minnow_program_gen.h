// Seeded generators of well-typed Minnow programs, shared by the
// differential fuzzer (minnow_dispatch_fuzz_test.cc) and the JIT plan
// property test (minnow_jit_plan_test.cc).

#ifndef GRAFTLAB_TESTS_MINNOW_PROGRAM_GEN_H_
#define GRAFTLAB_TESTS_MINNOW_PROGRAM_GEN_H_

#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "src/minnow/compiler.h"

namespace minnow_testgen {

// --- Random program generator ---
//
// Emits well-typed straight-line-plus-structured-control programs over int
// locals. All loops are bounded by construction (fresh counter, constant
// trip count), so the only traps a generated program can raise are the
// arithmetic ones — which is exactly what we want to differential-test.

class ProgramGen {
 public:
  // `heap` adds arrays, a nullable struct local, and (possibly unguarded,
  // possibly out-of-bounds) accesses to the mix — the shapes the check
  // eliding pass reasons about, including the ones it must refuse.
  explicit ProgramGen(std::uint32_t seed, bool heap = false) : rng_(seed), heap_(heap) {}

  std::string Generate() {
    visible_ = 3;  // the v0, v1, v2 parameters
    counters_ = 0;
    arrays_ = 0;
    boxes_ = 0;
    std::string body;
    // All mutable locals are declared up front at function scope (each
    // initializer sees only the variables before it), so the statement
    // generator never has to reason about Minnow's block scoping.
    const int extra_locals = 1 + static_cast<int>(rng_() % 3);
    for (int i = 0; i < extra_locals; ++i) {
      body += "  var v" + std::to_string(visible_) + ": int = " + Expr(2) + ";\n";
      ++visible_;
    }
    if (heap_) {
      // Power-of-two lengths: `idx & (len - 1)` is the provably-in-bounds
      // access form, while raw expression indices exercise the retained
      // (and trapping) paths.
      arrays_ = 1 + static_cast<int>(rng_() % 2);
      for (int i = 0; i < arrays_; ++i) {
        array_len_[i] = 1 << (rng_() % 4);  // 1, 2, 4, or 8
        body += "  var a" + std::to_string(i) + ": int[] = new int[" +
                std::to_string(array_len_[i]) + "];\n";
      }
      boxes_ = 1;
      body += rng_() % 2 == 0 ? "  var b0: Box = null;\n" : "  var b0: Box = new Box();\n";
    }
    const int statements = 2 + static_cast<int>(rng_() % 5);
    for (int i = 0; i < statements; ++i) {
      body += Statement(2);
    }
    body += "  return " + Expr(3) + ";\n";
    std::string prologue = heap_ ? "struct Box { a: int; b: Box; }\n" : "";
    return prologue + "fn f(v0: int, v1: int, v2: int) -> int {\n" + body + "}\n";
  }

 private:
  // Constants that stress packing and overflow paths: the int32 boundary
  // (imm-branch fusion packs 32-bit immediates), INT64 extremes (kDivI /
  // kModI overflow, negation), small values (common-case fusion).
  std::int64_t Constant() {
    static constexpr std::int64_t kPool[] = {
        0,
        1,
        -1,
        2,
        7,
        63,
        255,
        -128,
        1 << 15,
        std::numeric_limits<std::int32_t>::max(),
        std::numeric_limits<std::int32_t>::min(),
        static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::max()) + 1,
        static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::min()) - 1,
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min(),
    };
    return kPool[rng_() % (sizeof(kPool) / sizeof(kPool[0]))];
  }

  std::string Var() { return "v" + std::to_string(rng_() % visible_); }

  std::string Arr() { return "a" + std::to_string(rng_() % arrays_); }

  // An int-valued heap read: an array element (masked in-bounds or raw and
  // possibly trapping), an array length, or a struct field (possibly null).
  std::string HeapExpr(int depth) {
    switch (rng_() % 4) {
      case 0: {
        const int a = static_cast<int>(rng_() % arrays_);
        return "a" + std::to_string(a) + "[(" + Expr(depth) + " & " +
               std::to_string(array_len_[a] - 1) + ")]";
      }
      case 1:
        return Arr() + "[" + Expr(depth) + "]";
      case 2:
        return Arr() + ".len";
      default:
        return "b0.a";
    }
  }

  std::string Expr(int depth) {
    if (heap_ && arrays_ > 0 && depth > 0 && rng_() % 6 == 0) {
      return HeapExpr(depth - 1);
    }
    if (depth == 0 || rng_() % 4 == 0) {
      return rng_() % 2 == 0 ? Var() : std::to_string(Constant());
    }
    // Shifts use a small masked count so behavior is defined; division and
    // modulo stay in — their traps are part of the differential contract.
    static constexpr const char* kOps[] = {"+", "-", "*", "/", "%", "&", "|", "^"};
    const std::uint32_t pick = rng_() % 10;
    if (pick == 8) {
      return "(" + Expr(depth - 1) + " << " + std::to_string(rng_() % 8) + ")";
    }
    if (pick == 9) {
      return "(" + Expr(depth - 1) + " >> " + std::to_string(rng_() % 8) + ")";
    }
    return "(" + Expr(depth - 1) + " " + kOps[pick] + " " + Expr(depth - 1) + ")";
  }

  std::string Cond() {
    static constexpr const char* kCmps[] = {"==", "!=", "<", "<=", ">", ">="};
    return Expr(1) + " " + kCmps[rng_() % 6] + " " + Expr(1);
  }

  // Heap-mutating statements, including the adversarial shapes: unguarded
  // stores (null / out-of-bounds traps are part of the differential
  // contract), guarded dereferences the elider may prove, and guard-then-
  // reassign sequences it must not trust.
  std::string HeapStatement(int depth) {
    switch (rng_() % 6) {
      case 0: {  // masked (provably in-bounds) array store
        const int a = static_cast<int>(rng_() % arrays_);
        return "  a" + std::to_string(a) + "[(" + Expr(1) + " & " +
               std::to_string(array_len_[a] - 1) + ")] = " + Expr(depth) + ";\n";
      }
      case 1:  // raw-index store; may trap out of bounds
        return "  " + Arr() + "[" + Expr(1) + "] = " + Expr(depth) + ";\n";
      case 2:  // guarded field store
        return "  if (b0 != null) { b0.a = " + Expr(depth) + "; }\n";
      case 3:  // unguarded field store; may trap on null
        return "  b0.a = " + Expr(depth) + ";\n";
      case 4:
        return "  b0 = new Box();\n";
      default:  // guard, then sometimes reassign to null behind the guard
        return "  if (b0 != null) { b0.a = b0.a + 1;" +
               std::string(rng_() % 2 == 0 ? " b0 = b0.b;" : "") + " }\n";
    }
  }

  std::string Statement(int depth) {
    if (heap_ && arrays_ > 0 && rng_() % 3 == 0) {
      return HeapStatement(depth > 0 ? depth : 1);
    }
    const std::uint32_t pick = rng_() % (depth > 0 ? 5 : 3);
    switch (pick) {
      case 0:  // const into local (feeds kConstStore fusion)
        return "  " + Var() + " = " + std::to_string(Constant()) + ";\n";
      case 1:
        return "  " + Var() + " = " + Expr(2) + ";\n";
      case 2:  // feeds kLoadAddI / kAddConstI fusion
        return "  " + Var() + " = " + Var() + " + " + std::to_string(Constant()) + ";\n";
      case 3:  // branch (feeds compare+branch fusion, both senses)
        return "  if (" + Cond() + ") {\n  " + Statement(depth - 1) + "  } else {\n  " +
               Statement(depth - 1) + "  }\n";
      default: {  // bounded loop; the counter is private to the loop statement
        const std::string i = "t" + std::to_string(counters_++);
        const int trips = 1 + static_cast<int>(rng_() % 6);
        return "  var " + i + ": int = 0;\n  while (" + i + " < " + std::to_string(trips) +
               ") {\n  " + Statement(depth - 1) + "    " + i + " = " + i + " + 1;\n  }\n";
      }
    }
  }

  std::mt19937 rng_;
  bool heap_;
  int visible_;
  int counters_;
  int arrays_ = 0;
  int boxes_ = 0;
  int array_len_[2] = {0, 0};
};

// --- Register-pressure family ---
//
// More loop-carried locals than the JIT has home registers, every one of
// them rewritten each iteration, and live across the three kinds of site
// that must see them in memory: allocation (new.*, whose collector scans
// the memory stack), host calls (call.host), and real calls (kCall to a
// callee that allocates, so it is never spliced). A loop-carried struct
// chain is reachable only through a local, and a division may trap
// mid-iteration. Programs call the host import MixHostDecl() declares.

class PressureGen {
 public:
  explicit PressureGen(std::uint32_t seed) : rng_(seed) {}

  std::string Generate() {
    const int locals = 9 + static_cast<int>(rng_() % 4);  // 9..12 > the 7 homes
    std::string body;
    for (int i = 0; i < locals; ++i) {
      body += "  var x" + std::to_string(i) + ": int = " + Operand(i) + ";\n";
    }
    body += "  var keep: Box = new Box();\n  keep.v = v1;\n";
    const int trips = 2 + static_cast<int>(rng_() % 30);
    body += "  for (var i: int = 0; i < " + std::to_string(trips) + "; i = i + 1) {\n";
    const int statements = 3 + static_cast<int>(rng_() % 6);
    for (int s = 0; s < statements; ++s) {
      body += Statement(locals);
    }
    // Rotate, so every local changes every iteration.
    body += "    var t: int = x0;\n";
    for (int i = 0; i + 1 < locals; ++i) {
      body += "    x" + std::to_string(i) + " = x" + std::to_string(i + 1) + ";\n";
    }
    body += "    x" + std::to_string(locals - 1) + " = t + i;\n  }\n";
    std::string ret = "keep.v";
    for (int i = 0; i < locals; ++i) {
      ret += " + x" + std::to_string(i) + " * " + std::to_string(2 * i + 1);
    }
    return "struct Box { v: int; next: Box; }\n"
           "fn g(x: int, b: Box) -> int {\n"
           "  var t: Box = new Box();\n  t.v = x ^ 5;\n  t.next = b;\n"
           "  return t.v + b.v;\n}\n"
           "fn f(v0: int, v1: int, v2: int) -> int {\n" +
           body + "  return " + ret + ";\n}\n";
  }

 private:
  std::string Local(int locals) { return "x" + std::to_string(rng_() % locals); }
  std::string Operand(int visible) {
    const std::uint32_t pick = rng_() % (visible > 0 ? 3 : 2);
    if (pick == 0) return "v" + std::to_string(rng_() % 3);
    if (pick == 1) return std::to_string(static_cast<int>(rng_() % 2001) - 1000);
    return "x" + std::to_string(rng_() % static_cast<std::uint32_t>(visible));
  }

  std::string Statement(int locals) {
    static constexpr const char* kOps[] = {"+", "-", "*", "^", "&", "|"};
    const std::string dst = "    " + Local(locals) + " = ";
    switch (rng_() % 7) {
      case 0:
        return dst + Local(locals) + " " + kOps[rng_() % 6] + " " + Local(locals) + ";\n";
      case 1:
        return dst + "k_mix(" + Local(locals) + ", " + Local(locals) + ");\n";
      case 2:
        return dst + "g(" + Local(locals) + ", keep);\n";
      case 3: {  // grows the chain only `keep` reaches
        const std::string nb = "nb" + std::to_string(fresh_++);
        return "    var " + nb + ": Box = new Box();\n    " + nb + ".v = " + Local(locals) +
               " + keep.v;\n    " + nb + ".next = keep;\n    keep = " + nb + ";\n";
      }
      case 4: {  // allocation churn toward the collection threshold
        const std::string junk = "junk" + std::to_string(fresh_++);
        return "    var " + junk + ": int[] = new int[4096];\n    " + junk + "[i & 4095] = " +
               Local(locals) + ";\n" + dst + junk + "[i & 4095] + keep.v;\n";
      }
      case 5:  // now and then divides by zero mid-iteration
        return dst + Local(locals) + " / (" + Local(locals) + " & 1023);\n";
      default:
        return "    if (" + Local(locals) + " < " + Local(locals) + ") {\n  " + dst +
               Local(locals) + " + 1;\n    } else {\n  " + dst + "k_mix(" + Local(locals) +
               ", i);\n    }\n";
    }
  }

  std::mt19937 rng_;
  int fresh_ = 0;
};

// The host import PressureGen programs call.
inline minnow::HostDecl MixHostDecl() {
  minnow::HostDecl mix;
  mix.name = "k_mix";
  mix.params = {minnow::Type::Int(), minnow::Type::Int()};
  mix.ret = minnow::Type::Int();
  return mix;
}

}  // namespace minnow_testgen

#endif  // GRAFTLAB_TESTS_MINNOW_PROGRAM_GEN_H_
