// Minnow JIT tests: native execution must be observationally identical to the
// interpreter — results, trap messages, fuel, and the retired-instruction
// ledger, bit for bit. Every test here runs the same program under an
// interpreter VM and a kJit VM and compares; in builds without JIT support
// (GRAFTLAB_JIT=OFF, non-x86-64) the kJit VM silently falls back to the
// interpreter and the comparisons become trivially true, so the suite is
// portable.
//
// The forced-deopt tests use VmOptions::jit_compile_filter to compile chosen
// opcodes as unconditional side exits, driving the deopt machinery through
// states a healthy program would rarely hit.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/grafts/minnow_grafts.h"
#include "src/minnow/compiler.h"
#include "src/minnow/diag.h"
#include "src/minnow/fuse.h"
#include "src/minnow/jit.h"
#include "src/minnow/verifier.h"
#include "src/minnow/vm.h"

namespace {

using minnow::DispatchMode;
using minnow::HostDecl;
using minnow::Jit;
using minnow::JitStats;
using minnow::Program;
using minnow::Trap;
using minnow::Type;
using minnow::Value;
using minnow::VM;
using minnow::VmOptions;

VmOptions JitOpts() {
  VmOptions options;
  options.dispatch = DispatchMode::kJit;
  return options;
}

// Everything an extension's execution can make observable.
struct Outcome {
  bool trapped = false;
  std::string message;
  std::int64_t result = 0;
  std::uint64_t retired = 0;
  std::int64_t fuel = 0;

  bool operator==(const Outcome& other) const = default;
};

// `fuel_after_init` < -1 leaves the options' budget alone; otherwise the
// budget is set after RunInit so sweeps measure only the call under test.
Outcome RunOne(const Program& program, const VmOptions& options, const std::string& fn,
               std::initializer_list<std::int64_t> args = {},
               std::int64_t fuel_after_init = -2) {
  VM vm(program, options);
  vm.RunInit();
  if (fuel_after_init >= -1) {
    vm.SetFuel(fuel_after_init);
  }
  std::vector<Value> values;
  for (const std::int64_t a : args) {
    values.push_back(Value::Int(a));
  }
  Outcome out;
  try {
    out.result = vm.Call(fn, values).AsInt();
  } catch (const Trap& trap) {
    out.trapped = true;
    out.message = trap.what();
  }
  out.retired = vm.instructions_retired();
  out.fuel = vm.fuel();
  return out;
}

// Runs `fn` under the interpreter and under the JIT with identical options
// and asserts the outcomes match exactly. Returns the interpreter outcome
// for additional assertions.
Outcome ExpectSame(const std::string& source, const std::string& fn,
                   std::initializer_list<std::int64_t> args = {},
                   VmOptions options = VmOptions{}) {
  const Program program = minnow::Compile(source);
  options.dispatch = DispatchMode::kDefault;
  const Outcome interp = RunOne(program, options, fn, args);
  options.dispatch = DispatchMode::kJit;
  const Outcome jit = RunOne(program, options, fn, args);
  EXPECT_EQ(interp, jit) << "interp: trapped=" << interp.trapped << " '" << interp.message
                         << "' result=" << interp.result << " retired=" << interp.retired
                         << " fuel=" << interp.fuel << "\njit:    trapped=" << jit.trapped
                         << " '" << jit.message << "' result=" << jit.result
                         << " retired=" << jit.retired << " fuel=" << jit.fuel;
  return interp;
}

TEST(JitBasics, ReportsDispatchModeAndStats) {
  VM vm(minnow::Compile("fn f() -> int { return 41 + 1; }"), JitOpts());
  vm.RunInit();
  if (!VM::JitDispatchAvailable()) {
    EXPECT_NE(vm.dispatch(), DispatchMode::kJit);
    EXPECT_EQ(vm.jit_stats(), nullptr);
    return;
  }
  ASSERT_EQ(vm.dispatch(), DispatchMode::kJit);
  const JitStats* stats = vm.jit_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->compiled_fns, 0u);
  EXPECT_GT(stats->bytes, 0u);
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 42);
  EXPECT_EQ(stats->deopts, 0u) << "straight-line arithmetic must not deopt";
}

TEST(JitBasics, Arithmetic) {
  ExpectSame("fn f() -> int { return 2 + 3 * 4 - 6 / 2; }", "f");
  ExpectSame("fn f() -> int { return 17 % 5; }", "f");
  ExpectSame("fn f() -> int { return -7 / 2; }", "f");
  ExpectSame("fn f() -> int { return (1 << 40) >> 35; }", "f");
  ExpectSame("fn f() -> int { return -1 >> 1; }", "f");
  ExpectSame("fn f() -> int { return ~0; }", "f");
  ExpectSame("fn f() -> int { return 12 & 10; }", "f");
  ExpectSame("fn f() -> int { return 12 | 3; }", "f");
  ExpectSame("fn f() -> int { return 12 ^ 10; }", "f");
  ExpectSame("fn f(a: int, b: int) -> int { return a * b + a - b; }", "f", {123456789, -97});
  // Power-of-two divisors and multipliers become shifts and masks; signed
  // ones must still truncate toward zero.
  const std::int64_t dividends[] = {37, -37, -32, 0, INT64_MIN, INT64_MAX};
  for (const std::int64_t a : dividends) {
    ExpectSame("fn f(a: int) -> int { return a / 16 + (a % 16) * 1000 + a * 8 + a % 1073741824; }",
               "f", {a});
    ExpectSame("fn f(a: int) -> int { return int(u32(a) / u32(8)) + int(u32(a) % u32(64)); }",
               "f", {a});
  }
}

TEST(JitBasics, U32Semantics) {
  ExpectSame("fn f() -> int { return int(u32(0xFFFFFFFF) + u32(2)); }", "f");
  ExpectSame("fn f() -> int { return int(u32(0x80000000) << 1); }", "f");
  ExpectSame("fn f() -> int { return int(u32(0x80000000) >> 31); }", "f");
  ExpectSame("fn f() -> int { return int(u32(7) * u32(0x90000001)); }", "f");
  ExpectSame("fn f() -> int { return int(u32(100) / u32(7)) + int(u32(100) % u32(7)); }", "f");
  ExpectSame("fn f(n: int) -> int { return int(u32(n) >> 33); }", "f", {512});  // count &31
}

TEST(JitBasics, ComparisonsAndBools) {
  ExpectSame(R"(fn f(a: int, b: int) -> int {
    var n: int = 0;
    if (a < b) { n = n + 1; }
    if (a <= b) { n = n + 2; }
    if (a > b) { n = n + 4; }
    if (a >= b) { n = n + 8; }
    if (a == b) { n = n + 16; }
    if (a != b) { n = n + 32; }
    if (!(a == b)) { n = n + 64; }
    return n;
  })",
             "f", {-3, 7});
  ExpectSame("fn f(a: int, b: int) -> bool { return a < b && b < 100; }", "f", {1, 2});
}

TEST(JitBasics, LoopsAndLocals) {
  ExpectSame(R"(fn f(n: int) -> int {
    var total: int = 0;
    for (var i: int = 1; i <= n; i = i + 1) { total = total + i * i; }
    return total;
  })",
             "f", {1000});
  ExpectSame(R"(fn collatz(n: int) -> int {
    var steps: int = 0;
    while (n != 1) {
      if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
      steps = steps + 1;
    }
    return steps;
  })",
             "collatz", {27});
}

TEST(JitCalls, RecursionAndMultiFunction) {
  ExpectSame(R"(
    fn fib(n: int) -> int { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
    fn f(n: int) -> int { return fib(n); }
  )",
             "f", {18});
  ExpectSame(R"(
    fn square(x: int) -> int { return x * x; }
    fn cube(x: int) -> int { return square(x) * x; }
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) { total = total + cube(i) - square(i); }
      return total;
    }
  )",
             "f", {200});
}

TEST(JitCalls, DepthLimitTrapMatches) {
  const Outcome out = ExpectSame(
      "fn down(n: int) -> int { return down(n + 1); } fn f() -> int { return down(0); }", "f");
  EXPECT_TRUE(out.trapped);
  EXPECT_EQ(out.message, "call depth limit exceeded");
}

// Deopt count of one kJit run (0 when the build has no JIT).
std::uint64_t JitDeopts(const Program& program, const VmOptions& options, const std::string& fn,
                        std::initializer_list<std::int64_t> args) {
  VM vm(program, options);
  vm.RunInit();
  std::vector<Value> values;
  for (const std::int64_t a : args) {
    values.push_back(Value::Int(a));
  }
  try {
    vm.Call(fn, values);
  } catch (const Trap&) {
  }
  return vm.jit_stats() != nullptr ? vm.jit_stats()->deopts : 0;
}

// Spliced leaf calls evaluate their depth/capacity/stack limits once per
// activation; a call that trips one must still trap at its own pc, with the
// interpreter's message and ledgers. The deopt lands on the kCall, which the
// interpreter re-executes: one deopt, and the retired count includes every
// instruction before the call and the call itself, exactly as interpreted.
TEST(JitCalls, SplicedCallDepthLimitTripsAtTheCallPc) {
  const std::string source = R"(
    fn leaf(x: int) -> int { return x * 3 + 1; }
    fn f(n: int) -> int { var t: int = n + 2; return t + leaf(t); }
  )";
  const Program program = minnow::Compile(source);
  VmOptions options;
  options.fuel = 1000;
  options.max_call_depth = 1;  // f itself is the one frame allowed
  const Outcome out = ExpectSame(source, "f", {5}, options);
  EXPECT_TRUE(out.trapped);
  EXPECT_EQ(out.message, "call depth limit exceeded");
  options.dispatch = DispatchMode::kJit;
  if (VM::JitDispatchAvailable()) {
    EXPECT_EQ(JitDeopts(program, options, "f", {5}), 1u);
  }
  options.max_call_depth = 2;  // room for the spliced frame: no trap, no deopt
  options.dispatch = DispatchMode::kDefault;
  EXPECT_FALSE(ExpectSame(source, "f", {5}, options).trapped);
  options.dispatch = DispatchMode::kJit;
  EXPECT_EQ(JitDeopts(program, options, "f", {5}), 0u);
}

TEST(JitCalls, SplicedCallStackLimitMatchesPerSite) {
  // Two splice sites at different operand depths: the deeper one needs
  // more stack. Sweeping the stack size walks the overflow across both
  // sites (and across the activation-wide flag, which only says "some site
  // may overflow" — the shallow site must still run).
  const std::string source = R"(
    fn leaf(x: int) -> int { return x + 1; }
    fn f(a: int) -> int { var s: int = leaf(a); return s + (a * (a + (a + leaf(a)))); }
  )";
  for (std::size_t slots = 1; slots <= 24; ++slots) {
    VmOptions options;
    options.fuel = 1000;
    options.stack_slots = slots;
    ExpectSame(source, "f", {3}, options);
    if (HasFailure()) {
      FAIL() << "stack_slots " << slots;
    }
  }
}

// --- deferred operands at side exits ---
//
// Compiled code keeps operands in registers, as immediates, or as
// references to the local they were loaded from, and stores them only when
// something needs the memory frame. Each program below side-exits while at
// least three operands are pending — a local reference (`a`), an immediate
// (7), and a register (a * 3) — once in the function itself and once inside
// a spliced callee, through every kind of exit: a trap, fuel exhaustion, a
// filter-denied opcode, and an unbound host. The divisor is itself a
// pending register, so the re-executed division traps only if the exit
// stored it. Result or trap, fuel, and the
// retired count must equal the interpreter's, raw and fused.

Program CompileVariant(const std::string& source, bool fuse,
                       const std::vector<HostDecl>& hosts = {}) {
  Program program = minnow::Compile(source, hosts);
  if (fuse) {
    minnow::FuseSuperinstructions(program);
    minnow::VerifyProgram(program);
  }
  return program;
}

void ExpectSameOutcome(const Program& program, VmOptions options, const std::string& fn,
                       std::initializer_list<std::int64_t> args, const std::string& label,
                       std::int64_t fuel_after_init = -2) {
  options.dispatch = DispatchMode::kDefault;
  const Outcome interp = RunOne(program, options, fn, args, fuel_after_init);
  options.dispatch = DispatchMode::kJit;
  const Outcome jit = RunOne(program, options, fn, args, fuel_after_init);
  EXPECT_EQ(interp, jit) << label << ": interp(trapped=" << interp.trapped << " '"
                         << interp.message << "' result=" << interp.result
                         << " retired=" << interp.retired << " fuel=" << interp.fuel
                         << ") jit(trapped=" << jit.trapped << " '" << jit.message
                         << "' result=" << jit.result << " retired=" << jit.retired
                         << " fuel=" << jit.fuel << ")";
}

constexpr char kPendingInCaller[] = R"(
  fn f(a: int, d: int) -> int { return a + (7 + ((a * 3) + (a / (d * 2)))); }
)";
constexpr char kPendingInCallee[] = R"(
  fn leaf(x: int, y: int) -> int { return x + (5 + ((x * 2) + (x / (y * 2)))); }
  fn f(a: int, d: int) -> int { return a + (7 + ((a * 3) + leaf(a, d))); }
)";

// `dirty` runs first and leaves nonzero values in the first twelve operand
// slots (call arguments are stored), so a divisor the trap exit failed to
// store would read as nonzero and the division would not trap.
constexpr char kDirtySlots[] = R"(
  fn sink(p0: int, p1: int, p2: int, p3: int, p4: int, p5: int, p6: int, p7: int, p8: int,
          p9: int, p10: int, p11: int) -> int { return p0; }
  fn dirty(x: int) -> int { return sink(x, x, x, x, x, x, x, x, x, x, x, x); }
)";

TEST(JitDeopt, PendingOperandsSurviveTrapExits) {
  for (const bool fuse : {false, true}) {
    for (const char* source : {kPendingInCaller, kPendingInCallee}) {
      const Program program = CompileVariant(std::string(source) + kDirtySlots, fuse);
      VmOptions options;
      options.fuel = 10'000;
      const auto run = [&](DispatchMode mode) {
        VmOptions o = options;
        o.dispatch = mode;
        VM vm(program, o);
        vm.RunInit();
        vm.Call("dirty", {Value::Int(5)});
        Outcome out;
        try {
          out.result = vm.Call("f", {Value::Int(11), Value::Int(0)}).AsInt();
        } catch (const Trap& trap) {
          out.trapped = true;
          out.message = trap.what();
        }
        out.retired = vm.instructions_retired();
        out.fuel = vm.fuel();
        return out;
      };
      const Outcome interp = run(DispatchMode::kDefault);
      EXPECT_TRUE(interp.trapped);
      EXPECT_EQ(interp.message, "integer division by zero");
      EXPECT_EQ(interp, run(DispatchMode::kJit)) << source;
      ExpectSameOutcome(program, options, "f", {11, 4}, "no trap");
      options.dispatch = DispatchMode::kJit;
      if (VM::JitDispatchAvailable()) {
        EXPECT_EQ(JitDeopts(program, options, "f", {11, 0}), 1u) << source;
      }
    }
  }
}

TEST(JitDeopt, PendingOperandsSurviveFuelExits) {
  // In the callee variant the splice's first block charge sits below the
  // caller's pending `a`, 7, and a * 3, so exhaustion there stores them
  // and builds the callee frame.
  for (const bool fuse : {false, true}) {
    for (const char* source : {kPendingInCaller, kPendingInCallee}) {
      const Program program = CompileVariant(source, fuse);
      const Outcome full = RunOne(program, VmOptions{}, "f", {11, 4});
      ASSERT_FALSE(full.trapped);
      for (std::int64_t fuel = 0; fuel <= static_cast<std::int64_t>(full.retired) + 1; ++fuel) {
        ExpectSameOutcome(program, VmOptions{}, "f", {11, 4},
                          "fuel budget " + std::to_string(fuel), fuel);
      }
    }
  }
}

TEST(JitDeopt, PendingOperandsSurviveFilterDeniedExits) {
  for (const bool fuse : {false, true}) {
    for (const char* source : {kPendingInCaller, kPendingInCallee}) {
      const Program program = CompileVariant(source, fuse);
      for (const minnow::Op deny : {minnow::Op::kDivI, minnow::Op::kMulI, minnow::Op::kAddI}) {
        VmOptions options;
        options.fuel = 10'000;
        options.jit_compile_filter = [deny](minnow::Op op) { return op != deny; };
        ExpectSameOutcome(program, options, "f", {11, 4},
                          std::string("denied ") + minnow::OpName(deny));
      }
    }
  }
}

TEST(JitDeopt, PendingOperandsSurviveUnboundHostExits) {
  HostDecl host;
  host.name = "k_missing";
  host.params = {Type::Int()};
  host.ret = Type::Int();
  const std::string source = R"(
    fn f(a: int, d: int) -> int { return a + (7 + ((a * 3) + k_missing(a + d))); }
  )";
  for (const bool fuse : {false, true}) {
    const Program program = CompileVariant(source, fuse, {host});
    VmOptions options;
    options.fuel = 10'000;
    ExpectSameOutcome(program, options, "f", {11, 4}, "unbound host");
  }
}

TEST(JitHeap, ArraysAllKinds) {
  ExpectSame(R"(fn f() -> int {
    var a: int[] = new int[10];
    var w: u32[] = new u32[4];
    var b: byte[] = new byte[4];
    var flags: bool[] = new bool[2];
    a[3] = 70000000000;
    w[1] = u32(0xFFFFFFFF);
    b[0] = byte(300);
    flags[1] = true;
    var total: int = a[3] + int(w[1]) + int(b[0]);
    if (flags[1]) { total = total + a.len + w.len + b.len + flags.len; }
    return total;
  })",
             "f");
}

// Array sites compile to the width their opcode's element kind names. A
// program whose opcode disagrees with the array (only hand-built bytecode
// can) must deopt at that site and let the interpreter, which switches on
// the array's own kind, do the access.
TEST(JitHeap, ElementKindMismatchDeoptsToTheInterpreter) {
  Program program = minnow::Compile(R"(
    var g: byte[] = new byte[4];
    fn f(v: int) -> int { g[1] = byte(v); g[2] = byte(v + 1); return int(g[1]) + int(g[2]) * 256; }
  )");
  int patched = 0;
  for (auto& insn : program.functions[static_cast<std::size_t>(program.FindFunction("f"))].code) {
    if (insn.op == minnow::Op::kLoadElem || insn.op == minnow::Op::kStoreElem) {
      insn.operand = static_cast<std::int64_t>(minnow::TypeKind::kInt);  // claims int[]
      ++patched;
    }
  }
  ASSERT_EQ(patched, 4);
  ASSERT_TRUE(minnow::VerifyProgram(program).ok);
  VmOptions options;
  options.fuel = 10'000;
  ExpectSameOutcome(program, options, "f", {41}, "load/store with the wrong element kind");
  options.dispatch = DispatchMode::kJit;
  if (VM::JitDispatchAvailable()) {
    EXPECT_EQ(JitDeopts(program, options, "f", {41}), 1u);
  }
}

TEST(JitHeap, StructsAndLinkedList) {
  ExpectSame(R"(
    struct Node { value: int; next: Node; }
    fn f(n: int) -> int {
      var head: Node = null;
      for (var i: int = 0; i < n; i = i + 1) {
        var node: Node = new Node();
        node.value = i;
        node.next = head;
        head = node;
      }
      var total: int = 0;
      var cur: Node = head;
      while (cur != null) { total = total + cur.value; cur = cur.next; }
      return total;
    }
  )",
             "f", {500});
}

TEST(JitHeap, GcRunsUnderNativeCode) {
  // Allocation churn well past the first GC threshold; a wrong root set
  // (stale sp) would reclaim live objects and corrupt the sums.
  ExpectSame(R"(
    struct Blob { data: int[]; }
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) {
        var b: Blob = new Blob();
        b.data = new int[1000];
        b.data[999] = i;
        total = total + b.data[999];
      }
      return total;
    }
  )",
             "f", {2000});
}

// `keep` is loop-carried and homed, so between allocations its only copy is
// a register, and it is the only path to the newest Cell. Each iteration
// allocates ~8 KiB, so the 1 MiB collection threshold passes many times.
// Storing the live homes before every allocation helper is what makes the
// reference visible to the collector: without it the Cell is reclaimed and
// `keep.v` reads freed memory (ASan: heap-use-after-free) or diverges.
TEST(JitHeap, LoopCarriedReferenceInAHomeStaysAGcRoot) {
  const std::string source = R"(
    struct Cell { v: int; next: Cell; }
    fn f(n: int) -> int {
      var keep: Cell = new Cell();
      keep.v = 1;
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) {
        var junk: int[] = new int[1024];
        junk[i % 1024] = i;
        var fresh: Cell = new Cell();
        fresh.v = keep.v + junk[i % 1024];
        keep = fresh;
        total = total + keep.v;
      }
      return total + keep.v;
    }
  )";
  ExpectSame(source, "f", {2000});
  if (!VM::JitDispatchAvailable()) return;
  VM vm(minnow::Compile(source), JitOpts());
  const JitStats* stats = vm.jit_stats();
  ASSERT_NE(stats, nullptr);
  const int f = vm.program().FindFunction("f");
  EXPECT_NE(stats->homed_locals[static_cast<std::size_t>(f)] & (1u << 1), 0u)
      << "local 1 (keep) must be homed, or this test checks nothing";
}

TEST(JitHeap, HeapLimitTrapMatches) {
  VmOptions options;
  options.heap_limit = 1u << 20;
  const Outcome out = ExpectSame(R"(
    struct Keep { data: int[]; next: Keep; }
    fn f() -> int {
      var head: Keep = null;
      for (var i: int = 0; i < 64; i = i + 1) {
        var k: Keep = new Keep();
        k.data = new int[8192];
        k.next = head;
        head = k;
      }
      return 0;
    }
  )",
                                 "f", {}, options);
  EXPECT_TRUE(out.trapped);
  EXPECT_EQ(out.message, "extension heap limit exceeded");
}

TEST(JitTraps, MessagesMatchInterpreter) {
  struct Case {
    const char* source;
    std::int64_t arg;
    const char* message;
  };
  const Case cases[] = {
      {"fn f(d: int) -> int { return 1 / d; }", 0, "integer division by zero"},
      {"fn f(d: int) -> int { return 1 % d; }", 0, "integer modulo by zero"},
      {"fn f(d: int) -> int { return (0 - 9223372036854775807 - 1) / (0 - d); }", 1,
       "integer division overflow"},
      {"fn f(d: int) -> int { return int(u32(1) / u32(d - 1)); }", 1, "u32 division by zero"},
      {"fn f(d: int) -> int { var a: int[] = null; return a[d]; }", 0,
       "null dereference in array load"},
      {"fn f(d: int) -> int { var a: int[] = new int[4]; return a[d + 4]; }", 1,
       "array index 5 out of bounds [0, 4)"},
      {"fn f(d: int) -> int { var a: int[] = new int[4]; return a[0 - d]; }", 1,
       "array index -1 out of bounds [0, 4)"},
      {"fn f(d: int) -> int { var a: int[] = new int[d - 2]; return a.len; }", 1,
       "bad array length -1"},
      {"struct S { x: int; } fn f(d: int) -> int { var s: S = null; return s.x + d; }", 1,
       "null dereference in field load"},
  };
  for (const auto& [source, arg, message] : cases) {
    const Outcome out = ExpectSame(source, "f", {arg});
    EXPECT_TRUE(out.trapped) << source;
    EXPECT_EQ(out.message, message) << source;
  }
}

TEST(JitTraps, VmUsableAfterNativeTrap) {
  VM vm(minnow::Compile("fn bad(d: int) -> int { return 1 / d; }"
                        "fn good() -> int { return 7; }"),
        JitOpts());
  vm.RunInit();
  EXPECT_THROW(vm.Call("bad", {Value::Int(0)}), Trap);
  EXPECT_EQ(vm.Call("good", {}).AsInt(), 7);
  EXPECT_THROW(vm.Call("bad", {Value::Int(0)}), Trap);
  EXPECT_EQ(vm.Call("bad", {Value::Int(2)}).AsInt(), 0);
}

// The strongest equivalence check in the file: for every fuel budget from 0
// to "enough", the trap/no-trap decision, the result, the remaining fuel,
// and the retired count must be bit-identical between interpreter and JIT.
// This walks the fuel exit through every basic-block boundary and through
// mid-block exhaustion at every possible pc. `g` rotates homed locals every
// iteration, so each exit must store the homes live at its pc.
TEST(JitFuel, ExhaustionSweepIsBitIdentical) {
  const std::string source = R"(
    fn helper(x: int) -> int { return x * 2 + 1; }
    fn f(n: int) -> int {
      var a: int[] = new int[8];
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) {
        a[i % 8] = helper(i);
        total = total + a[i % 8];
      }
      return total;
    }
    fn g(n: int) -> int {
      var a: int = 1;
      var b: int = 2;
      var c: int = 3;
      var d: int = 4;
      for (var i: int = 0; i < n; i = i + 1) {
        var t: int = d;
        d = c;
        c = b ^ i;
        b = b + (a << 1);
        a = t;
        if ((i & 1) == 0) { a = a - c; }
      }
      return a + b * 3 + c * 5 + d * 7;
    }
  )";
  const Program program = minnow::Compile(source);
  const VmOptions interp_opts;
  const VmOptions jit_opts = JitOpts();
  for (const char* fn : {"f", "g"}) {
    // First find the total cost, then sweep every budget below it.
    const Outcome full = RunOne(program, interp_opts, fn, {6});
    ASSERT_FALSE(full.trapped);
    for (std::int64_t fuel = 0; fuel <= static_cast<std::int64_t>(full.retired) + 1; ++fuel) {
      const Outcome interp = RunOne(program, interp_opts, fn, {6}, fuel);
      const Outcome jit = RunOne(program, jit_opts, fn, {6}, fuel);
      EXPECT_EQ(interp, jit) << fn << " fuel budget " << fuel << ": interp(trapped="
                             << interp.trapped << " result=" << interp.result
                             << " retired=" << interp.retired << " fuel=" << interp.fuel
                             << ") jit(trapped=" << jit.trapped << " result=" << jit.result
                             << " retired=" << jit.retired << " fuel=" << jit.fuel << ")";
      if (interp.trapped) {
        EXPECT_EQ(interp.message, "fuel exhausted: graft preempted");
      }
    }
  }
  if (!VM::JitDispatchAvailable()) return;
  VM vm(program, jit_opts);
  const int g = program.FindFunction("g");
  EXPECT_EQ(vm.jit_stats()->homed_locals[static_cast<std::size_t>(g)] & 0x3fu, 0x3fu)
      << "n, a, b, c, d and i are all homed in g";
}

// Fuel is charged once per path between sync points and unequal arms get
// refunds: `h`'s loop body has a one-statement then-arm and a long
// else-arm that calls a spliced leaf with unequal arms of its own. Every
// budget from 0 up is swept, so exhaustion lands on every instruction of
// both arms — inside refunded ones included — and the interpreter must
// agree bit for bit on result, trap, remaining fuel and retired count.
TEST(JitFuel, RefundedArmsAndSplicedCalleeSweepIsBitIdentical) {
  const std::string source = R"(
    fn mix(x: int, k: int) -> int {
      if ((x & 1) == 0) { return x + k; }
      var y: int = x * 3;
      y = y ^ k;
      y = y + (y >> 2);
      return y - k;
    }
    fn h(n: int) -> int {
      var acc: int = 5;
      for (var i: int = 0; i < n; i = i + 1) {
        if ((i % 3) == 0) {
          acc = acc + 1;
        } else {
          acc = acc * 7 + i;
          acc = acc ^ (acc >> 3);
          acc = acc - mix(acc, i);
        }
        acc = acc + mix(i, acc & 15);
      }
      return acc;
    }
  )";
  const Program program = minnow::Compile(source);
  const VmOptions interp_opts;
  const VmOptions jit_opts = JitOpts();
  const Outcome full = RunOne(program, interp_opts, "h", {7});
  ASSERT_FALSE(full.trapped);
  for (std::int64_t fuel = 0; fuel <= static_cast<std::int64_t>(full.retired) + 1; ++fuel) {
    const Outcome interp = RunOne(program, interp_opts, "h", {7}, fuel);
    const Outcome jit = RunOne(program, jit_opts, "h", {7}, fuel);
    EXPECT_EQ(interp, jit) << "fuel budget " << fuel << ": interp(trapped=" << interp.trapped
                           << " result=" << interp.result << " retired=" << interp.retired
                           << " fuel=" << interp.fuel << ") jit(trapped=" << jit.trapped
                           << " result=" << jit.result << " retired=" << jit.retired
                           << " fuel=" << jit.fuel << ")";
  }
  if (!VM::JitDispatchAvailable()) return;
  VM vm(program, jit_opts);
  EXPECT_EQ(vm.jit_stats()->bailouts, 0u) << "h and mix both run natively";
}

// A metered graft that runs out stays out. The interpreter prelude and the
// JIT ledger both leave the budget at 0 — not -1, which reads as unlimited
// — so a second call on the spent VM traps at its first instruction until
// the host refuels it.
TEST(JitFuel, ExhaustionIsStickyUntilRefuel) {
  std::vector<std::uint8_t> data(256);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  std::uint64_t retired[2] = {0, 0};
  for (const bool jit : {false, true}) {
    grafts::MinnowConfig config;
    config.jit = jit;
    grafts::MinnowMd5Graft graft(config);
    graft.SetFuel(200);
    EXPECT_THROW(graft.Consume(data.data(), data.size()), minnow::FuelExhausted) << "jit=" << jit;
    EXPECT_EQ(graft.FuelRemaining(), 0) << "jit=" << jit;
    EXPECT_THROW(graft.Consume(data.data(), data.size()), minnow::FuelExhausted) << "jit=" << jit;
    EXPECT_EQ(graft.FuelRemaining(), 0) << "jit=" << jit;
    EXPECT_THROW(graft.Finish(), minnow::FuelExhausted) << "jit=" << jit;
    EXPECT_EQ(graft.FuelRemaining(), 0) << "jit=" << jit;
    retired[jit ? 1 : 0] = graft.vm().instructions_retired();
  }
  EXPECT_EQ(retired[0], retired[1]);
}

TEST(JitHosts, CallHostFromNativeCode) {
  HostDecl host;
  host.name = "k_add";
  host.params = {Type::Int(), Type::Int()};
  host.ret = Type::Int();
  const Program program =
      minnow::Compile("fn f(a: int, b: int) -> int { return k_add(a, b) * 2; }", {host});
  for (const DispatchMode mode : {DispatchMode::kDefault, DispatchMode::kJit}) {
    VmOptions options;
    options.dispatch = mode;
    VM vm(program, options);
    vm.BindHost("k_add", [](VM&, std::span<const Value> args) {
      return Value::Int(args[0].AsInt() + args[1].AsInt());
    });
    vm.RunInit();
    EXPECT_EQ(vm.Call("f", {Value::Int(3), Value::Int(4)}).AsInt(), 14);
  }
}

TEST(JitHosts, HostSeesExactLedgersAndMaySetFuel) {
  HostDecl host;
  host.name = "k_probe";
  host.ret = Type::Int();
  const Program program = minnow::Compile(R"(
    fn f() -> int {
      var a: int = 1 + 2;
      var b: int = a * a;
      return k_probe() + b;
    })",
                                          {host});
  std::uint64_t seen_interp = 0;
  std::uint64_t seen_jit = 0;
  for (const DispatchMode mode : {DispatchMode::kDefault, DispatchMode::kJit}) {
    VmOptions options;
    options.dispatch = mode;
    options.fuel = 1000;
    VM vm(program, options);
    std::uint64_t* seen = mode == DispatchMode::kJit ? &seen_jit : &seen_interp;
    vm.BindHost("k_probe", [seen](VM& inner, std::span<const Value>) {
      *seen = inner.instructions_retired();
      inner.SetFuel(5000);  // the JIT must pick the new budget up
      return Value::Int(static_cast<std::int64_t>(inner.fuel()));
    });
    vm.RunInit();
    EXPECT_EQ(vm.Call("f", {}).AsInt(), 5009);
  }
  // A host observing mid-execution state is the sharpest ledger probe there
  // is: the batched block accounting must have charged exactly the retired
  // prefix at the call instruction.
  EXPECT_EQ(seen_interp, seen_jit);
}

TEST(JitHosts, ReentrantHostCallNests) {
  HostDecl host;
  host.name = "k_reenter";
  host.params = {Type::Int()};
  host.ret = Type::Int();
  const Program program = minnow::Compile(R"(
    fn leaf(x: int) -> int { return x * 3; }
    fn f(n: int) -> int { return k_reenter(n) + 1; }
  )",
                                          {host});
  for (const DispatchMode mode : {DispatchMode::kDefault, DispatchMode::kJit}) {
    VmOptions options;
    options.dispatch = mode;
    VM vm(program, options);
    vm.BindHost("k_reenter", [](VM& inner, std::span<const Value> args) {
      // Host reenters the VM while a native frame is live below it.
      return inner.Call("leaf", {Value::Int(args[0].AsInt() + 1)});
    });
    vm.RunInit();
    EXPECT_EQ(vm.Call("f", {Value::Int(5)}).AsInt(), 19);
  }
}

TEST(JitHosts, UnboundHostTrapMatchesInterpreter) {
  HostDecl host;
  host.name = "k_missing";
  host.ret = Type::Int();
  const Program program = minnow::Compile("fn f() -> int { return 1 + k_missing(); }", {host});
  std::string messages[2];
  int i = 0;
  for (const DispatchMode mode : {DispatchMode::kDefault, DispatchMode::kJit}) {
    VmOptions options;
    options.dispatch = mode;
    VM vm(program, options);
    vm.RunInit();
    try {
      vm.Call("f", {});
      FAIL() << "unbound host import must trap";
    } catch (const Trap& trap) {
      messages[i++] = trap.what();
    }
  }
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_NE(messages[0].find("k_missing"), std::string::npos);
}

TEST(JitElide, CertifiedProgramRunsNativelyWithoutChecks) {
  VmOptions options;
  options.elide_checks = true;
  ExpectSame(R"(
    var table: int[] = new int[64];
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < table.len; i = i + 1) { table[i] = i * n; }
      for (var i: int = 0; i < table.len; i = i + 1) { total = total + table[i]; }
      return total;
    }
  )",
             "f", {3}, options);
}

TEST(JitElide, TrapInsideElidedProgramMatches) {
  // The elision pass proves the table accesses; the division stays checked.
  // A trap inside a certified program must carry the interpreter's message
  // and leave identical ledgers even when the trapping site is surrounded by
  // `.nc` code emitted with no checks at all.
  VmOptions options;
  options.elide_checks = true;
  const Outcome out = ExpectSame(R"(
    var table: int[] = new int[8];
    fn f(d: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < table.len; i = i + 1) { table[i] = i; }
      for (var i: int = 0; i < table.len; i = i + 1) { total = total + table[i] / d; }
      return total;
    }
  )",
                                 "f", {0}, options);
  EXPECT_TRUE(out.trapped);
  EXPECT_EQ(out.message, "integer division by zero");
}

TEST(JitElide, CallBeforeRunInitRefusedUnderJit) {
  VmOptions options = JitOpts();
  options.elide_checks = true;
  VM vm(minnow::Compile("var g: int[] = new int[4]; fn f() -> int { return g[0]; }"), options);
  try {
    vm.Call("f", {});
    FAIL() << "certified program must refuse Call before RunInit";
  } catch (const Trap& trap) {
    EXPECT_STREQ(trap.what(), "certified program called before RunInit");
  }
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 0);
}

// --- forced deopt: jit_compile_filter turns chosen opcodes into side exits ---

TEST(JitDeopt, FilteredOpcodeDeoptsWithIdenticalState) {
  const std::string source = R"(
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) {
        if (i % 3 == 0) { total = total + i * i; } else { total = total - i; }
      }
      return total;
    }
  )";
  const Program program = minnow::Compile(source);
  const Outcome interp = RunOne(program, VmOptions{}, "f", {100});
  // Deny a different opcode each round so the deopt pc lands at many distinct
  // block offsets; results and ledgers must never move.
  const minnow::Op denied[] = {minnow::Op::kMulI, minnow::Op::kModI, minnow::Op::kAddI};
  for (const minnow::Op deny : denied) {
    VmOptions options = JitOpts();
    options.jit_compile_filter = [deny](minnow::Op op) { return op != deny; };
    VM vm(program, options);
    vm.RunInit();
    Outcome jit;
    jit.result = vm.Call("f", {Value::Int(100)}).AsInt();
    jit.retired = vm.instructions_retired();
    jit.fuel = vm.fuel();
    EXPECT_EQ(interp, jit) << "denied opcode " << minnow::OpName(deny);
    if (vm.dispatch() == DispatchMode::kJit) {
      EXPECT_GT(vm.jit_stats()->deopts, 0u)
          << "filter on " << minnow::OpName(deny) << " must force deopts";
    }
  }
}

TEST(JitDeopt, FuelSweepWithForcedDeopts) {
  // Deopts interleaved with fuel accounting: budgets must stay bit-exact
  // even when execution ping-pongs between native code and the interpreter.
  const std::string source = R"(
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 1; i <= n; i = i + 1) { total = total + i * i; }
      return total;
    }
  )";
  const Program program = minnow::Compile(source);
  const VmOptions interp_opts;
  VmOptions jit_opts = JitOpts();
  jit_opts.jit_compile_filter = [](minnow::Op op) { return op != minnow::Op::kMulI; };
  const Outcome full = RunOne(program, interp_opts, "f", {5});
  for (std::int64_t fuel = 0; fuel <= static_cast<std::int64_t>(full.retired) + 1; ++fuel) {
    const Outcome interp = RunOne(program, interp_opts, "f", {5}, fuel);
    const Outcome jit = RunOne(program, jit_opts, "f", {5}, fuel);
    EXPECT_EQ(interp, jit) << "fuel budget " << fuel;
  }
}

TEST(JitDeopt, UncompiledCalleeFallsBackPerEntry) {
  // Filter out an opcode only `helper` uses: the helper fails to compile
  // entirely (bailout), while `f` compiles and must deopt at the call.
  const std::string source = R"(
    fn helper(x: int) -> int { return x % 7; }
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) { total = total + helper(i); }
      return total;
    }
  )";
  const Program program = minnow::Compile(source);
  const Outcome interp = RunOne(program, VmOptions{}, "f", {50});
  VmOptions options = JitOpts();
  options.jit_compile_filter = [](minnow::Op op) { return op != minnow::Op::kModI; };
  const Outcome jit = RunOne(program, options, "f", {50});
  EXPECT_EQ(interp, jit);
}

// The allocator's choice for the paper's hottest loop: every web of every
// local of md5's rounds() — the chaining variables a, b, c, d (locals 0-3),
// the round counter i (4), f (5), temp (6) and sum (7) — lives in a
// register. A later allocator change that silently fell back to memory
// would fail here, not just run slower.
TEST(JitHomes, Md5RoundsHomesItsLoopCarriedLocals) {
  grafts::MinnowConfig config;
  config.jit = true;
  grafts::MinnowMd5Graft jit(config);
  grafts::MinnowMd5Graft interp;
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  jit.Consume(data.data(), data.size());
  interp.Consume(data.data(), data.size());
  EXPECT_EQ(jit.Finish(), interp.Finish());
  if (!VM::JitDispatchAvailable()) return;
  const JitStats* stats = jit.vm().jit_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->homed_slots, 0u);
  EXPECT_EQ(stats->bailouts, 0u);
  const int rounds = jit.vm().program().FindFunction("rounds");
  ASSERT_GE(rounds, 0);
  EXPECT_EQ(stats->homed_locals[static_cast<std::size_t>(rounds)], 0xffu)
      << "homed locals mask 0x" << std::hex << stats->homed_locals[static_cast<std::size_t>(rounds)];
}

// A spliced leaf callee's locals live in caller operand slots and compete
// for homes too; one that rewrites its locals must still compile (a shared-
// home conflict would bail the caller to the interpreter) and agree.
TEST(JitHomes, SplicedCalleeWritingItsLocalsStaysCompiled) {
  const std::string source = R"(
    fn mix(x: int, k: int) -> int {
      var y: int = x * 3;
      y = y ^ k;
      if (y < 0) { y = 0 - y; }
      var z: int = y + x;
      z = z % 1000;
      return z;
    }
    fn f(n: int) -> int {
      var acc: int = 7;
      for (var i: int = 0; i < n; i = i + 1) { acc = acc + mix(acc, i); }
      return acc;
    }
  )";
  ExpectSame(source, "f", {200});
  VmOptions options;
  options.fuel = 2000;
  ExpectSame(source, "f", {200}, options);
  if (!VM::JitDispatchAvailable()) return;
  VM vm(minnow::Compile(source), JitOpts());
  EXPECT_EQ(vm.jit_stats()->bailouts, 0u);
  EXPECT_GT(vm.jit_stats()->homed_slots, 0u);
}

TEST(JitArena, BudgetBailsOutGracefully) {
  VmOptions options = JitOpts();
  options.jit_arena_max = 64;  // nothing fits alongside the trampoline
  VM vm(minnow::Compile("fn f() -> int { return 6 * 7; }"), options);
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 42);
  EXPECT_NE(vm.dispatch(), DispatchMode::kJit) << "nothing compiled -> interpreter";
}

TEST(JitArena, FnSizeLimitBailsOut) {
  VmOptions options = JitOpts();
  options.jit_max_fn_insns = 1;
  VM vm(minnow::Compile("fn f(n: int) -> int { return n * n + 1; }"), options);
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {Value::Int(9)}).AsInt(), 82);
}

TEST(JitOrder, LoopFunctionRanksFirstDeterministically) {
  const Program program = minnow::Compile(R"(
    fn cold(x: int) -> int { return x + 1; }
    fn hot(n: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) { total = total + i; }
      return total;
    }
  )");
  // The order is static: functions with back-edges first, then by index.
  const std::vector<int> order = Jit::CompilationOrder(program);
  ASSERT_EQ(order.size(), program.functions.size());
  EXPECT_EQ(order.front(), program.FindFunction("hot"));
  EXPECT_EQ(order, Jit::CompilationOrder(program));
}

TEST(JitProfile, ProfilingVmStaysOnInterpreter) {
  VmOptions options = JitOpts();
  options.profile_opcodes = true;
  VM vm(minnow::Compile("fn f() -> int { return 1 + 2; }"), options);
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 3);
  EXPECT_NE(vm.dispatch(), DispatchMode::kJit);
  EXPECT_FALSE(vm.OpcodeCounts().empty());
}

}  // namespace
