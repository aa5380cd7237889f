// Minnow execution tests: interpreter semantics, traps, fuel, GC, host
// calls, and the load-time verifier's rejection of hostile bytecode.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/minnow/compiler.h"
#include "src/minnow/diag.h"
#include "src/minnow/elide.h"
#include "src/minnow/verifier.h"
#include "src/minnow/vm.h"

namespace {

using minnow::Compile;
using minnow::HostDecl;
using minnow::Insn;
using minnow::Op;
using minnow::Program;
using minnow::Trap;
using minnow::Type;
using minnow::Value;
using minnow::VM;

std::int64_t RunInt(const std::string& source, const std::string& fn,
                    std::initializer_list<std::int64_t> args = {}) {
  VM vm(Compile(source));
  vm.RunInit();
  std::vector<Value> values;
  for (const std::int64_t a : args) {
    values.push_back(Value::Int(a));
  }
  return vm.Call(fn, values).AsInt();
}

TEST(Interp, Arithmetic) {
  EXPECT_EQ(RunInt("fn f() -> int { return 2 + 3 * 4 - 6 / 2; }", "f"), 11);
  EXPECT_EQ(RunInt("fn f() -> int { return 17 % 5; }", "f"), 2);
  EXPECT_EQ(RunInt("fn f() -> int { return -7 / 2; }", "f"), -3);
  EXPECT_EQ(RunInt("fn f() -> int { return (1 << 40) >> 35; }", "f"), 32);
  EXPECT_EQ(RunInt("fn f() -> int { return -1 >> 1; }", "f"), -1);  // arithmetic shift
  EXPECT_EQ(RunInt("fn f() -> int { return ~0; }", "f"), -1);
  EXPECT_EQ(RunInt("fn f() -> int { return 12 & 10; }", "f"), 8);
  EXPECT_EQ(RunInt("fn f() -> int { return 12 | 3; }", "f"), 15);
  EXPECT_EQ(RunInt("fn f() -> int { return 12 ^ 10; }", "f"), 6);
}

TEST(Interp, U32WrapsModulo32Bits) {
  EXPECT_EQ(RunInt("fn f() -> int { return int(u32(0xFFFFFFFF) + u32(2)); }", "f"), 1);
  EXPECT_EQ(RunInt("fn f() -> int { return int(u32(0x80000000) << 1); }", "f"), 0);
  EXPECT_EQ(RunInt("fn f() -> int { return int(u32(0x80000000) >> 31); }", "f"), 1);
  EXPECT_EQ(RunInt("fn f() -> int { return int(~u32(0)); }", "f"), 0xFFFFFFFF);
  // Unsigned comparison: 0x80000000 > 1 as u32.
  EXPECT_EQ(RunInt("fn f() -> int { if (u32(0x80000000) > u32(1)) { return 1; } return 0; }",
                   "f"),
            1);
}

TEST(Interp, ControlFlow) {
  EXPECT_EQ(RunInt(R"(
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 1; i <= n; i = i + 1) {
        if (i % 2 == 0) { continue; }
        if (i > 7) { break; }
        total = total + i;
      }
      return total;
    })",
                   "f", {100}),
            1 + 3 + 5 + 7);

  EXPECT_EQ(RunInt(R"(
    fn f(a: int, b: int) -> int {
      if (a > 0 && b > 0) { return 1; }
      if (a > 0 || b > 0) { return 2; }
      return 3;
    })",
                   "f", {1, 0}),
            2);
}

TEST(Interp, ShortCircuitSkipsSideEffects) {
  // The right operand would trap (div by zero) if evaluated.
  EXPECT_EQ(RunInt("fn f(x: int) -> int { if (x == 0 || 10 / x > 2) { return 1; } return 0; }",
                   "f", {0}),
            1);
}

TEST(Interp, RecursionAndCalls) {
  EXPECT_EQ(RunInt(R"(
    fn fib(n: int) -> int {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    })",
                   "fib", {20}),
            6765);
}

TEST(Interp, StructsAndLinkedLists) {
  EXPECT_EQ(RunInt(R"(
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
      while (cur != null) {
        total = total + cur.value;
        cur = cur.next;
      }
      return total;
    })",
                   "f", {100}),
            4950);
}

TEST(Interp, ArraysOfEachKind) {
  EXPECT_EQ(RunInt(R"(
    fn f() -> int {
      var a: int[] = new int[10];
      var w: u32[] = new u32[4];
      var b: byte[] = new byte[4];
      var flags: bool[] = new bool[2];
      a[3] = 42;
      w[1] = u32(0xFFFFFFFF) + u32(3);
      b[0] = 300;           // masked to 8 bits: 44
      flags[1] = a[3] > 0;
      var total: int = a[3] + int(w[1]) + b[0];
      if (flags[1]) { total = total + 1; }
      return total + a.len;
    })",
                   "f"),
            42 + 2 + 44 + 1 + 10);
}

TEST(Interp, GlobalsAndInit) {
  EXPECT_EQ(RunInt(R"(
    var table: int[] = new int[8];
    var scale: int = 3 * 7;
    fn f() -> int {
      table[2] = scale;
      return table[2];
    })",
                   "f"),
            21);
}

// --- Traps: the VM is the safety boundary ---

void ExpectTrap(const std::string& source, const std::string& fn,
                std::initializer_list<std::int64_t> args = {}) {
  VM vm(Compile(source));
  vm.RunInit();
  std::vector<Value> values;
  for (const std::int64_t a : args) {
    values.push_back(Value::Int(a));
  }
  EXPECT_THROW(vm.Call(fn, values), Trap) << source;
}

TEST(Traps, NullDereference) {
  ExpectTrap("struct S { x: int; } fn f() -> int { var s: S = null; return s.x; }", "f");
  ExpectTrap("fn f() -> int { var a: int[] = null; return a[0]; }", "f");
  ExpectTrap("fn f() -> int { var a: int[] = null; return a.len; }", "f");
}

TEST(Traps, ArrayBounds) {
  ExpectTrap("fn f() -> int { var a: int[] = new int[4]; return a[4]; }", "f");
  ExpectTrap("fn f() -> int { var a: int[] = new int[4]; return a[0 - 1]; }", "f");
  ExpectTrap("fn f() { var a: int[] = new int[4]; a[100] = 1; }", "f");
}

TEST(Traps, DivisionEdges) {
  ExpectTrap("fn f(x: int) -> int { return 10 / x; }", "f", {0});
  ExpectTrap("fn f(x: int) -> int { return 10 % x; }", "f", {0});
  ExpectTrap("fn f() -> u32 { return u32(1) / u32(0); }", "f");
  // INT64_MIN / -1 overflows.
  ExpectTrap("fn f(a: int, b: int) -> int { return a / b; }", "f",
             {std::numeric_limits<std::int64_t>::min(), -1});
}

TEST(Traps, BadArrayLength) {
  ExpectTrap("fn f(n: int) -> int { var a: int[] = new int[n]; return a.len; }", "f", {-5});
}

TEST(Traps, MissingReturnValue) {
  ExpectTrap("fn f(x: int) -> int { if (x > 0) { return 1; } }", "f", {-1});
}

TEST(Traps, CallDepthLimit) {
  ExpectTrap("fn f(n: int) -> int { return f(n + 1); }", "f", {0});
}

TEST(Traps, VmRemainsUsableAfterTrap) {
  VM vm(Compile("fn bad() -> int { var a: int[] = null; return a[0]; }"
                "fn good() -> int { return 7; }"));
  vm.RunInit();
  EXPECT_THROW(vm.Call("bad", {}), Trap);
  EXPECT_EQ(vm.Call("good", {}).AsInt(), 7);
  EXPECT_THROW(vm.Call("bad", {}), Trap);
  EXPECT_EQ(vm.Call("good", {}).AsInt(), 7);
}

TEST(Fuel, PreemptsRunawayGraft) {
  VM vm(Compile("fn spin() { while (true) { } }"));
  vm.RunInit();
  vm.SetFuel(100000);
  EXPECT_THROW(vm.Call("spin", {}), Trap);
  // Refueled, other work proceeds.
  vm.SetFuel(-1);
}

TEST(Fuel, SufficientFuelCompletes) {
  VM vm(Compile("fn f() -> int { var t: int = 0; "
                "for (var i: int = 0; i < 100; i = i + 1) { t = t + i; } return t; }"));
  vm.RunInit();
  vm.SetFuel(100000);
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 4950);
}

TEST(Hosts, BindAndCall) {
  HostDecl host;
  host.name = "k_add";
  host.params = {Type::Int(), Type::Int()};
  host.ret = Type::Int();
  VM vm(Compile("fn f(a: int, b: int) -> int { return k_add(a, b) * 2; }", {host}));
  vm.BindHost("k_add", [](VM&, std::span<const Value> args) {
    return Value::Int(args[0].AsInt() + args[1].AsInt());
  });
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {Value::Int(3), Value::Int(4)}).AsInt(), 14);
}

TEST(Hosts, UnboundImportTraps) {
  HostDecl host;
  host.name = "k_missing";
  host.ret = Type::Int();
  VM vm(Compile("fn f() -> int { return k_missing(); }", {host}));
  vm.RunInit();
  EXPECT_THROW(vm.Call("f", {}), Trap);
}

TEST(Hosts, ByteArrayBridge) {
  HostDecl host;
  host.name = "k_fill";
  host.params = {Type::Array(minnow::TypeKind::kByte)};
  VM vm(Compile(R"(
    var buf: byte[] = new byte[16];
    fn f() -> int {
      k_fill(buf);
      var total: int = 0;
      for (var i: int = 0; i < buf.len; i = i + 1) { total = total + buf[i]; }
      return total;
    })",
                {host}));
  vm.BindHost("k_fill", [](VM&, std::span<const Value> args) {
    auto* array = reinterpret_cast<minnow::Object*>(args[0].bits);
    for (std::size_t i = 0; i < array->bytes.size(); ++i) {
      array->bytes[i] = static_cast<std::uint8_t>(i);
    }
    return Value::Null();
  });
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 120);  // 0+1+...+15
}

TEST(Gc, CollectsUnreachableGarbage) {
  VM vm(Compile(R"(
    struct Blob { data: int[]; }
    fn churn(n: int) -> int {
      var kept: Blob = null;
      for (var i: int = 0; i < n; i = i + 1) {
        var b: Blob = new Blob();
        b.data = new int[1000];
        b.data[0] = i;
        kept = b;       // previous blob becomes garbage
      }
      return kept.data[0];
    })"));
  vm.RunInit();
  EXPECT_EQ(vm.Call("churn", {Value::Int(2000)}).AsInt(), 1999);
  EXPECT_GT(vm.heap().collections(), 0u);
  // 2000 blobs x 8KB would be 16MB; the live heap must be far smaller.
  EXPECT_LT(vm.heap().allocated_bytes(), 4u << 20);
}

TEST(Gc, ReachableDataSurvivesCollection) {
  VM vm(Compile(R"(
    struct Node { value: int; next: Node; }
    var head: Node;
    fn build(n: int) {
      for (var i: int = 0; i < n; i = i + 1) {
        var node: Node = new Node();
        node.value = i;
        node.next = head;
        head = node;
      }
    }
    fn churn(n: int) {
      for (var i: int = 0; i < n; i = i + 1) {
        var junk: int[] = new int[1000];
        junk[0] = i;
      }
    }
    fn sum() -> int {
      var total: int = 0;
      var cur: Node = head;
      while (cur != null) { total = total + cur.value; cur = cur.next; }
      return total;
    })"));
  vm.RunInit();
  vm.Call("build", {Value::Int(500)});
  vm.Call("churn", {Value::Int(5000)});  // forces collections
  EXPECT_GT(vm.heap().collections(), 0u);
  EXPECT_EQ(vm.Call("sum", {}).AsInt(), 500 * 499 / 2);
}

TEST(Gc, HeapLimitTraps) {
  minnow::VmOptions options;
  options.heap_limit = 1u << 20;
  VM vm(Compile(R"(
    struct Node { data: int[]; next: Node; }
    var head: Node;
    fn hog() {
      while (true) {
        var n: Node = new Node();
        n.data = new int[4096];
        n.next = head;
        head = n;  // everything stays reachable: GC cannot help
      }
    })"),
        options);
  vm.RunInit();
  EXPECT_THROW(vm.Call("hog", {}), Trap);
}

// --- Verifier: hostile bytecode is rejected before execution ---

Program CompiledProbe() {
  return Compile("fn f(a: int, b: int) -> int { return a + b; }"
                 "fn g() -> int { return f(1, 2); }");
}

TEST(Verifier, AcceptsCompilerOutput) {
  Program program = CompiledProbe();
  const auto report = minnow::VerifyProgram(program);
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_GT(program.functions[0].max_stack, 0);
}

TEST(Verifier, RejectsJumpOutsideFunction) {
  Program program = CompiledProbe();
  program.functions[0].code[0] = {minnow::Op::kJmp, 10000};
  EXPECT_FALSE(minnow::VerifyProgram(program).ok);
}

TEST(Verifier, RejectsStackUnderflow) {
  Program program = CompiledProbe();
  program.functions[0].code.insert(program.functions[0].code.begin(),
                                   {minnow::Op::kPop, 0});
  EXPECT_FALSE(minnow::VerifyProgram(program).ok);
}

TEST(Verifier, RejectsBadLocalSlot) {
  Program program = CompiledProbe();
  program.functions[0].code[0] = {minnow::Op::kLoadLocal, 99};
  EXPECT_FALSE(minnow::VerifyProgram(program).ok);
}

TEST(Verifier, RejectsBadCallTarget) {
  Program program = CompiledProbe();
  program.functions[1].code[2] = {minnow::Op::kCall, 42};
  EXPECT_FALSE(minnow::VerifyProgram(program).ok);
}

TEST(Verifier, RejectsFallOffEnd) {
  Program program = CompiledProbe();
  program.functions[0].code.pop_back();  // drop the trailing trap/ret
  program.functions[0].code.pop_back();
  EXPECT_FALSE(minnow::VerifyProgram(program).ok);
}

TEST(Verifier, RejectsInconsistentMergeDepth) {
  // Hand-built: one path pushes, the other doesn't, converging on pc 3.
  Program program;
  minnow::FunctionCode fn;
  fn.name = "evil";
  fn.num_params = 0;
  fn.num_locals = 0;
  fn.returns_value = false;
  fn.code = {
      {minnow::Op::kConstInt, 1},     // 0: push
      {minnow::Op::kJmpIfTrue, 3},    // 1: pop, branch to 3 at depth 0
      {minnow::Op::kConstInt, 7},     // 2: push -> falls into 3 at depth 1
      {minnow::Op::kRetVoid, 0},      // 3: merge with conflicting depths
  };
  program.functions.push_back(std::move(fn));
  EXPECT_FALSE(minnow::VerifyProgram(program).ok);
}

TEST(Verifier, RejectsBadFieldAndStructIndices) {
  Program program = Compile("struct S { x: int; } fn f() -> int { var s: S = new S(); "
                            "s.x = 3; return s.x; }");
  Program broken = program;
  for (auto& insn : broken.functions[0].code) {
    if (insn.op == minnow::Op::kNewStruct) {
      insn.operand = 7;
    }
  }
  EXPECT_FALSE(minnow::VerifyProgram(broken).ok);

  Program broken2 = program;
  for (auto& insn : broken2.functions[0].code) {
    if (insn.op == minnow::Op::kLoadField) {
      insn.operand = 12;
    }
  }
  EXPECT_FALSE(minnow::VerifyProgram(broken2).ok);
}

// --- Verifier: hostile bytecode across the whole opcode set ---
//
// The expectations below are written from the opcode semantics in
// bytecode.h's header comment, not read from its opcode table, so a wrong
// table row fails here.

// A program whose pools make every operand below valid: struct 0 has two
// fields, global 0 exists, host import 0 and function 0 each take two
// arguments and return a value. `code` becomes function 1, with two locals.
// Unchecked opcodes get a matching elision certificate, so only the
// function's own shape decides the verdict.
Program HostileProgram(std::vector<Insn> code) {
  Program program;
  program.structs.push_back({"S", 2, {false, false}});
  program.globals.push_back({"g", false});
  program.host_imports.push_back({"h", 2, true});
  minnow::FunctionCode callee;
  callee.name = "callee";
  callee.num_params = 2;
  callee.num_locals = 2;
  callee.returns_value = true;
  callee.code = {{Op::kLoadLocal, 0}, {Op::kRet, 0}};
  program.functions.push_back(callee);
  minnow::FunctionCode evil;
  evil.name = "evil";
  evil.num_locals = 2;
  evil.code = std::move(code);
  program.functions.push_back(evil);
  return program;
}

void AttachCertificate(Program& program) {
  program.elision.attached = true;
  program.elision.code_hash = minnow::ElisionCodeHash(program);
}

minnow::VerifyReport VerifyHostile(std::vector<Insn> code) {
  Program program = HostileProgram(std::move(code));
  for (const Insn& insn : program.functions[1].code) {
    if (minnow::IsUncheckedOp(insn.op)) {
      AttachCertificate(program);
    }
  }
  return minnow::VerifyProgram(program);
}

constexpr auto kIntKind = static_cast<std::int64_t>(minnow::TypeKind::kInt);

TEST(Verifier, RejectsEveryPoppingOpcodeAtDepthZero) {
  // Every opcode that pops, with an operand that is otherwise valid. Each is
  // first in its function, so the stack is empty.
  const std::vector<Insn> pops = {
      {Op::kStoreLocal, 0}, {Op::kStoreGlobal, 0}, {Op::kPop, 0}, {Op::kDup, 0},
      {Op::kAddI, 0}, {Op::kSubI, 0}, {Op::kMulI, 0}, {Op::kDivI, 0}, {Op::kModI, 0},
      {Op::kNegI, 0}, {Op::kAndI, 0}, {Op::kOrI, 0}, {Op::kXorI, 0}, {Op::kShlI, 0},
      {Op::kShrI, 0}, {Op::kNotI, 0}, {Op::kAddU, 0}, {Op::kSubU, 0}, {Op::kMulU, 0},
      {Op::kDivU, 0}, {Op::kModU, 0}, {Op::kShlU, 0}, {Op::kShrU, 0}, {Op::kNotU, 0},
      {Op::kEqI, 0}, {Op::kNeI, 0}, {Op::kLtI, 0}, {Op::kLeI, 0}, {Op::kGtI, 0},
      {Op::kGeI, 0}, {Op::kLtU, 0}, {Op::kLeU, 0}, {Op::kGtU, 0}, {Op::kGeU, 0},
      {Op::kEqRef, 0}, {Op::kNeRef, 0}, {Op::kNotB, 0}, {Op::kCastU32, 0},
      {Op::kCastByte, 0}, {Op::kJmpIfFalse, 1}, {Op::kJmpIfTrue, 1}, {Op::kCall, 0},
      {Op::kCallHost, 0}, {Op::kRet, 0}, {Op::kNewArray, kIntKind}, {Op::kLoadField, 0},
      {Op::kStoreField, 0}, {Op::kLoadElem, kIntKind}, {Op::kStoreElem, kIntKind},
      {Op::kArrayLen, 0}, {Op::kLoadAddI, 0}, {Op::kAddConstI, 5}, {Op::kBrEqI, 1},
      {Op::kBrNeI, 1}, {Op::kBrLtI, 1}, {Op::kBrLeI, 1}, {Op::kBrGtI, 1}, {Op::kBrGeI, 1},
      {Op::kBrEqRef, 1}, {Op::kBrNeRef, 1}, {Op::kBrEqImmI, minnow::PackImmBranch(7, 1)},
      {Op::kBrNeImmI, minnow::PackImmBranch(7, 1)}, {Op::kBrLtImmI, minnow::PackImmBranch(7, 1)},
      {Op::kBrLeImmI, minnow::PackImmBranch(7, 1)}, {Op::kBrGtImmI, minnow::PackImmBranch(7, 1)},
      {Op::kBrGeImmI, minnow::PackImmBranch(7, 1)}, {Op::kStoreLoad, minnow::PackSlotPair(0, 1)},
      {Op::kLoadElemNC, kIntKind}, {Op::kStoreElemNC, kIntKind}, {Op::kLoadFieldNC, 0},
      {Op::kStoreFieldNC, 0}, {Op::kDivNZ, 0}, {Op::kModNZ, 0}, {Op::kArrayLenNC, 0},
  };
  // Every opcode that does not pop: accepted at depth zero.
  const std::vector<Insn> no_pops = {
      {Op::kNop, 0}, {Op::kConstInt, 3}, {Op::kConstNull, 0}, {Op::kLoadLocal, 1},
      {Op::kLoadGlobal, 0}, {Op::kJmp, 1}, {Op::kRetVoid, 0}, {Op::kNewStruct, 0},
      {Op::kTrap, 0}, {Op::kConstStore, minnow::PackConstStore(-7, 1)},
      {Op::kLoadLocal2, minnow::PackSlotPair(1, 0)},
      {Op::kLoadConstI, minnow::PackConstStore(-7, 1)},
      {Op::kMoveLocal, minnow::PackSlotPair(0, 1)},
      {Op::kLoadGlobalLocal, minnow::PackSlotPair(0, 1)},
  };
  std::set<Op> seen;
  for (const Insn& insn : pops) {
    seen.insert(insn.op);
    const auto report = VerifyHostile({insn, {Op::kRetVoid, 0}});
    EXPECT_FALSE(report.ok) << minnow::OpName(insn.op);
    EXPECT_EQ(report.message, "fn 'evil': stack underflow") << minnow::OpName(insn.op);
    EXPECT_EQ(report.function, 1);
    EXPECT_EQ(report.pc, 0u);
  }
  for (const Insn& insn : no_pops) {
    seen.insert(insn.op);
    const auto report = VerifyHostile({insn, {Op::kRetVoid, 0}});
    EXPECT_TRUE(report.ok) << minnow::OpName(insn.op) << ": " << report.message;
  }
  // The two lists name every opcode once, so a new opcode must join one.
  EXPECT_EQ(seen.size(), pops.size() + no_pops.size());
  EXPECT_EQ(seen.size(), minnow::kNumOps);
}

TEST(Verifier, RejectsEveryBranchFormWithATargetOutOfRange) {
  // Each branch form with the operands it pops already pushed, at pc `depth`
  // of a function of `depth` + 2 instructions.
  struct Form {
    Op op;
    int depth;
  };
  const std::vector<Form> raw = {
      {Op::kJmp, 0},    {Op::kJmpIfFalse, 1}, {Op::kJmpIfTrue, 1}, {Op::kBrEqI, 2},
      {Op::kBrNeI, 2},  {Op::kBrLtI, 2},      {Op::kBrLeI, 2},     {Op::kBrGtI, 2},
      {Op::kBrGeI, 2},  {Op::kBrEqRef, 2},    {Op::kBrNeRef, 2},
  };
  const std::vector<Op> imm = {Op::kBrEqImmI, Op::kBrNeImmI, Op::kBrLtImmI,
                               Op::kBrLeImmI, Op::kBrGtImmI, Op::kBrGeImmI};
  const auto branch_at = [](const Form& form, std::int64_t operand) {
    std::vector<Insn> code(static_cast<std::size_t>(form.depth), Insn{Op::kConstInt, 1});
    code.push_back({form.op, operand});
    code.push_back({Op::kRetVoid, 0});
    return code;
  };
  const auto expect_out_of_range = [](const Form& form, const minnow::VerifyReport& report) {
    EXPECT_FALSE(report.ok) << minnow::OpName(form.op);
    EXPECT_EQ(report.message, "fn 'evil': branch target out of range") << minnow::OpName(form.op);
    EXPECT_EQ(report.pc, static_cast<std::size_t>(form.depth));
  };
  for (const Form& form : raw) {
    const auto size = static_cast<std::int64_t>(form.depth) + 2;
    EXPECT_TRUE(VerifyHostile(branch_at(form, size - 1)).ok) << minnow::OpName(form.op);
    expect_out_of_range(form, VerifyHostile(branch_at(form, size)));
    expect_out_of_range(form, VerifyHostile(branch_at(form, -1)));
    expect_out_of_range(form, VerifyHostile(branch_at(form, std::int64_t{1} << 40)));
  }
  // The imm forms branch to the low 32 bits of the operand; the high 32 hold
  // the immediate and are no target.
  for (const Op op : imm) {
    const Form form{op, 1};
    EXPECT_TRUE(VerifyHostile(branch_at(form, minnow::PackImmBranch(-9, 2))).ok)
        << minnow::OpName(op);
    expect_out_of_range(form, VerifyHostile(branch_at(form, minnow::PackImmBranch(-9, 3))));
    expect_out_of_range(form,
                        VerifyHostile(branch_at(form, minnow::PackImmBranch(0, 0xFFFFFFFFu))));
  }
}

TEST(Verifier, RejectsPackedSlotsOutOfRange) {
  // Each packed-slot superinstruction at pc 1 of a function with two locals
  // and one global, after one pushed operand (kStoreLoad pops it).
  // `error` names the half that is out of range; nullptr means accepted.
  struct Case {
    Op op;
    std::int64_t operand;
    const char* error;
  };
  using minnow::PackConstStore;
  using minnow::PackSlotPair;
  constexpr const char* kLocal = "fn 'evil': local slot out of range";
  constexpr const char* kGlobal = "fn 'evil': global index out of range";
  const std::vector<Case> cases = {
      {Op::kConstStore, PackConstStore(5, 1), nullptr},
      {Op::kConstStore, PackConstStore(5, 2), kLocal},
      {Op::kConstStore, PackConstStore(-1, 0xFFFFFFFFu), kLocal},
      {Op::kLoadConstI, PackConstStore(5, 1), nullptr},
      {Op::kLoadConstI, PackConstStore(5, 2), kLocal},
      {Op::kLoadLocal2, PackSlotPair(1, 1), nullptr},
      {Op::kLoadLocal2, PackSlotPair(2, 0), kLocal},
      {Op::kLoadLocal2, PackSlotPair(0, 2), kLocal},
      {Op::kMoveLocal, PackSlotPair(1, 0), nullptr},
      {Op::kMoveLocal, PackSlotPair(2, 0), kLocal},
      {Op::kMoveLocal, PackSlotPair(0, 2), kLocal},
      {Op::kStoreLoad, PackSlotPair(0, 1), nullptr},
      {Op::kStoreLoad, PackSlotPair(2, 1), kLocal},
      {Op::kStoreLoad, PackSlotPair(1, 2), kLocal},
      {Op::kLoadGlobalLocal, PackSlotPair(0, 1), nullptr},
      {Op::kLoadGlobalLocal, PackSlotPair(1, 1), kGlobal},
      {Op::kLoadGlobalLocal, PackSlotPair(0, 2), kLocal},  // the global is fine
  };
  for (const Case& c : cases) {
    const auto report =
        VerifyHostile({{Op::kConstInt, 4}, {c.op, c.operand}, {Op::kRetVoid, 0}});
    EXPECT_EQ(report.ok, c.error == nullptr) << minnow::OpName(c.op) << " " << c.operand << ": "
                                             << report.message;
    if (c.error != nullptr) {
      EXPECT_EQ(report.message, c.error) << minnow::OpName(c.op) << " " << c.operand;
      EXPECT_EQ(report.pc, 1u);
    }
  }
}

TEST(Verifier, ReportsBytesPastTheOpcodeTableAsUnknown) {
  // The first two bytes past the table (88 and 89) are no opcode: the
  // verdict names them so whether or not a certificate is attached, and
  // never calls them unchecked opcodes.
  for (const std::size_t byte : {minnow::kNumOps, minnow::kNumOps + 1}) {
    const auto op = static_cast<Op>(byte);
    EXPECT_FALSE(minnow::IsValidOp(op)) << byte;
    EXPECT_FALSE(minnow::IsUncheckedOp(op)) << byte;
    for (const bool certified : {false, true}) {
      Program program = HostileProgram({{op, 0}, {Op::kRetVoid, 0}});
      if (certified) {
        AttachCertificate(program);
      }
      const auto report = minnow::VerifyProgram(program);
      EXPECT_FALSE(report.ok);
      EXPECT_EQ(report.message, "fn 'evil': unknown opcode") << byte << " " << certified;
      EXPECT_EQ(report.function, 1);
      EXPECT_EQ(report.pc, 0u);
    }
  }
}

TEST(Disassembler, ProducesReadableOutput) {
  const Program program = CompiledProbe();
  const std::string text = minnow::Disassemble(program.functions[0]);
  EXPECT_NE(text.find("fn f"), std::string::npos);
  EXPECT_NE(text.find("add.i"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);

  // OpName is total and injective over the opcode set.
  std::set<std::string> names;
  for (std::size_t op = 0; op < minnow::kNumOps; ++op) {
    const std::string name = minnow::OpName(static_cast<Op>(op));
    EXPECT_NE(name, "?") << "opcode " << op;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_STREQ(minnow::OpName(static_cast<Op>(minnow::kNumOps)), "?");

  // Packed operands print unpacked.
  minnow::FunctionCode fn;
  fn.name = "packed";
  const std::int64_t imm_branch = minnow::PackImmBranch(-7, 3);
  const std::int64_t slot_pair = minnow::PackSlotPair(4, 9);
  const std::int64_t const_slot = minnow::PackConstStore(-7, 3);
  fn.code = {
      {Op::kBrEqImmI, imm_branch},     {Op::kBrNeImmI, imm_branch},  {Op::kBrLtImmI, imm_branch},
      {Op::kBrLeImmI, imm_branch},     {Op::kBrGtImmI, imm_branch},  {Op::kBrGeImmI, imm_branch},
      {Op::kLoadLocal2, slot_pair},    {Op::kMoveLocal, slot_pair},  {Op::kStoreLoad, slot_pair},
      {Op::kLoadGlobalLocal, slot_pair}, {Op::kConstStore, const_slot},
      {Op::kLoadConstI, const_slot},
  };
  EXPECT_EQ(minnow::Disassemble(fn),
            "fn packed params=0 locals=0 max_stack=0\n"
            "  0: br.eq.imm.i -7 -> 3\n"
            "  1: br.ne.imm.i -7 -> 3\n"
            "  2: br.lt.imm.i -7 -> 3\n"
            "  3: br.le.imm.i -7 -> 3\n"
            "  4: br.gt.imm.i -7 -> 3\n"
            "  5: br.ge.imm.i -7 -> 3\n"
            "  6: load.local2 4, 9\n"
            "  7: move.local 4, 9\n"
            "  8: store+load 4, 9\n"
            "  9: load.global+local 4, 9\n"
            "  10: const+store -7 -> local 3\n"
            "  11: load+const.i local 3, -7\n");
}

}  // namespace
