// Differential fuzzing of the Minnow execution configurations.
//
// A seeded generator emits random well-typed Minnow programs (integer
// arithmetic over edge-case constants, bounded loops, branches, and — for
// the elision corpus — arrays, nullable struct references, and guarded or
// unguarded dereferences), compiles each once, and runs the same bytecode
// through every configuration the engine rewrite introduced: {switch,
// threaded dispatch, jit} x {superinstruction fusion on/off} x {check
// elision on/off}, plus jit variants with a compile filter
// that turns common opcodes into forced deopts so every program ping-pongs
// between native code and the interpreter. Every configuration must produce
// the identical result — the same value, or the same trap message — as the
// reference (switch dispatch, raw bytecode, all checks retained). In builds
// without JIT support the jit configurations fall back to the interpreter
// and remain valid (if redundant) matrix entries. kDivI /
// kModI edge cases (division by zero, INT64_MIN / -1) get dedicated
// deterministic coverage, a directed section checks that the fusion pass
// actually emits each superinstruction, and an adversarial section pins
// down programs whose checks must NOT be elided (off-by-one loop bounds,
// nil reassignment behind a guard, joined arrays of different lengths,
// INT64_MIN / -1 behind a zero-only guard), asserted through the elision
// certificate's counters.
//
// The elision soak additionally asserts instructions_retired equality
// between the checked and elided runs of each configuration: the rewrite is
// strictly 1:1, so fuel accounting must be bit-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "src/minnow/bytecode.h"
#include "src/minnow/compiler.h"
#include "src/minnow/elide.h"
#include "src/minnow/fuse.h"
#include "src/minnow/verifier.h"
#include "src/minnow/vm.h"
#include "tests/minnow_program_gen.h"

namespace {

using minnow_testgen::PressureGen;
using minnow_testgen::ProgramGen;

using minnow::Compile;
using minnow::DispatchMode;
using minnow::Op;
using minnow::Program;
using minnow::Trap;
using minnow::Value;
using minnow::VM;
using minnow::VmOptions;

// --- Execution matrix ---

struct Config {
  DispatchMode dispatch;
  bool fuse;
  bool elide = false;
  // kJit only: compile one opcode family (DenyFamily(deny_seed)) as
  // unconditional side exits, forcing deopts into the interpreter with
  // operands pending in registers — the deopt path gets fuzzed as hard as
  // the fast path, at a different opcode for each program seed.
  bool jit_deopt = false;
  std::uint32_t deny_seed = 0;

  std::string Name() const;
};

// Opcode families a kJit+deopt config denies: raw and fused forms together,
// so the family side-exits with or without superinstruction fusion. Seed 0
// is the add family, which virtually every generated program executes.
const std::vector<std::vector<Op>>& DenyFamilies() {
  static const std::vector<std::vector<Op>> families = {
      {Op::kAddI, Op::kLoadAddI, Op::kAddConstI},
      {Op::kSubI},
      {Op::kMulI},
      {Op::kDivI, Op::kModI, Op::kDivNZ, Op::kModNZ},
      {Op::kAndI, Op::kOrI, Op::kXorI},
      {Op::kShlI, Op::kShrI},
      {Op::kLoadLocal, Op::kLoadLocal2, Op::kLoadConstI, Op::kLoadGlobalLocal},
      {Op::kStoreLocal, Op::kConstStore, Op::kMoveLocal, Op::kStoreLoad},
      {Op::kEqI, Op::kNeI, Op::kLtI, Op::kLeI, Op::kGtI, Op::kGeI, Op::kBrEqI, Op::kBrNeI,
       Op::kBrLtI, Op::kBrLeI, Op::kBrGtI, Op::kBrGeI, Op::kBrEqImmI, Op::kBrNeImmI,
       Op::kBrLtImmI, Op::kBrLeImmI, Op::kBrGtImmI, Op::kBrGeImmI},
      {Op::kJmp, Op::kJmpIfFalse, Op::kJmpIfTrue},
      {Op::kConstInt},
      {Op::kLoadElem, Op::kLoadElemNC, Op::kStoreElem, Op::kStoreElemNC, Op::kArrayLen,
       Op::kArrayLenNC},
      {Op::kLoadField, Op::kLoadFieldNC, Op::kStoreField, Op::kStoreFieldNC, Op::kEqRef,
       Op::kNeRef, Op::kBrEqRef, Op::kBrNeRef},
  };
  return families;
}

const std::vector<Op>& DenyFamily(std::uint32_t seed) {
  return DenyFamilies()[seed % DenyFamilies().size()];
}

std::string Config::Name() const {
    std::string name = dispatch == DispatchMode::kThreaded ? "threaded"
                       : dispatch == DispatchMode::kJit    ? "jit"
                                                           : "switch";
    if (jit_deopt) name += std::string("+deopt(") + minnow::OpName(DenyFamily(deny_seed)[0]) + ")";
    if (fuse) name += "+fuse";
    if (elide) name += "+elide";
    return name;
}

std::vector<Config> AllConfigs(std::uint32_t deny_seed = 0) {
  std::vector<Config> configs;
  for (const DispatchMode dispatch :
       {DispatchMode::kSwitch, DispatchMode::kThreaded, DispatchMode::kJit}) {
    for (const bool fuse : {false, true}) {
      for (const bool elide : {false, true}) {
        configs.push_back({dispatch, fuse, elide});
        if (dispatch == DispatchMode::kJit) {
          configs.push_back({dispatch, fuse, elide, /*jit_deopt=*/true, deny_seed});
        }
      }
    }
  }
  return configs;
}

// Result of one execution: a value, or the trap that stopped it. Trap
// *messages* are part of the contract — an engine that traps for a
// different reason is wrong even if it traps at the same instruction.
// `retired` carries the fuel-equivalence side of the contract: check
// elision is a 1:1 opcode rewrite, so checked and elided runs of the same
// {dispatch, fuse} configuration must retire the same count
// (AgreesWith ignores it; the elision soak compares it explicitly). Native
// code keeps both ledgers — `retired` and the fuel left — in one register,
// so a jit run must match the threaded interpreter with the same
// {fuse, elide} settings on both (SameLedgers).
struct Outcome {
  bool trapped = false;
  std::int64_t value = 0;
  std::string trap;
  std::uint64_t retired = 0;
  std::int64_t fuel = 0;

  bool SameLedgers(const Outcome& other) const {
    return retired == other.retired && fuel == other.fuel;
  }

  bool AgreesWith(const Outcome& other) const {
    return trapped == other.trapped && value == other.value && trap == other.trap;
  }
  bool operator==(const Outcome& other) const { return AgreesWith(other); }
};

std::string Describe(const Outcome& outcome) {
  return (outcome.trapped ? "trap: " + outcome.trap : "value: " + std::to_string(outcome.value)) +
         " (retired " + std::to_string(outcome.retired) + ", fuel " +
         std::to_string(outcome.fuel) + ")";
}

// The host import the register-pressure family calls (`k_mix`).
Value MixHost(VM&, std::span<const Value> args) {
  const auto a = static_cast<std::uint64_t>(args[0].AsInt());
  const auto b = static_cast<std::uint64_t>(args[1].AsInt());
  return Value::Int(static_cast<std::int64_t>((a * 31 + b) ^ (a >> 3)));
}

// `fuel` is the budget (-1 = unlimited).
Outcome RunConfig(const Program& compiled, const Config& config, const char* fn,
                  std::initializer_list<std::int64_t> args, std::int64_t fuel = -1) {
  Program program = compiled;  // each config transforms its own copy
  if (config.fuse) {
    minnow::FuseSuperinstructions(program);
    minnow::VerifyProgram(program);
  }
  VmOptions options;
  options.dispatch = config.dispatch;
  options.elide_checks = config.elide;
  options.fuel = fuel;
  if (config.jit_deopt) {
    const std::vector<Op>& denied = DenyFamily(config.deny_seed);
    options.jit_compile_filter = [&denied](Op op) {
      return std::find(denied.begin(), denied.end(), op) == denied.end();
    };
  }
  Outcome outcome;
  std::unique_ptr<VM> vm;
  try {
    vm = std::make_unique<VM>(program, options);
    for (const auto& import : program.host_imports) {
      if (import.name == "k_mix") vm->BindHost("k_mix", MixHost);
    }
    vm->RunInit();
    std::vector<Value> values;
    for (const std::int64_t a : args) {
      values.push_back(Value::Int(a));
    }
    outcome.value = vm->Call(fn, values).AsInt();
  } catch (const Trap& trap) {
    outcome.trapped = true;
    outcome.trap = trap.what();
  }
  if (vm != nullptr) {
    outcome.retired = vm->instructions_retired();
    outcome.fuel = vm->fuel();
  }
  return outcome;
}

// Runs `fn` under every configuration and asserts agreement with the
// reference configuration (switch dispatch, raw bytecode), and ledger
// equality between each jit configuration and the threaded interpreter with
// the same settings. `seed` picks the forced-deopt family and, when odd, a
// finite fuel budget (large enough never to run out) so fuel() is compared
// as well as the retired count.
void ExpectAllConfigsAgree(const std::string& source, const char* fn,
                           std::initializer_list<std::int64_t> args,
                           const std::string& label, std::uint32_t seed = 0) {
  const Program compiled = Compile(source);
  const std::int64_t fuel = seed % 2 == 1 ? std::int64_t{1} << 40 : -1;
  const Outcome reference =
      RunConfig(compiled, {DispatchMode::kSwitch, false}, fn, args, fuel);
  const std::vector<Config> configs = AllConfigs(seed);
  std::vector<Outcome> outcomes;
  for (const Config& config : configs) {
    outcomes.push_back(RunConfig(compiled, config, fn, args, fuel));
    EXPECT_EQ(outcomes.back(), reference)
        << label << " [" << config.Name() << "]: got " << Describe(outcomes.back())
        << ", reference " << Describe(reference) << "\nsource:\n"
        << source;
  }
  for (std::size_t j = 0; j < configs.size(); ++j) {
    if (configs[j].dispatch != DispatchMode::kJit) continue;
    for (std::size_t t = 0; t < configs.size(); ++t) {
      const Config& c = configs[t];
      if (c.dispatch == DispatchMode::kThreaded && c.fuse == configs[j].fuse &&
          c.elide == configs[j].elide) {
        EXPECT_TRUE(outcomes[j].SameLedgers(outcomes[t]))
            << label << " [" << configs[j].Name() << "]: ledgers " << Describe(outcomes[j])
            << ", threaded " << Describe(outcomes[t]) << "\nsource:\n"
            << source;
      }
    }
  }
}

// --- Random program generator: ProgramGen (minnow_program_gen.h) ---

TEST(DispatchFuzz, RandomProgramsAgreeAcrossAllConfigurations) {
  // Fixed seed: this is a regression corpus, not an open-ended fuzzer. Each
  // program runs with several argument tuples so data-dependent paths (and
  // data-dependent traps) get exercised.
  constexpr int kPrograms = 60;
  const std::initializer_list<std::int64_t> arg_sets[] = {
      {0, 1, -1},
      {7, -3, 1000},
      {std::numeric_limits<std::int64_t>::min(), -1, 2},
      {std::numeric_limits<std::int64_t>::max(), 0,
       std::numeric_limits<std::int32_t>::min()},
  };
  for (int p = 0; p < kPrograms; ++p) {
    ProgramGen gen(0xC0FFEE + p);
    const std::string source = gen.Generate();
    int tuple = 0;
    for (const auto& args : arg_sets) {
      ExpectAllConfigsAgree(source, "f", args,
                            "program " + std::to_string(p) + " args#" + std::to_string(tuple++),
                            static_cast<std::uint32_t>(p));
      if (HasFailure()) {
        return;  // first divergence is the actionable one; stop the corpus
      }
    }
  }
}

// --- Directed arithmetic-trap edge cases ---

TEST(DispatchFuzz, DivisionEdgeCasesTrapIdentically) {
  const std::string div = "fn f(a: int, b: int) -> int { return a / b; }";
  const std::string mod = "fn f(a: int, b: int) -> int { return a % b; }";
  const std::int64_t int_min = std::numeric_limits<std::int64_t>::min();

  ExpectAllConfigsAgree(div, "f", {10, 0}, "div by zero");
  ExpectAllConfigsAgree(div, "f", {int_min, -1}, "div overflow");
  ExpectAllConfigsAgree(div, "f", {int_min, 1}, "div INT_MIN by one");
  ExpectAllConfigsAgree(div, "f", {-7, 2}, "div truncation sign");
  ExpectAllConfigsAgree(mod, "f", {10, 0}, "mod by zero");
  ExpectAllConfigsAgree(mod, "f", {int_min, -1}, "mod overflow");
  ExpectAllConfigsAgree(mod, "f", {-7, 2}, "mod sign");

  // The traps must be the *arithmetic* traps, not incidental agreement.
  const Outcome div0 =
      RunConfig(Compile(div), {DispatchMode::kThreaded, true}, "f", {1, 0});
  ASSERT_TRUE(div0.trapped);
  EXPECT_EQ(div0.trap, "integer division by zero");
  const Outcome overflow =
      RunConfig(Compile(div), {DispatchMode::kThreaded, true}, "f", {int_min, -1});
  ASSERT_TRUE(overflow.trapped);
  EXPECT_EQ(overflow.trap, "integer division overflow");
}

TEST(DispatchFuzz, TrapsInsideLoopsAgreeMidIteration) {
  // The divisor hits zero on the fourth iteration: every configuration must
  // have committed the same number of iterations' worth of state (checked
  // implicitly by trapping rather than returning a wrong value).
  const std::string source = R"(
    fn f(n: int) -> int {
      var total: int = 0;
      var d: int = 3;
      var i: int = 0;
      while (i < n) {
        total = total + 100 / d;
        d = d - 1;
        i = i + 1;
      }
      return total;
    })";
  ExpectAllConfigsAgree(source, "f", {2}, "loop stops before zero divisor");
  ExpectAllConfigsAgree(source, "f", {10}, "loop traps on zero divisor");
}

// --- Directed superinstruction coverage ---
//
// Each source construct below is chosen so FuseSuperinstructions emits a
// specific superinstruction. The test asserts the opcode is actually present
// in the fused program (so fusion regressions can't silently pass) and that
// both dispatch loops execute it identically.

bool ProgramContains(const Program& program, Op op) {
  for (const auto& fn : program.functions) {
    for (const auto& insn : fn.code) {
      if (insn.op == op) {
        return true;
      }
    }
  }
  return false;
}

struct FusionCase {
  const char* label;
  Op op;
  const char* source;
  std::initializer_list<std::int64_t> args;
};

TEST(DispatchFuzz, EveryFusedOpcodeIsEmittedAndAgrees) {
  const std::int64_t max32 = std::numeric_limits<std::int32_t>::max();
  const FusionCase cases[] = {
      // The constant on the left keeps kLoadLocal2/kLoadConstI from claiming
      // the LoadLocal first.
      {"load+add.i", Op::kLoadAddI, "fn f(a: int) -> int { return 1 + a; }", {3}},
      {"add.const.i", Op::kAddConstI,
       "fn f(a: int) -> int { var x: int = a; x = x + a; return x + 5; }", {10}},
      {"const+store", Op::kConstStore,
       "fn f(a: int) -> int { var x: int = 41; return x + a; }", {1}},
      {"br.lt.i (JmpIfFalse inversion)", Op::kBrGeI,
       "fn f(a: int, b: int) -> int { if (a < b) { return 1; } return 0; }", {1, 2}},
      {"br.eq.ref", Op::kBrNeRef,
       "fn f(a: int) -> int { var xs: int[] = null; if (xs == null) { return a; } return 0; }",
       {9}},
      // The mask keeps the loop counter's LoadLocal from absorbing the
      // comparison constant, so the imm triple still forms.
      {"br.lt.imm.i triple", Op::kBrGeImmI,
       "fn f(a: int) -> int { var t: int = 0; var i: int = 0; while ((i & 1023) < 10)"
       " { t = t + a; i = i + 1; } return t; }",
       {3}},
      {"load.local2", Op::kLoadLocal2, "fn f(a: int, b: int) -> int { return a + b; }", {3, 4}},
      {"load+const.i", Op::kLoadConstI, "fn f(a: int) -> int { return a ^ 21; }", {9}},
      {"move.local", Op::kMoveLocal,
       "fn f(a: int) -> int { var x: int = a; return x * 2; }", {7}},
      {"store+load", Op::kStoreLoad,
       "fn f(a: int) -> int { var x: int = a + a; return x + 1; }", {6}},
      {"load.global+local", Op::kLoadGlobalLocal,
       "var g: int = 40;\nfn f(a: int) -> int { return g + a; }", {2}},
  };
  for (const FusionCase& c : cases) {
    Program program = Compile(c.source);
    minnow::FuseSuperinstructions(program);
    minnow::VerifyProgram(program);
    EXPECT_TRUE(ProgramContains(program, c.op)) << c.label;
    ExpectAllConfigsAgree(c.source, "f", c.args, c.label);
  }
  // Packed-operand round trip at the extremes the fusion pass may emit.
  ExpectAllConfigsAgree("fn f(a: int) -> int { var x: int = " + std::to_string(max32) +
                            "; return x + a; }",
                        "f", {-1}, "const+store int32 max");
  ExpectAllConfigsAgree("fn f(a: int) -> int { var x: int = -2147483648; return x + a; }", "f",
                        {1}, "const+store int32 min");
}

TEST(DispatchFuzz, FusionChangesFuelButNotResults) {
  // Fusion's one intended observable at the supervisor level: fewer
  // instructions retired for the same work.
  const std::string source =
      "fn f(n: int) -> int { var t: int = 0; var i: int = 0;"
      " while (i < n) { t = t + i; i = i + 1; } return t; }";
  const Program raw = Compile(source);
  Program fused = raw;
  const auto stats = minnow::FuseSuperinstructions(fused);
  minnow::VerifyProgram(fused);
  EXPECT_GT(stats.pairs_fused + stats.compare_branches_fused + stats.imm_compare_branches_fused,
            0u);
  EXPECT_LT(stats.instructions_after, stats.instructions_before);

  VM raw_vm(raw);
  VM fused_vm(fused);
  raw_vm.RunInit();
  fused_vm.RunInit();
  EXPECT_EQ(raw_vm.Call("f", {Value::Int(100)}).AsInt(),
            fused_vm.Call("f", {Value::Int(100)}).AsInt());
  EXPECT_LT(fused_vm.instructions_retired(), raw_vm.instructions_retired());
}

// --- Differential check-elision soak ---
//
// Every verifier-accepted generated program (now with arrays, nullable
// references, and guarded/unguarded/out-of-bounds accesses) runs checked
// and elided under {switch, threaded, jit} x {fuse on/off}. The contract is total: same value or same trap message, and —
// because elision replaces opcodes strictly 1:1 — the same
// instructions_retired count, which is the supervisor's fuel ledger.
//
// The jit half of the soak holds native code to the threaded interpreter
// with the same settings: jit and jit+deopt (a seeded opcode family
// compiled as side exits) must produce the same result or trap, the same
// retired count, and the same fuel left — once with fuel to spare and once
// with a seeded budget that runs out partway, so fuel exits fire with
// operands pending.

TEST(ElisionFuzz, CheckedAndElidedAgreeOnResultsTrapsAndFuel) {
  int programs = 300;  // local default; CI sets GRAFTLAB_FUZZ_PROGRAMS=10000
  if (const char* env = std::getenv("GRAFTLAB_FUZZ_PROGRAMS")) {
    programs = std::atoi(env);
  }
  const std::initializer_list<std::int64_t> arg_sets[] = {
      {0, 1, -1},
      {7, -3, std::numeric_limits<std::int64_t>::min()},
  };
  for (int p = 0; p < programs; ++p) {
    ProgramGen gen(0xE11DE00 + p, /*heap=*/true);
    const std::string source = gen.Generate();
    if (std::getenv("GRAFTLAB_FUZZ_VERBOSE") != nullptr) {
      fprintf(stderr, "=== program %d ===\n%s", p, source.c_str());
      fflush(stderr);
    }
    const Program compiled = Compile(source);
    for (const DispatchMode dispatch :
         {DispatchMode::kSwitch, DispatchMode::kThreaded, DispatchMode::kJit}) {
      for (const bool fuse : {false, true}) {
        const Config checked{dispatch, fuse, false};
        const Config elided{dispatch, fuse, true};
        for (const auto& args : arg_sets) {
          const Outcome want = RunConfig(compiled, checked, "f", args);
          const Outcome got = RunConfig(compiled, elided, "f", args);
          ASSERT_TRUE(want.AgreesWith(got))
              << "program " << p << " [" << elided.Name() << "]: got " << Describe(got)
              << ", checked " << Describe(want) << "\nsource:\n"
              << source;
          ASSERT_EQ(want.retired, got.retired)
              << "program " << p << " [" << elided.Name()
              << "]: fuel ledger diverged\nsource:\n"
              << source;
        }
      }
    }
    const auto deny_seed = static_cast<std::uint32_t>(p);
    for (const bool fuse : {false, true}) {
      for (const bool elide : {false, true}) {
        const Config threaded{DispatchMode::kThreaded, fuse, elide};
        const Config jits[] = {{DispatchMode::kJit, fuse, elide},
                               {DispatchMode::kJit, fuse, elide, true, deny_seed}};
        for (const auto& args : arg_sets) {
          const Outcome want = RunConfig(compiled, threaded, "f", args, std::int64_t{1} << 40);
          const std::int64_t budget =
              static_cast<std::int64_t>(want.retired) * (1 + p % 7) / 8;
          const Outcome want_short = RunConfig(compiled, threaded, "f", args, budget);
          for (const Config& jit : jits) {
            const Outcome got = RunConfig(compiled, jit, "f", args, std::int64_t{1} << 40);
            ASSERT_TRUE(want.AgreesWith(got) && want.SameLedgers(got))
                << "program " << p << " [" << jit.Name() << "]: got " << Describe(got)
                << ", threaded " << Describe(want) << "\nsource:\n"
                << source;
            const Outcome got_short = RunConfig(compiled, jit, "f", args, budget);
            ASSERT_TRUE(want_short.AgreesWith(got_short) && want_short.SameLedgers(got_short))
                << "program " << p << " [" << jit.Name() << ", fuel " << budget
                << "]: got " << Describe(got_short) << ", threaded " << Describe(want_short)
                << "\nsource:\n"
                << source;
          }
        }
      }
    }
  }
}

// --- Register-pressure family ---
//
// PressureGen (minnow_program_gen.h): more loop-carried locals than the JIT
// has home registers, live across allocation, host calls and real calls.
// Each program runs under the threaded interpreter and the JIT (plain, and
// with the seeded forced-deopt family), with fuel to spare and with a
// budget that runs out partway; result, trap, retired count and fuel left
// must all match.

TEST(PressureFuzz, HomedLocalsAcrossHelpersAgreeWithTheInterpreter) {
  int programs = 40;  // local default; GRAFTLAB_FUZZ_PROGRAMS scales it (1/20)
  if (const char* env = std::getenv("GRAFTLAB_FUZZ_PROGRAMS")) {
    programs = std::max(programs, std::atoi(env) / 20);
  }
  const minnow::HostDecl mix = minnow_testgen::MixHostDecl();
  const std::initializer_list<std::int64_t> arg_sets[] = {
      {3, 11, -7},
      {-1, 0, std::numeric_limits<std::int64_t>::min()},
  };
  for (int p = 0; p < programs; ++p) {
    PressureGen gen(0x9E6A11 + p);
    const std::string source = gen.Generate();
    if (std::getenv("GRAFTLAB_FUZZ_VERBOSE") != nullptr) {
      fprintf(stderr, "=== pressure program %d ===\n%s", p, source.c_str());
      fflush(stderr);
    }
    const Program compiled = Compile(source, {mix});
    const auto deny_seed = static_cast<std::uint32_t>(p);
    for (const bool fuse : {false, true}) {
      for (const bool elide : {false, true}) {
        const Config threaded{DispatchMode::kThreaded, fuse, elide};
        const Config jits[] = {{DispatchMode::kJit, fuse, elide},
                               {DispatchMode::kJit, fuse, elide, true, deny_seed}};
        for (const auto& args : arg_sets) {
          const Outcome want = RunConfig(compiled, threaded, "f", args, std::int64_t{1} << 40);
          const std::int64_t budget =
              static_cast<std::int64_t>(want.retired) * (1 + p % 7) / 8;
          const Outcome want_short = RunConfig(compiled, threaded, "f", args, budget);
          for (const Config& jit : jits) {
            const Outcome got = RunConfig(compiled, jit, "f", args, std::int64_t{1} << 40);
            ASSERT_TRUE(want.AgreesWith(got) && want.SameLedgers(got))
                << "pressure program " << p << " [" << jit.Name() << "]: got " << Describe(got)
                << ", threaded " << Describe(want) << "\nsource:\n"
                << source;
            const Outcome got_short = RunConfig(compiled, jit, "f", args, budget);
            ASSERT_TRUE(want_short.AgreesWith(got_short) && want_short.SameLedgers(got_short))
                << "pressure program " << p << " [" << jit.Name() << ", fuel " << budget
                << "]: got " << Describe(got_short) << ", threaded " << Describe(want_short)
                << "\nsource:\n"
                << source;
          }
        }
      }
    }
  }
}

// --- Adversarial must-not-elide cases ---
//
// Each case is a program whose safety check LOOKS removable but is not; the
// assertion is against the elision certificate's static counters (and the
// absence of the unchecked opcode), then against runtime behavior: the
// retained check must still fire, identically, in the elided build.

void ExpectCheckedElidedAgree(const char* source, const char* fn,
                              std::initializer_list<std::int64_t> args, const char* label,
                              bool expect_trap) {
  const Program compiled = Compile(source);
  const Config checked{DispatchMode::kSwitch, false, false};
  const Config elided{DispatchMode::kSwitch, false, true};
  const Outcome want = RunConfig(compiled, checked, fn, args);
  const Outcome got = RunConfig(compiled, elided, fn, args);
  EXPECT_EQ(want.trapped, expect_trap) << label;
  EXPECT_TRUE(want.AgreesWith(got)) << label << ": got " << Describe(got) << ", checked "
                                    << Describe(want);
  EXPECT_EQ(want.retired, got.retired) << label;
}

TEST(ElisionAdversarial, OffByOneLoopBoundKeepsTheBoundsCheck) {
  const char* source =
      "fn f() -> int {\n"
      "  var a: int[] = new int[4];\n"
      "  var i: int = 0;\n"
      "  while (i <= 4) { a[i] = i; i = i + 1; }\n"
      "  return a[0];\n"
      "}\n";
  Program program = Compile(source);
  const auto stats = minnow::ElideChecks(program);
  EXPECT_FALSE(ProgramContains(program, Op::kStoreElemNC));
  EXPECT_EQ(stats.elem_stores_elided, 0u);
  EXPECT_EQ(program.elision.elem_stores_elided, 0u);
  EXPECT_GT(program.elision.checks_retained, 0u);
  ExpectCheckedElidedAgree(source, "f", {}, "off-by-one loop", /*expect_trap=*/true);
}

TEST(ElisionAdversarial, NilReassignmentAfterGuardKeepsTheNullCheck) {
  // The first b.a store is proven by the `b != null` guard; the reassignment
  // through b.b (which is null) must invalidate that fact before the second
  // store, whose check fires at run time.
  const char* source =
      "struct Box { a: int; b: Box; }\n"
      "fn f(c: int) -> int {\n"
      "  var b: Box = null;\n"
      "  if (c > 0) { b = new Box(); }\n"
      "  if (b != null) {\n"
      "    b.a = 1;\n"
      "    b = b.b;\n"
      "    b.a = 2;\n"
      "  }\n"
      "  return c;\n"
      "}\n";
  Program program = Compile(source);
  const auto stats = minnow::ElideChecks(program);
  EXPECT_GE(stats.field_accesses_elided, 1u);  // the guarded store (and load)
  EXPECT_TRUE(ProgramContains(program, Op::kStoreField));  // the post-reassignment store
  EXPECT_GT(program.elision.checks_retained, 0u);
  ExpectCheckedElidedAgree(source, "f", {1}, "guard then nil reassignment",
                           /*expect_trap=*/true);
  ExpectCheckedElidedAgree(source, "f", {0}, "guard not taken", /*expect_trap=*/false);
}

TEST(ElisionAdversarial, JoinedArraysOfDifferentLengthsKeepTheBoundsCheck) {
  // Minnow arrays are fixed-length, so the "resize" hazard appears as a
  // merge of references with different proven lengths: the join must keep
  // only the shorter bound, and index 5 against it stays checked.
  const char* source =
      "fn f(c: int) -> int {\n"
      "  var a: int[] = new int[2];\n"
      "  var b: int[] = new int[8];\n"
      "  var x: int[] = a;\n"
      "  if (c > 0) { x = b; }\n"
      "  x[5] = 1;\n"
      "  return x.len;\n"
      "}\n";
  Program program = Compile(source);
  const auto stats = minnow::ElideChecks(program);
  EXPECT_FALSE(ProgramContains(program, Op::kStoreElemNC));
  EXPECT_EQ(stats.elem_stores_elided, 0u);
  // Both facts survive the join, so the length read itself is provable.
  EXPECT_GE(stats.array_lens_elided, 1u);
  ExpectCheckedElidedAgree(source, "f", {0}, "short arm out of bounds", /*expect_trap=*/true);
  ExpectCheckedElidedAgree(source, "f", {1}, "long arm in bounds", /*expect_trap=*/false);
}

TEST(ElisionAdversarial, ZeroOnlyDivisorGuardKeepsTheDivisionCheck) {
  // `b != 0` rules out the zero divisor but NOT INT64_MIN / -1 — eliding on
  // that guard alone would turn a trap into undefined behavior.
  const char* guarded_nonzero =
      "fn f(a: int, b: int) -> int { if (b != 0) { return a / b; } return 0; }\n";
  Program program = Compile(guarded_nonzero);
  const auto stats = minnow::ElideChecks(program);
  EXPECT_FALSE(ProgramContains(program, Op::kDivNZ));
  EXPECT_EQ(stats.divs_elided, 0u);
  ExpectCheckedElidedAgree(guarded_nonzero, "f",
                           {std::numeric_limits<std::int64_t>::min(), -1},
                           "INT64_MIN / -1 behind != 0 guard", /*expect_trap=*/true);

  // A positive-divisor guard proves both halves, so the same division IS
  // elided — the contrast pins the decision to the right predicate.
  const char* guarded_positive =
      "fn f(a: int, b: int) -> int { if (b > 0) { return a / b; } return 0; }\n";
  Program positive = Compile(guarded_positive);
  const auto positive_stats = minnow::ElideChecks(positive);
  EXPECT_TRUE(ProgramContains(positive, Op::kDivNZ));
  EXPECT_GE(positive_stats.divs_elided, 1u);
  ExpectCheckedElidedAgree(guarded_positive, "f",
                           {std::numeric_limits<std::int64_t>::min(), 1},
                           "INT64_MIN / 1 behind > 0 guard", /*expect_trap=*/false);
}

}  // namespace
