// Static properties of the JIT's plan (src/minnow/jit_alloc.h), checked
// without running native code, so the suite means the same in
// GRAFTLAB_JIT=OFF builds. For every function of the fuzzer's program
// families and of the three paper grafts:
//
//   - homes: no two webs live at one program point share a home, and the
//     web of a slot live across an edge is the same web on both ends;
//   - exits: the homed locals an exit stores are exactly the locals live
//     into its node whose web has a home;
//   - collector: every helper site (allocation, call, host call) stores
//     every homed web live into it — any slot may hold a reference;
//   - fuel: on every path from a charge point to an exit, a return or the
//     next sync point, charged - refunded - given equals the instructions
//     executed.
//
// Liveness is recomputed here from the bytecode, independently of the
// planner. Mutated plans (a dropped refund, a shared home) must fail.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/grafts/minnow_grafts.h"
#include "src/minnow/bytecode.h"
#include "src/minnow/compiler.h"
#include "src/minnow/elide.h"
#include "src/minnow/fuse.h"
#include "src/minnow/jit_alloc.h"
#include "src/minnow/verifier.h"
#include "tests/minnow_program_gen.h"

namespace {

using minnow::FunctionCode;
using minnow::Insn;
using minnow::Op;
using minnow::Program;
using minnow::jitplan::Plan;
using minnow::jitplan::SlotWeb;

constexpr int kHomes = 7;  // the x86-64 emitter's home registers

minnow::jitplan::PlanInputs Inputs(const Program& program, const FunctionCode& fn) {
  minnow::jitplan::PlanInputs in;
  in.program = &program;
  in.fn = &fn;
  in.frame_capacity = 256 + 64;
  in.stack_slots = 1 << 16;
  in.max_call_depth = 256;
  in.num_homes = kHomes;
  return in;
}

// Per-node slot sets from the bytecode: what each instruction reads and
// writes, with the emitter's conventions (operands under a return or trap
// stay live; a splice's args are read, its other callee locals written).
struct Effects {
  std::vector<std::set<int>> use, def;
  std::vector<char> helper;  // allocation, host call, or a call that was not spliced
};

void InsnEffects(const Program& program, const Insn& insn, int d, int lbase, int obase,
                 std::set<int>& use, std::set<int>& def) {
  minnow::StackShape e;
  minnow::ResolveShape(program, insn, e);
  for (int j = d - e.pops; j < d; ++j) use.insert(obase + j);
  const auto s = static_cast<int>(insn.operand);
  const auto a = static_cast<int>(minnow::SlotPairA(insn.operand));
  const auto b = static_cast<int>(minnow::SlotPairB(insn.operand));
  const auto cs = static_cast<int>(minnow::ConstStoreSlot(insn.operand));
  switch (insn.op) {
    case Op::kLoadLocal: case Op::kLoadAddI: use.insert(lbase + s); break;
    case Op::kStoreLocal: def.insert(lbase + s); break;
    case Op::kConstStore: def.insert(lbase + cs); break;
    case Op::kLoadConstI: use.insert(lbase + cs); break;
    case Op::kLoadLocal2: use.insert(lbase + a); use.insert(lbase + b); break;
    case Op::kMoveLocal: use.insert(lbase + a); def.insert(lbase + b); break;
    case Op::kStoreLoad:
      def.insert(lbase + a);
      if (b != a) use.insert(lbase + b);
      break;
    case Op::kLoadGlobalLocal: use.insert(lbase + b); break;
    default: break;
  }
  for (int j = d - e.pops; j < d - e.pops + e.pushes; ++j) def.insert(obase + j);
  if (insn.op == Op::kRet || insn.op == Op::kRetVoid || insn.op == Op::kTrap) {
    for (int j = 0; j < d - e.pops; ++j) use.insert(obase + j);
  }
}

Effects BytecodeEffects(const Program& program, const FunctionCode& fn, const Plan& plan) {
  Effects fx;
  fx.use.resize(plan.nodes);
  fx.def.resize(plan.nodes);
  fx.helper.assign(plan.nodes, 0);
  const int nl = fn.num_locals;
  for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
    const int d = plan.flow.depth[pc];
    if (d < 0) continue;
    const auto at = static_cast<std::size_t>(plan.pc_node[pc]);
    if (!plan.splice_site[pc]) {
      InsnEffects(program, fn.code[pc], d, 0, nl, fx.use[at], fx.def[at]);
      const Op op = fn.code[pc].op;
      fx.helper[at] = op == Op::kNewStruct || op == Op::kNewArray || op == Op::kCall ||
                      op == Op::kCallHost;
      continue;
    }
    const FunctionCode& callee = program.functions[static_cast<std::size_t>(fn.code[pc].operand)];
    const int lb = d - callee.num_params;
    for (int j = lb; j < d; ++j) fx.use[at].insert(nl + j);
    for (int j = d; j < lb + callee.num_locals; ++j) fx.def[at].insert(nl + j);
    minnow::jitplan::Flow cf;
    minnow::jitplan::BuildFlow(program, callee, nullptr, true, cf);
    for (std::size_t cpc = 0; cpc < callee.code.size(); ++cpc) {
      if (cf.depth[cpc] < 0) continue;
      const std::size_t n = at + 1 + cpc;
      InsnEffects(program, callee.code[cpc], cf.depth[cpc], nl + lb, nl + lb + callee.num_locals,
                  fx.use[n], fx.def[n]);
      if (callee.code[cpc].op == Op::kRet) fx.def[n].insert(nl + lb);
    }
  }
  return fx;
}

// Live-in sets over the plan's edges (the edges themselves are checked
// against the bytecode's control flow by the fuel walk's instruction
// counts and the conformance suites).
std::vector<std::set<int>> LiveIn(const Plan& plan, const Effects& fx) {
  std::vector<std::set<int>> in(plan.nodes);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t n = plan.nodes; n-- > 0;) {
      std::set<int> live = fx.use[n];
      for (const int m : plan.succ[n]) {
        for (const int k : in[static_cast<std::size_t>(m)]) {
          if (fx.def[n].count(k) == 0) live.insert(k);
        }
      }
      if (live != in[n]) {
        in[n] = std::move(live);
        changed = true;
      }
    }
  }
  return in;
}

// Empty when the plan's homes hold; else the first violation.
std::string CheckHomes(const Plan& plan, const std::vector<std::set<int>>& live_in) {
  for (std::size_t n = 0; n < plan.nodes; ++n) {
    if (!plan.reachable[n]) continue;
    std::set<int> in_slots;
    for (const SlotWeb& sw : plan.in[n]) in_slots.insert(sw.slot);
    if (in_slots != live_in[n]) return "node " + std::to_string(n) + ": live-in set differs";
    for (const auto* list : {&plan.in[n], &plan.out[n]}) {
      for (const SlotWeb& x : *list) {
        for (const SlotWeb& y : *list) {
          const int home = plan.HomeOf(x.web);
          if (x.web != y.web && home >= 0 && home == plan.HomeOf(y.web)) {
            return "node " + std::to_string(n) + ": slots " + std::to_string(x.slot) + " and " +
                   std::to_string(y.slot) + " are live in one home";
          }
        }
      }
    }
    for (const int m : plan.succ[n]) {
      for (const SlotWeb& sw : plan.in[static_cast<std::size_t>(m)]) {
        if (plan.WebOut(static_cast<int>(n), static_cast<std::size_t>(sw.slot)) != sw.web) {
          return "edge " + std::to_string(n) + "->" + std::to_string(m) + ": slot " +
                 std::to_string(sw.slot) + " changes web";
        }
      }
    }
  }
  return "";
}

std::set<std::pair<int, int>> AsSet(const std::vector<SlotWeb>& v) {
  std::set<std::pair<int, int>> s;
  for (const SlotWeb& sw : v) s.insert({sw.slot, sw.web});
  return s;
}

// Exit and helper store sets against the independent liveness.
std::string CheckStores(const Plan& plan, const Effects& fx,
                        const std::vector<std::set<int>>& live_in) {
  for (std::size_t n = 0; n < plan.nodes; ++n) {
    if (!plan.reachable[n]) continue;
    const int node = static_cast<int>(n);
    std::set<std::pair<int, int>> want_locals;
    std::set<std::pair<int, int>> want_all;
    for (const int k : live_in[n]) {
      const int web = plan.WebIn(node, static_cast<std::size_t>(k));
      if (web < 0) {
        return "node " + std::to_string(n) + ": live slot " + std::to_string(k) + " has no web";
      }
      if (plan.HomeOf(web) < 0) continue;
      want_all.insert({k, web});
      if (k < plan.num_locals) want_locals.insert({k, web});
    }
    if (AsSet(plan.HomedIn(node, true)) != want_locals) {
      return "node " + std::to_string(n) + ": exit store set is not the live homed locals";
    }
    if (fx.helper[n] && AsSet(plan.HomedIn(node, false)) != want_all) {
      return "node " + std::to_string(n) + ": helper site misses a live homed web";
    }
  }
  return "";
}

// Walks every path from every charge point through the DAG to the next
// sync point or return, checking the ledger identity at each node.
std::string CheckFuel(const Plan& plan) {
  std::string err;
  std::size_t paths = 0;
  constexpr std::size_t kMaxPaths = 200000;
  std::function<void(int, int, int)> walk = [&](int n, int paid, int executed) {
    if (!err.empty() || paths > kMaxPaths) return;
    const auto u = static_cast<std::size_t>(n);
    // `paid`: charged minus refunded so far. An exit here re-executes n
    // (gives paid - executed back) or follows a helper that retired it.
    if (plan.Give(n, true) != paid - executed || plan.Give(n, false) != paid - executed - 1) {
      err = "node " + std::to_string(n) + ": exit give " + std::to_string(plan.Give(n, true)) +
            " but " + std::to_string(paid - executed) + " is unspent";
      return;
    }
    if (plan.succ[u].empty()) {
      ++paths;
      if (paid != executed + 1) {
        err = "node " + std::to_string(n) + ": return leaves " +
              std::to_string(paid - executed - 1);
      }
      return;
    }
    for (std::size_t e = 0; e < plan.succ[u].size(); ++e) {
      const int m = plan.succ[u][e];
      const int r = plan.refund[u][e];
      if (r < 0) {
        err = "edge " + std::to_string(n) + "->" + std::to_string(m) + ": negative refund";
        return;
      }
      const int left = paid - r - (executed + 1);
      if (plan.charge[static_cast<std::size_t>(m)]) {
        ++paths;
        if (left != 0) {
          err = "edge " + std::to_string(n) + "->" + std::to_string(m) +
                " into a charge point leaves " + std::to_string(left);
          return;
        }
        continue;
      }
      walk(m, paid - r, executed + 1);
    }
  };
  for (std::size_t n = 0; n < plan.nodes && err.empty(); ++n) {
    if (plan.reachable[n] && plan.charge[n]) walk(static_cast<int>(n), plan.rem[n], 0);
  }
  return err;
}

struct Checked {
  std::size_t functions = 0;
  std::size_t homed_webs = 0;
};

void CheckProgram(const Program& program, const std::string& name, Checked& total) {
  for (const FunctionCode& fn : program.functions) {
    Plan plan;
    if (!minnow::jitplan::BuildPlan(Inputs(program, fn), plan)) continue;
    const Effects fx = BytecodeEffects(program, fn, plan);
    const std::vector<std::set<int>> live_in = LiveIn(plan, fx);
    EXPECT_EQ(CheckHomes(plan, live_in), "") << name << " fn " << fn.name;
    EXPECT_EQ(CheckStores(plan, fx, live_in), "") << name << " fn " << fn.name;
    EXPECT_EQ(CheckFuel(plan), "") << name << " fn " << fn.name;
    ++total.functions;
    total.homed_webs += plan.HomedWebs();
  }
}

// Each program as the JIT sees it: raw, fused, and fused plus elided.
void CheckVariants(const std::string& source, const std::vector<minnow::HostDecl>& hosts,
                   const std::string& name, Checked& total) {
  Program raw = minnow::Compile(source, hosts);
  minnow::VerifyProgram(raw);
  CheckProgram(raw, name + " raw", total);
  Program fused = minnow::Compile(source, hosts);
  minnow::FuseSuperinstructions(fused);
  minnow::VerifyProgram(fused);
  CheckProgram(fused, name + " fused", total);
  minnow::ElideChecks(fused);
  minnow::VerifyProgram(fused);
  CheckProgram(fused, name + " fused+elided", total);
}

TEST(JitPlan, FuzzerFamiliesHoldTheirInvariants) {
  Checked total;
  for (int p = 0; p < 60 && !HasFailure(); ++p) {
    minnow_testgen::ProgramGen gen(0xC0FFEE + p);
    CheckVariants(gen.Generate(), {}, "random " + std::to_string(p), total);
  }
  for (int p = 0; p < 60 && !HasFailure(); ++p) {
    minnow_testgen::ProgramGen gen(0xE11DE00 + p, /*heap=*/true);
    CheckVariants(gen.Generate(), {}, "heap " + std::to_string(p), total);
  }
  for (int p = 0; p < 40 && !HasFailure(); ++p) {
    minnow_testgen::PressureGen gen(0x9E6A11 + p);
    CheckVariants(gen.Generate(), {minnow_testgen::MixHostDecl()}, "pressure " + std::to_string(p),
                  total);
  }
  EXPECT_GT(total.functions, 400u);
  EXPECT_GT(total.homed_webs, 0u);
}

TEST(JitPlan, PaperGraftsHoldTheirInvariants) {
  grafts::MinnowConfig config;
  config.jit = true;
  config.elide = true;
  Checked total;
  grafts::MinnowMd5Graft md5(config);
  CheckProgram(md5.vm().program(), "md5", total);
  grafts::MinnowEvictionGraft eviction(config);
  CheckProgram(eviction.vm().program(), "eviction", total);
  ldisk::Geometry geometry;
  geometry.num_blocks = 4096;
  grafts::MinnowLogicalDiskGraft ldisk(geometry, config);
  CheckProgram(ldisk.vm().program(), "ldisk", total);
  EXPECT_GT(total.functions, 15u);
}

// md5's round loop: one checked charge per round (at the loop header) and
// every local in a register; then the checks must catch a mutated plan.
TEST(JitPlan, Md5RoundsPlanAndMutationsAreCaught) {
  grafts::MinnowConfig config;
  config.jit = true;
  config.elide = true;
  grafts::MinnowMd5Graft md5(config);
  const Program& program = md5.vm().program();
  const auto rounds = static_cast<std::size_t>(program.FindFunction("rounds"));
  const FunctionCode& fn = program.functions[rounds];
  Plan plan;
  ASSERT_TRUE(minnow::jitplan::BuildPlan(Inputs(program, fn), plan));
  EXPECT_EQ(plan.HomedLocalsMask(), 0xffu);
  EXPECT_EQ(std::count(plan.charge.begin(), plan.charge.end(), 1), 2)
      << "function entry and the round loop's header";
  const std::vector<std::set<int>> live_in = LiveIn(plan, BytecodeEffects(program, fn, plan));
  ASSERT_EQ(CheckHomes(plan, live_in), "");
  ASSERT_EQ(CheckFuel(plan), "");

  // A dropped refund: the shorter arm now pays for the longer one.
  Plan dropped = plan;
  bool mutated = false;
  for (std::size_t n = 0; n < dropped.nodes && !mutated; ++n) {
    for (int& r : dropped.refund[n]) {
      if (r > 0 && !mutated) {
        r = 0;
        mutated = true;
      }
    }
  }
  ASSERT_TRUE(mutated);
  EXPECT_NE(CheckFuel(dropped), "");

  // A shared home: two webs live together get one register.
  Plan shared = plan;
  mutated = false;
  for (std::size_t n = 0; n < shared.nodes && !mutated; ++n) {
    const auto& in = shared.in[n];
    for (std::size_t i = 0; i + 1 < in.size() && !mutated; ++i) {
      const SlotWeb x = in[i];
      const SlotWeb y = in[i + 1];
      if (x.web != y.web && shared.HomeOf(x.web) >= 0 && shared.HomeOf(y.web) >= 0) {
        shared.home[static_cast<std::size_t>(y.web)] = shared.home[static_cast<std::size_t>(x.web)];
        mutated = true;
      }
    }
  }
  ASSERT_TRUE(mutated);
  EXPECT_NE(CheckHomes(shared, live_in), "");
}

}  // namespace
