// The Minnow JIT's plan: what the x86-64 emitter (jit.cc) is told to do.
//
// Everything here is target-independent. Given one verified function, the
// planner
//   - builds its block graph (per-pc operand depths, block leaders and jump
//     targets) and decides which leaf calls to splice;
//   - runs live-variable analysis over frame slots and splits each slot
//     into def-use webs, then gives webs register homes;
//   - lays out fuel: where a checked charge runs, how much it charges, and
//     what each edge and each side exit gives back.
// Homes are abstract indices 0..num_homes-1 in the emitter's allocation
// order; the emitter maps them onto machine registers. Because the plan
// names no machine register, it builds and is tested in GRAFTLAB_JIT=OFF
// builds too (tests/minnow_jit_plan_test.cc checks its invariants).
//
// Nodes. The plan works on one node per instruction in emission order: the
// function's pcs, each splice site's node followed by one node per callee
// pc. Slot k is the frame slot at [locals base + 8k]: locals, then operand
// slots (a spliced callee's locals and operands are caller operand slots).
//
// Webs. A web is a set of definitions of one slot together with the uses
// they reach; two webs of one slot are independent values and may live in
// different places. Each node has an in point (before it runs) and an out
// point (after). A web occupies the in point of every node it is live into
// or read at, and the out point of every node it is live out of or written
// at. Two webs interfere when they occupy a common point, so a value read
// for the last time at a node can share a register with one written there:
// templates read their inputs before they write a home. The reads that
// happen after a write in the same node (kStoreLoad's load, a splice's
// arguments) occupy the out point too. An operand pushed as a copy of a
// local (load.local and its fused forms) joins the local's web as long as
// the local is not written while the copy is live, so the copy costs no
// register and no move. One pushed as a copy of a global stays in the
// global's cell while nothing can write it. Webs are ranked like the slots they came from
// (loop-carried first, then accesses weighted 8x per loop level), and each
// takes the first home none of whose webs shares a point with it.
//
// Fuel. Checked charges run at sync points only: function entry, every
// loop header (the target of a back edge) and the instruction after a
// call or host call that was not spliced (the callee or host resyncs the
// ledger). Between sync points the code is a DAG; rem[n] is the longest
// instruction count from node n to the next sync point or return, and a
// charge point charges rem[n] up front. An edge n->m gives back what the
// longest path would have spent beyond m's own budget; every side exit at
// node n gives back rem[n] (less the instruction itself when a helper
// already retired it). So on every path charged - refunded - given equals
// the instructions executed, and the interpreter, resumed at a charge
// point whose charge would go negative, meters the tail exactly.

#ifndef GRAFTLAB_SRC_MINNOW_JIT_ALLOC_H_
#define GRAFTLAB_SRC_MINNOW_JIT_ALLOC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/minnow/bytecode.h"

namespace minnow::jitplan {

// Per-pc control-flow facts of one function.
struct Flow {
  std::vector<int> depth;      // verifier-proven operand depth; -1 = unreachable
  std::vector<char> leader;    // starts a basic block
  std::vector<char> target;    // some branch jumps here: operands arrive stored
};

// VmOptions::jit_compile_filter: ops it denies compile to forced deopts.
using OpFilter = std::function<bool(Op)>;

// Leaf callees up to this many instructions may be spliced into a caller.
inline constexpr std::size_t kInlineMaxInsns = 48;
// Frames with more slots than this stay in memory.
inline constexpr std::size_t kMaxHomedSlots = 1024;
// Functions whose webs would need more (node, slot) pairs than this stay in
// memory too: the planner's cost grows with them.
inline constexpr std::size_t kMaxWebVars = std::size_t{1} << 18;

// Ops the splicer accepts: templates that touch only locals, globals, and
// the operand stack, plus intra-function control flow and kRet/kRetVoid.
bool InlinableOp(Op op);

// Depths, leaders and jump targets of `f`. With `splice` set it
// also enforces the splice whitelist: every reachable insn inlinable (and
// not denied by `filter` — those must keep their forced-deopt seam) and
// kRet/kRetVoid the only terminals.
bool BuildFlow(const Program& program, const FunctionCode& f, const OpFilter& filter,
               bool splice, Flow& fl);

// What the planner needs to know about the VM and the emitter.
struct PlanInputs {
  const Program* program = nullptr;
  const FunctionCode* fn = nullptr;
  OpFilter filter;                   // VmOptions::jit_compile_filter
  std::size_t frame_capacity = 0;    // VM frame array capacity
  std::size_t stack_slots = 0;       // VM value-stack capacity
  std::size_t max_call_depth = 0;    // VmOptions::max_call_depth
  int num_homes = 0;                 // home registers the emitter offers
};

// kCall at caller depth `d`: the callee frame's offset from ours, and the
// largest caller frame->base for which PushFrame's stack check passes.
// False when a capacity does not fold into an imm32 compare.
bool CallGeometry(const PlanInputs& in, const FunctionCode& callee, int d, std::int64_t& kk,
                  std::int64_t& base_limit);

// A web's place at one node: the slot and the web (index into Plan::home).
struct SlotWeb {
  std::int32_t slot;
  std::int32_t web;
};

struct Plan {
  Flow flow;
  std::vector<char> splice_site;               // pc -> kCall spliced here
  std::int64_t splice_base_limit = INT32_MAX;  // strictest site's base limit
  std::vector<int> pc_node;                    // caller pc -> node
  std::size_t nodes = 0;
  int num_locals = 0;

  // Block graph in node space (unreachable nodes have no edges).
  std::vector<std::vector<int>> succ;
  std::vector<int> preds;       // node -> incoming edge count
  std::vector<char> reachable;  // node -> emitted code runs here
  std::vector<std::vector<std::int32_t>> defs;  // node -> slots it writes

  // Webs. in[n]: the webs live into or read at n; out[n]: the webs live
  // out of n, whether written at n or live through it. Both sorted by slot.
  std::vector<std::vector<SlotWeb>> in, out;
  std::vector<std::int8_t> home;     // web -> home index, -1 = memory
  std::vector<std::int32_t> remat;  // web -> the global whose cell it stays in, or -1
  std::uint32_t home_mask = 0;      // home indices in use

  // Fuel. rem[n]: prepaid instructions on entry to n (0 = unreachable).
  // charge[n]: a checked charge of rem[n] runs on entry. refund[n][i]:
  // what the edge to succ[n][i] gives back.
  std::vector<int> rem;
  std::vector<char> charge;
  std::vector<std::vector<int>> refund;

  // The web of `slot` live into / out of `node`, or -1 (dead there).
  int WebIn(int node, std::size_t slot) const { return Find(in, node, slot); }
  int WebOut(int node, std::size_t slot) const { return Find(out, node, slot); }
  // The home of that web, or -1 (memory, or dead).
  int HomeIn(int node, std::size_t slot) const { return HomeOf(WebIn(node, slot)); }
  int HomeOut(int node, std::size_t slot) const { return HomeOf(WebOut(node, slot)); }
  int HomeOf(int web) const { return web < 0 ? -1 : home[static_cast<std::size_t>(web)]; }
  int RematOf(int web) const { return web < 0 ? -1 : remat[static_cast<std::size_t>(web)]; }
  bool Defines(int node, std::size_t slot) const;
  // What the edge from -> to gives back (0 when there is no such edge).
  int Refund(int from, int to) const;
  // What a side exit at `node` gives back: the whole prepaid remainder
  // when the instruction re-executes in the interpreter, one less when a
  // helper already retired it.
  int Give(int node, bool reexec) const {
    return rem[static_cast<std::size_t>(node)] - (reexec ? 0 : 1);
  }

  // The homed webs live into `node`, locals only when `locals_only`: what
  // a side exit stores besides its pending operands, and what a helper
  // call stores before it runs (and reloads after, where the register is
  // caller-saved).
  std::vector<SlotWeb> HomedIn(int node, bool locals_only) const;

  // Static counts for JitStats: webs with a home, and, per local below 64,
  // whether every web of it that is ever live got one.
  std::uint64_t HomedWebs() const;
  std::uint64_t HomedLocalsMask() const;

 private:
  static int Find(const std::vector<std::vector<SlotWeb>>& v, int node, std::size_t slot);
};

// Builds the plan for `in.fn`. False when the function cannot be compiled
// (the flow analysis rejects it).
bool BuildPlan(const PlanInputs& in, Plan& plan);

}  // namespace minnow::jitplan

#endif  // GRAFTLAB_SRC_MINNOW_JIT_ALLOC_H_
