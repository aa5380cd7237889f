#include "src/minnow/jit_alloc.h"

#include <algorithm>
#include <functional>
#include <iterator>

#include "src/minnow/verifier.h"

namespace minnow::jitplan {

namespace {

// A branch target as a pc (the verifier proved it in range).
std::size_t TargetOf(const Insn& insn) { return static_cast<std::size_t>(BranchTarget(insn)); }

struct Node {
  std::vector<std::int32_t> use, def;    // slots read / written
  std::vector<std::int32_t> luse, ldef;  // the local accesses among them (ranked)
  std::vector<std::int32_t> late;        // slots read after the node's writes
  // (operand slot written, slot read): the operand is pushed as a copy.
  std::vector<std::pair<std::int32_t, std::int32_t>> copies;
  // (operand slot written, global read): the operand is pushed as a copy.
  std::vector<std::pair<std::int32_t, std::int32_t>> gcopies;
  std::int32_t stores_global = -1;  // kStoreGlobal's global
  std::vector<int> succ;
  bool join = false;    // operands arrive in their canonical places
  bool end = false;     // the fuel region ends here: return, trap, or an unspliced call
  bool call = false;    // an unspliced call: the ledger resyncs after it
  bool helper = false;  // a helper the collector, a callee or a host can observe
  int nest = 0;         // static loop depth
};

// Static loop depth per pc: one level per back edge spanning it.
std::vector<int> LoopNest(const FunctionCode& f, const Flow& fl) {
  std::vector<int> nest(f.code.size() + 1, 0);
  for (std::size_t pc = 0; pc < f.code.size(); ++pc) {
    const Insn& insn = f.code[pc];
    if (fl.depth[pc] >= 0 && HasTarget(insn.op) && TargetOf(insn) <= pc) {
      ++nest[TargetOf(insn)];
      --nest[pc + 1];
    }
  }
  for (std::size_t pc = 1; pc < nest.size(); ++pc) nest[pc] += nest[pc - 1];
  return nest;
}

// The slots `insn` reads and writes at operand depth `d`, with local s at
// slot lbase + s and operand j at slot obase + j.
void SlotEffects(const Program& program, Node& nd, const Insn& insn, int d, int lbase,
                 int obase) {
  StackShape e;
  ResolveShape(program, insn, e);
  const auto local = [&](std::vector<std::int32_t>& to, std::vector<std::int32_t>& ranked,
                         std::int64_t s) {
    const auto k = static_cast<std::int32_t>(lbase + s);
    to.push_back(k);
    ranked.push_back(k);
    return k;
  };
  const auto copy = [&](int j, std::int64_t s) {
    nd.copies.emplace_back(obase + j, local(nd.use, nd.luse, s));
  };
  for (int j = d - e.pops; j < d; ++j) nd.use.push_back(obase + j);
  switch (insn.op) {
    case Op::kLoadLocal:
      copy(d, insn.operand);
      break;
    case Op::kLoadAddI:
      local(nd.use, nd.luse, insn.operand);
      break;
    case Op::kStoreLocal:
      local(nd.def, nd.ldef, insn.operand);
      break;
    case Op::kConstStore:
      local(nd.def, nd.ldef, ConstStoreSlot(insn.operand));
      break;
    case Op::kLoadConstI:
      copy(d, ConstStoreSlot(insn.operand));
      break;
    case Op::kLoadLocal2:
      copy(d, SlotPairA(insn.operand));
      copy(d + 1, SlotPairB(insn.operand));
      break;
    case Op::kMoveLocal:
      local(nd.use, nd.luse, SlotPairA(insn.operand));
      local(nd.def, nd.ldef, SlotPairB(insn.operand));
      break;
    case Op::kStoreLoad:  // store a, then load b: b == a reads the stored value
      local(nd.def, nd.ldef, SlotPairA(insn.operand));
      if (SlotPairB(insn.operand) != SlotPairA(insn.operand)) {
        copy(d - 1, SlotPairB(insn.operand));
        nd.late.push_back(lbase + static_cast<std::int32_t>(SlotPairB(insn.operand)));
      }
      break;
    case Op::kLoadGlobalLocal:
      nd.gcopies.emplace_back(obase + d, static_cast<std::int32_t>(SlotPairA(insn.operand)));
      copy(d + 1, SlotPairB(insn.operand));
      break;
    case Op::kLoadGlobal:
      nd.gcopies.emplace_back(obase + d, static_cast<std::int32_t>(insn.operand));
      break;
    case Op::kStoreGlobal:
      nd.stores_global = static_cast<std::int32_t>(insn.operand);
      break;
    default:
      break;
  }
  for (int j = d - e.pops; j < d - e.pops + e.pushes; ++j) nd.def.push_back(obase + j);
  // Operands left below a return are dead, but they still sit on the
  // emitter's deferred stack and a flush may write them: keep them live to
  // the end.
  if (insn.op == Op::kRet || insn.op == Op::kRetVoid || insn.op == Op::kTrap) {
    for (int j = 0; j < d - e.pops; ++j) nd.use.push_back(obase + j);
  }
}

// Marks the kCall sites that will be spliced and the strictest base limit
// among them.
void PlanSplices(const PlanInputs& in, Plan& plan) {
  const FunctionCode& fn = *in.fn;
  plan.splice_site.assign(fn.code.size(), 0);
  for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
    const Insn& insn = fn.code[pc];
    if (plan.flow.depth[pc] < 0 || insn.op != Op::kCall) continue;
    if (in.filter && !in.filter(insn.op)) continue;
    const auto& callee = in.program->functions[static_cast<std::size_t>(insn.operand)];
    std::int64_t kk = 0;
    std::int64_t limit = 0;
    Flow scratch;
    if (CallGeometry(in, callee, plan.flow.depth[pc], kk, limit) &&
        BuildFlow(*in.program, callee, in.filter, true, scratch)) {
      plan.splice_site[pc] = 1;
      plan.splice_base_limit = std::min(plan.splice_base_limit, limit);
    }
  }
}

// One node per instruction in emission order, with the block graph's
// edges: a splice site's node leads into the callee's nodes, whose returns
// continue at the caller's next pc.
std::vector<Node> BuildNodes(const PlanInputs& in, Plan& plan) {
  const Program& program = *in.program;
  const FunctionCode& fn = *in.fn;
  const Flow& flow = plan.flow;
  const std::size_t n = fn.code.size();
  const int nl = fn.num_locals;
  plan.pc_node.assign(n, -1);
  std::size_t count = 0;
  for (std::size_t pc = 0; pc < n; ++pc) {
    plan.pc_node[pc] = static_cast<int>(count++);
    if (plan.splice_site[pc]) {
      count += program.functions[static_cast<std::size_t>(fn.code[pc].operand)].code.size();
    }
  }
  plan.nodes = count;
  plan.reachable.assign(count, 0);
  std::vector<Node> nodes(count);
  const std::vector<int> nest = LoopNest(fn, flow);
  for (std::size_t pc = 0; pc < n; ++pc) {
    const int d = flow.depth[pc];
    if (d < 0) continue;
    const int at = plan.pc_node[pc];
    Node& nd = nodes[static_cast<std::size_t>(at)];
    plan.reachable[static_cast<std::size_t>(at)] = 1;
    const Insn& insn = fn.code[pc];
    nd.join = nd.join || flow.target[pc] != 0;
    nd.nest = nest[pc];
    if (!plan.splice_site[pc]) {
      SlotEffects(program, nd, insn, d, 0, nl);
      const Op op = insn.op;
      nd.call = op == Op::kCall || op == Op::kCallHost;
      nd.end = nd.call || op == Op::kRet || op == Op::kRetVoid || op == Op::kTrap;
      nd.helper = nd.call || op == Op::kNewStruct || op == Op::kNewArray;
      if (FallsThrough(op)) nd.succ.push_back(plan.pc_node[pc + 1]);
      if (HasTarget(op)) nd.succ.push_back(plan.pc_node[TargetOf(insn)]);
      continue;
    }
    // Splice site: the args become the callee's params in place (the
    // emitter stores them while it nulls the other locals, so they are
    // read late), its other locals are nulled, and its returns continue at
    // pc + 1.
    const FunctionCode& callee = program.functions[static_cast<std::size_t>(insn.operand)];
    Flow cf;
    BuildFlow(program, callee, in.filter, true, cf);
    const int lb = d - callee.num_params;
    for (int j = lb; j < d; ++j) {
      nd.use.push_back(nl + j);
      nd.late.push_back(nl + j);
    }
    for (int j = d; j < lb + callee.num_locals; ++j) nd.def.push_back(nl + j);
    nd.succ.push_back(at + 1);
    const std::vector<int> cnest = LoopNest(callee, cf);
    int returns = 0;
    for (std::size_t cpc = 0; cpc < callee.code.size(); ++cpc) {
      const int cd = cf.depth[cpc];
      if (cd < 0) continue;
      const std::size_t ci_node = static_cast<std::size_t>(at + 1) + cpc;
      Node& cn = nodes[ci_node];
      plan.reachable[ci_node] = 1;
      const Insn& ci = callee.code[cpc];
      cn.join = cf.target[cpc] != 0;
      cn.nest = nd.nest + cnest[cpc];
      SlotEffects(program, cn, ci, cd, nl + lb, nl + lb + callee.num_locals);
      if (ci.op == Op::kRet || ci.op == Op::kRetVoid) {
        if (ci.op == Op::kRet) cn.def.push_back(nl + lb);  // the caller's result slot
        cn.succ.push_back(plan.pc_node[pc + 1]);
        ++returns;
        continue;
      }
      if (FallsThrough(ci.op)) cn.succ.push_back(at + 1 + static_cast<int>(cpc) + 1);
      if (HasTarget(ci.op)) cn.succ.push_back(at + 1 + static_cast<int>(TargetOf(ci)));
    }
    // Several returns meet after the splice with the result stored.
    if (returns > 1) nodes[static_cast<std::size_t>(plan.pc_node[pc + 1])].join = true;
  }
  plan.succ.assign(count, {});
  plan.preds.assign(count, 0);
  plan.defs.assign(count, {});
  for (std::size_t i = 0; i < count; ++i) {
    Node& nd = nodes[i];
    std::sort(nd.def.begin(), nd.def.end());
    nd.def.erase(std::unique(nd.def.begin(), nd.def.end()), nd.def.end());
    plan.succ[i] = nd.succ;
    plan.defs[i] = nd.def;
    for (const int s : nd.succ) ++plan.preds[static_cast<std::size_t>(s)];
  }
  return nodes;
}

// Live-variable analysis over per-node slot bitsets.
struct Liveness {
  std::size_t words = 0;
  std::vector<std::uint64_t> in, out;
  bool In(std::size_t node, std::size_t k) const { return Bit(in, node, k); }
  bool Out(std::size_t node, std::size_t k) const { return Bit(out, node, k); }
  bool Bit(const std::vector<std::uint64_t>& v, std::size_t node, std::size_t k) const {
    return ((v[node * words + k / 64] >> (k % 64)) & 1) != 0;
  }
  // Calls f(k) for every slot k set in `node`'s row of `v`, in slot order.
  template <typename F>
  void ForEach(const std::vector<std::uint64_t>& v, std::size_t node, F&& f) const {
    for (std::size_t x = 0; x < words; ++x) {
      for (std::uint64_t bits = v[node * words + x]; bits != 0; bits &= bits - 1) {
        f(static_cast<std::int32_t>(64 * x + static_cast<std::size_t>(__builtin_ctzll(bits))));
      }
    }
  }
};

Liveness AnalyzeLiveness(const std::vector<Node>& nodes, std::size_t nslots) {
  Liveness lv;
  const std::size_t count = nodes.size();
  lv.words = (nslots + 63) / 64;
  const std::size_t w = lv.words;
  std::vector<std::uint64_t> use(count * w, 0);
  std::vector<std::uint64_t> def(count * w, 0);
  const auto set = [](std::uint64_t* bits, std::size_t k) {
    bits[k / 64] |= std::uint64_t{1} << (k % 64);
  };
  for (std::size_t i = 0; i < count; ++i) {
    for (const std::int32_t k : nodes[i].use) set(&use[i * w], static_cast<std::size_t>(k));
    for (const std::int32_t k : nodes[i].def) set(&def[i * w], static_cast<std::size_t>(k));
  }
  lv.in.assign(count * w, 0);
  lv.out.assign(count * w, 0);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = count; i-- > 0;) {
      for (std::size_t x = 0; x < w; ++x) {
        std::uint64_t out = 0;
        for (const int s : nodes[i].succ) out |= lv.in[static_cast<std::size_t>(s) * w + x];
        const std::uint64_t inb = use[i * w + x] | (out & ~def[i * w + x]);
        if (inb != lv.in[i * w + x]) changed = true;
        lv.out[i * w + x] = out;
        lv.in[i * w + x] = inb;
      }
    }
  }
  return lv;
}

struct UnionFind {
  std::vector<std::int32_t> parent;
  std::int32_t Add() {
    parent.push_back(static_cast<std::int32_t>(parent.size()));
    return parent.back();
  }
  std::int32_t& Parent(std::int32_t x) { return parent[static_cast<std::size_t>(x)]; }
  std::int32_t Find(std::int32_t x) {
    while (Parent(x) != x) {
      Parent(x) = Parent(Parent(x));
      x = Parent(x);
    }
    return x;
  }
  void Union(std::int32_t a, std::int32_t b) { Parent(Find(a)) = Find(b); }
};

std::int32_t Lookup(const std::vector<SlotWeb>& list, std::int32_t slot) {
  for (const SlotWeb& sw : list) {
    if (sw.slot == slot) return sw.web;
  }
  return -1;
}

// A variable: a slot's value live into a node — its in point, and its out
// point too when it lives through the node or is read there late — or the
// value a node writes, at its out point.
struct Var {
  std::uint32_t node;
  std::int32_t slot;
  bool write;
  bool in_point;
  bool out_point;
};

// Splits slots into webs, joins operand copies into the webs they copy,
// then gives webs homes by rank (see the header).
void PlanWebs(const PlanInputs& in, const std::vector<Node>& nodes, Plan& plan) {
  const std::size_t count = nodes.size();
  const int nl = in.fn->num_locals;
  std::size_t nslots = static_cast<std::size_t>(nl);
  for (const Node& nd : nodes) {
    for (const std::int32_t k : nd.use) nslots = std::max(nslots, static_cast<std::size_t>(k) + 1);
    for (const std::int32_t k : nd.def) nslots = std::max(nslots, static_cast<std::size_t>(k) + 1);
  }
  plan.in.assign(count, {});
  plan.out.assign(count, {});
  plan.home.clear();
  plan.remat.clear();
  if (nslots == 0 || nslots > kMaxHomedSlots) return;
  const Liveness lv = AnalyzeLiveness(nodes, nslots);

  // Variables, then webs as their union over the edges.
  UnionFind uf;
  std::vector<Var> vars;
  std::vector<std::vector<SlotWeb>> def_var(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!plan.reachable[i]) continue;
    const Node& nd = nodes[i];
    const auto node = static_cast<std::uint32_t>(i);
    lv.ForEach(lv.in, i, [&](std::int32_t k) {
      const bool written = std::find(nd.def.begin(), nd.def.end(), k) != nd.def.end();
      const bool late = std::find(nd.late.begin(), nd.late.end(), k) != nd.late.end();
      const bool through = lv.Out(i, static_cast<std::size_t>(k)) && !written;
      plan.in[i].push_back({k, uf.Add()});
      vars.push_back({node, k, false, true, through || late});
    });
    for (const std::int32_t k : nd.def) {
      def_var[i].push_back({k, uf.Add()});
      vars.push_back({node, k, true, false, true});
    }
    if (vars.size() > kMaxWebVars) {
      for (auto& l : plan.in) l.clear();
      return;
    }
  }
  const auto var_out = [&](std::size_t i, std::int32_t k) {
    const std::int32_t d = Lookup(def_var[i], k);
    return d >= 0 ? d : Lookup(plan.in[i], k);
  };
  for (std::size_t i = 0; i < count; ++i) {
    for (const int j : nodes[i].succ) {
      for (const SlotWeb& sw : plan.in[static_cast<std::size_t>(j)]) {
        const std::int32_t from = var_out(i, sw.slot);
        if (from >= 0) uf.Union(from, sw.web);
      }
    }
  }
  const std::size_t nvars = vars.size();
  const auto root = [&](std::size_t v) {
    return static_cast<std::size_t>(uf.Find(static_cast<std::int32_t>(v)));
  };
  const auto for_points = [&](std::size_t v, auto&& f) {
    if (vars[v].in_point) f(2 * vars[v].node);
    if (vars[v].out_point) f(2 * vars[v].node + 1);
  };
  // Each pre-merge web's variables, contiguous (counting sort by root).
  std::vector<std::uint32_t> first(nvars + 1, 0);
  std::vector<std::uint32_t> members(nvars);
  for (std::size_t v = 0; v < nvars; ++v) ++first[root(v) + 1];
  for (std::size_t r = 0; r < nvars; ++r) first[r + 1] += first[r];
  {
    std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
    for (std::size_t v = 0; v < nvars; ++v) {
      members[fill[root(v)]++] = static_cast<std::uint32_t>(v);
    }
  }

  // Copies. A web all of whose writes copy one other web X joins X, unless
  // X is written at a point where the copy is still live. A merged copy
  // writes the value its web already holds, so the writes that matter stay
  // those of the web's own variables.
  constexpr std::int32_t kNone = -1;
  constexpr std::int32_t kMixed = -2;
  std::vector<std::int32_t> source(nvars, kNone);  // root -> the one web its writes copy
  for (std::size_t i = 0; i < count; ++i) {
    for (const SlotWeb& sw : def_var[i]) {
      std::int32_t src = kMixed;
      for (const auto& [to, from] : nodes[i].copies) {
        if (to != sw.slot) continue;
        const std::int32_t v = Lookup(plan.in[i], from);
        src = v >= 0 ? uf.Find(v) : kMixed;
      }
      std::int32_t& s = source[static_cast<std::size_t>(uf.Find(sw.web))];
      s = s == kNone || s == src ? src : kMixed;
    }
  }
  std::vector<std::vector<std::int32_t>> absorbed(nvars);  // root -> copies merged into it
  std::vector<std::uint64_t> mark(count / 32 + 1, 0);
  // Marks (or clears the words of) the out and in points of root r's web
  // and of every copy merged into it.
  const std::function<void(std::size_t, bool)> mark_web = [&](std::size_t r, bool on) {
    for (std::uint32_t m = first[r]; m < first[r + 1]; ++m) {
      for_points(members[m], [&](std::size_t p) {
        mark[p / 64] = on ? mark[p / 64] | (std::uint64_t{1} << (p % 64)) : 0;
      });
    }
    for (const std::int32_t c : absorbed[r]) mark_web(static_cast<std::size_t>(c), on);
  };
  for (std::size_t w = 0; w < nvars; ++w) {
    if (source[w] < 0 || root(w) != w) continue;
    const auto x = static_cast<std::size_t>(uf.Find(source[w]));
    if (x == w) continue;
    mark_web(w, true);
    bool clash = false;
    for (std::uint32_t m = first[x]; m < first[x + 1]; ++m) {
      const Var& var = vars[members[m]];
      const std::size_t p = 2 * var.node + 1;
      clash = clash || (var.write && ((mark[p / 64] >> (p % 64)) & 1) != 0);
    }
    mark_web(w, false);
    if (clash) continue;
    uf.parent[w] = static_cast<std::int32_t>(x);
    absorbed[x].push_back(static_cast<std::int32_t>(w));
  }

  // Number the webs and gather each one's points (counting sort again).
  std::vector<std::int32_t> web_of_root(nvars, -1);
  std::int32_t webs = 0;
  std::vector<std::int32_t> web_of(nvars);
  for (std::size_t v = 0; v < nvars; ++v) {
    const std::size_t r = root(v);
    if (web_of_root[r] < 0) web_of_root[r] = webs++;
    web_of[v] = web_of_root[r];
  }
  const auto nwebs = static_cast<std::size_t>(webs);
  std::vector<std::uint32_t> pfirst(nwebs + 1, 0);
  for (std::size_t v = 0; v < nvars; ++v) {
    for_points(v, [&](std::size_t) { ++pfirst[static_cast<std::size_t>(web_of[v]) + 1]; });
  }
  for (std::size_t w = 0; w < nwebs; ++w) pfirst[w + 1] += pfirst[w];
  std::vector<std::uint32_t> points(pfirst[nwebs]);
  {
    std::vector<std::uint32_t> fill(pfirst.begin(), pfirst.end() - 1);
    for (std::size_t v = 0; v < nvars; ++v) {
      std::uint32_t& at = fill[static_cast<std::size_t>(web_of[v])];
      for_points(v, [&](std::size_t p) { points[at++] = static_cast<std::uint32_t>(p); });
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (!plan.reachable[i]) continue;
    lv.ForEach(lv.out, i, [&](std::int32_t k) {
      const std::int32_t v = var_out(i, k);
      if (v >= 0) plan.out[i].push_back({k, web_of[static_cast<std::size_t>(v)]});
    });
  }

  // Rank: local accesses weighted 8x per loop level, plus, for operand
  // slots, twice the weighted joins the web is live into.
  const auto weight_of = [](int nest) { return std::uint64_t{1} << (3 * std::min(nest, 6)); };
  std::vector<std::uint64_t> weight(nwebs, 0);
  std::vector<char> carried(nwebs, 0);
  const auto web_at = [&](std::int32_t v) {
    return static_cast<std::size_t>(web_of[static_cast<std::size_t>(v)]);
  };
  for (std::size_t i = 0; i < count; ++i) {
    const Node& nd = nodes[i];
    const std::uint64_t wt = weight_of(nd.nest);
    for (const std::int32_t k : nd.luse) {
      const std::int32_t v = Lookup(plan.in[i], k);
      if (v >= 0) weight[web_at(v)] += wt;
    }
    for (const std::int32_t k : nd.ldef) {
      weight[web_at(Lookup(def_var[i], k))] += wt;
    }
    for (SlotWeb& sw : plan.in[i]) {
      sw.web = web_of[static_cast<std::size_t>(sw.web)];
      if (nd.join && sw.slot >= nl) weight[static_cast<std::size_t>(sw.web)] += 2 * wt;
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    for (const int t : nodes[i].succ) {
      if (static_cast<std::size_t>(t) > i) continue;  // a back edge: its target's webs are carried
      for (const SlotWeb& sw : plan.in[static_cast<std::size_t>(t)]) {
        carried[static_cast<std::size_t>(sw.web)] = 1;
      }
    }
  }

  // Globals. A web all of whose writes copy one global g stays in g's own
  // cell when nothing writes g while it is live and it reaches no helper
  // (a callee reads its args from the frame, and may write g): it needs
  // no register and no frame store.
  plan.remat.assign(nwebs, -1);
  std::vector<std::int32_t> gsource(nwebs, kNone);
  for (std::size_t i = 0; i < count; ++i) {
    for (const SlotWeb& sw : def_var[i]) {
      std::int32_t g = kMixed;
      for (const auto& [to, from] : nodes[i].gcopies) {
        if (to == sw.slot) g = from;
      }
      std::int32_t& s = gsource[web_at(sw.web)];
      s = s == kNone || s == g ? g : kMixed;
    }
  }
  for (std::size_t w = 0; w < nwebs; ++w) {
    const std::int32_t g = gsource[w];
    bool ok = g >= 0;
    for (std::uint32_t q = pfirst[w]; q < pfirst[w + 1] && ok; ++q) {
      const Node& nd = nodes[points[q] / 2];
      ok = !nd.helper && !(nd.stores_global == g && (points[q] % 2) == 1);
    }
    if (ok) plan.remat[w] = g;
  }

  std::vector<std::int32_t> order;
  for (std::size_t w = 0; w < nwebs; ++w) {
    if (weight[w] > 0 && plan.remat[w] < 0) order.push_back(static_cast<std::int32_t>(w));
  }
  std::stable_sort(order.begin(), order.end(), [&](std::int32_t x, std::int32_t y) {
    const auto ux = static_cast<std::size_t>(x);
    const auto uy = static_cast<std::size_t>(y);
    if (carried[ux] != carried[uy]) return carried[ux] > carried[uy];
    return weight[ux] > weight[uy];
  });
  plan.home.assign(nwebs, -1);
  const auto homes = static_cast<std::size_t>(in.num_homes);
  const std::size_t pw = 2 * count / 64 + 1;
  std::vector<std::uint64_t> taken(homes * pw, 0);
  for (const std::int32_t w : order) {
    const auto u = static_cast<std::size_t>(w);
    for (std::size_t r = 0; r < homes; ++r) {
      bool overlap = false;
      for (std::uint32_t q = pfirst[u]; q < pfirst[u + 1] && !overlap; ++q) {
        overlap = ((taken[r * pw + points[q] / 64] >> (points[q] % 64)) & 1) != 0;
      }
      if (overlap) continue;
      for (std::uint32_t q = pfirst[u]; q < pfirst[u + 1]; ++q) {
        taken[r * pw + points[q] / 64] |= std::uint64_t{1} << (points[q] % 64);
      }
      plan.home[u] = static_cast<std::int8_t>(r);
      plan.home_mask |= 1u << r;
      break;
    }
  }
}

// Sync points, the longest path to the next one, and the refund of every
// edge (see the header).
void PlanFuel(const std::vector<Node>& nodes, Plan& plan) {
  const std::size_t count = nodes.size();
  plan.rem.assign(count, 0);
  plan.charge.assign(count, 0);
  plan.refund.assign(count, {});
  if (count == 0) return;
  plan.charge[0] = 1;
  for (std::size_t i = 0; i < count; ++i) {
    for (const int j : nodes[i].succ) {
      const auto m = static_cast<std::size_t>(j);
      if (m <= i || nodes[i].call) plan.charge[m] = 1;
    }
  }
  for (std::size_t i = count; i-- > 0;) {
    if (!plan.reachable[i]) continue;
    int best = 0;
    if (!nodes[i].end) {
      for (const int j : nodes[i].succ) {
        const auto m = static_cast<std::size_t>(j);
        if (!plan.charge[m]) best = std::max(best, plan.rem[m]);
      }
    }
    plan.rem[i] = 1 + best;
  }
  for (std::size_t i = 0; i < count; ++i) {
    for (const int j : nodes[i].succ) {
      const auto m = static_cast<std::size_t>(j);
      const bool sync = nodes[i].end || plan.charge[m];
      plan.refund[i].push_back(plan.rem[i] - 1 - (sync ? 0 : plan.rem[m]));
    }
  }
}

}  // namespace

bool InlinableOp(Op op) {
  switch (op) {
    case Op::kNop: case Op::kPop: case Op::kConstInt: case Op::kConstNull:
    case Op::kLoadLocal: case Op::kStoreLocal: case Op::kLoadGlobal:
    case Op::kStoreGlobal: case Op::kDup:
    case Op::kAddI: case Op::kSubI: case Op::kMulI: case Op::kAndI:
    case Op::kOrI: case Op::kXorI: case Op::kShlI: case Op::kShrI:
    case Op::kNegI: case Op::kNotI:
    case Op::kDivI: case Op::kModI: case Op::kDivNZ: case Op::kModNZ:
    case Op::kAddU: case Op::kSubU: case Op::kMulU: case Op::kShlU:
    case Op::kShrU: case Op::kNotU: case Op::kNotB:
    case Op::kDivU: case Op::kModU:
    case Op::kCastU32: case Op::kCastByte:
    case Op::kEqI: case Op::kNeI: case Op::kLtI: case Op::kLeI:
    case Op::kGtI: case Op::kGeI: case Op::kLtU: case Op::kLeU:
    case Op::kGtU: case Op::kGeU: case Op::kEqRef: case Op::kNeRef:
    case Op::kJmp: case Op::kJmpIfFalse: case Op::kJmpIfTrue:
    case Op::kBrEqI: case Op::kBrNeI: case Op::kBrLtI: case Op::kBrLeI:
    case Op::kBrGtI: case Op::kBrGeI: case Op::kBrEqRef: case Op::kBrNeRef:
    case Op::kBrEqImmI: case Op::kBrNeImmI: case Op::kBrLtImmI:
    case Op::kBrLeImmI: case Op::kBrGtImmI: case Op::kBrGeImmI:
    case Op::kRet: case Op::kRetVoid:
    case Op::kLoadAddI: case Op::kAddConstI: case Op::kConstStore:
    case Op::kLoadLocal2: case Op::kLoadConstI: case Op::kMoveLocal:
    case Op::kStoreLoad: case Op::kLoadGlobalLocal:
      return true;
    default:
      return false;
  }
}

bool BuildFlow(const Program& program, const FunctionCode& f, const OpFilter& filter,
               bool splice, Flow& fl) {
  const std::size_t n = f.code.size();
  if (n == 0 || (splice && n > kInlineMaxInsns)) return false;
  fl.depth.assign(n, -1);
  fl.leader.assign(n, 0);
  fl.target.assign(n, 0);
  std::vector<std::size_t> work;
  fl.depth[0] = 0;
  work.push_back(0);
  const auto propagate = [&](std::size_t q, int dq) {
    if (q >= n) return false;
    if (fl.depth[q] == -1) {
      fl.depth[q] = dq;
      work.push_back(q);
      return true;
    }
    return fl.depth[q] == dq;
  };
  while (!work.empty()) {
    const std::size_t pc = work.back();
    work.pop_back();
    const Insn& insn = f.code[pc];
    if (splice && !InlinableOp(insn.op)) return false;
    if (splice && filter && !filter(insn.op)) return false;
    StackShape e;
    if (!ResolveShape(program, insn, e)) return false;
    if (splice && InfoOf(insn.op).control == Control::kTrap) return false;
    const int d = fl.depth[pc];
    if (d < e.pops) return false;
    const int d2 = d - e.pops + e.pushes;
    if (d2 > f.max_stack || d2 > kMaxStack) return false;
    if (HasTarget(insn.op) && !propagate(TargetOf(insn), d - e.pops)) return false;
    if (FallsThrough(insn.op) && !propagate(pc + 1, d2)) return false;
  }
  // Leaders: entry, branch targets, and the instruction after any ender.
  fl.leader[0] = 1;
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (fl.depth[pc] < 0) continue;
    const Insn& insn = f.code[pc];
    if (EndsBlock(insn.op) && pc + 1 < n) fl.leader[pc + 1] = 1;
    if (HasTarget(insn.op)) fl.leader[TargetOf(insn)] = fl.target[TargetOf(insn)] = 1;
  }
  return true;
}

bool CallGeometry(const PlanInputs& in, const FunctionCode& callee, int d, std::int64_t& kk,
                  std::int64_t& base_limit) {
  kk = static_cast<std::int64_t>(in.fn->num_locals) + d - callee.num_params;
  base_limit = static_cast<std::int64_t>(in.stack_slots) -
               (static_cast<std::int64_t>(callee.num_locals) + callee.max_stack) - kk;
  return base_limit >= 0 && base_limit <= INT32_MAX && in.frame_capacity <= INT32_MAX &&
         in.max_call_depth <= INT32_MAX;
}

bool BuildPlan(const PlanInputs& in, Plan& plan) {
  if (!BuildFlow(*in.program, *in.fn, in.filter, false, plan.flow)) return false;
  plan.num_locals = in.fn->num_locals;
  PlanSplices(in, plan);
  const std::vector<Node> nodes = BuildNodes(in, plan);
  PlanWebs(in, nodes, plan);
  PlanFuel(nodes, plan);
  return true;
}

bool Plan::Defines(int node, std::size_t slot) const {
  const auto& d = defs[static_cast<std::size_t>(node)];
  return std::find(d.begin(), d.end(), static_cast<std::int32_t>(slot)) != d.end();
}

int Plan::Refund(int from, int to) const {
  const auto f = static_cast<std::size_t>(from);
  for (std::size_t e = 0; e < succ[f].size(); ++e) {
    if (succ[f][e] == to) return refund[f][e];
  }
  return 0;
}

int Plan::Find(const std::vector<std::vector<SlotWeb>>& v, int node, std::size_t slot) {
  const auto& list = v[static_cast<std::size_t>(node)];
  const auto it = std::lower_bound(list.begin(), list.end(), static_cast<std::int32_t>(slot),
                                   [](const SlotWeb& sw, std::int32_t s) { return sw.slot < s; });
  return it != list.end() && it->slot == static_cast<std::int32_t>(slot) ? it->web : -1;
}

std::vector<SlotWeb> Plan::HomedIn(int node, bool locals_only) const {
  std::vector<SlotWeb> homed;
  for (const SlotWeb& sw : in[static_cast<std::size_t>(node)]) {
    if (locals_only && sw.slot >= num_locals) break;
    if (HomeOf(sw.web) >= 0) homed.push_back(sw);
  }
  return homed;
}

std::uint64_t Plan::HomedWebs() const {
  return static_cast<std::uint64_t>(
      std::count_if(home.begin(), home.end(), [](std::int8_t h) { return h >= 0; }));
}

std::uint64_t Plan::HomedLocalsMask() const {
  std::uint64_t seen = 0;
  std::uint64_t memory = 0;
  for (const auto* lists : {&in, &out}) {
    for (const auto& list : *lists) {
      for (const SlotWeb& sw : list) {
        if (sw.slot >= num_locals || sw.slot >= 64) break;
        seen |= std::uint64_t{1} << sw.slot;
        if (HomeOf(sw.web) < 0) memory |= std::uint64_t{1} << sw.slot;
      }
    }
  }
  return seen & ~memory;
}

}  // namespace minnow::jitplan
