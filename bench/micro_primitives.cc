// Ablation A6 — micro-costs of each safety primitive (google-benchmark).
//
// The table benches measure whole grafts; this binary isolates the unit
// costs the technologies are built from: the SFI mask, the bounds check,
// the NIL check, one VM dispatch (interpreted and JIT-compiled), one Tcl
// command, one upcall round trip, and the Word32-on-64 truncation tax from
// the paper's Alpha MD5 story.

#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "src/envs/safe_env.h"
#include "src/envs/sfi_env.h"
#include "src/envs/unsafe_env.h"
#include "src/envs/word.h"
#include "src/md5/md5.h"
#include "src/minnow/compiler.h"
#include "src/minnow/vm.h"
#include "src/sfi/sandbox.h"
#include "src/tclet/interp.h"
#include "src/upcall/upcall_engine.h"

namespace {

// --- memory-access primitives: sum a 4K-element array under each policy ---

template <typename Env>
void SumArray(benchmark::State& state) {
  Env env;
  auto array = env.template NewArray<std::int64_t>(4096);
  for (std::size_t i = 0; i < 4096; ++i) {
    array.Set(i, static_cast<std::int64_t>(i));
  }
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < 4096; ++i) {
      sum += array.Get(i);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}

void BM_ArraySum_Unsafe(benchmark::State& state) { SumArray<envs::UnsafeEnv>(state); }
void BM_ArraySum_SafeLang(benchmark::State& state) { SumArray<envs::SafeLangEnv>(state); }
void BM_ArraySum_SfiWriteJump(benchmark::State& state) { SumArray<envs::SfiEnv>(state); }
void BM_ArraySum_SfiFull(benchmark::State& state) { SumArray<envs::SfiFullEnv>(state); }
BENCHMARK(BM_ArraySum_Unsafe);
BENCHMARK(BM_ArraySum_SafeLang);
BENCHMARK(BM_ArraySum_SfiWriteJump);
BENCHMARK(BM_ArraySum_SfiFull);

template <typename Env>
void StoreArray(benchmark::State& state) {
  Env env;
  auto array = env.template NewArray<std::int64_t>(4096);
  std::int64_t v = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < 4096; ++i) {
      array.Set(i, v++);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}

void BM_ArrayStore_Unsafe(benchmark::State& state) { StoreArray<envs::UnsafeEnv>(state); }
void BM_ArrayStore_SafeLang(benchmark::State& state) { StoreArray<envs::SafeLangEnv>(state); }
void BM_ArrayStore_Sfi(benchmark::State& state) { StoreArray<envs::SfiEnv>(state); }
BENCHMARK(BM_ArrayStore_Unsafe);
BENCHMARK(BM_ArrayStore_SafeLang);
BENCHMARK(BM_ArrayStore_Sfi);

void BM_MaskAddressAlone(benchmark::State& state) {
  sfi::Sandbox sandbox(1 << 16);
  std::uintptr_t addr = 0x123456789A;
  for (auto _ : state) {
    addr = sandbox.MaskAddress(addr + 8);
    benchmark::DoNotOptimize(addr);
  }
}
BENCHMARK(BM_MaskAddressAlone);

// --- linked-list walk (the eviction graft's shape) ---

template <typename Env>
void WalkList(benchmark::State& state) {
  struct Node;
  using Ref = typename Env::template Ref<Node>;
  struct Node {
    std::int64_t value = 0;
    Ref next;
  };
  Env env;
  Ref head;
  for (std::int64_t i = 0; i < 64; ++i) {
    auto node = env.template New<Node>();
    node.Set(&Node::value, i);
    node.Set(&Node::next, head);
    head = node;
  }
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (Ref cur = head; !cur.IsNull(); cur = cur.Get(&Node::next)) {
      sum += cur.Get(&Node::value);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}

void BM_ListWalk64_Unsafe(benchmark::State& state) { WalkList<envs::UnsafeEnv>(state); }
void BM_ListWalk64_SafeLangExplicitNil(benchmark::State& state) {
  WalkList<envs::SafeLangEnv>(state);
}
void BM_ListWalk64_SafeLangTrapNil(benchmark::State& state) {
  WalkList<envs::SafeLangTrapEnv>(state);
}
void BM_ListWalk64_Sfi(benchmark::State& state) { WalkList<envs::SfiEnv>(state); }
BENCHMARK(BM_ListWalk64_Unsafe);
BENCHMARK(BM_ListWalk64_SafeLangExplicitNil);
BENCHMARK(BM_ListWalk64_SafeLangTrapNil);
BENCHMARK(BM_ListWalk64_Sfi);

// --- interpreter dispatch ---

const char* kLoopSource = R"(
  fn work(n: int) -> int {
    var total: int = 0;
    for (var i: int = 0; i < n; i = i + 1) {
      total = total + (i ^ 3);
    }
    return total;
  })";

void BM_MinnowInterpLoop(benchmark::State& state) {
  minnow::VM vm(minnow::Compile(kLoopSource));
  vm.RunInit();
  const minnow::Value arg = minnow::Value::Int(1000);
  for (auto _ : state) {
    auto v = vm.Call("work", std::span<const minnow::Value>(&arg, 1));
    benchmark::DoNotOptimize(v.bits);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MinnowInterpLoop);

void BM_MinnowJitLoop(benchmark::State& state) {
  minnow::VmOptions options;
  options.dispatch = minnow::DispatchMode::kJit;
  minnow::VM vm(minnow::Compile(kLoopSource), options);
  vm.RunInit();
  const minnow::Value arg = minnow::Value::Int(1000);
  for (auto _ : state) {
    auto v = vm.Call("work", std::span<const minnow::Value>(&arg, 1));
    benchmark::DoNotOptimize(v.bits);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MinnowJitLoop);

void BM_NativeLoopReference(benchmark::State& state) {
  volatile std::int64_t n = 1000;
  for (auto _ : state) {
    std::int64_t total = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      total += (i ^ 3);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_NativeLoopReference);

// --- Tcl command and expr costs ---

void BM_TcletSetCommand(benchmark::State& state) {
  tclet::Interp interp;
  for (auto _ : state) {
    interp.Eval("set x 42");
  }
}
BENCHMARK(BM_TcletSetCommand);

void BM_TcletExpr(benchmark::State& state) {
  tclet::Interp interp;
  interp.Eval("set i 7");
  for (auto _ : state) {
    interp.Eval("expr {$i * $i + 3}");
  }
}
BENCHMARK(BM_TcletExpr);

void BM_TcletLoop1000(benchmark::State& state) {
  tclet::Interp interp;
  for (auto _ : state) {
    interp.Eval("set t 0\nfor {set i 0} {$i < 1000} {incr i} {set t [expr {$t + $i}]}");
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TcletLoop1000);

// --- upcall round trip ---

void BM_UpcallRoundTrip(benchmark::State& state) {
  upcall::UpcallEngine engine(
      [] { return [](const upcall::Request& request) { return request.args[0]; }; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Upcall(0, 1));
  }
}
BENCHMARK(BM_UpcallRoundTrip);

// --- Word arithmetic: native 32-bit vs 64-bit emulation (Alpha story) ---

template <typename W>
void Md5LikeArithmetic(benchmark::State& state) {
  typename W::T a = 0x67452301;
  typename W::T b = 0xefcdab89;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      a = W::Plus(W::Rotate(W::Xor(a, b), static_cast<unsigned>(i % 31) + 1),
                  static_cast<typename W::T>(0x5A827999u));
      b = W::Plus(b, a);
    }
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}

void BM_Word32Native(benchmark::State& state) { Md5LikeArithmetic<envs::Word32>(state); }
void BM_Word32On64Emulated(benchmark::State& state) {
  Md5LikeArithmetic<envs::Word32On64>(state);
}
BENCHMARK(BM_Word32Native);
BENCHMARK(BM_Word32On64Emulated);

// --- native MD5 throughput anchor ---

void BM_Md5Native64K(benchmark::State& state) {
  std::vector<std::uint8_t> data(64 << 10);
  std::mt19937 rng(5);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng());
  }
  for (auto _ : state) {
    auto digest = md5::Sum(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Md5Native64K);

}  // namespace

BENCHMARK_MAIN();
