// safety_demo: what each technology does when the graft is hostile or
// buggy — the other half of the paper's comparison.
//
//   $ ./safety_demo
//
// Four incidents, staged deliberately:
//   1. an out-of-bounds Minnow graft (caught by the VM, kernel survives);
//   2. a wild SFI store (silently redirected into the sandbox);
//   3. a runaway graft (preempted: fuel in the VM, deadline wheel for compiled);
//   4. hostile bytecode (rejected by the load-time verifier, never runs).

#include <cstdio>
#include <random>
#include <vector>

#include "src/core/graft_host.h"
#include "src/envs/safe_env.h"
#include "src/envs/sfi_env.h"
#include "src/minnow/compiler.h"
#include "src/minnow/diag.h"
#include "src/minnow/verifier.h"
#include "src/minnow/vm.h"

int main() {
  std::printf("GraftLab safety demo: four hostile grafts, zero kernel casualties\n");
  std::printf("------------------------------------------------------------------\n\n");

  // 1. Out-of-bounds access in a downloaded extension.
  std::printf("[1] buggy Minnow graft indexes past its array...\n");
  {
    minnow::VM vm(minnow::Compile(
        "fn buggy(i: int) -> int { var a: int[] = new int[8]; return a[i]; }"));
    vm.RunInit();
    try {
      vm.Call("buggy", {minnow::Value::Int(5000)});
      std::printf("    UNEXPECTED: no trap\n");
    } catch (const minnow::Trap& trap) {
      std::printf("    trapped: \"%s\"\n", trap.what());
    }
    std::printf("    ...and the VM still serves good calls: buggy(3) = %lld\n\n",
                static_cast<long long>(vm.Call("buggy", {minnow::Value::Int(3)}).AsInt()));
  }

  // 2. A wild store under SFI.
  std::printf("[2] SFI graft fires a store at a random kernel address...\n");
  {
    envs::SfiEnv env(1 << 16);
    auto data = env.NewArray<std::uint64_t>(8);
    std::vector<std::uint64_t> kernel_memory(1024, 0xC0FFEE);
    std::mt19937_64 rng(1);
    for (int i = 0; i < 10000; ++i) {
      data.Set(rng(), 0xDEAD);  // indices far outside the array
    }
    bool intact = true;
    for (const auto word : kernel_memory) {
      intact = intact && word == 0xC0FFEE;
    }
    std::printf("    10,000 wild stores masked into the sandbox; kernel memory %s\n\n",
                intact ? "INTACT" : "corrupted!");
  }

  // 3. Runaway grafts.
  std::printf("[3] grafts that never return...\n");
  {
    minnow::VM vm(minnow::Compile("fn spin() { while (true) { } }"));
    vm.RunInit();
    vm.SetFuel(250000);
    try {
      vm.Call("spin", {});
    } catch (const minnow::Trap& trap) {
      std::printf("    VM graft:       %s\n", trap.what());
    }

    core::GraftHost host;
    envs::SafeLangEnv env(&host.preempt_token());
    const bool completed = host.RunWithBudget(std::chrono::milliseconds(5), [&] {
      for (;;) {
        env.Poll();  // compiled safe-language back edge
      }
    });
    std::printf("    compiled graft: %s (deadline wheel via back-edge polls)\n\n",
                completed ? "UNEXPECTEDLY finished" : "preempted");
  }

  // 4. Hostile bytecode that never gets to run.
  std::printf("[4] attacker ships hand-crafted bytecode with a wild jump...\n");
  {
    minnow::Program program = minnow::Compile("fn f() -> int { return 42; }");
    program.functions[0].code[0] = {minnow::Op::kJmp, 1 << 20};
    const auto report = minnow::VerifyProgram(program);
    std::printf("    verifier: %s (\"%s\")\n", report.ok ? "ACCEPTED?!" : "rejected",
                report.message.c_str());
  }

  std::printf("\n\"If an application consistently brings a system down, its additional\n");
  std::printf("functionality is hardly worthwhile.\" — §1. None of these did.\n");
  return 0;
}
