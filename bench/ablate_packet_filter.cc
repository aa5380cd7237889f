// Ablation A8 — specialized vs general-purpose interpretation (paper §2).
//
// "The performance of interpreted packet filters is close to that of
// compiled code, but ... the expressiveness is limited to the specific
// domain."
//
// The same demux predicate (tcp/80, udp/7xxx, mgmt subnet) runs four ways:
// native C++, the domain-specific BPF machine, Minnow's general-purpose
// interpreter, and the same bytecode compiled by Minnow's JIT. The BPF row
// should land within a small factor of native while the general VM pays an
// order of magnitude — the paper's argument for why 1990s kernels shipped
// packet filter languages rather than general extension languages, and the
// trade-off SPIN/Java inverted by paying for generality.

#include <cstdio>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "src/minnow/compiler.h"
#include "src/minnow/vm.h"
#include "src/pfilter/bpf.h"
#include "src/stats/harness.h"

namespace {

struct Packet {
  std::uint8_t bytes[16];
};

std::vector<Packet> MakeTraffic(std::size_t count) {
  std::vector<Packet> packets(count);
  std::mt19937 rng(77);
  for (auto& packet : packets) {
    for (auto& byte : packet.bytes) {
      byte = static_cast<std::uint8_t>(rng());
    }
    switch (rng() % 5) {
      case 0:
        packet.bytes[12] = 6;
        packet.bytes[10] = 0;
        packet.bytes[11] = 80;
        break;
      case 1:
        packet.bytes[12] = 17;
        packet.bytes[10] = 0x1B;
        packet.bytes[11] = 0x58;
        break;
      case 2:
        packet.bytes[0] = 10;
        packet.bytes[1] = 0;
        packet.bytes[2] = 0;
        break;
      default:
        break;
    }
  }
  return packets;
}

int NativeClassify(const Packet& p) {
  const int dst_port = p.bytes[10] * 256 + p.bytes[11];
  if (p.bytes[12] == 6 && dst_port == 80) {
    return 1;
  }
  if (p.bytes[12] == 17 && dst_port >= 7000 && dst_port < 8000) {
    return 2;
  }
  if (p.bytes[0] == 10 && p.bytes[1] == 0 && p.bytes[2] == 0) {
    return 3;
  }
  return 0;
}

pfilter::BpfFilter MakeBpfClassifier() {
  using pfilter::BpfOp;
  return pfilter::BpfFilter({
      {BpfOp::kLdAbsByte, 12, 0, 0},   // 0: A = proto
      {BpfOp::kJeq, 6, 0, 2},          // 1: tcp -> 2, else -> 4
      {BpfOp::kLdAbsHalf, 10, 0, 0},   // 2: A = dst port
      {BpfOp::kJeq, 80, 13, 5},        // 3: web -> 17, else mgmt -> 9
      {BpfOp::kJeq, 17, 0, 4},         // 4: udp -> 5, else mgmt -> 9
      {BpfOp::kLdAbsHalf, 10, 0, 0},   // 5: A = dst port
      {BpfOp::kJge, 7000, 0, 2},       // 6: >=7000 -> 7, else mgmt -> 9
      {BpfOp::kJgt, 7999, 1, 0},       // 7: >7999 -> mgmt 9, else video 8
      {BpfOp::kRetConst, 2, 0, 0},     // 8: video
      {BpfOp::kLdAbsByte, 0, 0, 0},    // 9: mgmt subnet check
      {BpfOp::kJeq, 10, 0, 4},         // 10: ==10 -> 11, else drop -> 15
      {BpfOp::kLdAbsByte, 1, 0, 0},    // 11
      {BpfOp::kJeq, 0, 0, 2},          // 12: ==0 -> 13, else drop -> 15
      {BpfOp::kLdAbsByte, 2, 0, 0},    // 13
      {BpfOp::kJeq, 0, 1, 0},          // 14: ==0 -> mgmt 16, else drop 15
      {BpfOp::kRetConst, 0, 0, 0},     // 15: drop
      {BpfOp::kRetConst, 3, 0, 0},     // 16: mgmt
      {BpfOp::kRetConst, 1, 0, 0},     // 17: web
  });
}

constexpr char kMinnowFilter[] = R"minnow(
fn classify(b0: int, b1: int, b2: int, b10: int, b11: int, b12: int) -> int {
  var dst_port: int = b10 * 256 + b11;
  if (b12 == 6 && dst_port == 80) { return 1; }
  if (b12 == 17 && dst_port >= 7000 && dst_port < 8000) { return 2; }
  if (b0 == 10 && b1 == 0 && b2 == 0) { return 3; }
  return 0;
}
)minnow";

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::Options::Parse(argc, argv);
  bench::PrintHeader("Ablation A8: specialized vs general interpretation",
                     "paper §2 (packet filters)");

  const auto traffic = MakeTraffic(options.full ? 100000 : 20000);

  // Every row must agree with the native oracle on every packet before any
  // timing is believable.
  const auto bpf = MakeBpfClassifier();
  minnow::VM vm(minnow::Compile(kMinnowFilter));
  vm.RunInit();
  minnow::VmOptions jit_options;
  jit_options.dispatch = minnow::DispatchMode::kJit;
  minnow::VM jit(minnow::Compile(kMinnowFilter), jit_options);
  jit.RunInit();
  const int fn = vm.program().FindFunction("classify");

  auto minnow_args = [](const Packet& p, minnow::Value out[6]) {
    out[0] = minnow::Value::Int(p.bytes[0]);
    out[1] = minnow::Value::Int(p.bytes[1]);
    out[2] = minnow::Value::Int(p.bytes[2]);
    out[3] = minnow::Value::Int(p.bytes[10]);
    out[4] = minnow::Value::Int(p.bytes[11]);
    out[5] = minnow::Value::Int(p.bytes[12]);
  };

  std::size_t disagreements = 0;
  for (const Packet& p : traffic) {
    const int native = NativeClassify(p);
    minnow::Value args[6];
    minnow_args(p, args);
    if (static_cast<int>(bpf.Run(p.bytes)) != native ||
        static_cast<int>(vm.CallIndex(fn, args).AsInt()) != native ||
        static_cast<int>(jit.CallIndex(fn, args).AsInt()) != native) {
      ++disagreements;
    }
  }
  std::printf("conformance: %zu disagreements across %zu packets\n\n", disagreements,
              traffic.size());

  auto per_packet_us = [&](auto&& classify) {
    stats::SpinWarmup();
    stats::Timer timer;
    std::uint64_t sink = 0;
    for (const Packet& p : traffic) {
      sink += static_cast<std::uint64_t>(classify(p));
    }
    stats::DoNotOptimize(sink);
    return timer.ElapsedUs() / static_cast<double>(traffic.size());
  };

  const double native_us = per_packet_us([&](const Packet& p) { return NativeClassify(p); });
  const double bpf_us =
      per_packet_us([&](const Packet& p) { return static_cast<int>(bpf.Run(p.bytes)); });
  const double interp_us = per_packet_us([&](const Packet& p) {
    minnow::Value args[6];
    minnow_args(p, args);
    return static_cast<int>(vm.CallIndex(fn, args).AsInt());
  });
  const double jit_us = per_packet_us([&](const Packet& p) {
    minnow::Value args[6];
    minnow_args(p, args);
    return static_cast<int>(jit.CallIndex(fn, args).AsInt());
  });

  std::printf("%-34s %12s %10s\n", "implementation", "per packet", "vs native");
  std::printf("%-34s %9.4fus %9.1fx\n", "native C++", native_us, 1.0);
  std::printf("%-34s %9.4fus %9.1fx\n", "BPF machine (domain-specific)", bpf_us,
              bpf_us / native_us);
  std::printf("%-34s %9.4fus %9.1fx\n", "Minnow interpreter (general)", interp_us,
              interp_us / native_us);
  std::printf("%-34s %9.4fus %9.1fx\n", "Minnow JIT (general)", jit_us, jit_us / native_us);

  std::printf("\nThe specialized machine sits near compiled code (no call frames, no typed\n");
  std::printf("heap, verifier-guaranteed termination instead of fuel); the general VM pays\n");
  std::printf("for its generality — §2's exact trade-off, quantified.\n");
  return 0;
}
