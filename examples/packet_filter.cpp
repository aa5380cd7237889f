// packet_filter: a downloadable packet filter written in Minnow — the
// related-work scenario (§2) where the paper notes interpreted packet
// filters historically used special-purpose languages ([MOGUL87],
// [MCCAN93]); a general extension language handles it too.
//
//   $ ./packet_filter
//
// The "kernel" demultiplexes a stream of synthetic UDP-ish packets. The
// filter program — compiled to verified bytecode and run on the Minnow VM —
// inspects each header and decides which endpoint queue gets the packet.
// The same program is also compiled to native code by the Minnow JIT to show
// the load-time-codegen speedup on a real filtering workload.

#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "src/minnow/compiler.h"
#include "src/minnow/vm.h"
#include "src/stats/harness.h"

namespace {

// 16-byte header: [0..3] src ip, [4..7] dst ip, [8..9] src port,
// [10..11] dst port, [12] proto, [13..15] length/flags.
struct Packet {
  std::uint8_t bytes[16];
};

constexpr char kFilterSource[] = R"minnow(
// Endpoint demultiplexer: returns a queue id for each packet, or -1 to drop.
//   queue 0: TCP to port 80 (the web server)
//   queue 1: UDP to ports 7000..7999 (the video stream)
//   queue 2: anything from the management subnet 10.0.0.0/24
// Everything else is dropped.
fn u16(hi: int, lo: int) -> int { return hi * 256 + lo; }

fn classify(b0: int, b1: int, b2: int, b3: int,
            b4: int, b5: int, b6: int, b7: int,
            b8: int, b9: int, b10: int, b11: int,
            b12: int) -> int {
  var dst_port: int = u16(b10, b11);
  if (b12 == 6 && dst_port == 80) { return 0; }
  if (b12 == 17 && dst_port >= 7000 && dst_port < 8000) { return 1; }
  if (b0 == 10 && b1 == 0 && b2 == 0) { return 2; }
  return 0 - 1;
}
)minnow";

std::vector<Packet> MakeTraffic(std::size_t count) {
  std::vector<Packet> packets(count);
  std::mt19937 rng(77);
  for (auto& packet : packets) {
    for (auto& byte : packet.bytes) {
      byte = static_cast<std::uint8_t>(rng());
    }
    switch (rng() % 5) {
      case 0:  // web
        packet.bytes[12] = 6;
        packet.bytes[10] = 0;
        packet.bytes[11] = 80;
        break;
      case 1:  // video
        packet.bytes[12] = 17;
        packet.bytes[10] = 0x1B;  // 0x1B58 = 7000
        packet.bytes[11] = 0x58 + static_cast<std::uint8_t>(rng() % 100);
        break;
      case 2:  // management
        packet.bytes[0] = 10;
        packet.bytes[1] = 0;
        packet.bytes[2] = 0;
        break;
      default:
        break;  // noise, mostly dropped
    }
  }
  return packets;
}

template <typename CallFn>
std::vector<std::uint64_t> Demux(const std::vector<Packet>& packets, CallFn&& call) {
  std::vector<std::uint64_t> queues(4, 0);  // 3 queues + drop counter
  minnow::Value args[13];
  for (const Packet& packet : packets) {
    for (int i = 0; i < 13; ++i) {
      args[i] = minnow::Value::Int(packet.bytes[i]);
    }
    const std::int64_t queue = call(args).AsInt();
    if (queue >= 0 && queue < 3) {
      ++queues[static_cast<std::size_t>(queue)];
    } else {
      ++queues[3];
    }
  }
  return queues;
}

}  // namespace

int main() {
  std::printf("compiling the packet filter to verified bytecode...\n");
  minnow::VM vm(minnow::Compile(kFilterSource));
  vm.RunInit();
  minnow::VmOptions jit_options;
  jit_options.dispatch = minnow::DispatchMode::kJit;
  minnow::VM jit(minnow::Compile(kFilterSource), jit_options);
  jit.RunInit();
  const int fn = vm.program().FindFunction("classify");

  const auto traffic = MakeTraffic(20000);
  std::printf("demultiplexing %zu packets...\n\n", traffic.size());

  stats::Timer interp_timer;
  const auto via_interp = Demux(traffic, [&](std::span<const minnow::Value> args) {
    return vm.CallIndex(fn, args);
  });
  const double interp_us = interp_timer.ElapsedUs();

  stats::Timer jit_timer;
  const auto via_jit = Demux(traffic, [&](std::span<const minnow::Value> args) {
    return jit.CallIndex(fn, args);
  });
  const double jit_us = jit_timer.ElapsedUs();

  std::printf("%-22s %10s %10s\n", "queue", "interp", "jit");
  const char* names[] = {"web (tcp/80)", "video (udp/7xxx)", "mgmt (10.0.0/24)", "dropped"};
  bool agree = true;
  for (int q = 0; q < 4; ++q) {
    std::printf("%-22s %10llu %10llu\n", names[q],
                static_cast<unsigned long long>(via_interp[static_cast<std::size_t>(q)]),
                static_cast<unsigned long long>(via_jit[static_cast<std::size_t>(q)]));
    agree = agree && via_interp[static_cast<std::size_t>(q)] == via_jit[static_cast<std::size_t>(q)];
  }
  std::printf("\nengines agree: %s\n", agree ? "yes" : "NO!");
  std::printf("interpreter : %.2fus/packet\n", interp_us / static_cast<double>(traffic.size()));
  std::printf("jit         : %.2fus/packet (%.1fx faster at load-time-compilation cost)\n",
              jit_us / static_cast<double>(traffic.size()), interp_us / jit_us);
  std::printf("\nA general, safe extension language subsumes the special-purpose packet\n");
  std::printf("filter languages of §2 — with verification and preemption for free.\n");
  return 0;
}
