#include "src/upcall/upcall_engine.h"

#include <linux/futex.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <new>
#include <stdexcept>

#include "src/envs/fault.h"

namespace upcall {

// The shared pages. The caller writes the first line and the server the
// second, so a call moves each line once each way.
struct Mailbox {
  alignas(64) std::atomic<std::uint32_t> request_seq{0};  // the server sleeps on it
  std::atomic<std::uint32_t> server_asleep{0};
  std::uint32_t op = 0;
  std::uint64_t args[3] = {0, 0, 0};
  std::uint64_t payload_len = 0;

  alignas(64) std::atomic<std::uint32_t> reply_seq{0};  // the caller sleeps on it
  std::atomic<std::uint32_t> caller_asleep{0};
  std::uint64_t reply = 0;

  alignas(64) std::uint8_t payload[UpcallEngine::kPayloadBytes];
};

namespace {

// Pauses a waiter polls before it sleeps: enough to cover a round trip to a
// running server, few enough that an idle side leaves its core soon.
constexpr int kSpins = 4000;

// How often a sleeping caller checks for a dead server or a tripped token.
constexpr timespec kFaultCheckPeriod{0, 1'000'000};

// FUTEX_WAIT/FUTEX_WAKE without FUTEX_PRIVATE_FLAG: the word lives in a
// MAP_SHARED page and the two sides are different processes.
void Futex(std::atomic<std::uint32_t>& word, int op, std::uint32_t value,
           const timespec* timeout) {
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), op, value, timeout, nullptr, 0);
}

// Waits until `word` leaves `old`: spins, then sleeps on the futex in
// slices of `timeout` (nullptr: unbounded), calling `check` after each slice
// that did not end the wait. Paired with Post: each side stores, then loads
// (all seq_cst), so either the sleeper sees the new value or the poster sees
// the flag and wakes it.
template <typename Check>
void Await(std::atomic<std::uint32_t>& word, std::uint32_t old,
           std::atomic<std::uint32_t>& asleep, const timespec* timeout, Check check) {
  for (int i = 0; i < kSpins; ++i) {
    if (word.load() != old) {
      return;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  while (word.load() == old) {
    asleep.store(1);
    if (word.load() == old) {
      Futex(word, FUTEX_WAIT, old, timeout);
    }
    asleep.store(0);
    if (word.load() == old) {
      check();
    }
  }
}

void Post(std::atomic<std::uint32_t>& word, std::uint32_t value,
          const std::atomic<std::uint32_t>& asleep) {
  word.store(value);
  if (asleep.load() != 0) {
    Futex(word, FUTEX_WAKE, 1, nullptr);
  }
}

// The server process: builds the server state, then answers requests until
// killed. A handler that throws ends the server; its caller sees the death.
[[noreturn]] void Serve(Mailbox& box, const UpcallEngine::ServerFactory& make_server) {
  try {
    const UpcallEngine::Handler handler = make_server();
    for (std::uint32_t seen = 0;; Post(box.reply_seq, seen, box.caller_asleep)) {
      Await(box.request_seq, seen, box.server_asleep, nullptr, [] {});
      seen = box.request_seq.load();
      box.reply = handler(Request{box.op, {box.args[0], box.args[1], box.args[2]}, box.payload,
                                  box.payload_len});
    }
  } catch (...) {
  }
  ::_exit(1);
}

}  // namespace

UpcallEngine::UpcallEngine(const ServerFactory& make_server, envs::PreemptToken* preempt)
    : preempt_(preempt) {
  void* pages = ::mmap(nullptr, sizeof(Mailbox), PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) {
    throw std::runtime_error("UpcallEngine: mmap failed");
  }
  mailbox_ = new (pages) Mailbox();
  const pid_t parent = ::getpid();
  child_ = ::fork();
  if (child_ < 0) {
    ::munmap(pages, sizeof(Mailbox));
    throw std::runtime_error("UpcallEngine: fork failed");
  }
  if (child_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) {
      ::_exit(1);  // the parent died before the death signal was armed
    }
    Serve(*mailbox_, make_server);
  }
}

UpcallEngine::~UpcallEngine() {
  Reap();
  ::munmap(mailbox_, sizeof(Mailbox));
}

void UpcallEngine::Reap() {
  if (child_ > 0) {
    ::kill(child_, SIGKILL);
    while (::waitpid(child_, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  child_ = -1;
}

std::uint8_t* UpcallEngine::payload() { return mailbox_->payload; }

std::uint64_t UpcallEngine::Upcall(std::uint32_t op, std::uint64_t a0, std::uint64_t a1,
                                   std::uint64_t a2, std::size_t payload_len) {
  if (child_ < 0) {
    throw envs::EnvFault("upcall server is gone");
  }
  if (payload_len > kPayloadBytes) {
    throw std::length_error("UpcallEngine: payload exceeds the mailbox");
  }
  Mailbox& box = *mailbox_;
  box.op = op;
  box.args[0] = a0;
  box.args[1] = a1;
  box.args[2] = a2;
  box.payload_len = payload_len;
  Post(box.request_seq, ++seq_, box.server_asleep);
  Await(box.reply_seq, seq_ - 1, box.caller_asleep, &kFaultCheckPeriod, [this] {
    // waitpid reaps a server that exited or was killed; -1 means it is no
    // longer our child. Either way it will never reply.
    if (::waitpid(child_, nullptr, WNOHANG) != 0) {
      child_ = -1;
      throw envs::EnvFault("upcall server died");
    }
    if (preempt_ != nullptr && preempt_->stop_requested()) {
      Reap();
      throw envs::PreemptFault();
    }
  });
  ++upcalls_;
  return box.reply;
}

stats::Measurement UpcallEngine::MeasureRoundTrip(std::size_t runs, std::size_t iters_per_run) {
  return stats::Measure({runs, iters_per_run, /*warmup_runs=*/1}, [this](std::size_t iters) {
    for (std::size_t i = 0; i < iters; ++i) {
      Upcall(0, i);
    }
  });
}

SyntheticUpcall::SyntheticUpcall() {
  // Calibrate: time a large spin and derive iterations per microsecond.
  volatile std::uint64_t sink = 0;
  constexpr std::uint64_t kProbe = 20'000'000;
  stats::Timer timer;
  for (std::uint64_t i = 0; i < kProbe; ++i) {
    sink = sink + i;
  }
  const double us = timer.ElapsedUs();
  iterations_per_us_ = us > 0 ? static_cast<double>(kProbe) / us : 1e3;
}

std::uint64_t SyntheticUpcall::SpinIterations(double cost_us) const {
  if (cost_us <= 0.0) {
    return 0;
  }
  return static_cast<std::uint64_t>(cost_us * iterations_per_us_);
}

void SyntheticUpcall::Invoke(double cost_us) const {
  const std::uint64_t iters = SpinIterations(cost_us);
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    sink = sink + i;
  }
}

}  // namespace upcall
