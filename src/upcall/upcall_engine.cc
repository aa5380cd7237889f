#include "src/upcall/upcall_engine.h"

namespace upcall {

UpcallEngine::UpcallEngine(Handler handler)
    : handler_(std::move(handler)), server_([this] { ServerLoop(); }) {}

UpcallEngine::~UpcallEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    state_ = State::kShutdown;
  }
  cv_.notify_all();
  server_.join();
}

void UpcallEngine::ServerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return state_ == State::kRequest || state_ == State::kShutdown; });
    if (state_ == State::kShutdown) {
      return;
    }
    const std::uint64_t arg = arg_;
    lock.unlock();
    const std::uint64_t reply = handler_ ? handler_(arg) : arg;
    lock.lock();
    if (state_ == State::kShutdown) {
      return;
    }
    reply_ = reply;
    state_ = State::kReply;
    cv_.notify_all();
  }
}

std::uint64_t UpcallEngine::Upcall(std::uint64_t arg) {
  std::unique_lock<std::mutex> lock(mu_);
  arg_ = arg;
  state_ = State::kRequest;
  cv_.notify_all();
  cv_.wait(lock, [this] { return state_ == State::kReply || state_ == State::kShutdown; });
  ++upcalls_;
  state_ = State::kIdle;
  return reply_;
}

UpcallEngine::RoundTrip UpcallEngine::MeasureRoundTrip(std::size_t runs,
                                                       std::size_t iters_per_run) {
  stats::RunningStats per_call_us;
  // Warmup.
  for (int i = 0; i < 100; ++i) {
    Upcall(0);
  }
  for (std::size_t run = 0; run < runs; ++run) {
    stats::Timer timer;
    for (std::size_t i = 0; i < iters_per_run; ++i) {
      Upcall(i);
    }
    per_call_us.Add(timer.ElapsedUs() / static_cast<double>(iters_per_run));
  }
  return RoundTrip{per_call_us.mean(), per_call_us.stddev_percent()};
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
