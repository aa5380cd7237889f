// User-level-server upcall machinery (the paper's hardware-protection
// technology, §4.1).
//
// UpcallEngine models the microkernel structure: extension code lives in a
// "server" (here a separate thread standing in for a separate protection
// domain), and the kernel invokes it by upcalling — transferring control,
// waiting for the answer, and resuming. The measured round-trip cost plays
// the role of the paper's upcall estimate (their signal-time proxy, and
// their hand-built BSD/OS upcall at ~60% of signal time).
//
// SyntheticUpcall provides a *parameterized* upcall cost for the Figure 1
// sweep: break-even as a function of upcall time from 0 to 50us.

#ifndef GRAFTLAB_SRC_UPCALL_UPCALL_ENGINE_H_
#define GRAFTLAB_SRC_UPCALL_UPCALL_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "src/stats/harness.h"
#include "src/stats/running_stats.h"

namespace upcall {

// A server thread handling synchronous upcalls. Handler runs on the server
// thread; Upcall() blocks the caller until the reply arrives.
class UpcallEngine {
 public:
  using Handler = std::function<std::uint64_t(std::uint64_t)>;

  explicit UpcallEngine(Handler handler);
  ~UpcallEngine();

  UpcallEngine(const UpcallEngine&) = delete;
  UpcallEngine& operator=(const UpcallEngine&) = delete;

  // Synchronous upcall: delivers `arg` to the server, returns its reply.
  std::uint64_t Upcall(std::uint64_t arg);

  // Round-trip cost of a no-op-payload upcall, per the stats harness.
  struct RoundTrip {
    double mean_us = 0.0;
    double stddev_pct = 0.0;
  };
  RoundTrip MeasureRoundTrip(std::size_t runs = 10, std::size_t iters_per_run = 2000);

  std::uint64_t upcalls() const { return upcalls_; }

 private:
  void ServerLoop();

  Handler handler_;
  std::mutex mu_;
  std::condition_variable cv_;
  enum class State { kIdle, kRequest, kReply, kShutdown } state_ = State::kIdle;
  std::uint64_t arg_ = 0;
  std::uint64_t reply_ = 0;
  std::uint64_t upcalls_ = 0;
  std::thread server_;
};

// Models an upcall of a chosen cost by spinning a calibrated delay: used to
// sweep Figure 1's x axis without depending on host scheduler behavior.
class SyntheticUpcall {
 public:
  // Calibrates the spin loop on construction.
  SyntheticUpcall();

  // Burns approximately `cost_us` microseconds (0 = free upcall).
  void Invoke(double cost_us) const;

  // The spin-loop trip count Invoke runs for `cost_us`: 0 for a free (or
  // negative-cost) upcall, otherwise linear in the cost at the calibrated
  // rate.
  std::uint64_t SpinIterations(double cost_us) const;

 private:
  double iterations_per_us_;
};

}  // namespace upcall

#endif  // GRAFTLAB_SRC_UPCALL_UPCALL_ENGINE_H_
