// User-level-server upcall machinery (the paper's hardware-protection
// technology, §4.1).
//
// UpcallEngine forks one server *process*, which builds and owns the
// extension's state, and upcalls into it: post a request, wait for the
// reply, resume. The server's state is invisible to the caller except
// through replies, the isolation the paper's user-level servers pay for.
// A call crosses one MAP_SHARED mailbox (op, three scalar args, a payload of
// up to kPayloadBytes, request/reply sequence words): the waiting side spins
// a bounded count, then sleeps on the shared futex word, and the posting
// side wakes it only if it said it is asleep. Callers marshal values, never
// pointers.
//
// A server that dies, or hangs until the caller's preempt token trips,
// becomes a contained envs::EnvFault (the wait polls waitpid(WNOHANG) and
// the token), and every later call faults at once. The server dies with
// the thread that forked it (PR_SET_PDEATHSIG); the destructor reaps it.
//
// SyntheticUpcall provides a *parameterized* upcall cost for the Figure 1
// sweep: break-even as a function of upcall time from 0 to 50us.

#ifndef GRAFTLAB_SRC_UPCALL_UPCALL_ENGINE_H_
#define GRAFTLAB_SRC_UPCALL_UPCALL_ENGINE_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "src/envs/preempt.h"
#include "src/stats/harness.h"

namespace upcall {

// One upcall as the server sees it. `payload` points into the mailbox: the
// handler may overwrite it to return bytes to the caller.
struct Request {
  std::uint32_t op = 0;
  std::uint64_t args[3] = {0, 0, 0};
  std::uint8_t* payload = nullptr;
  std::size_t payload_len = 0;
};

struct Mailbox;

// One forked server process and its mailbox. One caller at a time.
class UpcallEngine {
 public:
  static constexpr std::size_t kPayloadBytes = 64u << 10;

  // Runs in the server on every upcall; its return value is the reply.
  using Handler = std::function<std::uint64_t(const Request&)>;
  // Runs once in the forked server: builds the server-side state and
  // returns the handler that serves it.
  using ServerFactory = std::function<Handler()>;

  // Forks the server. `preempt` (optional) is polled while the caller
  // sleeps on a reply. Throws std::runtime_error if mmap or fork fails.
  explicit UpcallEngine(const ServerFactory& make_server,
                        envs::PreemptToken* preempt = nullptr);
  ~UpcallEngine();

  UpcallEngine(const UpcallEngine&) = delete;
  UpcallEngine& operator=(const UpcallEngine&) = delete;

  // The mailbox payload area (kPayloadBytes): fill its first `payload_len`
  // bytes before Upcall; afterwards it holds what the server left there.
  std::uint8_t* payload();

  // Synchronous upcall. Throws envs::EnvFault if the server is gone, and
  // envs::PreemptFault if the token trips while the server runs.
  std::uint64_t Upcall(std::uint32_t op, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
                       std::uint64_t a2 = 0, std::size_t payload_len = 0);

  // Round-trip cost of an upcall with no payload: one warmup run, then
  // `runs` timed runs of `iters_per_run` upcalls.
  stats::Measurement MeasureRoundTrip(std::size_t runs = 10, std::size_t iters_per_run = 2000);

  // Completed upcalls.
  std::uint64_t upcalls() const { return upcalls_; }
  // The server's pid; -1 once the server is gone (reaped).
  pid_t server_pid() const { return child_; }

 private:
  void Reap();

  Mailbox* mailbox_ = nullptr;
  pid_t child_ = -1;
  envs::PreemptToken* preempt_ = nullptr;
  std::uint32_t seq_ = 0;
  std::uint64_t upcalls_ = 0;
};

// A ServerFactory that builds `Server(args...)` in the forked server and
// answers each upcall with serve(server, request).
template <typename Server, typename Serve, typename... Args>
UpcallEngine::ServerFactory Serving(Serve serve, Args... args) {
  return [serve, args...] {
    auto server = std::make_shared<Server>(args...);
    return UpcallEngine::Handler([serve, server](const Request& request) -> std::uint64_t {
      return serve(*server, request);
    });
  };
}

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
