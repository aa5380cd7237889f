#include "src/core/graft_host.h"

#include <algorithm>
#include <exception>
#include <optional>

#include "src/core/deadline_wheel.h"
#include "src/envs/fault.h"
#include "src/faultlab/fault.h"
#include "src/minnow/diag.h"

namespace core {

GraftHost::GraftHost(const GraftHostOptions& options)
    : options_(options), page_cache_(options.page_frames) {}

template <typename Body>
void GraftHost::Contain(std::chrono::microseconds budget, const tracelab::StageTrace* trace,
                        bool contain, RunResult& result, Body&& body) {
  const tracelab::StageTrace stage = trace != nullptr ? *trace : tracelab::StageTrace{};
  tracelab::Span crossing(stage.tracer, stage.crossing, stage.trace_id);
  preempt_token_.Reset();
  // Reset on every exit path; destroyed after the deadline below, so the
  // order on unwind is disarm-then-reset and a late trip cannot leak.
  envs::TokenResetGuard reset_guard(preempt_token_);
  std::optional<ArmGuard> deadline;
  if (budget.count() > 0) {
    deadline.emplace(DeadlineWheel::Shared(), preempt_token_, budget);
  }
  crossing.End();
  // Called from inside a handler, so `throw;` rethrows the fault in flight.
  const auto settle = [&](FaultClass fault_class, const std::exception& error) {
    if (!contain && fault_class != FaultClass::kPreempt) {
      throw;
    }
    const bool device = fault_class == FaultClass::kDiskFull || fault_class == FaultClass::kDisk;
    (device ? disk_faults_ : contained_faults_).fetch_add(1, std::memory_order_relaxed);
    result.fault_class = fault_class;
    result.fault_message = error.what();
  };
  // Most-derived handlers first: every class below derives from
  // runtime_error, which is the extension-fault catch-all.
  try {
    tracelab::Span body_span(stage.tracer, stage.body, stage.trace_id);
    body();
  } catch (const envs::PreemptFault& error) {
    settle(FaultClass::kPreempt, error);
  } catch (const minnow::FuelExhausted& error) {
    settle(FaultClass::kPreempt, error);
  } catch (const ldisk::DiskFull& error) {
    settle(FaultClass::kDiskFull, error);
  } catch (const ldisk::DiskHardError& error) {
    settle(FaultClass::kDisk, error);
  } catch (const faultlab::FaultError& error) {
    settle(FaultClass::kDisk, error);
  } catch (const std::runtime_error& error) {
    settle(FaultClass::kExtension, error);
  }
}

bool GraftHost::RunStream(streamk::Bytes data, std::size_t chunk, streamk::Chain& chain,
                          streamk::Sink& sink) {
  RunResult result;
  Contain(std::chrono::microseconds{0}, nullptr, true, result,
          [&] { streamk::Pump(data, chunk, chain, sink); });
  return result.ok();
}

GraftHost::StreamRunResult GraftHost::RunStreamGraft(StreamGraft& graft, streamk::Bytes data,
                                                     std::size_t chunk,
                                                     std::chrono::microseconds budget,
                                                     const tracelab::StageTrace* trace) {
  StreamRunResult result;
  Contain(budget, trace, true, result, [&] {
    const std::size_t step = chunk == 0 ? data.size() : chunk;
    for (std::size_t off = 0; off < data.size(); off += step) {
      graft.Consume(data.data() + off, std::min(step, data.size() - off));
    }
    result.digest = graft.Finish();
  });
  return result;
}

GraftHost::BlackBoxResult GraftHost::RunLogicalDisk(BlackBoxGraft& graft,
                                                    std::uint64_t num_writes, bool validate,
                                                    std::chrono::microseconds budget,
                                                    const tracelab::StageTrace* trace) {
  BlackBoxResult result;
  Contain(budget, trace, true, result, [&] {
    result.replay =
        ldisk::ReplayWorkload(graft, options_.disk_geometry, num_writes, /*seed=*/80204, validate);
  });
  return result;
}

GraftHost::EvictionRunResult GraftHost::RunEvictionGraft(PrioritizationGraft& graft,
                                                         vmsim::Frame* lru_head,
                                                         std::uint64_t lookups,
                                                         std::chrono::microseconds budget,
                                                         const tracelab::StageTrace* trace) {
  EvictionRunResult result;
  Contain(budget, trace, true, result, [&] {
    for (std::uint64_t i = 0; i < lookups; ++i) {
      vmsim::Frame* victim = graft.ChooseVictim(lru_head);
      result.last_victim_page = victim != nullptr ? victim->page : 0;
      ++result.lookups;
    }
  });
  return result;
}

bool GraftHost::RunWithBudget(std::chrono::microseconds budget,
                              const std::function<void()>& body) {
  RunResult result;
  Contain(budget, nullptr, false, result, body);
  return result.ok();
}

}  // namespace core
