// obslab overhead gate: the observability plane must be nearly free.
//
// The plane is always-on by design (DESIGN.md §15): its hooks sit on the
// dispatcher's per-invocation completion path, so any cost it adds is
// paid by every graft invocation in the system. This bench drives
// identical MD5/C stream workloads through graftd three ways:
//
//   baseline  - no plane attached (the pre-obslab configuration);
//   disabled  - plane attached, SetEnabled(false): each completion pays
//               one std::function call + one relaxed load + branch.
//               Gate: <= 1% over baseline.
//   enabled   - full recording (flight ring, SLO windows) with the
//               sampling profiler armed at 97 Hz. Gate: <= 5%.
//
// The gates use a same-run estimator (the one ablate_minnow_exec's A1c
// uses): each round runs baseline, disabled and enabled back to back, in
// an order rotated round by round, and divides each mode's time by that
// round's baseline; the gates read the median of those per-round ratios.
// A slow stretch of the host then moves all three modes of a round
// together instead of landing on one mode's best rep. One unmeasured
// warm-up round runs first. The per-invocation work (256 KiB of MD5) is
// heavy enough that the fixed per-completion hook cost is well under the
// gate even with scheduling jitter.
//
// The second half scrapes the plane concurrently with a live dispatch
// load and checks the exposition invariant the registry promises:
// counter values are monotonically non-decreasing across scrapes, and
// the final scrape accounts for every submitted invocation.
//
// Exit status is the gate: nonzero on any overhead or monotonicity
// failure.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "graftbench/common.h"
#include "src/core/technology.h"
#include "src/graftd/dispatcher.h"
#include "src/grafts/factory.h"
#include "src/obslab/plane.h"
#include "src/obslab/registry.h"
#include "src/stats/harness.h"

namespace {

using core::Technology;
using graftbench::Median;

constexpr std::size_t kChunk = 64u << 10;
constexpr std::size_t kPayload = 256u << 10;

enum class ObsMode { kBaseline, kDisabled, kEnabled };

graftd::GraftId RegisterMd5(graftd::Dispatcher& dispatcher) {
  return dispatcher.RegisterStreamGraft("md5/C", [](envs::PreemptToken* token) {
    return grafts::CreateMd5Graft(Technology::kC, token);
  });
}

void SubmitMd5(graftd::Dispatcher& dispatcher, graftd::GraftId id,
               const std::vector<std::uint8_t>& data) {
  graftd::Invocation invocation;
  invocation.graft = id;
  invocation.data = streamk::Bytes(data.data(), data.size());
  invocation.chunk = kChunk;
  dispatcher.Submit(std::move(invocation));
}

// One rep: drive `invocations` MD5/C invocations through a 1-worker
// dispatcher and return the drain wall time in microseconds. The plane
// (when present) is attached before the warmup submit, per the attach
// contract.
double RunRep(ObsMode mode, const std::vector<std::uint8_t>& data, std::size_t invocations,
              std::uint64_t* profiler_samples) {
  graftd::DispatcherOptions options;
  options.workers = 1;
  options.queue_capacity = invocations + 1;
  graftd::Dispatcher dispatcher(options);
  const graftd::GraftId id = RegisterMd5(dispatcher);
  std::unique_ptr<obslab::Plane> plane;
  if (mode != ObsMode::kBaseline) {
    plane = std::make_unique<obslab::Plane>();
    plane->Attach(dispatcher);
    plane->SetEnabled(mode == ObsMode::kEnabled);
    if (mode == ObsMode::kEnabled && !plane->profiler().Start()) {
      std::fprintf(stderr, "obs_overhead: profiler failed to start\n");
      std::exit(1);
    }
  }
  // Warm the worker-private instance so the timed region measures steady
  // state, not first-use construction.
  SubmitMd5(dispatcher, id, data);
  dispatcher.Drain();
  stats::Timer timer;
  for (std::size_t i = 0; i < invocations; ++i) {
    SubmitMd5(dispatcher, id, data);
  }
  dispatcher.Drain();
  const double us = timer.ElapsedUs();
  if (plane != nullptr && mode == ObsMode::kEnabled) {
    plane->profiler().Stop();
    if (profiler_samples != nullptr) {
      *profiler_samples += plane->profiler().samples();
    }
  }
  return us;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::Options::Parse(argc, argv);
  bench::PrintHeader("obslab: observability plane overhead gate + scrape-under-load",
                     "an always-on plane must not perturb the paper's microsecond-scale costs");

  std::vector<std::uint8_t> data(kPayload);
  std::mt19937_64 rng(1996);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng());
  }

  const std::size_t invocations = options.full ? 128 : 48;
  const std::size_t rounds = options.full ? 31 : 21;

  // --- Overhead gate ---
  bench::PrintSection("Overhead: 1-worker MD5/C dispatch, median of per-round ratios");
  constexpr ObsMode kModes[] = {ObsMode::kBaseline, ObsMode::kDisabled, ObsMode::kEnabled};
  constexpr std::size_t kNumModes = std::size(kModes);
  std::vector<double> pass_us[kNumModes];
  std::vector<double> ratio[kNumModes];
  std::uint64_t profiler_samples = 0;
  for (std::size_t round = 0; round <= rounds; ++round) {
    double us[kNumModes];
    for (std::size_t j = 0; j < kNumModes; ++j) {
      const std::size_t i = (round + j) % kNumModes;
      us[i] = RunRep(kModes[i], data, invocations, &profiler_samples);
    }
    if (round == 0) {
      continue;  // warm-up
    }
    for (std::size_t i = 0; i < kNumModes; ++i) {
      pass_us[i].push_back(us[i]);
      ratio[i].push_back(us[i] / us[0]);
    }
  }
  const double base = Median(pass_us[0]);
  const double disabled_pct = (Median(ratio[1]) - 1.0) * 100.0;
  const double enabled_pct = (Median(ratio[2]) - 1.0) * 100.0;
  const bool disabled_ok = disabled_pct <= 1.0;
  const bool enabled_ok = enabled_pct <= 5.0;
  std::printf("  %zu rounds; median pass time and median per-round overhead over baseline\n",
              rounds);
  std::printf("  baseline (no plane)        %9.1f us\n", base);
  std::printf("  attached, disabled         %9.1f us  %+6.2f%%  (gate <= 1%%) %s\n",
              Median(pass_us[1]), disabled_pct, disabled_ok ? "PASS" : "FAIL");
  std::printf("  enabled + profiler @ 97Hz  %9.1f us  %+6.2f%%  (gate <= 5%%) %s\n",
              Median(pass_us[2]), enabled_pct, enabled_ok ? "PASS" : "FAIL");
  std::printf("  profiler samples across enabled rounds: %llu\n\n",
              static_cast<unsigned long long>(profiler_samples));

  bench::JsonReport report("obs");
  const char* const slugs[kNumModes] = {"obs_overhead/baseline", "obs_overhead/disabled",
                                        "obs_overhead/enabled"};
  for (std::size_t i = 0; i < kNumModes; ++i) {
    report.AddUs(slugs[i], invocations, Median(pass_us[i]) / static_cast<double>(invocations), 0);
  }

  // --- Scrape under load: counters must be monotonic ---
  bench::PrintSection("Scrape under load: concurrent scrapes see monotonic counters");
  const std::size_t load = options.full ? 192 : 64;
  double final_invocations = 0.0;
  bool monotonic = true;
  std::size_t scrape_count = 0;
  {
    graftd::DispatcherOptions dopts;
    dopts.workers = 2;
    dopts.queue_capacity = load + 1;
    graftd::Dispatcher dispatcher(dopts);
    const graftd::GraftId id = RegisterMd5(dispatcher);
    obslab::Plane plane;
    plane.Attach(dispatcher);
    std::atomic<bool> stop{false};
    std::vector<double> seen;
    std::thread scraper([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string text = plane.Exposition(obslab::kFormatPrometheus);
        seen.push_back(obslab::SeriesSum(text, "graftlab_graft_invocations_total").value_or(0.0));
      }
    });
    for (std::size_t i = 0; i < load; ++i) {
      SubmitMd5(dispatcher, id, data);
    }
    dispatcher.Drain();
    stop.store(true, std::memory_order_relaxed);
    scraper.join();
    seen.push_back(obslab::SeriesSum(plane.Exposition(obslab::kFormatPrometheus),
                                     "graftlab_graft_invocations_total")
                       .value_or(0.0));
    monotonic = std::is_sorted(seen.begin(), seen.end());
    final_invocations = seen.back();
    scrape_count = seen.size();
    // The JSON exposition must cover the same series.
    const std::string json = plane.Exposition(obslab::kFormatJson);
    if (json.find("graftlab_graft_invocations_total") == std::string::npos) {
      monotonic = false;
    }
  }
  const bool count_ok = final_invocations >= static_cast<double>(load);
  std::printf("  scrapes while dispatching: %zu   monotonic: %s\n", scrape_count,
              monotonic ? "PASS" : "FAIL");
  std::printf("  final invocations_total: %.0f (>= %zu submitted) %s\n\n", final_invocations,
              load, count_ok ? "PASS" : "FAIL");
  report.Add("obs_scrape/monotonic", scrape_count, 0.0, monotonic ? 1 : 0);
  report.Write();

  const bool pass = disabled_ok && enabled_ok && monotonic && count_ok;
  std::printf("obs_overhead gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
