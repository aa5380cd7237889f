// Telemetry rendering and counter-merge edge cases: every snapshot section
// in the registry's JSON and Prometheus text (hostile names included), the
// sorted opcode merge, and the one histogram against exact sorted samples.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/graftd/histogram.h"
#include "src/graftd/telemetry.h"
#include "src/obslab/registry.h"
#include "src/obslab/snapshot.h"

namespace {

using graftd::GraftCounters;
using graftd::Histogram;
using graftd::TelemetrySnapshot;

// Expects both registry views of `snapshot`, the JSON and the Prometheus
// text, to hold each sample of `specs`: whitespace-separated `series value`
// pairs in the Prometheus text form without the `graftlab_` prefix or
// quotes, `name{key=value,...} value`, with `count/sum` as the value of a
// histogram.
void ExpectSamples(const TelemetrySnapshot& snapshot, const std::string& specs) {
  const std::string json = obslab::SnapshotJson(snapshot);
  const std::string text = obslab::SnapshotText(snapshot);
  std::istringstream in(specs);
  std::string series, value;
  while (in >> series >> value) {
    const std::size_t open = series.find('{');
    std::string labels, text_labels;
    for (std::size_t at = open + 1; at + 1 < series.size();) {
      const std::size_t eq = series.find('=', at);
      const std::size_t end = std::min(series.find(',', eq), series.size() - 1);
      const std::string key = series.substr(at, eq - at);
      const std::string label = series.substr(eq + 1, end - eq - 1);
      labels += (labels.empty() ? "\"" : ",\"") + key + "\":\"" + label + "\"";
      text_labels += (text_labels.empty() ? "{" : ",") + key + "=\"" + label + "\"";
      at = end + 1;
    }
    text_labels += text_labels.empty() ? "" : "}";
    const std::string name = "graftlab_" + series.substr(0, open);
    const std::size_t slash = value.find('/');
    const std::string head = "{\"name\":\"" + name + "\",\"type\":\"";
    const std::string tail =
        "\"labels\":{" + labels + "}," +
        (slash == std::string::npos
             ? "\"value\":" + value + "}"
             : "\"count\":" + value.substr(0, slash) + ",\"sum\":" + value.substr(slash + 1));
    bool found = false;
    for (std::size_t line = json.find(head); line != std::string::npos && !found;
         line = json.find(head, line + 1)) {
      found = json.substr(line, json.find('\n', line) - line).find(tail) != std::string::npos;
    }
    EXPECT_TRUE(found) << "no " << series << " " << value << " in\n" << json;
    if (slash == std::string::npos) {
      EXPECT_EQ(obslab::SeriesSum(text, name + text_labels), std::stod(value)) << series << "\n"
                                                                              << text;
    } else {
      EXPECT_EQ(obslab::SeriesSum(text, name + "_count" + text_labels),
                std::stod(value.substr(0, slash)))
          << series << "\n" << text;
      EXPECT_EQ(obslab::SeriesSum(text, name + "_sum" + text_labels),
                std::stod(value.substr(slash + 1)))
          << series << "\n" << text;
    }
  }
}

TEST(MergeOpcodes, SumsMatchesAndAppendsNew) {
  GraftCounters counters;
  counters.MergeOpcodes({{"add", 10}, {"load", 5}});
  counters.MergeOpcodes({{"load", 3}, {"store", 7}});
  counters.MergeOpcodes({});  // no-op

  ASSERT_EQ(counters.vm_opcodes.size(), 3u);
  // The merge keeps the table sorted by name.
  EXPECT_EQ(counters.vm_opcodes[0], (std::pair<std::string, std::uint64_t>{"add", 10}));
  EXPECT_EQ(counters.vm_opcodes[1], (std::pair<std::string, std::uint64_t>{"load", 8}));
  EXPECT_EQ(counters.vm_opcodes[2], (std::pair<std::string, std::uint64_t>{"store", 7}));
}

TEST(MergeOpcodes, ToleratesUnsortedDestinationAndDuplicatesInInput) {
  GraftCounters counters;
  // Workers assign ExecutionProfile() output directly, in VM order — the
  // destination is not sorted when the snapshot merge first runs.
  counters.vm_opcodes = {{"zz", 1}, {"aa", 2}};
  counters.MergeOpcodes({{"mm", 4}, {"aa", 1}, {"mm", 6}});
  ASSERT_EQ(counters.vm_opcodes.size(), 3u);
  EXPECT_EQ(counters.vm_opcodes[0], (std::pair<std::string, std::uint64_t>{"aa", 3}));
  EXPECT_EQ(counters.vm_opcodes[1], (std::pair<std::string, std::uint64_t>{"mm", 10}));
  EXPECT_EQ(counters.vm_opcodes[2], (std::pair<std::string, std::uint64_t>{"zz", 1}));
}

TEST(MergeOpcodes, LargeMergeIsExact) {
  // The case the sorted merge exists for: two large shards, interleaved
  // names, everything summed exactly once.
  std::vector<std::pair<std::string, std::uint64_t>> a, b;
  for (int i = 0; i < 500; ++i) {
    a.emplace_back("op" + std::to_string(i), 1);
    b.emplace_back("op" + std::to_string(i + 250), 2);
  }
  GraftCounters counters;
  counters.MergeOpcodes(a);
  counters.MergeOpcodes(b);
  ASSERT_EQ(counters.vm_opcodes.size(), 750u);
  std::uint64_t total = 0;
  for (const auto& [name, count] : counters.vm_opcodes) {
    total += count;
  }
  EXPECT_EQ(total, 500u * 1 + 500u * 2);
}

TEST(TelemetryJson, EscapesHostileNamesEverywhere) {
  TelemetrySnapshot snapshot;
  TelemetrySnapshot::Row row;
  row.name = "evil\"graft\\name\nwith\x02" "ctrl";
  row.counters.invocations = 1;
  row.counters.ok = 1;
  row.counters.vm_opcodes = {{"op\"quote", 3}};
  snapshot.grafts.push_back(row);
  faultlab::Injector::SiteCounters site;
  site.site = "site\twith\ttabs\"and quotes";
  site.hits = 2;
  snapshot.injections.push_back(site);

  const std::string json = obslab::SnapshotJson(snapshot);
  EXPECT_NE(json.find("evil\\\"graft\\\\name\\nwith\\u0002ctrl"), std::string::npos);
  EXPECT_NE(json.find("op\\\"quote"), std::string::npos);
  EXPECT_NE(json.find("site\\twith\\ttabs\\\"and quotes"), std::string::npos);
  // No raw quote survives inside any name: every '"' in the output is
  // structural or escaped. Spot-check the raw forms are gone.
  EXPECT_EQ(json.find("evil\"graft"), std::string::npos);
  EXPECT_EQ(json.find("op\"quote"), std::string::npos);
  EXPECT_EQ(json.find("name\nwith"), std::string::npos);
  EXPECT_EQ(json.find('\x02'), std::string::npos);
  // The text exposition escapes the label value and keeps the control byte:
  // the sample stays on one line.
  EXPECT_EQ(obslab::SeriesSum(obslab::SnapshotText(snapshot),
                              "graftlab_graft_invocations_total{graft=\"evil\\\"graft\\\\name"
                              "\\nwith\x02" "ctrl\"}"),
            1.0);
}

TEST(TelemetryJson, LatencyCarriesPercentileKeys) {
  TelemetrySnapshot snapshot;
  TelemetrySnapshot::Row row;
  row.name = "g";
  for (std::uint64_t i = 1; i <= 100; ++i) {
    row.counters.latency.Record(i * 1000);
  }
  snapshot.grafts.push_back(row);
  const std::string json = obslab::SnapshotJson(snapshot);
  EXPECT_NE(json.find("\"graftlab_graft_latency_p50_us\""), std::string::npos);
  EXPECT_NE(json.find("\"graftlab_graft_latency_p90_us\""), std::string::npos);
  EXPECT_NE(json.find("\"graftlab_graft_latency_p99_us\""), std::string::npos);
  ExpectSamples(snapshot,
                "graft_latency_max_us{graft=g} 100  graft_latency_ns{graft=g} 100/5050000");
}

TEST(LatencyHistogram, ZeroNsLandsInFirstBucketAndCounts) {
  Histogram histogram;
  histogram.Record(0);
  EXPECT_EQ(histogram.count, 1u);
  EXPECT_EQ(histogram.max, 0u);
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(histogram.counts[0], 1u);
  EXPECT_EQ(histogram.PercentileUs(50), 0.0);  // bucket 0 upper bound is 0ns
}

TEST(LatencyHistogram, HugeValuesClampIntoLastBucket) {
  Histogram histogram;
  const std::uint64_t huge = ~std::uint64_t{0};
  histogram.Record(huge);
  histogram.Record(1ull << 60);
  EXPECT_EQ(Histogram::BucketFor(huge), Histogram::kBuckets - 1);
  EXPECT_EQ(histogram.counts[Histogram::kBuckets - 1], 2u);
  EXPECT_EQ(histogram.max, huge);
  // The percentile never exceeds the recorded max even in the clamp bucket.
  EXPECT_LE(histogram.PercentileUs(99), static_cast<double>(huge) / 1e3);
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentity) {
  Histogram histogram;
  histogram.Record(1000);
  histogram.Record(2000);
  const double p50_before = histogram.PercentileUs(50);
  Histogram empty;
  histogram.Merge(empty);
  EXPECT_EQ(histogram.count, 2u);
  EXPECT_EQ(histogram.PercentileUs(50), p50_before);

  // And merging into an empty histogram reproduces the source exactly.
  Histogram fresh;
  fresh.Merge(histogram);
  EXPECT_EQ(fresh.count, 2u);
  EXPECT_EQ(fresh.max, 2000u);
  EXPECT_EQ(fresh.PercentileUs(90), histogram.PercentileUs(90));
}

TEST(LatencyHistogram, PercentilesAreMonotonicAndBoundedByMax) {
  Histogram histogram;
  std::uint64_t seed = 12345;
  for (int i = 0; i < 1000; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    histogram.Record(seed % 10'000'000);
  }
  const double p50 = histogram.PercentileUs(50);
  const double p90 = histogram.PercentileUs(90);
  const double p99 = histogram.PercentileUs(99);
  const double p999 = histogram.PercentileUs(99.9);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, p999);
  // Upper-bound estimates clamped to the recorded maximum, so never above
  // the upper edge of the maximum's bucket.
  EXPECT_LE(p999, static_cast<double>(histogram.max) / 1e3);
  EXPECT_LE(p99, static_cast<double>(Histogram::BucketUpper(Histogram::BucketFor(histogram.max))) /
                     1e3);
}

// For each p, the exact value is the sample at the rank Percentile uses;
// the estimate must lie in [exact, min(max, 1.125 * exact)]. Recording the
// samples into two halves and merging must equal recording them into one.
void ExpectEstimatesBoundExact(std::vector<std::uint64_t> samples) {
  Histogram all, left, right;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    all.Record(samples[i]);
    (i % 2 == 0 ? left : right).Record(samples[i]);
  }
  left.Merge(right);
  EXPECT_EQ(left.counts, all.counts);
  EXPECT_EQ(left.count, all.count);
  EXPECT_EQ(left.total, all.total);
  EXPECT_EQ(left.max, all.max);

  std::sort(samples.begin(), samples.end());
  std::uint64_t previous = 0;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const std::size_t rank = std::min(
        static_cast<std::size_t>(p / 100.0 * static_cast<double>(samples.size())),
        samples.size() - 1);
    const std::uint64_t exact = samples[rank];
    const std::uint64_t estimate = all.Percentile(p);
    EXPECT_LE(exact, estimate) << "p" << p;
    EXPECT_LE(estimate, all.max) << "p" << p;
    EXPECT_LE(previous, estimate) << "p" << p;  // monotonic in p
    previous = estimate;
    EXPECT_LE(static_cast<double>(estimate), 1.125 * static_cast<double>(exact))
        << "p" << p << " exact " << exact;
  }
}

std::vector<std::uint64_t> Lognormal(std::mt19937_64& rng, double median_ns, std::size_t n) {
  std::lognormal_distribution<double> dist(std::log(median_ns), 0.35);
  std::vector<std::uint64_t> out(n);
  for (auto& v : out) {
    v = static_cast<std::uint64_t>(dist(rng));
  }
  return out;
}

TEST(Histogram, PercentilesBoundExactSortedSamples) {
  std::mt19937_64 rng(20260417);
  std::uniform_int_distribution<std::uint64_t> uniform(0, 10'000'000);
  std::vector<std::uint64_t> flat(50'000);
  for (auto& v : flat) {
    v = uniform(rng);
  }
  ExpectEstimatesBoundExact(flat);
  for (const double median_ns : {40e3, 200e3, 1500e3}) {
    ExpectEstimatesBoundExact(Lognormal(rng, median_ns, 50'000));
  }
  // Bimodal: 5% of the mass 40x slower.
  std::vector<std::uint64_t> bimodal = Lognormal(rng, 40e3, 47'500);
  const std::vector<std::uint64_t> slow = Lognormal(rng, 1600e3, 2'500);
  bimodal.insert(bimodal.end(), slow.begin(), slow.end());
  ExpectEstimatesBoundExact(bimodal);
  // 99 samples of 1000ns (the bucket [960, 1023]) and one ~1ms outlier.
  std::vector<std::uint64_t> outlier(99, 1000);
  outlier.push_back(1u << 20);
  ExpectEstimatesBoundExact(outlier);
  ExpectEstimatesBoundExact({0});
  ExpectEstimatesBoundExact({1});
  // Octave edges, then values past the 2^47 clamp within 5% of each
  // other, so the max-clamped estimate of the clamp bucket meets the bound.
  std::vector<std::uint64_t> edges = {0, 1, 15};
  for (unsigned k = 4; k < 47; ++k) {
    edges.insert(edges.end(), {(1ull << k) - 1, 1ull << k, (1ull << k) + 1});
  }
  const std::uint64_t clamp = 1ull << 47;
  edges.insert(edges.end(), {clamp, clamp + (clamp >> 6), clamp + (clamp >> 5)});
  ExpectEstimatesBoundExact(edges);
}

TEST(Histogram, BucketEdgesRoundTripAndAreMonotonic) {
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const std::uint64_t upper = Histogram::BucketUpper(i);
    EXPECT_EQ(Histogram::BucketFor(upper), i);
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_LT(upper, Histogram::BucketUpper(i + 1));
      EXPECT_EQ(Histogram::BucketFor(upper + 1), i + 1);  // no gaps
    }
    if (i >= 16 && i + 1 < Histogram::kBuckets) {  // 8 per octave: <= 12.5% wide
      EXPECT_LE(static_cast<double>(upper), 1.125 * (Histogram::BucketUpper(i - 1) + 1.0));
    }
  }
  EXPECT_EQ(Histogram::BucketFor(15), 15u);  // exact below 16
  EXPECT_EQ(Histogram::BucketFor((1ull << 47) - 1), Histogram::kBuckets - 2);
  EXPECT_EQ(Histogram::BucketFor(1ull << 47), Histogram::kBuckets - 1);
}

TEST(LatencyHistogram, PercentileNeverExceedsRecordedMax) {
  Histogram slow;
  for (int i = 0; i < 100; ++i) {
    slow.Record(1'100'000);  // 1.1ms, inside the bucket [1048576, 1179647]
  }
  EXPECT_EQ(slow.PercentileUs(50), 1100.0);
  EXPECT_EQ(slow.PercentileUs(99), 1100.0);
}

TEST(LatencyHistogram, P999OnEmptyAndSingleSampleHistograms) {
  Histogram empty;
  EXPECT_EQ(empty.PercentileUs(99.9), 0.0);  // no samples: every rank is 0

  Histogram one;
  one.Record(5000);
  // With a single sample every percentile is that sample.
  EXPECT_EQ(one.PercentileUs(50), 5.0);
  EXPECT_EQ(one.PercentileUs(99.9), 5.0);
}

TEST(LatencyHistogram, P999SeparatesFromP99OnHeavyTail) {
  // 1000 fast samples and 5 catastrophic stragglers: the stragglers are
  // 0.5% of the population, invisible at p99 but dominant at p999. This
  // is the exact shape the netfront loadgen gate exists to catch.
  Histogram histogram;
  for (int i = 0; i < 1000; ++i) {
    histogram.Record(1'000);  // 1us
  }
  for (int i = 0; i < 5; ++i) {
    histogram.Record(1'000'000'000);  // 1s
  }
  const double p99 = histogram.PercentileUs(99);
  const double p999 = histogram.PercentileUs(99.9);
  EXPECT_LT(p99, 100.0);          // the fast bucket's upper bound
  EXPECT_GE(p999, 1'000'000.0);   // the straggler bucket
}

TEST(LatencyHistogram, SummaryAndJsonCarryP999) {
  TelemetrySnapshot snapshot;
  TelemetrySnapshot::Row row;
  row.name = "g";
  for (std::uint64_t i = 1; i <= 100; ++i) {
    row.counters.latency.Record(i * 1000);
  }
  snapshot.grafts.push_back(row);
  ExpectSamples(snapshot, "graft_latency_p999_us{graft=g} 100");
}

TEST(TelemetryJson, ChaosCountersRenderInTextAndJson) {
  // The chaoslab additions: per-graft deadline sheds and breaker state,
  // dispatcher-wide shed_expired, per-tenant breaker/dedup counters, and
  // the netfront crash-adoption trio — all visible in both renderings.
  TelemetrySnapshot snapshot;
  TelemetrySnapshot::Row row;
  row.name = "g";
  row.counters.invocations = 5;
  row.counters.ok = 3;
  row.counters.shed_expired = 2;
  row.supervision.breaker = graftd::BreakerState::kOpen;
  row.supervision.breaker_opens = 1;
  snapshot.grafts.push_back(row);
  snapshot.dispatch.shed_expired = 2;
  snapshot.dispatch.workers.emplace_back();  // dispatch section renders

  snapshot.netfront.present = true;
  graftd::NetfrontSection::TenantRow tenant;
  tenant.name = "t";
  tenant.accepted = 9;
  tenant.breaker_open = 4;
  tenant.retries_deduped = 6;
  snapshot.netfront.tenants.push_back(tenant);
  snapshot.netfront.io_thread_crashes = 1;
  snapshot.netfront.conns_adopted = 3;
  snapshot.netfront.crash_orphans = 2;

  ExpectSamples(snapshot, R"(
      graft_outcomes_total{graft=g,outcome=expired} 2  dispatch_shed_expired_total{} 2
      breaker_state{graft=g,state=open} 1  breaker_opens_total{graft=g} 1
      tenant_breaker_open_total{tenant=t} 4  tenant_retries_deduped_total{tenant=t} 6
      net_io_thread_crashes_total{} 1  net_conns_adopted_total{} 3  net_crash_orphans_total{} 2)");
}

// --- one test per snapshot section in the registry JSON ---

TEST(Telemetry, TextAndJsonCarryTheCounters) {
  // Grafts: every counter, the supervision history, the latency histogram
  // with its percentile gauges, the opcode table.
  TelemetrySnapshot snapshot;
  TelemetrySnapshot::Row row;
  row.name = "md5/C";
  row.supervision.name = "md5/C";
  row.supervision.state = graftd::GraftState::kHealthy;
  row.supervision.quarantines = 2;
  row.supervision.readmissions = 1;
  row.counters.invocations = 41;
  row.counters.ok = 30;
  row.counters.faults = 1;
  row.counters.preempts = 2;
  row.counters.rejected_quarantined = 4;
  row.counters.rejected_detached = 5;
  row.counters.fuel_used = 900;
  row.counters.latency.Record(50000);
  row.counters.vm_opcodes = {{"add", 7}};
  snapshot.grafts.push_back(row);

  ExpectSamples(snapshot, R"(
      graft_invocations_total{graft=md5/C} 41  graft_outcomes_total{graft=md5/C,outcome=ok} 30
      graft_outcomes_total{graft=md5/C,outcome=fault} 1
      graft_outcomes_total{graft=md5/C,outcome=preempt} 2
      graft_outcomes_total{graft=md5/C,outcome=rejected_quarantined} 4
      graft_outcomes_total{graft=md5/C,outcome=rejected_detached} 5
      graft_fuel_used_total{graft=md5/C} 900  graft_state{graft=md5/C,state=healthy} 1
      breaker_state{graft=md5/C,state=closed} 1  graft_quarantines_total{graft=md5/C} 2
      graft_readmissions_total{graft=md5/C} 1  graft_latency_ns{graft=md5/C} 1/50000
      graft_latency_p50_us{graft=md5/C} 50  graft_latency_p90_us{graft=md5/C} 50
      graft_latency_p99_us{graft=md5/C} 50  graft_latency_p999_us{graft=md5/C} 50
      graft_latency_max_us{graft=md5/C} 50  vm_opcode_total{graft=md5/C,opcode=add} 7)");
  // Sections the snapshot does not carry render nothing.
  const std::string json = obslab::SnapshotJson(snapshot);
  for (const char* absent : {"graftlab_dispatch_", "graftlab_net_", "graftlab_fault_",
                             "graftlab_trace_"}) {
    EXPECT_EQ(json.find(absent), std::string::npos) << absent;
  }
}

TEST(Telemetry, DegradationAndInjectionCountersRender) {
  // Faultlab, plus the degradation half of supervision.
  TelemetrySnapshot snapshot;
  TelemetrySnapshot::Row row;
  row.name = "ldisk/C";
  row.supervision.name = "ldisk/C";
  row.supervision.state = graftd::GraftState::kDegraded;
  row.supervision.degradations = 2;
  row.supervision.recoveries = 1;
  row.counters.invocations = 9;
  row.counters.disk_faults = 4;
  row.counters.rejected_degraded = 3;
  snapshot.grafts.push_back(row);
  snapshot.injections.push_back({"disk.write", 120, 4});

  ExpectSamples(snapshot, R"(
      graft_outcomes_total{graft=ldisk/C,outcome=disk_fault} 4
      graft_outcomes_total{graft=ldisk/C,outcome=rejected_degraded} 3
      graft_state{graft=ldisk/C,state=degraded} 1  graft_degradations_total{graft=ldisk/C} 2
      graft_recoveries_total{graft=ldisk/C} 1  fault_site_hits_total{site=disk.write} 120
      fault_injections_total{site=disk.write} 4)");
}

TEST(TelemetryJson, DispatchSectionCarriesEveryWorker) {
  TelemetrySnapshot snapshot;
  snapshot.dispatch.inline_hits = 5;
  snapshot.dispatch.inline_misses = 2;
  TelemetrySnapshot::WorkerLaneRow row;
  row.worker = 1;
  row.batches = 3;
  row.dequeued = 10;
  row.batch_sizes.Record(1);
  row.batch_sizes.Record(9);
  row.parks = 20;
  row.notifies_sent = 30;
  row.notifies_skipped = 40;
  row.producer_waits = 50;
  snapshot.dispatch.workers.push_back(row);
  ExpectSamples(snapshot, R"(
      dispatch_inline_hits_total{} 5  dispatch_inline_misses_total{} 2  dispatch_workers{} 1
      dispatch_batches_total{worker=1} 3  dispatch_dequeued_total{worker=1} 10
      dispatch_parks_total{worker=1} 20  dispatch_notifies_sent_total{worker=1} 30
      dispatch_notifies_skipped_total{worker=1} 40  dispatch_producer_waits_total{worker=1} 50
      dispatch_batch_size{worker=1} 2/10)");
  // Batch sizes below 16 are exact buckets, so every percentile of the two
  // batches is <= 9; the text lists the same cumulative buckets.
  EXPECT_NE(obslab::SnapshotJson(snapshot).find(
                R"("buckets":[{"le":1,"count":1},{"le":9,"count":2}])"),
            std::string::npos);
  const std::string text = obslab::SnapshotText(snapshot);
  EXPECT_EQ(obslab::SeriesSum(text, R"(graftlab_dispatch_batch_size_bucket{worker="1",le="1"})"),
            1.0);
  EXPECT_EQ(obslab::SeriesSum(text, R"(graftlab_dispatch_batch_size_bucket{worker="1",le="9"})"),
            2.0);
}

TEST(TelemetryJson, NetfrontSectionCarriesTenantsAndIoThreads) {
  TelemetrySnapshot snapshot;
  graftd::NetfrontSection& n = snapshot.netfront;
  n.present = true;
  n.connections_opened = 11;
  n.connections_closed = 4;
  n.connections_active = 7;
  n.frame_errors = 1;
  n.bytes_in = 1000;
  n.bytes_out = 2000;
  n.read_pauses = 3;
  n.slow_reader_closes = 2;
  n.tenants.push_back({"t", 4, 90, 80, 5, 6, 7, 8, 0, 0});
  n.io_threads.push_back({1, 95, 12, {}, 13});
  n.io_threads[0].submit_sizes.Record(8);
  n.io_threads[0].submit_sizes.Record(100);
  ExpectSamples(snapshot, R"(
      tenant_weight{tenant=t} 4  tenant_accepted_total{tenant=t} 90
      tenant_completed_ok_total{tenant=t} 80  tenant_completed_error_total{tenant=t} 5
      tenant_shed_degraded_total{tenant=t} 6  tenant_shed_overload_total{tenant=t} 7
      tenant_quota_rejected_total{tenant=t} 8  net_connections_opened_total{} 11
      net_connections_closed_total{} 4  net_connections_active{} 7  net_frame_errors_total{} 1
      net_bytes_in_total{} 1000  net_bytes_out_total{} 2000  net_read_pauses_total{} 3
      net_slow_reader_closes_total{} 2  net_decoded_frames_total{io_thread=1} 95
      net_submit_batches_total{io_thread=1} 12  net_wakeups_total{io_thread=1} 13
      net_submit_batch_size{io_thread=1} 2/108)");
}

TEST(TelemetryJson, TracelabSectionCarriesStagesAndBreakEven) {
  TelemetrySnapshot snapshot;
  snapshot.traced = true;
  snapshot.trace_events = 640;
  snapshot.trace_dropped = 3;
  snapshot.stages.push_back({"e", {4, 2.0}, {4, 10.0}, {4, 1.0}, {4, 6.0}, {2, 3000.0}, 2048});
  snapshot.break_even.push_back({"e", "m", 0.5, 1500.0, 3000.0});
  ExpectSamples(snapshot, R"(
      trace_events_total{} 640  trace_events_dropped_total{} 3  trace_ops_total{graft=e} 2048
      trace_stage_spans_total{graft=e,stage=queue} 4  trace_stage_us_total{graft=e,stage=queue} 2
      trace_stage_us_total{graft=e,stage=dispatch} 10  trace_stage_us_total{graft=e,stage=body} 6
      trace_stage_us_total{graft=e,stage=crossing} 1  trace_stage_us_total{graft=e,stage=disk} 3000
      trace_stage_spans_total{graft=e,stage=disk} 2  break_even{graft=e,metric=m} 3000
      break_even_per_op_us{graft=e,metric=m} 0.5  break_even_reference_us{graft=e,metric=m} 1500)");
}

}  // namespace
