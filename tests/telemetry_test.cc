// Telemetry rendering and counter-merge edge cases: hostile names in JSON,
// the sorted opcode merge, and LatencyHistogram boundary behavior.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/graftd/histogram.h"
#include "src/graftd/telemetry.h"

namespace {

using graftd::GraftCounters;
using graftd::LatencyHistogram;
using graftd::TelemetrySnapshot;

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

  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("evil\\\"graft\\\\name\\nwith\\u0002ctrl"), std::string::npos);
  EXPECT_NE(json.find("op\\\"quote"), std::string::npos);
  EXPECT_NE(json.find("site\\twith\\ttabs\\\"and quotes"), std::string::npos);
  // No raw quote survives inside any name: every '"' in the output is
  // structural or escaped. Spot-check the raw forms are gone.
  EXPECT_EQ(json.find("evil\"graft"), std::string::npos);
  EXPECT_EQ(json.find("op\"quote"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.find('\x02'), std::string::npos);
}

TEST(TelemetryJson, LatencyCarriesPercentileKeys) {
  TelemetrySnapshot snapshot;
  TelemetrySnapshot::Row row;
  row.name = "g";
  for (std::uint64_t i = 1; i <= 100; ++i) {
    row.counters.latency.Record(i * 1000);
  }
  snapshot.grafts.push_back(row);
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"p50_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"max_us\":"), std::string::npos);
}

TEST(LatencyHistogram, ZeroNsLandsInFirstBucketAndCounts) {
  LatencyHistogram histogram;
  histogram.Record(0);
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_EQ(histogram.max_ns(), 0u);
  EXPECT_EQ(LatencyHistogram::BucketFor(0), 0u);
  EXPECT_EQ(histogram.bucket_count(0), 1u);
  EXPECT_EQ(histogram.PercentileUs(50), 0.0);  // bucket 0 upper bound is 0ns
}

TEST(LatencyHistogram, HugeValuesClampIntoLastBucket) {
  LatencyHistogram histogram;
  const std::uint64_t huge = ~std::uint64_t{0};
  histogram.Record(huge);
  histogram.Record(1ull << 60);
  EXPECT_EQ(LatencyHistogram::BucketFor(huge), LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(histogram.bucket_count(LatencyHistogram::kBuckets - 1), 2u);
  EXPECT_EQ(histogram.max_ns(), huge);
  // The percentile never exceeds the recorded max even in the clamp bucket.
  EXPECT_LE(histogram.PercentileUs(99), static_cast<double>(huge) / 1e3);
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentity) {
  LatencyHistogram histogram;
  histogram.Record(1000);
  histogram.Record(2000);
  const double p50_before = histogram.PercentileUs(50);
  LatencyHistogram empty;
  histogram.Merge(empty);
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_EQ(histogram.PercentileUs(50), p50_before);

  // And merging into an empty histogram reproduces the source exactly.
  LatencyHistogram fresh;
  fresh.Merge(histogram);
  EXPECT_EQ(fresh.count(), 2u);
  EXPECT_EQ(fresh.max_ns(), 2000u);
  EXPECT_EQ(fresh.PercentileUs(90), histogram.PercentileUs(90));
}

TEST(LatencyHistogram, PercentilesAreMonotonicAndBoundedByMax) {
  LatencyHistogram histogram;
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
  // Upper-bound estimates: within 2x of the true value by bucket design,
  // and never more than one bucket above the recorded maximum.
  EXPECT_LE(p99, static_cast<double>(LatencyHistogram::BucketUpperNs(
                     LatencyHistogram::BucketFor(histogram.max_ns()))) /
                     1e3);
}

TEST(LatencyHistogram, P999OnEmptyAndSingleSampleHistograms) {
  LatencyHistogram empty;
  EXPECT_EQ(empty.PercentileUs(99.9), 0.0);  // no samples: every rank is 0

  LatencyHistogram one;
  one.Record(5000);
  // With a single sample every percentile lands in its bucket.
  EXPECT_EQ(one.PercentileUs(50), one.PercentileUs(99.9));
  EXPECT_GE(one.PercentileUs(99.9), 5.0);  // >= the recorded 5us
}

TEST(LatencyHistogram, P999SeparatesFromP99OnHeavyTail) {
  // 1000 fast samples and 5 catastrophic stragglers: the stragglers are
  // 0.5% of the population, invisible at p99 but dominant at p999. This
  // is the exact shape the netfront loadgen gate exists to catch.
  LatencyHistogram histogram;
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
  LatencyHistogram histogram;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    histogram.Record(i * 1000);
  }
  EXPECT_NE(histogram.Summary().find("p999<="), std::string::npos);

  TelemetrySnapshot snapshot;
  TelemetrySnapshot::Row row;
  row.name = "g";
  row.counters.latency = histogram;
  snapshot.grafts.push_back(row);
  EXPECT_NE(snapshot.ToJson().find("\"p999_us\":"), std::string::npos);
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

  const std::string text = snapshot.ToText();
  EXPECT_NE(text.find("expired"), std::string::npos);
  EXPECT_NE(text.find("deadline shed: 2 expired before the body ran"), std::string::npos);
  EXPECT_NE(text.find("brk-open"), std::string::npos);
  EXPECT_NE(text.find("deduped"), std::string::npos);
  EXPECT_NE(text.find("netfront chaos: 1 io-thread crashes, 3 conns adopted, 2 staged orphans"),
            std::string::npos);

  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"shed_expired\":2"), std::string::npos);
  EXPECT_NE(json.find("\"breaker\":\"open\""), std::string::npos);
  EXPECT_NE(json.find("\"breaker_opens\":1"), std::string::npos);
  EXPECT_NE(json.find("\"breaker_open\":4"), std::string::npos);
  EXPECT_NE(json.find("\"retries_deduped\":6"), std::string::npos);
  EXPECT_NE(json.find("\"io_thread_crashes\":1"), std::string::npos);
  EXPECT_NE(json.find("\"conns_adopted\":3"), std::string::npos);
  EXPECT_NE(json.find("\"crash_orphans\":2"), std::string::npos);
}

}  // namespace
