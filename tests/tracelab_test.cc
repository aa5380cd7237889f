// tracelab: ring semantics, fake-clock determinism, exporters, and the
// traced dispatch path (stage rows, transition instants, break-even panel).

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/envs/fault.h"
#include "src/faultlab/injector.h"
#include "src/graftd/clock.h"
#include "src/graftd/dispatcher.h"
#include "src/grafts/factory.h"
#include "src/obslab/registry.h"
#include "src/obslab/snapshot.h"
#include "src/tracelab/export.h"
#include "src/tracelab/json_util.h"
#include "src/tracelab/trace.h"

namespace {

using namespace std::chrono_literals;

tracelab::SiteId SiteIdFor(const tracelab::TraceDump& dump, const std::string& name) {
  for (std::size_t i = 0; i < dump.sites.size(); ++i) {
    if (dump.sites[i] == name) {
      return static_cast<tracelab::SiteId>(i);
    }
  }
  ADD_FAILURE() << "site not interned: " << name;
  return 0;
}

TEST(EventRing, WrapsAroundAndCountsDropsInsteadOfBlocking) {
  tracelab::EventRing ring(4);
  ASSERT_EQ(ring.capacity(), 4u);
  tracelab::TraceEvent event;
  for (std::uint64_t i = 0; i < 10; ++i) {
    event.ts_ns = i;
    ring.TryPush(event);
  }
  EXPECT_EQ(ring.dropped(), 6u);

  std::vector<tracelab::TraceEvent> drained;
  EXPECT_EQ(ring.Drain(drained), 4u);
  ASSERT_EQ(drained.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(drained[i].ts_ns, i);  // oldest four survive, later pushes drop
  }

  // Drained capacity is reusable: the ring wraps through the same slots.
  for (std::uint64_t i = 10; i < 13; ++i) {
    event.ts_ns = i;
    EXPECT_TRUE(ring.TryPush(event));
  }
  drained.clear();
  EXPECT_EQ(ring.Drain(drained), 3u);
  EXPECT_EQ(drained.front().ts_ns, 10u);
  EXPECT_EQ(ring.dropped(), 6u);  // unchanged: no new drops
}

TEST(Tracer, InternIsIdempotentAndDense) {
  tracelab::Tracer tracer;
  const tracelab::SiteId a = tracer.Intern("alpha");
  const tracelab::SiteId b = tracer.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(tracer.Intern("alpha"), a);
  EXPECT_EQ(tracer.SiteName(a), "alpha");
  EXPECT_EQ(tracer.SiteName(b), "beta");
}

TEST(Tracer, FakeClockMakesSpanDurationsExact) {
  graftd::FakeClock clock;
  tracelab::Tracer::Options options;
  options.clock = &clock;
  tracelab::Tracer tracer(options);
  const tracelab::SiteId outer = tracer.Intern("outer");
  const tracelab::SiteId inner = tracer.Intern("inner");

  tracer.SpanBegin(outer, 1);
  clock.Advance(10us);
  tracer.SpanBegin(inner, 1);
  clock.Advance(25us);
  tracer.SpanEnd(inner, 1);
  clock.Advance(5us);
  tracer.SpanEnd(outer, 1);

  const tracelab::StageSummary summary = tracelab::Aggregate(tracer.Dump());
  EXPECT_EQ(summary.Span(inner).count, 1u);
  EXPECT_EQ(summary.Span(inner).total_ns, 25000u);
  EXPECT_EQ(summary.Span(outer).count, 1u);
  EXPECT_EQ(summary.Span(outer).total_ns, 40000u);  // 10 + 25 + 5 us, nested
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  tracelab::Tracer::Options options;
  options.enabled = false;
  tracelab::Tracer tracer(options);
  const tracelab::SiteId site = tracer.Intern("site");
  tracer.SpanBegin(site, 1);
  tracer.SpanEnd(site, 1);
  tracer.Instant(site, 1);
  tracer.Counter(site, 42);
  { tracelab::Span span(&tracer, site, 1); }
  EXPECT_EQ(tracer.Dump().event_count(), 0u);

  tracer.SetEnabled(true);
  tracer.Instant(site, 1);
  EXPECT_EQ(tracer.Dump().event_count(), 1u);
}

TEST(Tracer, NullTracerSpanIsANoOp) {
  tracelab::Span span(nullptr, 0, 0);
  span.End();  // must not crash
}

TEST(Tracer, DumpIsCumulativeAndResetDiscards) {
  tracelab::Tracer tracer;
  const tracelab::SiteId site = tracer.Intern("site");
  tracer.Instant(site, 1);
  EXPECT_EQ(tracer.Dump().event_count(), 1u);
  tracer.Instant(site, 2);
  EXPECT_EQ(tracer.Dump().event_count(), 2u);  // includes the first dump's event
  tracer.Reset();
  EXPECT_EQ(tracer.Dump().event_count(), 0u);
}

TEST(Tracer, TinyRingDropsAreReportedInDump) {
  tracelab::Tracer::Options options;
  options.ring_capacity = 4;
  tracelab::Tracer tracer(options);
  const tracelab::SiteId site = tracer.Intern("site");
  for (int i = 0; i < 100; ++i) {
    tracer.Instant(site, 0);
  }
  const tracelab::TraceDump dump = tracer.Dump();
  EXPECT_EQ(dump.event_count(), 4u);
  EXPECT_EQ(dump.dropped(), 96u);
  EXPECT_EQ(tracer.dropped(), 96u);
}

TEST(Tracer, CrossThreadDumpDuringActiveRecordingLosesNothing) {
  // The producer records five rings' worth of events while the main thread
  // dumps. It never gets more than one ring ahead of the last dump, so the
  // ring cannot overflow however the two threads are scheduled: every
  // event must come through exactly once.
  constexpr std::size_t kRing = 1u << 12;
  constexpr std::size_t kEvents = 5 * kRing;
  tracelab::Tracer::Options options;
  options.ring_capacity = kRing;
  tracelab::Tracer tracer(options);
  const tracelab::SiteId site = tracer.Intern("producer");
  std::atomic<std::size_t> drained{0};
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (std::size_t i = 0; i < kEvents; ++i) {
      while (i - drained.load(std::memory_order_acquire) >= kRing) {
        std::this_thread::yield();  // ring full: wait for the next dump
      }
      tracer.Instant(site, static_cast<std::uint64_t>(i + 1));
    }
    done.store(true, std::memory_order_release);
  });
  // Cumulative dumps while the producer records; each one publishes how
  // many events have left the ring.
  std::size_t seen = 0;
  while (!done.load(std::memory_order_acquire)) {
    seen = tracer.Dump().event_count();
    drained.store(seen, std::memory_order_release);
    std::this_thread::sleep_for(100us);
  }
  producer.join();
  const tracelab::TraceDump final_dump = tracer.Dump();
  EXPECT_EQ(final_dump.dropped(), 0u);
  EXPECT_EQ(final_dump.event_count(), kEvents);
  EXPECT_LE(seen, final_dump.event_count());
}

TEST(ScopedTraceId, NestsAndRestores) {
  EXPECT_EQ(tracelab::CurrentTraceId(), 0u);
  {
    tracelab::ScopedTraceId outer(7);
    EXPECT_EQ(tracelab::CurrentTraceId(), 7u);
    {
      tracelab::ScopedTraceId inner(9);
      EXPECT_EQ(tracelab::CurrentTraceId(), 9u);
    }
    EXPECT_EQ(tracelab::CurrentTraceId(), 7u);
  }
  EXPECT_EQ(tracelab::CurrentTraceId(), 0u);
}

TEST(Aggregate, ToleratesUnmatchedEndsAndRecordsCompletes) {
  graftd::FakeClock clock;
  tracelab::Tracer::Options options;
  options.clock = &clock;
  tracelab::Tracer tracer(options);
  const tracelab::SiteId a = tracer.Intern("a");
  const tracelab::SiteId b = tracer.Intern("b");

  tracer.SpanEnd(a, 1);  // unmatched: its begin was never recorded
  tracer.Complete(b, 100, 5000, 2);
  tracer.Complete(b, 200, 7000, 3);
  tracer.Counter(a, 11, 2);
  tracer.Counter(a, 31, 3);
  tracer.Instant(b, 2);

  const tracelab::StageSummary summary = tracelab::Aggregate(tracer.Dump());
  EXPECT_EQ(summary.Span(a).count, 0u);
  EXPECT_EQ(summary.Span(b).count, 2u);
  EXPECT_EQ(summary.Span(b).total_ns, 12000u);
  EXPECT_EQ(summary.Span(b).max_ns, 7000u);
  EXPECT_EQ(summary.Counter(a).samples, 2u);
  EXPECT_EQ(summary.Counter(a).sum, 42u);
  EXPECT_EQ(summary.Instants(b), 1u);
}

TEST(ChromeExport, EmitsValidEventShapesAndEscapesHostileNames) {
  graftd::FakeClock clock;
  tracelab::Tracer::Options options;
  options.clock = &clock;
  tracelab::Tracer tracer(options);
  const tracelab::SiteId hostile = tracer.Intern("evil\"name\\with\nnewline\x01" "end");
  const tracelab::SiteId plain = tracer.Intern("plain");

  tracer.SpanBegin(hostile, 4);
  clock.Advance(3us);
  tracer.SpanEnd(hostile, 4);
  tracer.Complete(plain, 1000, 2000, 4);
  tracer.Instant(plain, 4);
  tracer.Counter(plain, 9);

  const std::string json = tracelab::ChromeTraceJson(tracer.Dump());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":4"), std::string::npos);
  // The hostile site name goes through the shared escaper: raw quote,
  // backslash, newline, and the 0x01 control byte never appear unescaped.
  EXPECT_NE(json.find("evil\\\"name\\\\with\\nnewline\\u0001end"), std::string::npos);
  EXPECT_EQ(json.find("evil\"name"), std::string::npos);
}

TEST(JsonUtil, EscapesControlQuoteAndBackslash) {
  EXPECT_EQ(tracelab::JsonString("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(tracelab::JsonString("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(tracelab::JsonString("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
  EXPECT_EQ(tracelab::JsonString(std::string("a\x01z", 3)), "\"a\\u0001z\"");
  EXPECT_EQ(tracelab::JsonString("plain"), "\"plain\"");
}

TEST(Injector, TriggeredInjectionEmitsInstantOnActiveTrace) {
  faultlab::FaultPlan plan;
  faultlab::FaultSpec spec;
  spec.site = "ldisk/write";
  spec.kind = faultlab::FaultKind::kTransientError;
  spec.every_nth = 1;
  spec.budget = 2;
  plan.specs.push_back(std::move(spec));
  faultlab::Injector injector(std::move(plan));
  tracelab::Tracer tracer;
  injector.set_tracer(&tracer);

  {
    tracelab::ScopedTraceId scope(77);
    EXPECT_TRUE(injector.Hit("ldisk/write").has_value());
  }
  EXPECT_TRUE(injector.Hit("ldisk/write").has_value());  // unscoped: id 0

  const tracelab::TraceDump dump = tracer.Dump();
  const tracelab::SiteId site = SiteIdFor(dump, "fault/ldisk/write");
  ASSERT_EQ(dump.event_count(), 2u);
  std::vector<tracelab::TraceEvent> events;
  for (const auto& thread : dump.threads) {
    events.insert(events.end(), thread.events.begin(), thread.events.end());
  }
  EXPECT_EQ(events[0].site, site);
  EXPECT_EQ(events[0].kind, tracelab::EventKind::kInstant);
  EXPECT_EQ(events[0].trace_id, 77u);
  EXPECT_EQ(events[1].trace_id, 0u);
}

// --- Traced dispatch path ---

class FaultingStreamGraft : public core::StreamGraft {
 public:
  void Consume(const std::uint8_t*, std::size_t) override { throw envs::NilFault(); }
  md5::Digest Finish() override { throw envs::NilFault(); }
  const char* technology() const override { return "faulty"; }
};

TEST(TracedDispatch, MixedRunProducesStageRowsInstantsAndBreakEven) {
  graftd::DispatcherOptions options;
  options.workers = 2;
  options.policy.fault_threshold = 2;
  options.policy.base_backoff = 10s;  // stays quarantined for the test
  graftd::Dispatcher dispatcher(options);
  tracelab::Tracer tracer;
  dispatcher.set_tracer(&tracer);

  const graftd::GraftId md5 =
      dispatcher.RegisterStreamGraft("md5/C", [](envs::PreemptToken* token) {
        return grafts::CreateMd5Graft(core::Technology::kC, token);
      });
  const graftd::GraftId evict =
      dispatcher.RegisterEvictionGraft("evict/C", [](envs::PreemptToken* token) {
        return grafts::CreateEvictionGraft(core::Technology::kC, token);
      });
  const graftd::GraftId ldisk = dispatcher.RegisterBlackBoxGraft(
      "ldisk/C", [](const ldisk::Geometry& geometry, envs::PreemptToken* token) {
        return grafts::CreateLogicalDiskGraft(core::Technology::kC, geometry, token);
      });
  const graftd::GraftId faulty = dispatcher.RegisterStreamGraft(
      "faulty", [](envs::PreemptToken*) { return std::make_unique<FaultingStreamGraft>(); });

  std::vector<std::uint8_t> data(4096, 0xAB);
  for (int i = 0; i < 4; ++i) {
    graftd::Invocation stream;
    stream.graft = md5;
    stream.data = streamk::Bytes(data.data(), data.size());
    stream.simulated_io = 500us;
    dispatcher.Submit(std::move(stream));

    graftd::Invocation lookup;
    lookup.graft = evict;
    lookup.eviction_lookups = 64;
    lookup.simulated_io = 500us;
    dispatcher.Submit(std::move(lookup));

    graftd::Invocation writes;
    writes.graft = ldisk;
    writes.ldisk_writes = 1000;
    dispatcher.Submit(std::move(writes));

    graftd::Invocation bad;
    bad.graft = faulty;
    bad.data = streamk::Bytes(data.data(), 64);
    dispatcher.Submit(std::move(bad));
  }
  dispatcher.Drain();

  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  ASSERT_TRUE(snapshot.traced);
  EXPECT_GT(snapshot.trace_events, 0u);
  EXPECT_EQ(snapshot.trace_dropped, 0u);

  const auto row_for = [&](const std::string& name) {
    for (const auto& row : snapshot.stages) {
      if (row.graft == name) {
        return row;
      }
    }
    ADD_FAILURE() << "no stage row for " << name;
    return graftd::TelemetrySnapshot::StageRow{};
  };
  const auto md5_row = row_for("md5/C");
  EXPECT_EQ(md5_row.queue.count, 4u);
  EXPECT_EQ(md5_row.dispatch.count, 4u);
  EXPECT_GE(md5_row.crossing.count, 4u);  // +1 lazy build per worker used
  EXPECT_EQ(md5_row.body.count, 4u);
  EXPECT_EQ(md5_row.disk.count, 4u);
  EXPECT_GE(md5_row.disk.mean_us(), 500.0);  // the modeled feed is a floor

  const auto evict_row = row_for("evict/C");
  EXPECT_EQ(evict_row.body.count, 4u);
  EXPECT_EQ(evict_row.ops, 4u * 64u);

  const auto ldisk_row = row_for("ldisk/C");
  EXPECT_EQ(ldisk_row.body.count, 4u);
  EXPECT_EQ(ldisk_row.ops, 4u * 1000u);
  EXPECT_EQ(ldisk_row.disk.count, 0u);  // no modeled feed on these

  const auto faulty_row = row_for("faulty");
  EXPECT_GE(faulty_row.dispatch.count, 2u);  // runs before quarantine

  // Break-even panel: eviction + md5 have disk feeds, ldisk is per-block.
  bool saw_evict = false, saw_md5 = false, saw_ldisk = false;
  for (const auto& be : snapshot.break_even) {
    if (be.metric == "eviction_break_even" && be.graft == "evict/C") {
      saw_evict = true;
      EXPECT_GT(be.value, 0.0);
    } else if (be.metric == "md5_disk_ratio" && be.graft == "md5/C") {
      saw_md5 = true;
      EXPECT_GT(be.value, 0.0);
    } else if (be.metric == "per_block_overhead_us" && be.graft == "ldisk/C") {
      saw_ldisk = true;
      EXPECT_GT(be.value, 0.0);
    }
  }
  EXPECT_TRUE(saw_evict);
  EXPECT_TRUE(saw_md5);
  EXPECT_TRUE(saw_ldisk);

  // The faulting graft crossed its threshold: the supervisor stamped
  // quarantine instants onto the trace.
  const tracelab::TraceDump dump = tracer.Dump();
  const tracelab::StageSummary summary = tracelab::Aggregate(dump);
  EXPECT_GE(summary.Instants(SiteIdFor(dump, "supervisor/quarantine")), 1u);

  // Rendered forms carry the tracelab section: stage spans and the live
  // break-even panel.
  const std::string text = obslab::SnapshotText(snapshot);
  EXPECT_GT(obslab::SeriesSum(text, "graftlab_trace_stage_spans_total"), 0.0) << text;
  EXPECT_TRUE(obslab::SeriesSum(text, "graftlab_break_even").has_value()) << text;
  const std::string json = obslab::SnapshotJson(snapshot);
  EXPECT_NE(json.find("\"graftlab_trace_stage_spans_total\""), std::string::npos);
  EXPECT_NE(json.find("\"eviction_break_even\""), std::string::npos);
}

TEST(TracedDispatch, UntracedDispatcherSnapshotHasNoTraceSection) {
  graftd::DispatcherOptions options;
  options.workers = 1;
  graftd::Dispatcher dispatcher(options);
  const graftd::GraftId evict =
      dispatcher.RegisterEvictionGraft("evict/C", [](envs::PreemptToken* token) {
        return grafts::CreateEvictionGraft(core::Technology::kC, token);
      });
  graftd::Invocation lookup;
  lookup.graft = evict;
  lookup.eviction_lookups = 16;
  dispatcher.Submit(std::move(lookup));
  dispatcher.Drain();
  const graftd::TelemetrySnapshot snapshot = dispatcher.Snapshot();
  EXPECT_FALSE(snapshot.traced);
  EXPECT_TRUE(snapshot.stages.empty());
  EXPECT_EQ(obslab::SnapshotJson(snapshot).find("graftlab_trace_"), std::string::npos);
  // The eviction shape itself still dispatches and succeeds untraced.
  ASSERT_EQ(snapshot.grafts.size(), 1u);
  EXPECT_EQ(snapshot.grafts[0].counters.ok, 1u);
}

TEST(Tracer, InternCapCollapsesHostileNamesToOverflowSite) {
  tracelab::Tracer::Options options;
  options.max_sites = 4;
  tracelab::Tracer tracer(options);
  std::vector<tracelab::SiteId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(tracer.Intern("site" + std::to_string(i)));
  }
  // The first max_sites names get dense ids; everything past the cap
  // collapses to the shared overflow sentinel instead of growing the table.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(ids[i], tracelab::kOverflowSite);
  }
  for (int i = 4; i < 10; ++i) {
    EXPECT_EQ(ids[i], tracelab::kOverflowSite);
  }
  EXPECT_EQ(tracer.sites_dropped(), 6u);
  EXPECT_EQ(tracer.SiteName(tracelab::kOverflowSite), "<overflow>");
  // Re-interning a cached name is still a hit, not another drop.
  EXPECT_EQ(tracer.Intern("site0"), ids[0]);
  EXPECT_EQ(tracer.sites_dropped(), 6u);

  // Events recorded against the overflow site stay well-defined: they are
  // collected, and Aggregate's range-checked site indexing drops them
  // rather than growing a row for the sentinel.
  tracer.Instant(ids[9], 0);
  tracer.Complete(ids[9], 0, 100, 0);
  const tracelab::TraceDump dump = tracer.Dump();
  EXPECT_EQ(dump.event_count(), 2u);
  EXPECT_EQ(dump.sites.size(), 4u);
  const tracelab::StageSummary summary = tracelab::Aggregate(dump);
  EXPECT_EQ(summary.instants.size(), 4u);
  std::uint64_t total_instants = 0;
  for (const std::uint64_t n : summary.instants) {
    total_instants += n;
  }
  EXPECT_EQ(total_instants, 0u);
}

TEST(Tracer, DumpTailReturnsOnlyTheMostRecentEventsPerThread) {
  tracelab::Tracer tracer;
  const tracelab::SiteId site = tracer.Intern("tail");
  for (std::uint64_t i = 0; i < 100; ++i) {
    tracer.Instant(site, 0, i);
  }
  const tracelab::TraceDump tail = tracer.DumpTail(10);
  ASSERT_EQ(tail.threads.size(), 1u);
  ASSERT_EQ(tail.threads[0].events.size(), 10u);
  EXPECT_EQ(tail.threads[0].events.front().arg, 90u);
  EXPECT_EQ(tail.threads[0].events.back().arg, 99u);
  // The accumulated stream is preserved: a later full Dump sees everything.
  EXPECT_EQ(tracer.Dump().event_count(), 100u);
}

}  // namespace
