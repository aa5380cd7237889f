// BoundedMpscQueue unit tests: power-of-two capacity, FIFO batch
// semantics, waiter-counted wakeups, close/race behavior, and
// multi-producer accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "src/graftd/queue.h"

namespace {

using Queue = graftd::BoundedMpscQueue<std::uint64_t>;

TEST(BoundedMpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Queue(1).capacity(), 1u);
  EXPECT_EQ(Queue(2).capacity(), 2u);
  EXPECT_EQ(Queue(3).capacity(), 4u);
  EXPECT_EQ(Queue(64).capacity(), 64u);
  EXPECT_EQ(Queue(65).capacity(), 128u);
  EXPECT_EQ(Queue(0).capacity(), 1u);  // degenerate request still works
}

TEST(BoundedMpscQueue, FifoOrderAcrossWraparound) {
  Queue queue(4);
  std::vector<std::uint64_t> out;
  // Several fill/drain rounds so head_ wraps the (masked) ring repeatedly.
  for (std::uint64_t round = 0; round < 5; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(queue.TryPush(round * 4 + i));
    }
    EXPECT_FALSE(queue.TryPush(999));  // full
    ASSERT_EQ(queue.PopBatch(out, 16), 4u);
  }
  ASSERT_EQ(out.size(), 20u);
  for (std::uint64_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i);
  }
}

TEST(BoundedMpscQueue, TryPushBatchAcceptsWhatFits) {
  Queue queue(4);
  std::vector<std::uint64_t> items(6);
  std::iota(items.begin(), items.end(), 0);
  EXPECT_EQ(queue.TryPushBatch(items), 4u);  // partial: backpressure signal
  EXPECT_EQ(queue.TryPushBatch(items), 0u);  // full: nothing fits
  std::vector<std::uint64_t> out;
  EXPECT_EQ(queue.PopBatch(out, 16), 4u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(BoundedMpscQueue, PushBatchBlocksForSpaceAndDeliversEverything) {
  Queue queue(4);
  std::vector<std::uint64_t> items(64);
  std::iota(items.begin(), items.end(), 0);

  std::vector<std::uint64_t> out;
  std::thread consumer([&] {
    while (out.size() < items.size()) {
      std::vector<std::uint64_t> got;
      if (queue.PopBatch(got, 8) == 0) {
        return;
      }
      out.insert(out.end(), got.begin(), got.end());
    }
  });
  // One blocking call pushes the whole span, re-waiting for space as the
  // consumer drains.
  EXPECT_EQ(queue.PushBatch(items), items.size());
  consumer.join();
  ASSERT_EQ(out.size(), items.size());
  for (std::uint64_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i);  // FIFO survives the blocking handoff
  }
  EXPECT_GT(queue.wait_stats().producer_waits, 0u);  // it really did block
}

TEST(BoundedMpscQueue, NotifiesAreSkippedWhenNobodyWaits) {
  Queue queue(16);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(queue.TryPush(i));
  }
  // No consumer was ever parked, so every push skipped the condvar.
  EXPECT_EQ(queue.wait_stats().notifies_skipped, 8u);
  EXPECT_EQ(queue.wait_stats().notifies_sent, 0u);
  EXPECT_EQ(queue.wait_stats().consumer_waits, 0u);

  std::vector<std::uint64_t> out;
  EXPECT_EQ(queue.PopBatch(out, 16), 8u);
  // Nor was any producer parked, so the pop also skipped its notify.
  EXPECT_EQ(queue.wait_stats().notifies_skipped, 9u);
}

TEST(BoundedMpscQueue, ConsumerWakesFromParkOnPush) {
  Queue queue(4);
  std::vector<std::uint64_t> out;
  std::thread consumer([&] {
    std::vector<std::uint64_t> got;
    ASSERT_EQ(queue.PopBatch(got, 4), 1u);  // parks on empty, wakes on push
    out = got;
  });
  // Wait until the consumer has actually parked so the push must notify.
  while (queue.wait_stats().consumer_waits == 0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(queue.TryPush(42));
  consumer.join();
  EXPECT_EQ(out, (std::vector<std::uint64_t>{42}));
  EXPECT_GT(queue.wait_stats().consumer_waits, 0u);
  // The push saw the parked consumer and woke it: exactly one notify, and
  // the pop (no producer waiting on full) skipped its own.
  EXPECT_EQ(queue.wait_stats().notifies_sent, 1u);
}

TEST(BoundedMpscQueue, CloseWakesParkedConsumerAndFailsProducers) {
  Queue queue(2);
  std::atomic<bool> drained{false};
  std::thread consumer([&] {
    std::vector<std::uint64_t> got;
    EXPECT_EQ(queue.PopBatch(got, 4), 0u);  // closed and empty
    drained.store(true);
  });
  while (queue.wait_stats().consumer_waits == 0) {
    std::this_thread::yield();
  }
  queue.Close();
  consumer.join();
  EXPECT_TRUE(drained.load());
  EXPECT_FALSE(queue.TryPush(1));
  EXPECT_FALSE(queue.Push(2));
  std::vector<std::uint64_t> items(3);
  EXPECT_EQ(queue.PushBatch(items), 0u);
  EXPECT_EQ(queue.TryPushBatch(items), 0u);
}

TEST(BoundedMpscQueue, CloseUnblocksProducerWaitingForSpace) {
  Queue queue(2);
  ASSERT_TRUE(queue.TryPush(1));
  ASSERT_TRUE(queue.TryPush(2));
  std::thread producer([&] {
    EXPECT_FALSE(queue.Push(3));  // parked on full, woken by Close
  });
  while (queue.wait_stats().producer_waits == 0) {
    std::this_thread::yield();
  }
  queue.Close();
  producer.join();
}

TEST(BoundedMpscQueue, MultiProducerCloseRaceDeliversAcceptedItemsExactlyOnce) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 2000;
  Queue queue(8);

  std::atomic<std::uint64_t> accepted_sum{0};
  std::atomic<std::uint64_t> accepted_count{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t value = p * kPerProducer + i + 1;
        if (queue.Push(value)) {
          accepted_sum.fetch_add(value, std::memory_order_relaxed);
          accepted_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          return;  // closed under us: everything after would fail too
        }
      }
    });
  }

  std::uint64_t popped_sum = 0;
  std::uint64_t popped_count = 0;
  std::thread consumer([&] {
    std::vector<std::uint64_t> got;
    for (;;) {
      got.clear();
      const std::size_t n = queue.PopBatch(got, 16);
      if (n == 0) {
        return;
      }
      for (const std::uint64_t value : got) {
        popped_sum += value;
        popped_count += 1;
      }
      if (popped_count >= kPerProducer) {
        queue.Close();  // mid-stream close races the still-pushing producers
      }
    }
  });

  for (auto& producer : producers) {
    producer.join();
  }
  consumer.join();

  // Every accepted push was popped exactly once — the close may truncate
  // the stream but never drops or duplicates an accepted item.
  EXPECT_EQ(popped_count, accepted_count.load());
  EXPECT_EQ(popped_sum, accepted_sum.load());
}

}  // namespace
