// Bounded multi-producer single-consumer invocation queue.
//
// Each dispatch worker owns one of these; any number of producer threads
// push into it. Capacity is fixed at construction (rounded up to a power
// of two so ring indexing is a mask, not a modulo): TryPush fails when the
// queue is full (backpressure surfaces to the producer instead of memory
// growing without bound under overload), Push blocks until space frees.
// The consumer dequeues in batches — one lock round-trip amortized over up
// to `max_batch` invocations — and producers can amortize the same way
// with PushBatch/TryPushBatch: one lock, one wakeup, many items.
//
// Wakeups are waiter-counted: both condition variables track how many
// threads are blocked on them (the counts only change under the queue
// mutex), and notify is skipped entirely when nobody waits. In the common
// fast-flowing case — producers ahead of the consumer, or the consumer
// ahead of producers — pushes and pops are then pure lock/unlock pairs
// with no condvar traffic at all.
//
// Implementation is a mutex-guarded ring over a pre-sized vector. A lock
// per batch is far below the noise floor of even the cheapest graft
// invocation, and it keeps the queue trivially ThreadSanitizer-clean.
// This is graftd's submission queue: one per dispatch worker (DESIGN.md
// §11).

#ifndef GRAFTLAB_SRC_GRAFTD_QUEUE_H_
#define GRAFTLAB_SRC_GRAFTD_QUEUE_H_

#include <bit>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

namespace graftd {

template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(std::size_t capacity)
      : capacity_(std::bit_ceil(capacity == 0 ? std::size_t{1} : capacity)),
        mask_(capacity_ - 1),
        ring_(capacity_) {}

  // Non-blocking push; false when full or closed (backpressure signal).
  bool TryPush(T item) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || size_ == capacity_) {
        return false;
      }
      Enqueue(std::move(item));
      wake = not_empty_waiters_ > 0;
      CountNotify(wake);
    }
    if (wake) {
      not_empty_.notify_one();
    }
    return true;
  }

  // Blocking push; waits for space. False only if the queue is closed.
  bool Push(T item) {
    bool wake = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      WaitForSpace(lock);
      if (closed_) {
        return false;
      }
      Enqueue(std::move(item));
      wake = not_empty_waiters_ > 0;
      CountNotify(wake);
    }
    if (wake) {
      not_empty_.notify_one();
    }
    return true;
  }

  // Blocking batch push: one lock/wakeup episode amortized over the whole
  // span (re-waiting for space as needed). Returns the number pushed —
  // short only when the queue is closed mid-batch.
  std::size_t PushBatch(std::span<T> items) {
    std::size_t pushed = 0;
    bool wake = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (T& item : items) {
        WaitForSpace(lock);
        if (closed_) {
          break;
        }
        Enqueue(std::move(item));
        ++pushed;
      }
      if (pushed > 0) {
        wake = not_empty_waiters_ > 0;
        CountNotify(wake);
      }
    }
    if (wake) {
      not_empty_.notify_one();
    }
    return pushed;
  }

  // Non-blocking batch push: pushes as many items as fit right now.
  // Returns the number accepted (0 when full or closed).
  std::size_t TryPushBatch(std::span<T> items) {
    std::size_t pushed = 0;
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        return 0;
      }
      for (T& item : items) {
        if (size_ == capacity_) {
          break;
        }
        Enqueue(std::move(item));
        ++pushed;
      }
      if (pushed > 0) {
        wake = not_empty_waiters_ > 0;
        CountNotify(wake);
      }
    }
    if (wake) {
      not_empty_.notify_one();
    }
    return pushed;
  }

  // Dequeues up to `max_batch` items into `out` (appended). Blocks while
  // the queue is empty and open; returns the number dequeued, 0 only after
  // Close() with the queue drained.
  std::size_t PopBatch(std::vector<T>& out, std::size_t max_batch) {
    std::size_t popped = 0;
    bool wake = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (!closed_ && size_ == 0) {
        ++not_empty_waiters_;
        ++consumer_waits_;
        not_empty_.wait(lock);
        --not_empty_waiters_;
      }
      while (popped < max_batch && size_ > 0) {
        out.push_back(std::move(ring_[head_ & mask_]));
        ++head_;
        --size_;
        ++popped;
      }
      if (popped > 0) {
        wake = not_full_waiters_ > 0;
        CountNotify(wake);
      }
    }
    if (wake) {
      not_full_.notify_all();
    }
    return popped;
  }

  // Wakes everyone; subsequent pushes fail, PopBatch drains then returns 0.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  std::size_t capacity() const { return capacity_; }

  // Wakeup accounting, for the dispatch telemetry: how often a push/pop
  // notified a waiter or let the waiter count skip the condvar, and how
  // often blocking waits actually slept. WaitForSpace's full-ring hand-off
  // to a parked consumer counts as a sent notify too.
  struct WaitStats {
    std::uint64_t notifies_sent = 0;
    std::uint64_t notifies_skipped = 0;
    std::uint64_t consumer_waits = 0;  // PopBatch slept on empty
    std::uint64_t producer_waits = 0;  // Push/PushBatch slept on full
  };
  WaitStats wait_stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return WaitStats{notifies_sent_, notifies_skipped_, consumer_waits_, producer_waits_};
  }

 private:
  void Enqueue(T item) {
    ring_[(head_ + size_) & mask_] = std::move(item);
    ++size_;
  }

  // Caller holds mu_.
  void CountNotify(bool wake) { ++(wake ? notifies_sent_ : notifies_skipped_); }

  // Caller holds `lock`; returns with space available or closed_ set.
  // Before sleeping on full, wakes a consumer parked on empty: the batch
  // push defers its notify to batch end, so a full ring with a parked
  // consumer means items were queued that nobody was told about — without
  // this handoff both sides would sleep forever.
  void WaitForSpace(std::unique_lock<std::mutex>& lock) {
    while (!closed_ && size_ == capacity_) {
      if (not_empty_waiters_ > 0) {
        not_empty_.notify_one();
        ++notifies_sent_;
      }
      ++not_full_waiters_;
      ++producer_waits_;
      not_full_.wait(lock);
      --not_full_waiters_;
    }
  }

  const std::size_t capacity_;  // power of two
  const std::size_t mask_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t not_empty_waiters_ = 0;
  std::size_t not_full_waiters_ = 0;
  std::uint64_t notifies_sent_ = 0;
  std::uint64_t notifies_skipped_ = 0;
  std::uint64_t consumer_waits_ = 0;
  std::uint64_t producer_waits_ = 0;
  bool closed_ = false;
};

}  // namespace graftd

#endif  // GRAFTLAB_SRC_GRAFTD_QUEUE_H_
