#include "src/core/deadline_wheel.h"

#include <algorithm>

namespace core {

DeadlineWheel::DeadlineWheel() : DeadlineWheel(Options{}) {}

DeadlineWheel::DeadlineWheel(Options options)
    : options_(options), slots_(std::max<std::size_t>(2, options.slots)) {
  thread_ = std::thread([this] { Run(); });
}

DeadlineWheel& DeadlineWheel::Shared() {
  static DeadlineWheel wheel;
  return wheel;
}

DeadlineWheel::~DeadlineWheel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

DeadlineWheel::Ticket DeadlineWheel::Arm(envs::PreemptToken& token,
                                         std::chrono::microseconds deadline) {
  // Round up: never fire before the budget has truly elapsed.
  const std::int64_t tick_us = options_.tick.count();
  const std::int64_t deadline_us = std::max<std::int64_t>(1, deadline.count());
  const std::uint64_t ticks =
      static_cast<std::uint64_t>((deadline_us + tick_us - 1) / tick_us);

  std::lock_guard<std::mutex> lock(mu_);
  const Ticket ticket = next_ticket_++;
  const std::size_t slot = (cursor_ + ticks) % slots_.size();
  // The cursor visits `slot` for the first time after ((ticks - 1) % size)+1
  // ticks; each remaining full revolution is one round.
  const std::uint64_t rounds = (ticks - 1) / slots_.size();
  slots_[slot].push_back(Entry{ticket, &token, rounds});
  active_.emplace(ticket, slot);
  armed_.fetch_add(1, std::memory_order_relaxed);
  return ticket;
}

void DeadlineWheel::Cancel(Ticket ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = active_.find(ticket);
  if (it == active_.end()) {
    return;  // already fired (or never armed)
  }
  auto& slot = slots_[it->second];
  for (auto entry = slot.begin(); entry != slot.end(); ++entry) {
    if (entry->ticket == ticket) {
      slot.erase(entry);
      break;
    }
  }
  active_.erase(it);
}

void DeadlineWheel::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  auto next_tick = std::chrono::steady_clock::now() + options_.tick;
  while (!stop_) {
    if (cv_.wait_until(lock, next_tick, [this] { return stop_; })) {
      return;
    }
    cursor_ = (cursor_ + 1) % slots_.size();
    auto& slot = slots_[cursor_];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < slot.size(); ++i) {
      Entry& entry = slot[i];
      if (entry.rounds > 0) {
        --entry.rounds;
        slot[kept++] = entry;
        continue;
      }
      entry.token->RequestStop();
      active_.erase(entry.ticket);
      fired_.fetch_add(1, std::memory_order_relaxed);
    }
    slot.resize(kept);

    next_tick += options_.tick;
    const auto now = std::chrono::steady_clock::now();
    if (next_tick < now) {
      // The thread was descheduled for multiple ticks (loaded machine):
      // re-anchor instead of spinning to catch up. Pending deadlines fire a
      // little late, which is the tolerable direction.
      next_tick = now + options_.tick;
    }
  }
}

}  // namespace core
