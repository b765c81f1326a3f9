#include "cosim/time_budget.hpp"

#include <algorithm>
#include <chrono>

#include "util/deadline.hpp"

namespace nisc::cosim {

namespace {

/// The reverse throttle holds simulated time while more than this many
/// granted-but-unexecuted instructions are outstanding, so a host-scheduling
/// hiccup on the ISS thread cannot masquerade as a slow simulated CPU.
constexpr std::uint64_t kMaxLead = 8192;
/// Longest the reverse throttle holds simulated time per call.
constexpr std::chrono::milliseconds kThrottleWait{2};
/// Picoseconds per microsecond: advance_to's scale.
constexpr std::uint64_t kPsPerUs = 1000000;

}  // namespace

void TimeBudget::deposit(std::uint64_t tokens) {
  {
    std::lock_guard lock(mutex_);
    if (idle_) {
      // The consumer is idle: its allowance burns off immediately.
      drained_.notify_all();
      return;
    }
    tokens_ = std::min(tokens_ + tokens, kCap);
  }
  cv_.notify_all();
}

void TimeBudget::advance_to(std::uint64_t now_ps, std::uint64_t instructions_per_us) {
  const std::uint64_t elapsed_ps = now_ps - last_time_ps_;
  last_time_ps_ = now_ps;
  // instructions = elapsed_ps * instr_per_us / 1e6, with remainder carry.
  const std::uint64_t scaled = elapsed_ps * instructions_per_us + remainder_;
  remainder_ = scaled % kPsPerUs;
  const std::uint64_t instructions = scaled / kPsPerUs;
  if (instructions > 0) deposit(instructions);
}

std::uint64_t TimeBudget::acquire_for(std::uint64_t want, int timeout_ms) {
  const util::Deadline deadline = util::Deadline::after_ms(timeout_ms);
  std::unique_lock lock(mutex_);
  for (;;) {
    if (tokens_ > 0) break;
    if (closed_) return 0;
    const int remaining = deadline.remaining_ms();
    if (remaining < 0) {
      cv_.wait(lock);
    } else {
      if (remaining == 0) return 0;  // timed out (caller checks closed())
      cv_.wait_for(lock, std::chrono::milliseconds(remaining));
    }
  }
  std::uint64_t granted = std::min(want, tokens_);
  tokens_ -= granted;
  drained_.notify_all();
  return granted;
}

bool TimeBudget::pay_for(std::uint64_t amount, int timeout_ms) {
  const util::Deadline deadline = util::Deadline::after_ms(timeout_ms);
  while (amount > 0) {
    std::uint64_t got = acquire_for(amount, deadline.remaining_ms());
    if (got == 0) return false;  // closed or deadline hit; remainder forgiven
    amount -= got;
  }
  return true;
}

void TimeBudget::throttle() {
  std::unique_lock lock(mutex_);
  if (tokens_ <= kMaxLead) return;
  drained_.wait_for(lock, kThrottleWait, [&] { return tokens_ < kMaxLead || closed_ || idle_; });
}

void TimeBudget::set_idle(bool idle) {
  {
    std::lock_guard lock(mutex_);
    idle_ = idle;
    if (idle) tokens_ = 0;  // burn whatever was banked
  }
  drained_.notify_all();
}

void TimeBudget::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool TimeBudget::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

}  // namespace nisc::cosim
