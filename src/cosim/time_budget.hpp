// TimeBudget: correlates ISS execution with SystemC simulated time.
//
// The SystemC kernel deposits an instruction allowance as simulated time
// advances (modeling the CPU's nominal frequency); the target thread running
// the ISS withdraws before executing. The deposit path never blocks; the
// withdraw path blocks until tokens are available, which is what keeps the
// two simulators loosely synchronized in the paper's free-running schemes.
// Both kernel-embedded schemes take their time coupling from here: the
// simulated-time-to-allowance conversion (advance_to) and the reverse
// throttle that holds simulated time while the ISS lags (throttle).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace nisc::cosim {

class TimeBudget {
 public:
  /// Accumulation bound, so a stalled ISS cannot bank unbounded credit and
  /// later sprint arbitrarily far ahead of hardware time.
  static constexpr std::uint64_t kCap = 1 << 20;

  /// Adds `tokens` instructions of allowance (kernel thread, non-blocking).
  void deposit(std::uint64_t tokens);

  /// Deposits the allowance earned since the previous call, for a CPU that
  /// executes `instructions_per_us` instructions per simulated microsecond.
  /// The sub-instruction remainder carries over to the next call, so the
  /// total is exact however unevenly time advances. Kernel thread only.
  void advance_to(std::uint64_t now_ps, std::uint64_t instructions_per_us);

  /// Withdraws up to `want` instructions, blocking until at least one token
  /// is available, the budget is closed, or `timeout_ms` elapses (< 0 waits
  /// forever; 0 polls). Returns the granted amount: 0 on timeout or close —
  /// distinguish via closed().
  std::uint64_t acquire_for(std::uint64_t want, int timeout_ms);

  /// Blocks until `amount` tokens have been consumed (pay-after accounting:
  /// the ISS runs a slice first, then pays its measured cycle cost), giving
  /// up after `timeout_ms` total (< 0 waits forever). Returns false on
  /// timeout or close — distinguish via closed(); on timeout the unsettled
  /// remainder is forgiven (the caller degrades to unthrottled execution
  /// rather than deadlock).
  bool pay_for(std::uint64_t amount, int timeout_ms);

  /// The reverse throttle: while the ISS is running with far more allowance
  /// outstanding than it should ever bank, holds the calling (SystemC)
  /// thread briefly until the ISS catches up, so simulated time cannot race
  /// ahead of a host-descheduled ISS. Returns at once when the budget is
  /// idle, closed or under the lead; never waits longer than a couple of
  /// host milliseconds.
  void throttle();

  /// Marks the consumer as idle: an idle CPU burns its allowance doing
  /// nothing, so deposits are discarded (and throttle passes) until the
  /// consumer wakes. Set by the target loop around blocking-idle waits.
  void set_idle(bool idle);

  /// Unblocks all waiters permanently (teardown, or the guest exited and
  /// will never consume again).
  void close();

  bool closed() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;        // waiters for tokens (ISS side)
  std::condition_variable drained_;   // waiters for consumption (kernel side)
  std::uint64_t tokens_ = 0;
  bool closed_ = false;
  bool idle_ = false;
  // advance_to's position; touched by the kernel thread only.
  std::uint64_t last_time_ps_ = 0;
  std::uint64_t remainder_ = 0;
};

}  // namespace nisc::cosim
