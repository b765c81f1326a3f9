#include "cosim/session.hpp"

#include <chrono>
#include <thread>

#include "iss/assembler.hpp"
#include "util/deadline.hpp"
#include "util/log.hpp"

namespace nisc::cosim {

namespace {

constexpr std::size_t kTargetMemSize = 1 << 20;
/// Instructions the GDB stub runs per throttle acquire.
constexpr std::uint64_t kStubQuantum = 1024;
/// Instructions the RTOS runs per pay-after settlement.
constexpr std::uint64_t kDriverRunQuantum = 2048;
/// Transfers the post-mortem wire capture keeps.
constexpr std::size_t kCaptureFrames = 32;
/// How long shutdown() waits for the target thread before complaining.
constexpr int kJoinTimeoutMs = 10000;
/// Throttle stall bound: acquire gives up (granting 0) after this long.
constexpr int kStallTimeoutMs = 10000;

/// Waits for `exited` under a deadline, then joins. All target-side
/// blocking paths are individually bounded, so the join after an expired
/// deadline still terminates; the log line tells the operator which session
/// overstayed.
void join_with_deadline(const char* who, std::thread& thread, const std::atomic<bool>& exited,
                        int timeout_ms) {
  if (!thread.joinable()) return;
  const util::Deadline deadline = util::Deadline::after_ms(timeout_ms);
  while (!exited.load(std::memory_order_acquire) && !deadline.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!exited.load(std::memory_order_acquire)) {
    NISC_ERROR(who) << "target thread still running after " << timeout_ms
                    << " ms; joining anyway (bounded I/O deadlines will release it)";
  }
  thread.join();
}

}  // namespace

// ---------------------------------------------------------------------------
// GdbTarget

GdbTarget::GdbTarget(const std::string& guest_source, GdbTargetConfig config)
    : config_(std::move(config)) {
  FilteredSource filtered = filter_pragmas(guest_source);
  program_ = iss::assemble(filtered.source);
  bindings_ = resolve_bindings(filtered.bindings, program_);

  cpu_ = std::make_unique<iss::Cpu>(kTargetMemSize);
  program_.load_into(cpu_->mem());
  cpu_->reset(program_.entry);

  ipc::ChannelPair pair = ipc::make_channel_pair(config_.transport);
  pair.a.set_io_timeout(config_.io_timeout_ms);
  pair.b.set_io_timeout(config_.io_timeout_ms);
  if (!config_.fault_plan.empty()) {
    fault_state_ = ipc::FaultyChannel::install(pair.a, config_.fault_plan);
  }
  capture_ = std::make_shared<ipc::WireCapture>("gdb", kCaptureFrames);
  pair.b.attach_capture(capture_);
  if (config_.wire_observer) pair.b.attach_observer(config_.wire_observer);
  rsp::StubOptions stub_options;
  stub_options.quantum = kStubQuantum;
  if (config_.throttled) {
    stub_options.acquire_quantum = [this](std::uint64_t want) {
      return budget_.acquire_for(want, kStallTimeoutMs);
    };
    // A halted CPU does not consume simulated time: park its allowance so
    // the reverse throttle never mistakes a breakpoint stop for a slow CPU.
    stub_options.on_run_state = [this](bool running) { budget_.set_idle(!running); };
    budget_.set_idle(true);  // the stub starts halted
  }
  stub_ = std::make_unique<rsp::GdbStub>(*cpu_, std::move(pair.a), std::move(stub_options));
  client_ = std::make_unique<rsp::GdbClient>(std::move(pair.b),
                                             rsp::ClientOptions{config_.reply_timeout_ms});
}

GdbTarget::~GdbTarget() { shutdown(); }

void GdbTarget::start() {
  util::require(!started_, "GdbTarget::start called twice");
  started_ = true;
  thread_ = std::thread([this] {
    stub_->serve();
    exited_.store(true, std::memory_order_release);
  });
}

void GdbTarget::shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  budget_.close();
  try {
    if (client_->running()) {
      client_->interrupt();
      client_->wait_stop(2000);
    }
    client_->kill();
  } catch (const util::RuntimeError&) {
    // Transport already gone; the stub also exits on EOF or its bounded
    // serve tick after request_stop below.
  }
  stub_->request_stop();
  join_with_deadline("gdb-target", thread_, exited_, kJoinTimeoutMs);
}

// ---------------------------------------------------------------------------
// DriverTarget

DriverTarget::DriverTarget(const std::string& guest_source, DriverTargetConfig config)
    : config_(std::move(config)) {
  util::require(!config_.write_port.empty() && !config_.read_port.empty(),
                "DriverTarget: write_port/read_port must name iss ports");
  program_ = iss::assemble(rtos::guest_abi_prelude() + guest_source);

  cpu_ = std::make_unique<iss::Cpu>(kTargetMemSize);
  kernel_ = std::make_unique<rtos::Kernel>(*cpu_, config_.rtos);
  kernel_->load(program_);

  ipc::ChannelPair data = ipc::make_channel_pair(config_.transport);
  ipc::ChannelPair irq = ipc::make_channel_pair(config_.transport);
  data.a.set_io_timeout(config_.io_timeout_ms);
  data.b.set_io_timeout(config_.io_timeout_ms);
  irq.a.set_io_timeout(config_.io_timeout_ms);
  irq.b.set_io_timeout(config_.io_timeout_ms);
  if (!config_.fault_plan.empty()) {
    fault_state_ = ipc::FaultyChannel::install(data.b, config_.fault_plan);
  }
  capture_ = std::make_shared<ipc::WireCapture>("drv-data", kCaptureFrames);
  data.a.attach_capture(capture_);
  if (config_.wire_observer) data.a.attach_observer(config_.wire_observer);
  if (config_.irq_observer) irq.b.attach_observer(config_.irq_observer);
  data_kernel_side_ = std::move(data.a);
  irq_kernel_side_ = std::move(irq.a);
  irq_target_side_ = std::move(irq.b);

  auto driver = std::make_unique<ScPortDriver>(std::move(data.b), config_.write_port,
                                               config_.read_port);
  driver_ = driver.get();
  int dev = kernel_->register_driver(std::move(driver));
  util::require(dev == 0, "DriverTarget: scdev must be device 0");
}

DriverTarget::~DriverTarget() { shutdown(); }

ipc::Channel DriverTarget::take_data_endpoint() {
  util::require(data_kernel_side_.valid(), "take_data_endpoint: already taken");
  return std::move(data_kernel_side_);
}

ipc::Channel DriverTarget::take_interrupt_endpoint() {
  util::require(irq_kernel_side_.valid(), "take_interrupt_endpoint: already taken");
  return std::move(irq_kernel_side_);
}

void DriverTarget::start() {
  util::require(!started_, "DriverTarget::start called twice");
  started_ = true;
  pump_ = std::make_unique<InterruptPump>(std::move(irq_target_side_), *kernel_);
  thread_ = std::thread([this] {
    run_loop();
    exited_.store(true, std::memory_order_release);
  });
}

void DriverTarget::run_loop() {
  while (!stop_.load()) {
    // Pay-after accounting in CPU *cycles*: OS overhead (syscalls, context
    // switches, ISR entry) is charged as cycles by the RTOS model, and must
    // slow the guest down in simulated time — that is the paper's Figure 7
    // effect. Run a slice, then settle its measured cycle cost against the
    // allowance the SystemC side deposits as simulated time advances.
    const std::uint64_t cycles_before = cpu_->cycles();
    rtos::RunStatus status = kernel_->run(kDriverRunQuantum);
    last_status_.store(status);
    if (config_.throttled && !throttle_lost_.load(std::memory_order_relaxed)) {
      const std::uint64_t cost = cpu_->cycles() - cycles_before;
      if (cost > 0 && !budget_.pay_for(cost, config_.pay_timeout_ms)) {
        if (budget_.closed()) {
          if (status == rtos::RunStatus::Budget) break;  // shutdown
        } else {
          // The SystemC side stopped depositing (stalled or quiesced this
          // port): abandon time correlation rather than deadlock the guest.
          NISC_WARN("driver-target")
              << "allowance not settled within " << config_.pay_timeout_ms
              << " ms: time correlation lost, continuing unthrottled";
          throttle_lost_.store(true, std::memory_order_relaxed);
        }
      }
    }
    switch (status) {
      case rtos::RunStatus::AllDone:
        finished_.store(true);
        budget_.close();  // never consuming again: release the throttle
        return;
      case rtos::RunStatus::Fault:
        NISC_ERROR("driver-target") << "guest fault: "
                                    << iss::halt_name(kernel_->last_fault());
        finished_.store(true);
        budget_.close();
        return;
      case rtos::RunStatus::Idle:
        // Every guest thread is blocked in dev_read: the CPU idles, burning
        // its allowance doing nothing, until device data arrives.
        budget_.set_idle(true);
        if (!driver_->wait_incoming(1) && driver_->degraded()) {
          // No data will ever arrive on a degraded driver: idle politely
          // instead of hot-spinning until shutdown.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        budget_.set_idle(false);
        break;
      case rtos::RunStatus::Budget:
        break;
    }
  }
}

void DriverTarget::shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  stop_.store(true);
  budget_.close();
  join_with_deadline("driver-target", thread_, exited_, kJoinTimeoutMs);
  if (pump_) pump_->stop();
}

}  // namespace nisc::cosim
