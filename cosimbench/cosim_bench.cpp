// Router co-simulation benchmark harness: runs the router Testbench under
// one named workload for a given host time and prints one JSON record of
// raw measurements on its last line. run.py turns the record into the
// benchmark's metrics; see README.md for the workloads and metrics.
//
// Everything here goes through public extension points only: a
// sysc::kernel_extension registered on Testbench::context(), an
// ipc::WireObserver passed as TestbenchConfig::wire_observer, getrusage,
// the public stats structs and reads of the obs registry. The program's
// own obs tracer stays off.
//
//   cosim_bench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--fault]
//   cosim_bench --probe N   (host-speed probe only; see host_probe_s)
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ipc/capture.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "router/testbench.hpp"

using namespace nisc;
using namespace nisc::sysc::time_literals;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  router::TestbenchConfig config;
  /// Simulated time one instance runs (unbounded traffic), or the drain
  /// limit (bounded traffic).
  sysc::sc_time duration;
  /// Simulated time per run_for slice; each slice is one timed window.
  sysc::sc_time window;
  bool drain = false;  ///< bounded producers, run until every packet settled
};

router::TestbenchConfig table1_config(router::Scheme scheme) {
  router::TestbenchConfig config;
  config.scheme = scheme;
  config.num_cpus = 1;
  config.num_producers = 4;
  config.inter_packet_delay = 2_us;
  config.packets_per_producer = 0;  // unbounded traffic
  config.instructions_per_us = 400000;
  return config;
}

std::optional<Workload> make_workload(const std::string& name, bool quick) {
  Workload w;
  w.name = name;
  if (name == "lockstep" || name == "breakpoint" || name == "driver") {
    const router::Scheme scheme = name == "lockstep"     ? router::Scheme::GdbWrapper
                                  : name == "breakpoint" ? router::Scheme::GdbKernel
                                                         : router::Scheme::DriverKernel;
    w.config = table1_config(scheme);
    // Instances are short (a quarter second or so of host time) so a run
    // holds dozens, and a burst of load on the host moves only some of
    // them. Windows are sized so a run times well over a thousand of them.
    w.window = name == "lockstep" ? 2_us : name == "breakpoint" ? 5_us : 10_us;
    w.duration = name == "lockstep" ? 100_us : name == "breakpoint" ? 250_us : 500_us;
  } else if (name == "os-bound") {
    // Figure 7 regime: slow CPU, RTOS cost model, shallow input FIFOs.
    w.config = table1_config(router::Scheme::DriverKernel);
    w.config.instructions_per_us = 30;
    w.config.rtos.syscall_overhead_cycles = 100;
    w.config.rtos.context_switch_cycles = 120;
    w.config.rtos.isr_entry_cycles = 80;
    w.config.fifo_capacity = 4;
    w.config.inter_packet_delay = 20_us;
    w.config.packets_per_producer = 50;
    w.duration = 10_ms;  // drain limit; a healthy instance drains in about 1.2 ms
    w.window = 10_us;
    w.drain = true;
  } else {
    return std::nullopt;
  }
  if (quick) {
    if (w.drain) {
      w.config.packets_per_producer = 10;
    } else {
      w.duration = sysc::sc_time::from_ps(w.duration.ps() / 10);
    }
  }
  return w;
}

// ---------------------------------------------------------------------------
// Probes

/// Times the kernel's delta cycles from outside. Registered after the
/// scheme's extension, so on_cycle_begin -> on_cycle_end spans evaluate,
/// update, delta-notify and the scheme's end-of-cycle hook, while
/// on_cycle_end -> next on_cycle_begin spans time advance, starvation waits
/// and the scheme's begin-of-cycle hook.
class CycleProbe : public sysc::kernel_extension {
 public:
  void on_cycle_begin(sysc::sc_simcontext&) override {
    const Clock::time_point now = Clock::now();
    if (in_run_) between_s += seconds_between(last_end_, now);
    begin_ = now;
  }
  void on_cycle_end(sysc::sc_simcontext&) override {
    const Clock::time_point now = Clock::now();
    cycle_s += seconds_between(begin_, now);
    last_end_ = now;
    in_run_ = true;
  }
  bool on_starvation(sysc::sc_simcontext&) override {
    // Called after the scheme's own starvation hook has returned, so the
    // span since the last cycle end covers its wait.
    ++starvations;
    if (in_run_) starvation_wait_s += seconds_between(last_end_, Clock::now());
    return false;
  }
  void on_run_end(sysc::sc_simcontext&) override { in_run_ = false; }

  double cycle_s = 0.0;
  double between_s = 0.0;
  std::uint64_t starvations = 0;
  double starvation_wait_s = 0.0;

 private:
  Clock::time_point begin_{};
  Clock::time_point last_end_{};
  bool in_run_ = false;
};

/// Counts transfers on the SystemC-side endpoint and times each span from a
/// Tx to the next Rx (transport + RSP stub / driver + ISS on the far side).
class WireTap : public ipc::WireObserver {
 public:
  void on_wire(ipc::CaptureDir dir, std::span<const std::uint8_t> bytes) override {
    if (!armed.load(std::memory_order_relaxed)) return;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    if (dir == ipc::CaptureDir::Tx) {
      ++tx_transfers;
      tx_bytes += bytes.size();
      if (!pending_) {
        pending_ = true;
        tx_at_ = now;
      }
    } else {
      ++rx_transfers;
      rx_bytes += bytes.size();
      if (pending_) {
        pending_ = false;
        const double wait = seconds_between(tx_at_, now);
        wait_s += wait;
        wait_us.push_back(static_cast<float>(wait * 1e6));
      }
    }
  }

  /// Read only after disarming and once the session is shut down.
  std::atomic<bool> armed{false};
  std::uint64_t tx_transfers = 0;
  std::uint64_t rx_transfers = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  double wait_s = 0.0;
  std::vector<float> wait_us;

 private:
  std::mutex mu_;
  bool pending_ = false;
  Clock::time_point tx_at_{};
};

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long vol_ctxsw = 0;
  long invol_ctxsw = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
  u.vol_ctxsw = ru.ru_nvcsw;
  u.invol_ctxsw = ru.ru_nivcsw;
  return u;
}

/// This process's resident-set high-water mark. Read from /proc rather than
/// getrusage: after fork+exec, ru_maxrss also reflects the parent's RSS.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

/// Host CPU time so far, all CPUs, and the part of it the hypervisor stole
/// from this VM (the first line of /proc/stat, in clock ticks). Zeros when
/// the file is unreadable.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

/// Share of host CPU time stolen between two readings (0 when unknown).
double steal_share(const HostTicks& before, const HostTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

HostTicks host_ticks_now() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  HostTicks t;
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

std::map<std::string, std::uint64_t> counters_now() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : obs::MetricsRegistry::instance().snapshot().counters) {
    out[name] = value;
  }
  return out;
}

/// Bucket counts of one registry histogram (empty when not registered).
std::vector<std::uint64_t> histogram_now(const std::string& name,
                                         std::vector<std::uint64_t>* bounds) {
  for (auto& h : obs::MetricsRegistry::instance().snapshot().histograms) {
    if (h.name == name) {
      *bounds = h.bounds;
      return h.buckets;
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Host-speed probe

volatile std::uint64_t probe_sink = 0;

/// Arithmetic and loads and stores over a 64 KB table, as an interpreter does.
double probe_compute_s() {
  std::vector<std::uint32_t> table(16384, 1);
  const Clock::time_point t0 = Clock::now();
  std::uint32_t x = 2463534242u;
  std::uint64_t acc = 0;
  for (int i = 0; i < 3000000; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    acc += table[x & 16383];
    table[(x >> 7) & 16383] += static_cast<std::uint32_t>(acc);
  }
  probe_sink = acc;
  return seconds_between(t0, Clock::now());
}

/// Many small allocations of mixed sizes, as model and guest set-up make.
double probe_alloc_s() {
  const Clock::time_point t0 = Clock::now();
  std::map<int, std::string> strings;
  std::vector<std::unique_ptr<char[]>> blocks;
  for (int i = 0; i < 4000; ++i) {
    strings[(i * 7919) % 10007] = std::string(16 + i % 200, 'x');
    blocks.emplace_back(new char[64 + (i % 50) * 64]);
  }
  probe_sink = strings.size() + blocks.size();
  return seconds_between(t0, Clock::now());
}

constexpr int kProbeRoundTrips = 400;

/// Round trips between two threads through a mutex and condition variable,
/// as sysc thread processes hand off.
double probe_cv_handoff_s() {
  std::mutex mu;
  std::condition_variable cv;
  bool peer_turn = false;
  std::thread peer([&] {
    for (int i = 0; i < kProbeRoundTrips; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return peer_turn; });
      peer_turn = false;
      cv.notify_one();
    }
  });
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kProbeRoundTrips; ++i) {
    std::unique_lock<std::mutex> lock(mu);
    peer_turn = true;
    cv.notify_one();
    cv.wait(lock, [&] { return !peer_turn; });
  }
  const double s = seconds_between(t0, Clock::now());
  peer.join();
  return s;
}

/// Round trips between two threads through an AF_UNIX socketpair, as the
/// ipc transport makes.
double probe_socket_handoff_s() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("host probe: socketpair failed");
  }
  std::thread peer([&] {
    char byte = 0;
    for (int i = 0; i < kProbeRoundTrips; ++i) {
      if (::read(fds[1], &byte, 1) != 1 || ::write(fds[1], &byte, 1) != 1) break;
    }
  });
  char byte = 'p';
  bool ok = true;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kProbeRoundTrips && ok; ++i) {
    ok = ::write(fds[0], &byte, 1) == 1 && ::read(fds[0], &byte, 1) == 1;
  }
  const double s = seconds_between(t0, Clock::now());
  ::shutdown(fds[0], SHUT_RDWR);  // unblocks the peer if a round trip failed
  peer.join();
  ::close(fds[0]);
  ::close(fds[1]);
  if (!ok) throw std::runtime_error("host probe: socketpair round trip failed");
  return s;
}

/// Host time of a fixed piece of work that calls no code of the program. Its
/// four parts stand for the kinds of host work the co-simulation does, and
/// together they slow down about as much as the co-simulation does when the
/// host's load changes. run.py expresses host times in reference seconds
/// with it (README.md, "Reference seconds").
double host_probe_s() {
  return probe_compute_s() + probe_alloc_s() + probe_cv_handoff_s() + probe_socket_handoff_s();
}

// ---------------------------------------------------------------------------
// One instance: set up, run the timed phase, check, tear down.

struct Instance {
  bool traced = false;
  double setup_s = 0.0;
  double phase_s = 0.0;  ///< host wall of the timed phase
  double sim_us = 0.0;   ///< simulated time advanced in the timed phase
  Usage usage;           ///< getrusage delta over the timed phase
  double steal_share = 0.0;  ///< share of host CPU time stolen during the timed phase
  router::TestbenchReport report;
  std::uint64_t rsp_transactions = 0;  ///< delta over the timed phase
  sysc::kernel_stats kernel;  ///< delta over the timed phase
  std::int64_t unaccounted = 0;
  bool conservation_ok = false;
  bool settled = false;  ///< every produced packet received or dropped
  bool cosim_error = false;
  bool degraded = false;
  std::uint64_t faults_injected = 0;
  std::map<std::string, std::uint64_t> counters;  ///< registry deltas
  std::vector<std::uint64_t> gdbk_roundtrip_buckets;
  std::vector<std::uint64_t> gdbk_roundtrip_bounds;
  CycleProbe probe;
  std::shared_ptr<WireTap> tap;
  std::vector<double> windows_ms;
};

sysc::kernel_stats minus(const sysc::kernel_stats& a, const sysc::kernel_stats& b) {
  sysc::kernel_stats d;
  d.delta_cycles = a.delta_cycles - b.delta_cycles;
  d.process_dispatches = a.process_dispatches - b.process_dispatches;
  d.channel_updates = a.channel_updates - b.channel_updates;
  d.timed_advances = a.timed_advances - b.timed_advances;
  return d;
}

bool all_settled(router::Testbench& bench) {
  for (const router::Producer* p : bench.producers()) {
    if (!p->stats().done) return false;
  }
  const router::TestbenchReport r = bench.report();
  return r.received + r.dropped_input + r.dropped_no_route + r.dropped_output == r.produced;
}

/// Packet conservation from the public stats: every produced packet was
/// dropped at the input, is queued in a FIFO, is inside the router (at most
/// one per CPU), or was forwarded and then received or still queued.
void check_conservation(router::Testbench& bench, int num_cpus, Instance& inst) {
  const router::TestbenchReport& r = inst.report;
  router::Router& router = bench.router();
  std::uint64_t queued_in = 0;
  std::uint64_t queued_out = 0;
  for (int port = 0; port < router::kNumPorts; ++port) {
    queued_in += router.input(port).num_available();
    queued_out += router.output(port).num_available();
  }
  const router::RouterStats& rs = router.stats();
  const std::int64_t settled_in_router =
      static_cast<std::int64_t>(rs.forwarded + rs.dropped_no_route + rs.dropped_output_full);
  const std::int64_t in_process = static_cast<std::int64_t>(rs.accepted) - settled_in_router;
  // Each identity's mismatch is a packet nobody can account for.
  const auto gap = [](std::uint64_t lhs, std::uint64_t rhs) {
    return std::llabs(static_cast<long long>(lhs) - static_cast<long long>(rhs));
  };
  std::int64_t missing = 0;
  missing += gap(r.produced, r.accepted + r.dropped_input);
  missing += gap(r.accepted, queued_in + rs.accepted);
  missing += gap(rs.forwarded, r.received + queued_out);
  if (in_process < 0) missing += -in_process;
  if (in_process > num_cpus) missing += in_process - num_cpus;
  inst.unaccounted = missing;
  inst.conservation_ok = missing == 0;
}

void run_instance(const Workload& w, bool traced, bool fault, Instance& inst) {
  router::TestbenchConfig config = w.config;
  inst.traced = traced;
  if (traced) {
    inst.tap = std::make_shared<WireTap>();
    config.wire_observer = inst.tap;
  }
  if (fault) {
    // Negative control: cut the target-side wire after a few transfers.
    config.fault_plan.disconnect_send(3, 2);
    config.reply_timeout_ms = 500;
    config.io_timeout_ms = 1000;
    config.pay_timeout_ms = 300;
  }

  const Clock::time_point t0 = Clock::now();
  router::Testbench bench(config);
  inst.setup_s = seconds_between(t0, Clock::now());
  if (traced) bench.context().register_extension(&inst.probe);

  const sysc::kernel_stats k0 = bench.context().stats();
  const std::uint64_t rsp0 = bench.report().rsp_transactions;
  const std::uint64_t sim0 = bench.context().time_stamp().ps();
  std::vector<std::uint64_t> rt_bounds;
  const std::vector<std::uint64_t> rt0 = histogram_now("cosim.gdbk.roundtrip_us", &rt_bounds);
  const std::map<std::string, std::uint64_t> c0 = counters_now();
  if (inst.tap) inst.tap->armed.store(true);
  const Usage u0 = usage_now();
  const HostTicks h0 = host_ticks_now();
  const Clock::time_point p0 = Clock::now();

  const std::uint64_t end_ps = sim0 + w.duration.ps();
  while (bench.context().time_stamp().ps() < end_ps) {
    const Clock::time_point s = Clock::now();
    bench.run_for(w.window);
    inst.windows_ms.push_back(seconds_between(s, Clock::now()) * 1e3);
    if (w.drain && all_settled(bench)) break;
    if (bench.cosim_error()) break;
  }

  const Clock::time_point p1 = Clock::now();
  const HostTicks h1 = host_ticks_now();
  const Usage u1 = usage_now();
  if (inst.tap) inst.tap->armed.store(false);
  const std::map<std::string, std::uint64_t> c1 = counters_now();
  const std::vector<std::uint64_t> rt1 = histogram_now("cosim.gdbk.roundtrip_us", &rt_bounds);
  inst.kernel = minus(bench.context().stats(), k0);
  inst.sim_us = static_cast<double>(bench.context().time_stamp().ps() - sim0) / 1e6;
  inst.phase_s = seconds_between(p0, p1);
  inst.steal_share = steal_share(h0, h1);
  inst.usage = {u1.user_s - u0.user_s, u1.sys_s - u0.sys_s, u1.vol_ctxsw - u0.vol_ctxsw,
                u1.invol_ctxsw - u0.invol_ctxsw};
  for (const auto& [name, value] : c1) {
    const auto it = c0.find(name);
    inst.counters[name] = value - (it == c0.end() ? 0 : it->second);
  }
  inst.gdbk_roundtrip_bounds = rt_bounds;
  inst.gdbk_roundtrip_buckets = rt1;
  for (std::size_t i = 0; i < rt0.size() && i < rt1.size(); ++i) {
    inst.gdbk_roundtrip_buckets[i] -= rt0[i];
  }

  inst.report = bench.report();
  inst.settled = all_settled(bench);
  inst.rsp_transactions = inst.report.rsp_transactions - rsp0;
  check_conservation(bench, config.num_cpus, inst);
  inst.cosim_error = bench.cosim_error().has_value();
  inst.degraded = bench.degraded();
  inst.faults_injected = bench.faults_injected();
  if (traced) bench.context().unregister_extension(&inst.probe);
  bench.shutdown();
}

void warm_up(const Workload& w) {
  router::Testbench bench(w.config);
  bench.shutdown();
}

// ---------------------------------------------------------------------------
// Output

/// Minimal JSON writer for the one record this program prints.
class Json {
 public:
  Json& key(const std::string& k) {
    comma();
    os_ << '"' << k << "\":";
    need_comma_ = false;
    return *this;
  }
  Json& num(double v) {
    comma();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os_ << buf;
    need_comma_ = true;
    return *this;
  }
  Json& u64(std::uint64_t v) {
    comma();
    os_ << v;
    need_comma_ = true;
    return *this;
  }
  Json& i64(std::int64_t v) {
    comma();
    os_ << v;
    need_comma_ = true;
    return *this;
  }
  Json& boolean(bool v) {
    comma();
    os_ << (v ? "true" : "false");
    need_comma_ = true;
    return *this;
  }
  Json& str(const std::string& v) {
    comma();
    os_ << '"' << v << '"';
    need_comma_ = true;
    return *this;
  }
  Json& open(char c) {
    comma();
    os_ << c;
    need_comma_ = false;
    return *this;
  }
  Json& close(char c) {
    os_ << c;
    need_comma_ = true;
    return *this;
  }
  std::string text() const { return os_.str(); }

 private:
  void comma() {
    if (need_comma_) os_ << ',';
  }
  std::ostringstream os_;
  bool need_comma_ = false;
};

double percentile(std::vector<float> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(v.size() - 1, static_cast<std::size_t>(q * v.size()));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

void write_instance(Json& j, const Instance& inst) {
  const router::TestbenchReport& r = inst.report;
  j.open('{');
  j.key("traced").boolean(inst.traced);
  j.key("setup_s").num(inst.setup_s);
  j.key("phase_s").num(inst.phase_s);
  j.key("sim_us").num(inst.sim_us);
  j.key("steal_share").num(inst.steal_share);
  j.key("user_s").num(inst.usage.user_s);
  j.key("sys_s").num(inst.usage.sys_s);
  j.key("vol_ctxsw").i64(inst.usage.vol_ctxsw);
  j.key("invol_ctxsw").i64(inst.usage.invol_ctxsw);
  j.key("produced").u64(r.produced);
  j.key("forwarded").u64(r.forwarded);
  j.key("received").u64(r.received);
  j.key("checksum_bad").u64(r.checksum_bad);
  j.key("dropped_input").u64(r.dropped_input);
  j.key("dropped_no_route").u64(r.dropped_no_route);
  j.key("dropped_output").u64(r.dropped_output);
  j.key("forwarded_pct").num(r.forwarded_pct);
  j.key("unaccounted").i64(inst.unaccounted);
  j.key("conservation_ok").boolean(inst.conservation_ok);
  j.key("settled").boolean(inst.settled);
  j.key("cosim_error").boolean(inst.cosim_error);
  j.key("degraded").boolean(inst.degraded);
  j.key("faults_injected").u64(inst.faults_injected);
  j.key("rsp_transactions").u64(inst.rsp_transactions);
  j.key("delta_cycles").u64(inst.kernel.delta_cycles);
  j.key("process_dispatches").u64(inst.kernel.process_dispatches);
  j.key("channel_updates").u64(inst.kernel.channel_updates);
  j.key("timed_advances").u64(inst.kernel.timed_advances);
  if (!inst.traced) {
    j.key("windows_ms").open('[');
    for (double ms : inst.windows_ms) j.num(ms);
    j.close(']');
  }
  j.key("counters").open('{');
  for (const auto& [name, value] : inst.counters) {
    if (value != 0) j.key(name).u64(value);
  }
  j.close('}');
  if (inst.traced) {
    j.key("cycle_s").num(inst.probe.cycle_s);
    j.key("between_s").num(inst.probe.between_s);
    j.key("starvations").u64(inst.probe.starvations);
    j.key("starvation_wait_s").num(inst.probe.starvation_wait_s);
    j.key("tx_transfers").u64(inst.tap->tx_transfers);
    j.key("rx_transfers").u64(inst.tap->rx_transfers);
    j.key("tx_bytes").u64(inst.tap->tx_bytes);
    j.key("rx_bytes").u64(inst.tap->rx_bytes);
    j.key("wait_s").num(inst.tap->wait_s);
    j.key("gdbk_roundtrip_bounds").open('[');
    for (std::uint64_t b : inst.gdbk_roundtrip_bounds) j.u64(b);
    j.close(']');
    j.key("gdbk_roundtrip_buckets").open('[');
    for (std::uint64_t b : inst.gdbk_roundtrip_buckets) j.u64(b);
    j.close(']');
  }
  j.close('}');
}

/// `--probe N`: one warm-up and N timed host probes, each with the share of
/// host CPU time stolen while it ran. They run in a process of their own so
/// that they neither see anything the program leaves behind nor raise a
/// harness process's peak RSS.
int run_probes(int runs) {
  Json j;
  j.open('{');
  j.key("probes").open('[');
  for (int i = 0; i <= runs; ++i) {
    const HostTicks h0 = host_ticks_now();
    const double s = host_probe_s();
    const HostTicks h1 = host_ticks_now();
    if (i == 0) continue;
    j.open('{');
    j.key("probe_s").num(s);
    j.key("steal_share").num(steal_share(h0, h1));
    j.close('}');
  }
  j.close(']');
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

int usage_error(const char* msg) {
  std::fprintf(stderr, "cosim_bench: %s\n", msg);
  std::fprintf(stderr,
               "usage: cosim_bench --workload lockstep|breakpoint|driver|os-bound --seed N "
               "--seconds S --trace 0|1 [--quick] [--fault]\n"
               "       cosim_bench --probe N\n");
  return 2;
}

}  // namespace

int run(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool quick = false;
  bool fault = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--fault") {
      fault = true;
    } else if (arg == "--probe" && has_value) {
      const int runs = std::atoi(argv[++i]);
      if (runs < 1) return usage_error("--probe needs a positive count");
      return run_probes(runs);
    } else {
      return usage_error(("unknown argument " + arg).c_str());
    }
  }
  std::optional<Workload> workload = make_workload(workload_name, quick);
  if (!workload) return usage_error("unknown or missing --workload");
  if (!have_seed) return usage_error("missing --seed");
  if (!(seconds > 0.0)) return usage_error("--seconds must be positive");
  if (trace != 0 && trace != 1) return usage_error("--trace must be 0 or 1");
  if (obs::tracing_enabled()) return usage_error("the obs tracer must stay off");
  workload->config.seed = seed;

  // The first set-ups of a process are slower (cold allocator and page
  // cache). A few untimed ones warm it up before the first instance.
  const int warmups = quick ? 0 : 3;
  for (int i = 0; i < warmups; ++i) warm_up(*workload);

  // Instances repeat until the run's host time is used up. A traced run
  // alternates untraced and traced instances so it can report the probes'
  // own overhead.
  std::vector<std::unique_ptr<Instance>> instances;
  const Clock::time_point start = Clock::now();
  double used = 0.0;
  do {
    const bool traced = trace == 1 && instances.size() % 2 == 1;
    auto inst = std::make_unique<Instance>();
    run_instance(*workload, traced, fault, *inst);
    instances.push_back(std::move(inst));
    used = seconds_between(start, Clock::now());
    if (fault) break;
  } while (used < seconds || (trace == 1 && instances.size() < 2));

  Json j;
  j.open('{');
  j.key("workload").str(workload->name);
  j.key("scheme").str(router::scheme_name(workload->config.scheme));
  j.key("seed").u64(seed);
  j.key("trace").u64(static_cast<std::uint64_t>(trace));
  j.key("window_us").num(static_cast<double>(workload->window.ps()) / 1e6);
  j.key("instance_sim_us").num(static_cast<double>(workload->duration.ps()) / 1e6);
  j.key("drain").boolean(workload->drain);
  j.key("num_cpus").u64(static_cast<std::uint64_t>(workload->config.num_cpus));
  j.key("peak_rss_kb").u64(peak_rss_kb());
  std::vector<float> waits;
  for (const auto& inst : instances) {
    if (inst->tap) waits.insert(waits.end(), inst->tap->wait_us.begin(), inst->tap->wait_us.end());
  }
  j.key("wait_samples").u64(waits.size());
  j.key("wait_us_p50").num(percentile(waits, 0.50));
  j.key("wait_us_p99").num(percentile(waits, 0.99));
  j.key("instances").open('[');
  for (const auto& inst : instances) write_instance(j, *inst);
  j.close(']');
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cosim_bench: %s\n", e.what());
    return 1;
  }
}
