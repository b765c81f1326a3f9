// cosim_trace: cross-process Chrome-trace plumbing (DESIGN.md §10.5).
//
//   cosim_trace merge --out OUT.json IN.json[:LABEL[:OFFSET_NS]]...
//       Merges N per-process Chrome trace dumps into one Perfetto-loadable
//       file: input K becomes pid K+1 with LABEL as its process_name, and
//       every timestamp is shifted by OFFSET_NS (the clock offset the
//       supervisor measured for that process) so all tracks share one
//       timeline.
//
//   cosim_trace demo --worker PATH [--out-dir DIR]
//       Runs a quick supervisor+worker session with tracing and the obs
//       side-band enabled, then writes sup.json / worker.json (per-process
//       dumps), merged.json (the supervisor's native merge) and
//       merged_from_files.json (the same merge reproduced through the merge
//       subcommand's code path). The CI perf-smoke job uploads the result.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/diag.hpp"
#include "analysis/protocol.hpp"
#include "cosim/supervisor.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

using nisc::util::JsonValue;
using nisc::util::JsonWriter;

namespace {

int fail_usage() {
  std::fprintf(stderr,
               "usage: cosim_trace merge --out OUT.json IN.json[:LABEL[:OFFSET_NS]]...\n"
               "       cosim_trace demo --worker PATH [--out-dir DIR]\n");
  return 2;
}

// -- merge ------------------------------------------------------------------

struct MergeInput {
  std::string path;
  std::string label;          ///< empty = keep the file's own process_name
  long long offset_ns = 0;
};

/// Parses "PATH[:LABEL[:OFFSET_NS]]". PATHs containing ':' need the long
/// form with an explicit label.
MergeInput parse_merge_input(const std::string& spec) {
  MergeInput input;
  const std::size_t first = spec.find(':');
  if (first == std::string::npos) {
    input.path = spec;
    return input;
  }
  input.path = spec.substr(0, first);
  const std::size_t second = spec.find(':', first + 1);
  if (second == std::string::npos) {
    input.label = spec.substr(first + 1);
  } else {
    input.label = spec.substr(first + 1, second - first - 1);
    input.offset_ns = std::atoll(spec.c_str() + second + 1);
  }
  return input;
}

void emit_event(JsonWriter& w, const JsonValue& event, unsigned pid, double offset_us) {
  w.begin_object();
  bool wrote_pid = false;
  for (const auto& [key, value] : event.as_object()) {
    w.key(key);
    if (key == "pid") {
      w.value(pid);
      wrote_pid = true;
    } else if (key == "ts" && value.is_number() && std::isfinite(value.as_double())) {
      // Chrome ts: microseconds, fixed at three decimals (nanoseconds); a
      // value too long for that keeps its shortest round-trip spelling.
      double ts = value.as_double() + offset_us;
      if (ts < 0) ts = 0;
      char buf[32];
      const auto r = std::to_chars(buf, buf + sizeof buf, ts, std::chars_format::fixed, 3);
      if (r.ec == std::errc()) {
        w.raw(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
      } else {
        w.value(ts);
      }
    } else {
      w.value(value);
    }
  }
  if (!wrote_pid) w.key("pid").value(pid);
  w.end_object();
}

int merge(const std::string& out_path, const std::vector<MergeInput>& inputs) {
  JsonWriter w;
  w.begin_object().key("displayTimeUnit").value("ns").key("traceEvents").begin_array();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const MergeInput& input = inputs[i];
    const unsigned pid = static_cast<unsigned>(i) + 1;
    const double offset_us = static_cast<double>(input.offset_ns) / 1000.0;
    const JsonValue doc = nisc::util::parse_json_file(input.path);
    const JsonValue* events = doc.find("traceEvents");
    if (events == nullptr || !events->is_array()) {
      std::fprintf(stderr, "cosim_trace: %s: no traceEvents array\n", input.path.c_str());
      return 2;
    }
    if (!input.label.empty()) {
      w.begin_object().key("name").value("process_name").key("ph").value("M");
      w.key("pid").value(pid).key("tid").value(0).key("ts").value(0);
      w.key("args").begin_object().key("name").value(input.label).end_object().end_object();
    }
    for (const JsonValue& event : events->as_array()) {
      if (!event.is_object()) continue;
      // An explicit label replaces whatever process_name the dump carried.
      if (!input.label.empty()) {
        const JsonValue* name = event.find("name");
        const JsonValue* ph = event.find("ph");
        if (name != nullptr && ph != nullptr && ph->is_string() && ph->as_string() == "M" &&
            name->is_string() && name->as_string() == "process_name") {
          continue;
        }
      }
      emit_event(w, event, pid, offset_us);
    }
  }
  w.end_array().end_object();
  std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "cosim_trace: cannot write %s\n", out_path.c_str());
    return 2;
  }
  file << w.str();
  std::printf("cosim_trace: merged %zu trace(s) into %s\n", inputs.size(), out_path.c_str());
  return 0;
}

// -- demo -------------------------------------------------------------------

// A short guest hammering every correlated path: device writes, synchronous
// reads, interrupt raise + drain.
constexpr const char* kDemoGuest = R"(
_start:
    li   s0, 0
    li   s1, 12
loop:
    slli a0, s0, 2
    addi a1, a0, 3
    addi a0, a0, 0x200
    li   a7, 1
    ecall
    andi t1, s0, 3
    bnez t1, no_irq
    li   a0, 0x100
    andi a1, s0, 7
    li   a7, 1
    ecall
no_irq:
    li   a0, 0x104
    li   a7, 2
    ecall
    li   a7, 3
    ecall
    addi s0, s0, 1
    bne  s0, s1, loop
    li   a0, 0
    li   a7, 0
    ecall
)";

int demo(const std::string& worker_path, const std::string& out_dir) {
  namespace cosim = nisc::cosim;
  namespace obs = nisc::obs;
  obs::enable_tracing();

  cosim::SupervisorConfig cfg;
  cfg.worker_path = worker_path;
  cfg.worker.guest_source = kDemoGuest;
  cfg.worker.mem_size = 1 << 16;
  cfg.worker.ckpt_every = 64;
  cfg.worker.trace = true;
  cfg.obs_export = true;
  cfg.session_label = "demo";
  cfg.trace_out = out_dir + "/merged.json";
  // The data socket speaks the Worker wire format, so the capture replay
  // must decode it with the Worker model — running the Driver-Kernel frame
  // validator over it false-positives on every frame.
  cfg.findings_hook = [](std::span<const std::uint8_t> dump) {
    nisc::analysis::DiagEngine diags;
    nisc::analysis::check_capture(
        dump, nisc::analysis::make_model(nisc::analysis::ModelId::Worker, {}), diags,
        "wire.capture");
    return nisc::analysis::render_text(diags);
  };

  cosim::Supervisor supervisor(std::move(cfg));
  const cosim::SupervisorOutcome outcome = supervisor.run();
  obs::disable_tracing();

  // Per-process dumps, then the same merge through the file path.
  obs::write_chrome_trace(out_dir + "/sup.json");
  obs::ProcessTrace worker_trace;
  worker_trace.snapshot = outcome.worker_trace;
  obs::write_chrome_trace(out_dir + "/worker.json", {&worker_trace, 1});

  std::printf("demo session: halt=%u writes=%llu reads=%llu irqs=%llu clock_offset_ns=%lld\n",
              outcome.guest_halt, static_cast<unsigned long long>(outcome.writes_applied),
              static_cast<unsigned long long>(outcome.reads_served),
              static_cast<unsigned long long>(outcome.irqs_sent),
              static_cast<long long>(outcome.clock_offset_ns));

  std::vector<MergeInput> inputs;
  inputs.push_back({out_dir + "/sup.json", "demo/supervisor", 0});
  inputs.push_back({out_dir + "/worker.json", "demo/worker",
                    static_cast<long long>(outcome.clock_offset_ns)});
  return merge(out_dir + "/merged_from_files.json", inputs);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return fail_usage();
  const std::string command = argv[1];
  try {
    if (command == "merge") {
      std::string out_path;
      std::vector<MergeInput> inputs;
      for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else if (argv[i][0] == '-') {
          return fail_usage();
        } else {
          inputs.push_back(parse_merge_input(argv[i]));
        }
      }
      if (out_path.empty() || inputs.empty()) return fail_usage();
      return merge(out_path, inputs);
    }
    if (command == "demo") {
      std::string worker_path;
      std::string out_dir = ".";
      for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--worker") == 0 && i + 1 < argc) {
          worker_path = argv[++i];
        } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
          out_dir = argv[++i];
        } else {
          return fail_usage();
        }
      }
      if (worker_path.empty()) return fail_usage();
      return demo(worker_path, out_dir);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cosim_trace: %s\n", e.what());
    return 2;
  }
  return fail_usage();
}
