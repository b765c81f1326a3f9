// Cross-process observability end-to-end (DESIGN.md §10.5-10.6): a real
// supervised session with tracing + the obs side-band on, checked two ways:
//  * the happy path — the merged Chrome trace the supervisor writes after a
//    clean run correlates supervisor device spans with worker ecall spans
//    (flow arrows across pids, clock-rebased timestamps, sim_ps stamps);
//  * the crash path — a SIGKILL mid-run leaves a complete flight-recorder
//    bundle (merged trace, both metrics dumps, wire capture, checkpoint
//    describe + bytes, findings, manifest) before the worker respawns.
//
// Like the crash matrix, this forks the real cosim_issworker binary, so the
// suite runs RUN_SERIAL with a generous timeout.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "analysis/diag.hpp"
#include "analysis/protocol.hpp"
#include "cosim/checkpoint.hpp"
#include "cosim/supervisor.hpp"
#include "cosim/worker.hpp"
#include "iss/cpu.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace nisc::cosim {
namespace {

// Same interaction mix as the crash matrix: device writes, synchronous
// reads, periodic interrupts — every path that emits correlated spans.
constexpr const char* kGuestSource = R"(
_start:
    li   s0, 0
    li   s1, 40
loop:
    slli a0, s0, 2
    addi a1, a0, 7
    addi a0, a0, 0x200
    li   a7, 1
    ecall
    andi t1, s0, 3
    bnez t1, no_irq
    li   a0, 0x100
    andi a1, s0, 31
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

SupervisorConfig obs_config(const std::string& label) {
  SupervisorConfig config;
  config.worker_path = NISC_WORKER_BIN;
  config.worker.guest_source = kGuestSource;
  config.worker.mem_size = 1 << 16;
  config.worker.ckpt_every = 64;
  config.worker.trace = true;
  config.obs_export = true;
  config.session_label = label;
  config.hang_timeout_ms = 5000;
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class PostmortemTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::clear_trace(); }
  void TearDown() override {
    obs::disable_tracing();
    obs::clear_trace();
  }
};

TEST_F(PostmortemTest, MergedTraceCorrelatesWorkerAndSupervisor) {
  obs::enable_tracing();
  const std::string out = ::testing::TempDir() + "pm-merged.json";
  SupervisorConfig config = obs_config("pmtest");
  config.trace_out = out;
  Supervisor supervisor(std::move(config));
  const SupervisorOutcome outcome = supervisor.run();
  obs::disable_tracing();

  EXPECT_EQ(outcome.guest_halt, static_cast<std::uint8_t>(iss::Halt::Ecall));
  EXPECT_EQ(outcome.recoveries, 0);
  // The final pre-Done pull populated the worker-side exports.
  EXPECT_FALSE(outcome.worker_trace.threads.empty());
  const util::JsonValue wm = util::parse_json(outcome.worker_metrics_json);
  EXPECT_EQ(wm.at("schema").as_int(), 1);
  // Steady clocks of two processes on one host: the measured offset is
  // microseconds-ish, never minutes. 10s is a generous sanity bound.
  EXPECT_LT(std::llabs(static_cast<long long>(outcome.clock_offset_ns)), 10'000'000'000LL);

  const util::JsonValue doc = util::parse_json(slurp(out));
  const util::JsonArray& events = doc.at("traceEvents").as_array();

  std::map<std::string, unsigned> process_names;
  std::map<std::string, std::set<unsigned>> flow_pids;   // flow id -> pids seen
  std::map<std::string, std::set<std::string>> flow_phases;
  int worker_spans = 0, sup_spans = 0;
  for (const util::JsonValue& e : events) {
    const std::string& ph = e.at("ph").as_string();
    const unsigned pid = static_cast<unsigned>(e.at("pid").as_uint());
    if (ph == "M" && e.at("name").as_string() == "process_name") {
      process_names[e.at("args").at("name").as_string()] = pid;
    }
    if (ph == "s" || ph == "t" || ph == "f") {
      flow_pids[e.at("id").as_string()].insert(pid);
      flow_phases[e.at("id").as_string()].insert(ph);
    }
    if (ph == "B" && e.at("name").as_string() == "worker.ecall.dev_write") {
      ++worker_spans;
      // S2: the worker run loop publishes cycles * clock_period_ps, so its
      // spans carry simulated time.
      EXPECT_NE(e.at("args").find("sim_ps"), nullptr);
    }
    if (ph == "B" && e.at("name").as_string() == "sup.dev_write") ++sup_spans;
  }
  ASSERT_EQ(process_names.size(), 2u);
  ASSERT_NE(process_names.find("pmtest/supervisor"), process_names.end());
  ASSERT_NE(process_names.find("pmtest/worker"), process_names.end());
  EXPECT_NE(process_names["pmtest/supervisor"], process_names["pmtest/worker"]);
  EXPECT_EQ(worker_spans, 40 + 10);  // data writes + irq triggers
  EXPECT_EQ(sup_spans, 40 + 10);

  // Correlation: flows that both start ('s', worker) and finish ('f',
  // supervisor) span the two pids — the Perfetto arrows.
  int cross_process_flows = 0;
  for (const auto& [id, pids] : flow_pids) {
    if (pids.size() < 2) continue;
    const std::set<std::string>& phases = flow_phases[id];
    if (phases.count("s") && phases.count("f")) ++cross_process_flows;
  }
  EXPECT_GE(cross_process_flows, 40);
}

TEST_F(PostmortemTest, SigkillMidRunWritesPostmortemBundle) {
  obs::enable_tracing();
  const std::string pm_dir = ::testing::TempDir() + "pm-bundles";
  // A quote and a backslash in the label: MANIFEST.json must escape them.
  // (No '/': the label also names the bundle directory.)
  const std::string label = "we\"ird\\label";
  SupervisorConfig config = obs_config(label);
  config.postmortem_dir = pm_dir;
  // Kill past the second checkpoint (ckpt_every=64) so at least one
  // ObsReport pull has landed before the crash: the bundle then carries
  // real worker-side trace data, not just supervisor state.
  config.fault_plan = {{FaultKind::CrashAt, 150}};
  Supervisor supervisor(std::move(config));
  const SupervisorOutcome outcome = supervisor.run();
  obs::disable_tracing();

  EXPECT_EQ(outcome.recoveries, 1);
  EXPECT_EQ(outcome.guest_halt, static_cast<std::uint8_t>(iss::Halt::Ecall));
  ASSERT_EQ(outcome.postmortem_paths.size(), 1u);
  const std::string& bundle = outcome.postmortem_paths[0];
  EXPECT_NE(bundle.find(label + "-pm1"), std::string::npos);

  // Every bundle file exists and the structured ones parse.
  const util::JsonValue trace = util::parse_json(slurp(bundle + "/trace.json"));
  EXPECT_FALSE(trace.at("traceEvents").as_array().empty());
  const util::JsonValue metrics = util::parse_json(slurp(bundle + "/metrics.json"));
  EXPECT_EQ(metrics.at("schema").as_int(), 1);
  util::parse_json(slurp(bundle + "/worker_metrics.json"));  // "{}" before first pull is fine
  EXPECT_FALSE(slurp(bundle + "/wire.capture").empty());
  EXPECT_FALSE(slurp(bundle + "/checkpoint.txt").empty());
  // A checkpoint existed at kill time (instret 150 > ckpt_every 64), so its
  // bytes are in the bundle and decode.
  const std::string ckpt_bytes = slurp(bundle + "/checkpoint.ckpt");
  ASSERT_FALSE(ckpt_bytes.empty());
  const Checkpoint decoded = decode_checkpoint(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(ckpt_bytes.data()), ckpt_bytes.size()));
  EXPECT_TRUE(decoded.iss.has_value());

  // A SIGKILL races its own detection: the supervisor may reap the child
  // first (death) or hit EOF on the socket first (protocol error). Either
  // classification is correct; both must leave the bundle.
  const std::string findings = slurp(bundle + "/findings.txt");
  EXPECT_NE(findings.find("reason: sup.recover."), std::string::npos);

  const util::JsonValue manifest = util::parse_json(slurp(bundle + "/MANIFEST.json"));
  EXPECT_EQ(manifest.at("schema").as_int(), 1);
  EXPECT_EQ(manifest.at("session").as_string(), label);
  const std::string& reason = manifest.at("reason").as_string();
  EXPECT_TRUE(reason == "sup.recover.death" || reason == "sup.recover.protocol") << reason;
  std::set<std::string> listed;
  for (const util::JsonValue& f : manifest.at("files").as_array()) {
    listed.insert(f.as_string());
  }
  for (const char* name : {"trace.json", "metrics.json", "worker_metrics.json", "wire.capture",
                           "checkpoint.txt", "checkpoint.ckpt", "findings.txt"}) {
    EXPECT_TRUE(listed.count(name)) << name << " missing from MANIFEST";
  }

  // The flight recorder must not perturb crash consistency: the recovered
  // run still reaches a clean halt with the control counters.
  EXPECT_EQ(outcome.writes_applied, 40u + 10u);
  EXPECT_EQ(outcome.reads_served, 40u);
  EXPECT_EQ(outcome.irqs_sent, 10u);
}

TEST_F(PostmortemTest, FindingsHookOutputLandsInTheBundle) {
  obs::enable_tracing();
  SupervisorConfig config = obs_config("pmhook");
  config.postmortem_dir = ::testing::TempDir() + "pm-hook";
  config.fault_plan = {{FaultKind::CrashAt, 100}};
  bool hook_ran = false;
  config.findings_hook = [&hook_ran](std::span<const std::uint8_t> dump) {
    hook_ran = true;
    return "hook saw " + std::to_string(dump.size()) + " capture bytes\n";
  };
  Supervisor supervisor(std::move(config));
  const SupervisorOutcome outcome = supervisor.run();
  obs::disable_tracing();

  ASSERT_EQ(outcome.postmortem_paths.size(), 1u);
  const std::string findings = slurp(outcome.postmortem_paths[0] + "/findings.txt");
  EXPECT_TRUE(hook_ran);
  EXPECT_NE(findings.find("hook saw "), std::string::npos);
}

TEST_F(PostmortemTest, WorkerCaptureFindingsHaveNoFalsePositives) {
  // Regression: the bundle's findings.txt used to run the Driver-Kernel
  // frame validator over the worker-wire capture, flagging every frame as
  // undecodable (NL402) — FTID trace trailers included. Replaying the dump
  // through the Worker model must produce no undecodable-frame or
  // impossible-message findings on a real traced session.
  obs::enable_tracing();
  SupervisorConfig config = obs_config("pmlint");
  config.postmortem_dir = ::testing::TempDir() + "pm-lint";
  // Kill early so the 32-transfer capture ring still holds the whole epoch
  // from Hello: the replay then starts at the model's initial state.
  config.fault_plan = {{FaultKind::CrashAt, 20}};
  config.findings_hook = [](std::span<const std::uint8_t> dump) {
    analysis::DiagEngine diags;
    analysis::check_capture(dump, analysis::make_model(analysis::ModelId::Worker), diags,
                            "wire.capture");
    return analysis::render_text(diags);
  };
  Supervisor supervisor(std::move(config));
  const SupervisorOutcome outcome = supervisor.run();
  obs::disable_tracing();

  ASSERT_EQ(outcome.postmortem_paths.size(), 1u);
  const std::string findings = slurp(outcome.postmortem_paths[0] + "/findings.txt");
  EXPECT_NE(findings.find("conformance:"), std::string::npos) << findings;
  EXPECT_EQ(findings.find("undecodable"), std::string::npos) << findings;
  EXPECT_EQ(findings.find("NL401"), std::string::npos) << findings;
}

TEST_F(PostmortemTest, ObsSidebandPreservesBitIdenticalRecovery) {
  // The whole side-band (trace trailers, clock syncs, obs pulls, postmortem
  // capture) rides on seq-0 frames outside the crash-consistency
  // bookkeeping. A killed run with everything enabled must still produce
  // the same final checkpoint as an uninterrupted observed run.
  obs::enable_tracing();
  Supervisor control_sup(obs_config("pmbit"));
  const SupervisorOutcome control = control_sup.run();

  SupervisorConfig config = obs_config("pmbit");
  config.postmortem_dir = ::testing::TempDir() + "pm-bit";
  config.fault_plan = {{FaultKind::CrashAt, 200}};
  Supervisor killed_sup(std::move(config));
  const SupervisorOutcome killed = killed_sup.run();
  obs::disable_tracing();

  EXPECT_EQ(killed.recoveries, 1);
  EXPECT_EQ(killed.final_checkpoint, control.final_checkpoint)
      << "observability side-band perturbed the recovered checkpoint";
}

}  // namespace
}  // namespace nisc::cosim
