// Tests for the analysis subsystem: diagnostics engine, delta-cycle race
// detector, elaboration checks, guest-program lint and the IPC frame
// validator — each seeded-defect class must produce its diagnostic, and the
// shipped router example must stay clean (no false positives).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "analysis/absint.hpp"
#include "analysis/callgraph.hpp"
#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/diag.hpp"
#include "analysis/elab.hpp"
#include "analysis/emit_test.hpp"
#include "analysis/explore.hpp"
#include "analysis/flow.hpp"
#include "analysis/frame.hpp"
#include "analysis/lint.hpp"
#include "analysis/race.hpp"
#include "analysis/summary.hpp"
#include "ipc/message.hpp"
#include "iss/assembler.hpp"
#include "iss/cpu.hpp"
#include "iss/tracer.hpp"
#include "router/testbench.hpp"
#include "rtos/rtos.hpp"
#include "sysc/sysc.hpp"
#include "util/json.hpp"

namespace nisc::analysis {
namespace {

using namespace sysc::time_literals;

// ---------------------------------------------------------------- DiagEngine

TEST(DiagEngineTest, CountsAndRendering) {
  DiagEngine diags;
  diags.report(Severity::Error, "test.rule-a", "first", SourceLoc{"f.s", 3, 0});
  diags.report(Severity::Warning, "test.rule-b", "second");
  EXPECT_EQ(diags.errors(), 1u);
  EXPECT_EQ(diags.warnings(), 1u);
  EXPECT_TRUE(diags.has_rule("test.rule-a"));
  EXPECT_FALSE(diags.has_rule("test.rule-c"));

  std::string text = render_text(diags);
  EXPECT_NE(text.find("f.s:3: error: first [test.rule-a]"), std::string::npos);
  EXPECT_NE(text.find("1 error, 1 warning"), std::string::npos);

  std::string json = render_json(diags);
  EXPECT_NE(json.find("\"rule\":\"test.rule-b\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
}

TEST(DiagEngineTest, PerRuleSuppression) {
  DiagEngine diags;
  diags.suppress_rule("test.noisy");
  diags.report(Severity::Error, "test.noisy", "dropped");
  diags.report(Severity::Error, "test.kept", "kept");
  EXPECT_EQ(diags.diagnostics().size(), 1u);
  EXPECT_EQ(diags.suppressed_count(), 1u);
  EXPECT_TRUE(diags.has_rule("test.kept"));
}

TEST(DiagEngineTest, JsonEscaping) {
  EXPECT_EQ(util::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// ---------------------------------------------------------------- race detector

// Seeded defect: two processes write the same signal in one delta cycle.
TEST(RaceDetectorTest, SameDeltaDoubleWriteFlagged) {
  sysc::sc_simcontext ctx;
  DiagEngine diags;
  race_monitor monitor(diags);
  race_monitor::scoped_attach attach(ctx, monitor);

  sysc::sc_signal<int> sig("sig");
  auto& a = ctx.create_method("writer_a", [&] { sig.write(1); });
  auto& b = ctx.create_method("writer_b", [&] { sig.write(2); });
  (void)a;
  (void)b;
  ctx.run(1_ns);  // both run in the initialization delta

  ASSERT_TRUE(diags.has_rule("race.write-write"));
  EXPECT_GE(monitor.total_races(), 1u);
  const Diagnostic& d = diags.diagnostics().front();
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_NE(d.message.find("writer_a"), std::string::npos);
  EXPECT_NE(d.message.find("writer_b"), std::string::npos);
}

TEST(RaceDetectorTest, ReadAfterWriteSameDeltaFlagged) {
  sysc::sc_simcontext ctx;
  DiagEngine diags;
  race_monitor monitor(diags);
  race_monitor::scoped_attach attach(ctx, monitor);

  sysc::sc_signal<int> sig("sig");
  int seen = 0;
  ctx.create_method("writer", [&] { sig.write(7); });
  ctx.create_method("reader", [&] { seen = sig.read(); });
  ctx.run(1_ns);

  EXPECT_TRUE(diags.has_rule("race.read-after-write"));
  EXPECT_EQ(seen, 0);  // deferred update: reader saw the pre-delta value
}

// The handshake idiom — write in delta N, read in delta N+1 via the
// value-changed notification — must stay clean.
TEST(RaceDetectorTest, CrossDeltaHandshakeClean) {
  sysc::sc_simcontext ctx;
  DiagEngine diags;
  race_monitor monitor(diags);
  race_monitor::scoped_attach attach(ctx, monitor);

  sysc::sc_signal<int> sig("sig");
  int seen = 0;
  auto& writer = ctx.create_method("writer", [&] { sig.write(41); });
  (void)writer;
  auto& reader = ctx.create_method("reader", [&] { seen = sig.read(); });
  reader.make_sensitive(sig.value_changed_event());
  reader.dont_initialize();
  ctx.run(1_ns);

  EXPECT_EQ(seen, 41);
  EXPECT_TRUE(diags.empty()) << render_text(diags);
}

TEST(RaceDetectorTest, SameProcessRereadAndTestbenchAccessClean) {
  sysc::sc_simcontext ctx;
  DiagEngine diags;
  race_monitor monitor(diags);
  race_monitor::scoped_attach attach(ctx, monitor);

  sysc::sc_signal<int> sig("sig");
  sig.write(5);  // testbench write, outside any process: deterministic
  ctx.create_method("worker", [&] {
    sig.write(sig.read() + 1);  // same-process read+write is not a race
  });
  ctx.run(1_ns);
  // Both writes shared the init delta; the worker read the pre-delta value
  // (0) and its deferred write committed last.
  EXPECT_EQ(sig.read(), 1);  // testbench read, outside any process
  EXPECT_TRUE(diags.empty()) << render_text(diags);
}

TEST(RaceDetectorTest, RepeatedRaceReportedOnce) {
  sysc::sc_simcontext ctx;
  DiagEngine diags;
  race_monitor monitor(diags);
  race_monitor::scoped_attach attach(ctx, monitor);

  sysc::sc_signal<int> sig("sig");
  sysc::sc_clock clk("clk", 10_ns);
  int value = 0;
  auto& a = ctx.create_method("writer_a", [&] { sig.write(++value); });
  a.make_sensitive(clk.posedge_event());
  a.dont_initialize();
  auto& b = ctx.create_method("writer_b", [&] { sig.write(-value); });
  b.make_sensitive(clk.posedge_event());
  b.dont_initialize();
  ctx.run(1_us);  // 100 racing clock edges

  std::size_t reports = 0;
  for (const Diagnostic& d : diags.diagnostics()) {
    if (d.rule == "race.write-write") ++reports;
  }
  EXPECT_EQ(reports, 1u);                   // deduplicated per (rule, channel)
  EXPECT_GT(monitor.total_races(), 50u);    // but every occurrence is counted
}

// ---------------------------------------------------------------- elaboration

// Seeded defect: an sc_in left unbound.
TEST(ElabCheckTest, UnboundPortFlagged) {
  sysc::sc_simcontext ctx;
  sysc::sc_signal<int> sig("sig");
  sysc::sc_in<int> bound_port("bound");
  bound_port.bind(sig);
  sysc::sc_in<int> loose_in("loose_in");
  sysc::sc_out<int> loose_out("loose_out");

  DiagEngine diags;
  EXPECT_EQ(check_elaboration(ctx, diags), 2u);
  ASSERT_TRUE(diags.has_rule("elab.unbound-port"));
  std::string text = render_text(diags);
  EXPECT_NE(text.find("loose_in"), std::string::npos);
  EXPECT_NE(text.find("loose_out"), std::string::npos);
  EXPECT_EQ(text.find("'bound'"), std::string::npos);
}

TEST(ElabCheckTest, UnsensitizedIssProcessFlagged) {
  sysc::sc_simcontext ctx;
  sysc::sc_event ev("ev");
  ctx.create_method("orphan", [] {}, sysc::process_kind::IssMethod);
  auto& wired = ctx.create_method("wired", [] {}, sysc::process_kind::IssMethod);
  wired.make_sensitive(ev);
  ctx.create_method("plain", [] {});  // ordinary methods are not checked

  DiagEngine diags;
  check_elaboration(ctx, diags);
  ASSERT_EQ(diags.diagnostics().size(), 1u);
  EXPECT_EQ(diags.diagnostics()[0].rule, "elab.iss-process-not-sensitized");
  EXPECT_NE(diags.diagnostics()[0].message.find("orphan"), std::string::npos);
}

TEST(ElabCheckTest, IssBindingCrossChecks) {
  sysc::sc_simcontext ctx;
  sysc::iss_in<std::uint32_t> from_cpu("from_cpu");
  sysc::iss_out<std::uint32_t> to_cpu("to_cpu");
  sysc::iss_in<std::uint32_t> dangling("dangling");

  std::vector<cosim::BreakpointBinding> bindings;
  bindings.push_back({cosim::BindDirection::IssToSc, "from_cpu", "csum", 0, 0, 4});
  bindings.push_back({cosim::BindDirection::ScToIss, "to_cpu", "word", 0, 0, 4});
  // defect: names a port that does not exist
  bindings.push_back({cosim::BindDirection::IssToSc, "ghost", "x", 0, 0, 4});
  // defect: iss_out pragma targeting an iss_in port
  bindings.push_back({cosim::BindDirection::ScToIss, "from_cpu", "y", 0, 0, 4});

  DiagEngine diags;
  check_iss_bindings(ctx, bindings, diags);
  EXPECT_TRUE(diags.has_rule("elab.iss-port-unbound"));       // 'dangling'
  EXPECT_TRUE(diags.has_rule("elab.binding-unknown-port"));   // 'ghost'
  EXPECT_TRUE(diags.has_rule("elab.binding-direction"));      // 'from_cpu' as out
  std::string text = render_text(diags);
  EXPECT_NE(text.find("dangling"), std::string::npos);
}

// ---------------------------------------------------------------- lint

// Seeded defect: breakpoint on a missing line (pragma with nothing to
// attach to).
TEST(LintTest, BreakpointOnMissingLineFlagged) {
  DiagEngine diags;
  LintResult result = lint_guest_source(
      "_start:\n"
      "    nop\n"
      "    #pragma iss_in(\"hw.port\", value)\n",
      "seed.s", diags);
  EXPECT_FALSE(result.assembled);
  ASSERT_TRUE(diags.has_rule("lint.pragma"));
  EXPECT_EQ(diags.diagnostics()[0].loc.line, 3);
}

TEST(LintTest, UndefinedLabelFlagged) {
  DiagEngine diags;
  LintResult result = lint_guest_source("_start:\n    j nowhere\n", "seed.s", diags);
  EXPECT_FALSE(result.assembled);
  ASSERT_TRUE(diags.has_rule("lint.asm"));
  EXPECT_EQ(diags.diagnostics()[0].loc.line, 2);
  EXPECT_NE(diags.diagnostics()[0].message.find("nowhere"), std::string::npos);
}

// Seeded defect: variable bound to a port but never touched by code.
TEST(LintTest, BoundButUnusedVariableFlagged) {
  DiagEngine diags;
  lint_guest_source(
      "_start:\n"
      "    #pragma iss_in(\"hw.result\", dead)\n"
      "    nop\n"
      "    nop\n"
      "dead: .word 0\n",
      "seed.s", diags);
  EXPECT_TRUE(diags.has_rule("lint.variable-unused"));
  EXPECT_TRUE(diags.has_rule("lint.bind-direction"));  // nop is not a store
}

TEST(LintTest, DuplicateAndConflictingBindingsFlagged) {
  DiagEngine diags;
  lint_guest_source(
      "_start:\n"
      "    la t0, v\n"
      "    #pragma iss_out(\"hw.p\", v)\n"
      "    lw t1, 0(t0)\n"
      "    #pragma iss_out(\"hw.p\", v)\n"
      "    lw t2, 0(t0)\n"
      "    #pragma iss_in(\"hw.p\", v)\n"
      "    sw t1, 0(t0)\n"
      "    nop\n"
      "v: .word 0\n",
      "seed.s", diags);
  EXPECT_TRUE(diags.has_rule("lint.duplicate-binding"));
  EXPECT_TRUE(diags.has_rule("lint.conflicting-binding"));
}

TEST(LintTest, UnreachableBreakpointFlagged) {
  DiagEngine diags;
  lint_guest_source(
      "_start:\n"
      "    la t0, v\n"
      "    j _start\n"
      "    #pragma iss_out(\"hw.p\", v)\n"
      "    lw t1, 0(t0)\n"
      "v: .word 0\n",
      "seed.s", diags);
  EXPECT_TRUE(diags.has_rule("NL301"));
}

TEST(LintTest, AllAssemblyErrorsReportedInOnePass) {
  DiagEngine diags;
  LintResult result = lint_guest_source(
      "_start:\n"
      "    frobnicate a0\n"
      "x:  nop\n"
      "x:  nop\n"
      "    j nowhere\n",
      "seed.s", diags);
  EXPECT_FALSE(result.assembled);
  std::size_t asm_errors = 0;
  std::size_t redefined = 0;
  for (const Diagnostic& d : diags.diagnostics()) {
    if (d.rule == "lint.asm") ++asm_errors;
    if (d.rule == "lint.label-redefined") ++redefined;
  }
  EXPECT_EQ(asm_errors, 2u);  // frobnicate + nowhere
  EXPECT_EQ(redefined, 1u);
  // Errors arrive sorted by original source line.
  EXPECT_EQ(diags.diagnostics()[0].loc.line, 2);
  EXPECT_EQ(diags.diagnostics()[1].loc.line, 4);
  EXPECT_EQ(diags.diagnostics()[2].loc.line, 5);
}

TEST(LintTest, UnknownPortFlaggedAgainstDeclaredList) {
  DiagEngine diags;
  LintOptions options;
  options.known_ports = {"router.to_cpu"};
  lint_guest_source(
      "_start:\n"
      "    la t0, v\n"
      "    #pragma iss_out(\"router.to_gpu\", v)\n"
      "    lw t1, 0(t0)\n"
      "v: .word 0\n",
      "seed.s", diags, options);
  EXPECT_TRUE(diags.has_rule("lint.unknown-port"));
}

TEST(LintTest, NolintCommentSuppressesRuleOnLine) {
  DiagEngine diags;
  lint_guest_source(
      "_start:\n"
      "    #pragma iss_in(\"hw.result\", dead)  # nolint(lint.variable-unused)\n"
      "    sw t0, 0(t1)\n"
      "    nop\n"
      "dead: .word 0\n"
      "t1_base: .word 0\n",
      "seed.s", diags);
  EXPECT_FALSE(diags.has_rule("lint.variable-unused"));
}

TEST(LintTest, LineNumbersSurviveThePragmaFilter) {
  // The defect sits *after* two pragmas; the reported line must refer to
  // the original file, not the filtered one.
  DiagEngine diags;
  lint_guest_source(
      "_start:\n"
      "    la t0, v\n"
      "    #pragma iss_out(\"hw.a\", v)\n"
      "    lw t1, 0(t0)\n"
      "    la t2, w\n"
      "    #pragma iss_in(\"hw.b\", w)\n"
      "    sw t1, 0(t2)\n"
      "    nop\n"
      "    j missing_label\n"
      "v: .word 0\n"
      "w: .word 0\n",
      "seed.s", diags);
  ASSERT_TRUE(diags.has_rule("lint.asm"));
  EXPECT_EQ(diags.diagnostics()[0].loc.line, 9);
}

// ---------------------------------------------------------------- cfg

TEST(CfgTest, LinearAndBranchEdges) {
  iss::Program prog = iss::assemble(
      "_start:\n"
      "    li t0, 3\n"
      "loop:\n"
      "    addi t0, t0, -1\n"
      "    bnez t0, loop\n"
      "    ebreak\n");
  Cfg cfg = Cfg::build(prog);
  ASSERT_EQ(cfg.blocks().size(), 3u);
  EXPECT_EQ(cfg.entry(), cfg.block_at(prog.entry));

  std::size_t head = cfg.block_at(prog.symbol("_start"));
  std::size_t loop = cfg.block_at(prog.symbol("loop"));
  ASSERT_NE(head, Cfg::npos);
  ASSERT_NE(loop, Cfg::npos);
  ASSERT_EQ(cfg.blocks()[head].succs.size(), 1u);
  EXPECT_EQ(cfg.blocks()[head].succs[0].block, loop);
  EXPECT_EQ(cfg.blocks()[head].succs[0].kind, EdgeKind::FallThrough);

  // The loop block ends in bnez: a Branch back-edge plus a FallThrough.
  std::set<std::pair<std::size_t, EdgeKind>> loop_succs;
  for (const CfgEdge& e : cfg.blocks()[loop].succs) loop_succs.insert({e.block, e.kind});
  EXPECT_TRUE(loop_succs.count({loop, EdgeKind::Branch}) > 0);
  EXPECT_EQ(loop_succs.size(), 2u);
}

TEST(CfgTest, CallReturnAndSummaryEdges) {
  iss::Program prog = iss::assemble(
      "_start:\n"
      "    call leaf\n"
      "    ebreak\n"
      "leaf:\n"
      "    ret\n");
  Cfg cfg = Cfg::build(prog);
  std::size_t caller = cfg.block_at(prog.symbol("_start"));
  std::size_t after = cfg.block_at(prog.symbol("_start") + 4);
  std::size_t leaf = cfg.block_at(prog.symbol("leaf"));
  ASSERT_NE(after, Cfg::npos);

  std::set<std::pair<std::size_t, EdgeKind>> succs;
  for (const CfgEdge& e : cfg.blocks()[caller].succs) succs.insert({e.block, e.kind});
  EXPECT_TRUE(succs.count({leaf, EdgeKind::Call}) > 0);
  EXPECT_TRUE(succs.count({after, EdgeKind::CallFall}) > 0);

  std::set<std::pair<std::size_t, EdgeKind>> ret_succs;
  for (const CfgEdge& e : cfg.blocks()[leaf].succs) ret_succs.insert({e.block, e.kind});
  EXPECT_TRUE(ret_succs.count({after, EdgeKind::Return}) > 0);

  ASSERT_EQ(cfg.call_targets().size(), 1u);
  EXPECT_EQ(cfg.call_targets()[0], prog.symbol("leaf"));
}

TEST(CfgTest, IndirectJumpTargetsOnlyAddressTakenLabels) {
  iss::Program prog = iss::assemble(
      "_start:\n"
      "    la t0, handler\n"
      "    jr t0\n"
      "other:\n"
      "    ebreak\n"
      "handler:\n"
      "    ebreak\n");
  Cfg cfg = Cfg::build(prog);
  std::size_t jr_block = cfg.block_at(prog.symbol("_start"));
  std::size_t handler = cfg.block_at(prog.symbol("handler"));
  std::size_t other = cfg.block_at(prog.symbol("other"));
  ASSERT_EQ(cfg.blocks()[jr_block].succs.size(), 1u);
  EXPECT_EQ(cfg.blocks()[jr_block].succs[0].block, handler);
  EXPECT_EQ(cfg.blocks()[jr_block].succs[0].kind, EdgeKind::Indirect);
  // `other` is dead: only the address-taken label is an indirect target.
  EXPECT_TRUE(cfg.blocks()[other].preds.empty());
}

// ---------------------------------------------------------------- dataflow

TEST(DataflowTest, ReversePostOrderAndReachabilityOnDiamond) {
  iss::Program prog = iss::assemble(
      "_start:\n"
      "    beqz t0, right\n"
      "    nop\n"
      "    j merge\n"
      "right:\n"
      "    nop\n"
      "merge:\n"
      "    ebreak\n"
      "dead:\n"
      "    nop\n");
  Cfg cfg = Cfg::build(prog);
  std::vector<std::size_t> rpo = reverse_post_order(cfg, cfg.entry(), kInterprocEdges);
  ASSERT_EQ(rpo.size(), 4u);  // dead block excluded
  EXPECT_EQ(rpo.front(), cfg.entry());
  EXPECT_EQ(rpo.back(), cfg.block_at(prog.symbol("merge")));

  std::vector<bool> reach = reachable_blocks(cfg, cfg.entry(), kInterprocEdges);
  EXPECT_TRUE(reach[cfg.block_at(prog.symbol("merge"))]);
  EXPECT_FALSE(reach[cfg.block_at(prog.symbol("dead"))]);
}

// ---------------------------------------------------------------- absint

TEST(IntervalTest, JoinWidenAndArithmetic) {
  Interval a = Interval::exact(4);
  EXPECT_TRUE(a.join(Interval::exact(10)));
  EXPECT_EQ(a, Interval::bounded(4, 10));
  EXPECT_FALSE(a.join(Interval::exact(7)));  // already inside

  Interval w = Interval::bounded(0, 10);
  EXPECT_TRUE(w.widen(Interval::bounded(0, 11)));
  EXPECT_EQ(w.hi, Interval::kMax);  // growing bound jumps to the extreme
  EXPECT_EQ(w.lo, 0);               // stable bound survives widening

  EXPECT_EQ(Interval::exact(6).plus(Interval::exact(7)), Interval::exact(13));
  EXPECT_EQ(Interval::bounded(2, 4).minus(Interval::bounded(1, 1)), Interval::bounded(1, 3));
  EXPECT_TRUE(Interval::top().plus(Interval::exact(1)).is_top());
}

TEST(AbsValueTest, JoinTracksInitAndBaseLattices) {
  AbsValue v = AbsValue::exact(5);
  EXPECT_TRUE(v.join(AbsValue::uninit()));
  EXPECT_EQ(v.init, AbsValue::Init::Mixed);

  AbsValue sp = AbsValue::sp_entry();
  EXPECT_TRUE(sp.join(AbsValue::exact(16)));  // sp-relative vs absolute
  EXPECT_EQ(sp.base, AbsValue::Base::None);
  EXPECT_TRUE(sp.range.is_top());
}

TEST(AbsintTest, ConstantsPropagateExactly) {
  iss::Program prog = iss::assemble(
      "_start:\n"
      "    li t0, 40\n"
      "    addi t0, t0, 2\n"
      "    slli t1, t0, 1\n"
      "    ebreak\n");
  Cfg cfg = Cfg::build(prog);
  RegDomain domain;
  DataflowResult<RegDomain> flow = run_forward(cfg, domain, kInterprocEdges, cfg.entry());
  ASSERT_TRUE(flow.out[cfg.entry()].has_value());
  const RegState& out = *flow.out[cfg.entry()];
  EXPECT_EQ(out.regs[5].range, Interval::exact(42));  // t0
  EXPECT_EQ(out.regs[6].range, Interval::exact(84));  // t1
  EXPECT_EQ(out.regs[7].init, AbsValue::Init::Uninit);  // t2 untouched
}

TEST(AbsintTest, StackPointerStaysSymbolic) {
  iss::Program prog = iss::assemble(
      "_start:\n"
      "    addi sp, sp, -16\n"
      "    addi sp, sp, 16\n"
      "    ebreak\n");
  Cfg cfg = Cfg::build(prog);
  RegDomain domain;
  DataflowResult<RegDomain> flow = run_forward(cfg, domain, kInterprocEdges, cfg.entry());
  ASSERT_TRUE(flow.out[cfg.entry()].has_value());
  const AbsValue& sp = flow.out[cfg.entry()]->regs[2];
  EXPECT_EQ(sp.base, AbsValue::Base::Sp);
  EXPECT_EQ(sp.range, Interval::exact(0));  // balanced again
}

TEST(AbsintTest, WideningTerminatesOnInfiniteLoop) {
  iss::Program prog = iss::assemble(
      "_start:\n"
      "    li t0, 0\n"
      "loop:\n"
      "    addi t0, t0, 1\n"
      "    j loop\n");
  Cfg cfg = Cfg::build(prog);
  RegDomain domain;
  DataflowResult<RegDomain> flow = run_forward(cfg, domain, kInterprocEdges, cfg.entry());
  std::size_t loop = cfg.block_at(prog.symbol("loop"));
  ASSERT_TRUE(flow.in[loop].has_value());  // converged despite the cycle
  EXPECT_EQ(flow.in[loop]->regs[5].init, AbsValue::Init::Init);
}

// ---------------------------------------------------------------- flow rules

std::string fixture_path(const std::string& name) {
  return std::string(NISC_SOURCE_DIR "/examples/guests/bad/") + name;
}

std::string read_file_or_die(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Source line of the instruction at `addr`, via the program's code table.
int line_of(const iss::Program& prog, std::uint32_t addr) {
  for (const iss::CodeLoc& loc : prog.code) {
    if (loc.addr == addr) return loc.line;
  }
  return 0;
}

TEST(FlowRuleTest, EveryBadFixtureFlagsItsRule) {
  const struct {
    const char* file;
    const char* rule;
  } cases[] = {
      {"nl301_unreachable_bp.s", "NL301"},   {"nl302_uninit_read.s", "NL302"},
      {"nl303_oob_access.s", "NL303"},       {"nl304_stack_imbalance.s", "NL304"},
      {"nl305_unwritten_binding.s", "NL305"},
  };
  for (const auto& c : cases) {
    DiagEngine diags;
    LintResult result =
        lint_guest_source(read_file_or_die(fixture_path(c.file)), c.file, diags);
    EXPECT_TRUE(result.assembled) << c.file;
    EXPECT_TRUE(diags.has_rule(c.rule)) << c.file << "\n" << render_text(diags);
    // The seeded defect is the only finding class in each fixture.
    for (const Diagnostic& d : diags.diagnostics()) EXPECT_EQ(d.rule, c.rule) << c.file;
  }
}

// NL301 oracle: with a breakpoint armed on the binding label, a bounded run
// halts at the final ebreak and the trace never visits the breakpoint.
TEST(FlowRuleTest, Nl301VerdictAgreesWithExecution) {
  DiagEngine diags;
  LintResult r = lint_guest_source(read_file_or_die(fixture_path("nl301_unreachable_bp.s")),
                                   "nl301", diags);
  ASSERT_TRUE(r.assembled);
  ASSERT_TRUE(diags.has_rule("NL301"));
  ASSERT_EQ(r.bindings.size(), 1u);
  std::uint32_t bp = r.program.symbol(r.bindings[0].label);

  iss::Cpu cpu;
  r.program.load_into(cpu.mem());
  cpu.reset(r.program.entry);
  cpu.add_breakpoint(bp);
  iss::ExecutionTracer tracer(cpu, 256);
  EXPECT_EQ(cpu.run(1000), iss::Halt::Ebreak);  // never the breakpoint
  for (const iss::TraceEntry& e : tracer.entries()) EXPECT_NE(e.pc, bp);
}

// NL302 oracle: replaying the run with a written-register scoreboard finds
// dynamic read-before-write at exactly the statically flagged lines.
TEST(FlowRuleTest, Nl302VerdictAgreesWithExecution) {
  DiagEngine diags;
  LintResult r =
      lint_guest_source(read_file_or_die(fixture_path("nl302_uninit_read.s")), "nl302", diags);
  ASSERT_TRUE(r.assembled);
  std::set<int> flagged_lines;
  for (const Diagnostic& d : diags.diagnostics()) {
    ASSERT_EQ(d.rule, "NL302");
    flagged_lines.insert(d.loc.line);
  }
  ASSERT_FALSE(flagged_lines.empty());

  iss::Cpu cpu;
  r.program.load_into(cpu.mem());
  cpu.reset(r.program.entry);
  std::set<unsigned> written = {0, 2};  // x0 and sp are environment-provided
  std::set<int> dynamic_lines;
  cpu.set_trace_hook([&](std::uint32_t pc, std::uint32_t word) {
    iss::Instr in = iss::decode(word);
    for (std::uint8_t rr : RegDomain::regs_read(in)) {
      if (written.count(rr) == 0) dynamic_lines.insert(line_of(r.program, pc));
    }
    if (in.rd != 0) written.insert(in.rd);
  });
  EXPECT_EQ(cpu.run(1000), iss::Halt::Ebreak);
  EXPECT_EQ(dynamic_lines, flagged_lines);
}

// NL303 oracle: the run must die with a memory fault at the flagged line.
TEST(FlowRuleTest, Nl303VerdictAgreesWithExecution) {
  DiagEngine diags;
  LintResult r =
      lint_guest_source(read_file_or_die(fixture_path("nl303_oob_access.s")), "nl303", diags);
  ASSERT_TRUE(r.assembled);
  ASSERT_TRUE(diags.has_rule("NL303"));
  int flagged_line = diags.diagnostics()[0].loc.line;

  iss::Cpu cpu;  // default 1 MiB map, matching LintOptions::mem_size
  r.program.load_into(cpu.mem());
  cpu.reset(r.program.entry);
  iss::ExecutionTracer tracer(cpu, 16);
  EXPECT_EQ(cpu.run(1000), iss::Halt::MemoryFault);
  ASSERT_FALSE(tracer.entries().empty());
  EXPECT_EQ(line_of(r.program, tracer.entries().back().pc), flagged_line);
}

// NL304 oracle: after the run the stack pointer is off by exactly the
// imbalance the analysis proved (-8 bytes from the 0x10000 it set up).
TEST(FlowRuleTest, Nl304VerdictAgreesWithExecution) {
  DiagEngine diags;
  LintResult r = lint_guest_source(read_file_or_die(fixture_path("nl304_stack_imbalance.s")),
                                   "nl304", diags);
  ASSERT_TRUE(r.assembled);
  ASSERT_TRUE(diags.has_rule("NL304"));
  EXPECT_NE(diags.diagnostics()[0].message.find("-8 bytes"), std::string::npos);

  iss::Cpu cpu;
  r.program.load_into(cpu.mem());
  cpu.reset(r.program.entry);
  EXPECT_EQ(cpu.run(1000), iss::Halt::Ebreak);
  EXPECT_EQ(cpu.reg(2), 0x10000u - 8u);  // the leak the warning promised
}

// NL305 oracle: with flag == 0 the breakpoint is reached while the bound
// variable's store never executed — the port would sample the stale zero.
TEST(FlowRuleTest, Nl305VerdictAgreesWithExecution) {
  DiagEngine diags;
  LintResult r = lint_guest_source(read_file_or_die(fixture_path("nl305_unwritten_binding.s")),
                                   "nl305", diags);
  ASSERT_TRUE(r.assembled);
  ASSERT_TRUE(diags.has_rule("NL305"));
  ASSERT_EQ(r.bindings.size(), 1u);
  std::uint32_t bp = r.program.symbol(r.bindings[0].label);
  std::uint32_t store_addr = 0;
  for (const iss::CodeLoc& loc : r.program.code) {
    if (loc.line == r.bindings[0].statement_line) store_addr = loc.addr;
  }
  ASSERT_NE(store_addr, 0u);

  iss::Cpu cpu;
  r.program.load_into(cpu.mem());
  cpu.reset(r.program.entry);
  cpu.add_breakpoint(bp);
  iss::ExecutionTracer tracer(cpu, 256);
  EXPECT_EQ(cpu.run(1000), iss::Halt::Breakpoint);
  for (const iss::TraceEntry& e : tracer.entries()) EXPECT_NE(e.pc, store_addr);
  EXPECT_EQ(cpu.mem().read32(r.program.symbol(r.bindings[0].variable)), 0u);  // stale
}

TEST(FlowRuleTest, NolintSuppressesFlowRule) {
  DiagEngine diags;
  lint_guest_source(
      "_start:\n"
      "    li t0, 0x200000\n"
      "    lw t1, 0(t0)  # nolint(NL303)\n"
      "    ebreak\n",
      "seed.s", diags);
  EXPECT_TRUE(diags.empty()) << render_text(diags);
}

TEST(FlowRuleTest, FlowOptOutSkipsNlRules) {
  DiagEngine diags;
  LintOptions options;
  options.flow = false;
  lint_guest_source(
      "_start:\n"
      "    li t0, 0x200000\n"
      "    lw t1, 0(t0)\n"
      "    ebreak\n",
      "seed.s", diags, options);
  EXPECT_TRUE(diags.empty()) << render_text(diags);
}

TEST(FlowRuleTest, MemSizeOptionMovesTheMapBoundary) {
  const char* src =
      "_start:\n"
      "    li t0, 0x1000\n"
      "    lw t1, 0(t0)\n"
      "    ebreak\n";
  DiagEngine small;
  LintOptions options;
  options.mem_size = 0x800;
  lint_guest_source(src, "seed.s", small, options);
  EXPECT_TRUE(small.has_rule("NL303"));

  DiagEngine large;
  lint_guest_source(src, "seed.s", large);  // default 1 MiB: in map
  EXPECT_TRUE(large.empty()) << render_text(large);
}

// Zero false positives: every guest program committed under examples/guests/
// must come through the full rule set (flow rules included) clean.
TEST(FlowCleanTest, CommittedGuestsHaveNoFindings) {
  namespace fs = std::filesystem;
  int checked = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(NISC_SOURCE_DIR "/examples/guests")) {
    if (!entry.is_regular_file() || entry.path().extension() != ".s") continue;
    DiagEngine diags;
    LintResult result =
        lint_guest_source(rtos::guest_abi_prelude() + read_file_or_die(entry.path().string()),
                          entry.path().filename().string(), diags);
    EXPECT_TRUE(result.assembled) << entry.path();
    EXPECT_TRUE(diags.empty()) << entry.path() << "\n" << render_text(diags);
    ++checked;
  }
  EXPECT_GE(checked, 2);  // the committed guest corpus
}

// ---------------------------------------------------------------- call graph

TEST(CallGraphTest, FunctionsSitesAndSccsBottomUp) {
  iss::Program prog = iss::assemble(
      "_start:\n"
      "    li a0, 3\n"
      "    call even\n"
      "    ebreak\n"
      "even:\n"
      "    beqz a0, even_yes\n"
      "    addi a0, a0, -1\n"
      "    call odd\n"
      "    ret\n"
      "even_yes:\n"
      "    ret\n"
      "odd:\n"
      "    addi a0, a0, -1\n"
      "    call even\n"
      "    ret\n");
  Cfg cfg = Cfg::build(prog);
  CallGraph cg = CallGraph::build(cfg, prog);

  ASSERT_EQ(cg.functions().size(), 3u);  // _start, even, odd
  std::size_t start_fn = cg.function_at(prog.entry);
  std::size_t even_fn = cg.function_at(prog.symbol("even"));
  std::size_t odd_fn = cg.function_at(prog.symbol("odd"));
  ASSERT_NE(start_fn, CallGraph::npos);
  ASSERT_NE(even_fn, CallGraph::npos);
  ASSERT_NE(odd_fn, CallGraph::npos);
  EXPECT_EQ(cg.entry_function(), start_fn);
  EXPECT_EQ(cg.functions()[even_fn].name, "even");
  EXPECT_EQ(cg.sites().size(), 3u);

  // even <-> odd form one recursive SCC; _start's SCC is not recursive and,
  // with the list in bottom-up (callees-first) order, must come after it.
  EXPECT_EQ(cg.functions()[even_fn].scc, cg.functions()[odd_fn].scc);
  EXPECT_TRUE(cg.scc_is_recursive(cg.functions()[even_fn].scc));
  EXPECT_FALSE(cg.scc_is_recursive(cg.functions()[start_fn].scc));
  EXPECT_GT(cg.functions()[start_fn].scc, cg.functions()[even_fn].scc);

  // Direct call sites resolve to exactly one callee.
  const CallSite& start_site = cg.sites()[cg.functions()[start_fn].call_sites.front()];
  EXPECT_TRUE(start_site.resolved);
  EXPECT_FALSE(start_site.indirect);
  ASSERT_EQ(start_site.callees.size(), 1u);
  EXPECT_EQ(start_site.callees.front(), even_fn);
}

// ---------------------------------------------------------------- summaries

TEST(SummaryTest, SpDeltaAndSpillReloadPreservation) {
  iss::Program prog = iss::assemble(
      "_start:\n"
      "    li sp, 0x1000\n"
      "    call fn\n"
      "    ebreak\n"
      "fn:\n"
      "    addi sp, sp, -16\n"
      "    sw s0, 12(sp)\n"
      "    li s0, 9\n"
      "    lw s0, 12(sp)\n"
      "    addi sp, sp, 16\n"
      "    ret\n");
  Cfg cfg = Cfg::build(prog);
  CallGraph cg = CallGraph::build(cfg, prog);
  SummaryTable table = SummaryTable::compute(cfg, cg, {});
  std::size_t fn = cg.function_at(prog.symbol("fn"));
  ASSERT_NE(fn, CallGraph::npos);
  const FunctionSummary& s = table.of(fn);

  EXPECT_FALSE(s.havoc);
  EXPECT_TRUE(s.reached_ret);
  ASSERT_TRUE(s.sp_delta.has_value());
  EXPECT_EQ(*s.sp_delta, 0);
  // The spill/reload pair restores the entry value of s0 despite the
  // clobbering li in between.
  EXPECT_TRUE(s.exit_regs[8].is_entry_identity(8));
  EXPECT_TRUE(s.exit_regs[2].is_sp_rel());
}

TEST(SummaryTest, EntryReadsFollowValuesAndClobbersAreExact) {
  iss::Program prog = iss::assemble(
      "_start:\n"
      "    li sp, 0x1000\n"
      "    li a0, 1\n"
      "    li a1, 2\n"
      "    call fn\n"
      "    ebreak\n"
      "fn:\n"
      "    mv t0, a0\n"
      "    add a0, t0, a1\n"
      "    li s1, 0\n"
      "    ret\n");
  Cfg cfg = Cfg::build(prog);
  CallGraph cg = CallGraph::build(cfg, prog);
  SummaryTable table = SummaryTable::compute(cfg, cg, {});
  const FunctionSummary& s = table.of(cg.function_at(prog.symbol("fn")));

  // a0 is consumed through the t0 copy; a1 directly. t3 never.
  EXPECT_NE(s.read_of(10), nullptr);
  EXPECT_NE(s.read_of(11), nullptr);
  EXPECT_EQ(s.read_of(28), nullptr);
  // s1 is definitely clobbered to the constant 0 at exit.
  EXPECT_EQ(s.exit_regs[9].base, AbsValue::Base::None);
  EXPECT_EQ(s.exit_regs[9].range, Interval::exact(0));
}

TEST(SummaryTest, RecursiveSccTerminatesWithSoundSummary) {
  iss::Program prog = iss::assemble(
      "_start:\n"
      "    li sp, 0x1000\n"
      "    li a0, 3\n"
      "    call count\n"
      "    ebreak\n"
      "count:\n"
      "    beqz a0, count_done\n"
      "    addi a0, a0, -1\n"
      "    call count\n"
      "count_done:\n"
      "    ret\n");
  Cfg cfg = Cfg::build(prog);
  CallGraph cg = CallGraph::build(cfg, prog);
  SummaryTable table = SummaryTable::compute(cfg, cg, {});  // must terminate
  std::size_t fn = cg.function_at(prog.symbol("count"));
  EXPECT_TRUE(cg.scc_is_recursive(cg.functions()[fn].scc));
  const FunctionSummary& s = table.of(fn);
  // Widening-then-narrowing must converge to a real summary: the recursion
  // is stack-balanced, so the havoc backstop would be a precision bug.
  EXPECT_FALSE(s.havoc);
  EXPECT_TRUE(s.reached_ret);
  ASSERT_TRUE(s.sp_delta.has_value());
  EXPECT_EQ(*s.sp_delta, 0);
  EXPECT_EQ(table.stats().havoc_summaries, 0u);
}

// A mutually recursive pair with real frames: the widening/narrowing SCC
// fixpoint must prove both balanced (exact sp_delta 0) without the havoc
// fallback, and the ISS run confirms the stack comes back level.
TEST(SummaryTest, MutualRecursionConvergesWithoutHavoc) {
  iss::Program prog = iss::assemble(
      "_start:\n"
      "    li sp, 0x10000\n"
      "    li a0, 5\n"
      "    call even\n"
      "    ebreak\n"
      "even:\n"
      "    addi sp, sp, -16\n"
      "    sw ra, 12(sp)\n"
      "    beqz a0, even_base\n"
      "    addi a0, a0, -1\n"
      "    call odd\n"
      "    j even_out\n"
      "even_base:\n"
      "    li a0, 1\n"
      "even_out:\n"
      "    lw ra, 12(sp)\n"
      "    addi sp, sp, 16\n"
      "    ret\n"
      "odd:\n"
      "    addi sp, sp, -16\n"
      "    sw ra, 12(sp)\n"
      "    beqz a0, odd_base\n"
      "    addi a0, a0, -1\n"
      "    call even\n"
      "    j odd_out\n"
      "odd_base:\n"
      "    li a0, 0\n"
      "odd_out:\n"
      "    lw ra, 12(sp)\n"
      "    addi sp, sp, 16\n"
      "    ret\n");
  Cfg cfg = Cfg::build(prog);
  CallGraph cg = CallGraph::build(cfg, prog);
  SummaryTable table = SummaryTable::compute(cfg, cg, {});
  for (const char* name : {"even", "odd"}) {
    const FunctionSummary& s = table.of(cg.function_at(prog.symbol(name)));
    EXPECT_FALSE(s.havoc) << name;
    EXPECT_TRUE(s.reached_ret) << name;
    ASSERT_TRUE(s.sp_delta.has_value()) << name;
    EXPECT_EQ(*s.sp_delta, 0) << name;
    EXPECT_TRUE(s.exit_regs[2].is_sp_rel()) << name;
  }
  EXPECT_EQ(table.stats().havoc_summaries, 0u);
  EXPECT_GT(table.stats().narrowing_iterations, 0u);

  iss::Cpu cpu;  // the oracle: is_even(5) == 0 and sp comes back level
  prog.load_into(cpu.mem());
  cpu.reset(prog.entry);
  EXPECT_EQ(cpu.run(10000), iss::Halt::Ebreak);
  EXPECT_EQ(cpu.reg(10), 0u);
  EXPECT_EQ(cpu.reg(2), 0x10000u);
}

// An indirect call through a two-entry address-taken set: the joined site
// summary keeps only the claims that hold for every target — entry reads
// intersect, exit values join, and the balanced sp survives.
TEST(SummaryTest, IndirectCallJoinsAddressTakenTargets) {
  iss::Program prog = iss::assemble(
      "_start:\n"
      "    li sp, 0x10000\n"
      "    la t0, f_one\n"
      "    la t1, f_two\n"
      "    li a0, 4\n"
      "    li a1, 2\n"
      "    jalr ra, t0, 0\n"
      "    ebreak\n"
      "f_one:\n"
      "    add a0, a0, a1\n"
      "    ret\n"
      "f_two:\n"
      "    addi a0, a0, 1\n"
      "    li s1, 5\n"
      "    ret\n");
  Cfg cfg = Cfg::build(prog);
  CallGraph cg = CallGraph::build(cfg, prog);
  std::size_t site_idx = CallGraph::npos;
  for (std::size_t i = 0; i < cg.sites().size(); ++i) {
    if (cg.sites()[i].indirect) site_idx = i;
  }
  ASSERT_NE(site_idx, CallGraph::npos);
  const CallSite& site = cg.sites()[site_idx];
  ASSERT_TRUE(site.resolved);
  ASSERT_EQ(site.callees.size(), 2u);

  SummaryTable table = SummaryTable::compute(cfg, cg, {});
  const FunctionSummary s = table.at_site(cg, site_idx);
  EXPECT_FALSE(s.havoc);
  EXPECT_TRUE(s.reached_ret);
  ASSERT_TRUE(s.sp_delta.has_value());
  EXPECT_EQ(*s.sp_delta, 0);
  // a0 is read by both targets; a1 only by f_one — the intersection drops it.
  EXPECT_NE(s.read_of(10), nullptr);
  EXPECT_EQ(s.read_of(11), nullptr);
  // s1 is clobbered by f_two but preserved by f_one: the join can neither
  // claim identity nor a definite clobber.
  EXPECT_FALSE(s.exit_regs[9].is_entry_identity(9));
  EXPECT_FALSE(s.exit_regs[9].base == AbsValue::Base::None &&
               s.exit_regs[9].range.is_exact());
}

TEST(SummaryTest, UnresolvedIndirectCallGetsHavoc) {
  iss::Program prog = iss::assemble(
      "_start:\n"
      "    li t0, 64\n"
      "    jalr ra, t0, 0\n"
      "    ebreak\n");
  Cfg cfg = Cfg::build(prog);
  CallGraph cg = CallGraph::build(cfg, prog);
  ASSERT_EQ(cg.sites().size(), 1u);
  EXPECT_TRUE(cg.sites()[0].indirect);
  EXPECT_FALSE(cg.sites()[0].resolved);  // no address-taken code labels
  SummaryTable table = SummaryTable::compute(cfg, cg, {});
  const FunctionSummary& s = table.at_site(cg, 0);
  EXPECT_TRUE(s.havoc);
  EXPECT_TRUE(s.reached_ret);            // havoc assumes an ABI-balanced return
  EXPECT_TRUE(s.exit_regs[2].is_sp_rel());
}

TEST(SummaryTest, ApplySummaryMarksNoReturnCalleeDead) {
  FunctionSummary never;  // default: reached_ret == false
  RegState state;
  state.regs[2] = AbsValue::sp_entry();
  apply_summary(never, state);
  EXPECT_TRUE(state.dead);
}

// ---------------------------------------------------------------- NL31x rules

TEST(FlowRuleTest, EveryInterprocFixtureFlagsItsRule) {
  const struct {
    const char* file;
    const char* rule;
    std::set<std::string> companions;  // additional rules the fixture may fire
  } cases[] = {
      // The context-sensitive clone pass (k = 1) proves the callee-side
      // defect under the guilty call string too, so the call-site rule
      // gains its intraprocedural companion inside the callee clone.
      {"nl311_uninit_call.s", "NL311", {"NL302"}},
      {"nl312_oob_helper.s", "NL312", {"NL303"}},
      {"nl313_cross_stack.s", "NL313", {"NL304"}},  // leak itself is an NL304
      {"nl314_clobbered_sreg.s", "NL314", {}},
      {"nl315_dead_callee_binding.s", "NL315", {}},
      {"nl316_frame_clobber.s", "NL316", {}},
      {"nl317_context_clobber.s", "NL317", {}},
  };
  for (const auto& c : cases) {
    DiagEngine diags;
    LintResult result =
        lint_guest_source(read_file_or_die(fixture_path(c.file)), c.file, diags);
    EXPECT_TRUE(result.assembled) << c.file;
    EXPECT_TRUE(diags.has_rule(c.rule)) << c.file << "\n" << render_text(diags);
    for (const Diagnostic& d : diags.diagnostics()) {
      EXPECT_TRUE(d.rule == c.rule || c.companions.count(d.rule) > 0)
          << c.file << " fired unexpected " << d.rule << ": " << d.message;
    }
  }
}

// NL315 refines NL305: the generic "may be stale" warning must be replaced
// by the dead-writer evidence, not duplicated.
TEST(FlowRuleTest, Nl315ReplacesTheNl305Warning) {
  DiagEngine diags;
  lint_guest_source(read_file_or_die(fixture_path("nl315_dead_callee_binding.s")), "nl315",
                    diags);
  EXPECT_TRUE(diags.has_rule("NL315"));
  EXPECT_FALSE(diags.has_rule("NL305")) << render_text(diags);
}

// NL311 oracle: replaying the run with a written-register scoreboard shows
// the callee really does consume t2 before anything wrote it.
TEST(FlowRuleTest, Nl311VerdictAgreesWithExecution) {
  DiagEngine diags;
  LintResult r = lint_guest_source(read_file_or_die(fixture_path("nl311_uninit_call.s")),
                                   "nl311", diags);
  ASSERT_TRUE(r.assembled);
  ASSERT_TRUE(diags.has_rule("NL311"));
  EXPECT_NE(diags.diagnostics()[0].message.find("register t2"), std::string::npos);

  iss::Cpu cpu;
  r.program.load_into(cpu.mem());
  cpu.reset(r.program.entry);
  std::set<unsigned> written = {0, 2};
  bool t2_read_before_write = false;
  cpu.set_trace_hook([&](std::uint32_t, std::uint32_t word) {
    iss::Instr in = iss::decode(word);
    for (std::uint8_t rr : RegDomain::regs_read(in)) {
      if (rr == 7 && written.count(7) == 0) t2_read_before_write = true;
    }
    if (in.rd != 0) written.insert(in.rd);
  });
  EXPECT_EQ(cpu.run(1000), iss::Halt::Ebreak);
  EXPECT_TRUE(t2_read_before_write);
}

// NL312 oracle: the run dies with a memory fault inside the helper, on the
// store the summary attributed the footprint to — after the first, clean
// call already wrote `out`.
TEST(FlowRuleTest, Nl312VerdictAgreesWithExecution) {
  DiagEngine diags;
  LintResult r = lint_guest_source(read_file_or_die(fixture_path("nl312_oob_helper.s")),
                                   "nl312", diags);
  ASSERT_TRUE(r.assembled);
  ASSERT_TRUE(diags.has_rule("NL312"));

  iss::Cpu cpu;  // default 1 MiB map, matching LintOptions::mem_size
  r.program.load_into(cpu.mem());
  cpu.reset(r.program.entry);
  iss::ExecutionTracer tracer(cpu, 16);
  EXPECT_EQ(cpu.run(1000), iss::Halt::MemoryFault);
  ASSERT_FALSE(tracer.entries().empty());
  EXPECT_EQ(tracer.entries().back().pc, r.program.symbol("store_word"));
  EXPECT_EQ(cpu.mem().read32(r.program.symbol("out")), 1u);  // first call landed
}

// NL313 oracle: the imbalance the cross-call rule promised is exactly what
// the stack pointer shows after the run.
TEST(FlowRuleTest, Nl313VerdictAgreesWithExecution) {
  DiagEngine diags;
  LintResult r = lint_guest_source(read_file_or_die(fixture_path("nl313_cross_stack.s")),
                                   "nl313", diags);
  ASSERT_TRUE(r.assembled);
  ASSERT_TRUE(diags.has_rule("NL313"));

  iss::Cpu cpu;
  r.program.load_into(cpu.mem());
  cpu.reset(r.program.entry);
  EXPECT_EQ(cpu.run(1000), iss::Halt::Ebreak);
  EXPECT_EQ(cpu.reg(2), 0x10000u - 8u);
}

// NL314 oracle: the caller's store after the call writes helper's 0, not
// the 123 the caller put in s1 — the clobber is observable.
TEST(FlowRuleTest, Nl314VerdictAgreesWithExecution) {
  DiagEngine diags;
  LintResult r = lint_guest_source(read_file_or_die(fixture_path("nl314_clobbered_sreg.s")),
                                   "nl314", diags);
  ASSERT_TRUE(r.assembled);
  ASSERT_TRUE(diags.has_rule("NL314"));
  EXPECT_NE(diags.diagnostics()[0].message.find("s1"), std::string::npos);

  iss::Cpu cpu;
  r.program.load_into(cpu.mem());
  cpu.reset(r.program.entry);
  EXPECT_EQ(cpu.run(1000), iss::Halt::Ebreak);
  EXPECT_EQ(cpu.mem().read32(r.program.symbol("out")), 0u);  // not 123
}

// NL315 oracle: the breakpoint is reached, the bound variable is stale, and
// the trace never enters the dead writer.
TEST(FlowRuleTest, Nl315VerdictAgreesWithExecution) {
  DiagEngine diags;
  LintResult r = lint_guest_source(read_file_or_die(fixture_path("nl315_dead_callee_binding.s")),
                                   "nl315", diags);
  ASSERT_TRUE(r.assembled);
  ASSERT_TRUE(diags.has_rule("NL315"));
  ASSERT_EQ(r.bindings.size(), 1u);

  iss::Cpu cpu;
  r.program.load_into(cpu.mem());
  cpu.reset(r.program.entry);
  cpu.add_breakpoint(r.program.symbol(r.bindings[0].label));
  iss::ExecutionTracer tracer(cpu, 256);
  EXPECT_EQ(cpu.run(1000), iss::Halt::Breakpoint);
  EXPECT_EQ(cpu.mem().read32(r.program.symbol(r.bindings[0].variable)), 0u);  // stale
  for (const iss::TraceEntry& e : tracer.entries()) EXPECT_LT(e.pc, r.program.symbol("fill"));
}

// NL316 oracle: halted just before the binding store, the bound variable
// already holds helper's spilled s0 — the frame clobbered it. The defect
// needs the exact per-context sp, so --context-k=0 is the negative control.
TEST(FlowRuleTest, Nl316VerdictAgreesWithExecution) {
  DiagEngine diags;
  LintResult r = lint_guest_source(read_file_or_die(fixture_path("nl316_frame_clobber.s")),
                                   "nl316", diags);
  ASSERT_TRUE(r.assembled);
  ASSERT_TRUE(diags.has_rule("NL316"));
  EXPECT_NE(diags.diagnostics()[0].message.find("'flag'"), std::string::npos);
  ASSERT_EQ(r.bindings.size(), 1u);

  LintOptions joined;  // context-insensitive: the joined sp interval is mute
  joined.context_k = 0;
  DiagEngine diags0;
  lint_guest_source(read_file_or_die(fixture_path("nl316_frame_clobber.s")), "nl316", diags0,
                    joined);
  EXPECT_FALSE(diags0.has_rule("NL316")) << render_text(diags0);

  std::uint32_t store_addr = 0;
  for (const iss::CodeLoc& loc : r.program.code) {
    if (loc.line == r.bindings[0].statement_line) store_addr = loc.addr;
  }
  ASSERT_NE(store_addr, 0u);
  iss::Cpu cpu;
  r.program.load_into(cpu.mem());
  cpu.reset(r.program.entry);
  cpu.add_breakpoint(store_addr);
  EXPECT_EQ(cpu.run(1000), iss::Halt::Breakpoint);
  // The spill slot of the guilty call landed on flag: s0's 0x5AFE is there.
  EXPECT_EQ(cpu.mem().read32(r.program.symbol("flag")), 0x5AFEu);
}

// NL317 oracle: the second caller's 77 never reaches out_b — scramble's 0
// is echoed instead. Context-insensitively the defect is invisible (s1 is
// Mixed at the call), so --context-k=0 is the negative control.
TEST(FlowRuleTest, Nl317VerdictAgreesWithExecution) {
  DiagEngine diags;
  LintResult r = lint_guest_source(read_file_or_die(fixture_path("nl317_context_clobber.s")),
                                   "nl317", diags);
  ASSERT_TRUE(r.assembled);
  ASSERT_TRUE(diags.has_rule("NL317"));
  EXPECT_NE(diags.diagnostics()[0].message.find("s1"), std::string::npos);
  EXPECT_NE(diags.diagnostics()[0].message.find("call string"), std::string::npos);

  LintOptions joined;
  joined.context_k = 0;
  DiagEngine diags0;
  lint_guest_source(read_file_or_die(fixture_path("nl317_context_clobber.s")), "nl317", diags0,
                    joined);
  EXPECT_FALSE(diags0.has_rule("NL317")) << render_text(diags0);

  iss::Cpu cpu;
  r.program.load_into(cpu.mem());
  cpu.reset(r.program.entry);
  EXPECT_EQ(cpu.run(1000), iss::Halt::Ebreak);
  EXPECT_EQ(cpu.mem().read32(r.program.symbol("out_b")), 0u);  // not 77
}

// A helper reached from three contexts with disjoint argument values: only
// the k = 1 clone of the third call string keeps a0 exact through `fetch`,
// so NL312 needs context sensitivity — the joined entry interval spans the
// map boundary and proves nothing. The ISS run faults exactly there.
TEST(FlowRuleTest, ContextClonesSeparateDisjointArguments) {
  // fetch indexes off two arguments, so its own summary cannot pin the
  // address entry-relatively — only a clone with both arguments exact can.
  const std::string source =
      "_start:\n"
      "    li sp, 0x10000\n"
      "    la a0, buf_a\n"
      "    li a1, 0\n"
      "    call fetch\n"
      "    la a0, buf_b\n"
      "    li a1, 4\n"
      "    call fetch\n"
      "    li a0, 0x200000\n"
      "    li a1, 0\n"
      "    call fetch\n"
      "    ebreak\n"
      "fetch:\n"
      "    addi sp, sp, -16\n"
      "    sw ra, 12(sp)\n"
      "    add a0, a0, a1\n"
      "    call peek\n"
      "    lw ra, 12(sp)\n"
      "    addi sp, sp, 16\n"
      "    ret\n"
      "peek:\n"
      "    lw a0, 0(a0)\n"
      "    ret\n"
      "buf_a: .word 7\n"
      "buf_b: .word 9\n"
      "       .word 11\n";
  DiagEngine diags;
  LintResult r = lint_guest_source(source, "ctx3.s", diags);
  ASSERT_TRUE(r.assembled);
  EXPECT_TRUE(diags.has_rule("NL312")) << render_text(diags);

  LintOptions joined;
  joined.context_k = 0;
  DiagEngine diags0;
  lint_guest_source(source, "ctx3.s", diags0, joined);
  EXPECT_FALSE(diags0.has_rule("NL312")) << render_text(diags0);

  iss::Cpu cpu;  // first two calls read the buffers; the third faults in peek
  r.program.load_into(cpu.mem());
  cpu.reset(r.program.entry);
  iss::ExecutionTracer tracer(cpu, 16);
  EXPECT_EQ(cpu.run(1000), iss::Halt::MemoryFault);
  ASSERT_FALSE(tracer.entries().empty());
  EXPECT_EQ(tracer.entries().back().pc, r.program.symbol("peek"));
}

// NL311 through an indirect call joining two targets: the warning fires
// only for registers every candidate consumes (a0); a1 is read by just one
// target, so the intersection keeps the analysis honest about it.
TEST(FlowRuleTest, IndirectNl311UsesTargetIntersection) {
  DiagEngine diags;
  lint_guest_source(
      "_start:\n"
      "    li sp, 0x10000\n"
      "    la t0, f_one\n"
      "    la t1, f_two\n"
      "    jalr ra, t0, 0\n"
      "    ebreak\n"
      "f_one:\n"
      "    add a0, a0, a1\n"
      "    ret\n"
      "f_two:\n"
      "    addi a0, a0, 1\n"
      "    ret\n",
      "indirect.s", diags);
  std::size_t nl311 = 0;
  for (const Diagnostic& d : diags.diagnostics()) {
    if (d.rule != "NL311") continue;
    ++nl311;
    EXPECT_NE(d.message.find("f_one/f_two"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("register a0"), std::string::npos) << d.message;
  }
  EXPECT_EQ(nl311, 1u) << render_text(diags);  // a0 only, never a1
}

// The --stats counters surface the precision contract: the clean corpus
// guest needs no havoc fallback, narrowing ran, and k = 0 collapses the
// clone table back to one summary per function.
TEST(FlowRuleTest, StatsReportZeroHavocOnCleanGuest) {
  const std::string source =
      read_file_or_die(std::string(NISC_SOURCE_DIR "/examples/guests/checksum_helpers.s"));
  DiagEngine diags;
  LintResult r = lint_guest_source(source, "checksum_helpers.s", diags);
  ASSERT_TRUE(r.assembled);
  EXPECT_GE(r.stats.functions, 3u);
  EXPECT_GT(r.stats.clones, r.stats.functions);  // call strings materialized
  EXPECT_EQ(r.stats.havoc_summaries, 0u);
  EXPECT_GT(r.stats.narrowing_iterations, 0u);
  EXPECT_EQ(r.stats.clone_overflows, 0u);

  LintOptions joined;
  joined.context_k = 0;
  DiagEngine diags0;
  LintResult r0 = lint_guest_source(source, "checksum_helpers.s", diags0, joined);
  EXPECT_EQ(r0.stats.clones, r0.stats.functions);
}

// When the whole-program pass and the per-function context pass derive the
// same defect, exactly one diagnostic comes out, annotated with the call
// provenance.
TEST(FlowRuleTest, InterprocDuplicateMergesIntoOneDiagnostic) {
  DiagEngine diags;
  lint_guest_source(
      "_start:\n"
      "    li sp, 0x10000\n"
      "    call poke\n"
      "    ebreak\n"
      "poke:\n"
      "    li t0, 0x200000\n"
      "    sw zero, 0(t0)\n"
      "    ret\n",
      "seed.s", diags);
  std::size_t nl303 = 0;
  for (const Diagnostic& d : diags.diagnostics()) {
    if (d.rule == "NL303") {
      ++nl303;
      EXPECT_NE(d.message.find("via call from line 3"), std::string::npos) << d.message;
    }
  }
  EXPECT_EQ(nl303, 1u) << render_text(diags);
}

TEST(FlowRuleTest, InterprocOptOutSkipsNl31xRules) {
  LintOptions options;
  options.interproc = false;
  DiagEngine diags;
  LintResult r = lint_guest_source(read_file_or_die(fixture_path("nl311_uninit_call.s")),
                                   "nl311", diags, options);
  ASSERT_TRUE(r.assembled);
  EXPECT_TRUE(diags.empty()) << render_text(diags);
  EXPECT_TRUE(r.summaries_json.empty());
}

// The multi-function clean guest exercises prologue spills, a loop calling
// a helper, and frame release — and must stay finding-free with the
// interprocedural pass on (it is also swept by CommittedGuestsHaveNoFindings).
TEST(FlowRuleTest, ChecksumHelpersGuestIsCleanWithSummaries) {
  DiagEngine diags;
  LintResult r = lint_guest_source(
      read_file_or_die(std::string(NISC_SOURCE_DIR "/examples/guests/checksum_helpers.s")),
      "checksum_helpers.s", diags);
  ASSERT_TRUE(r.assembled);
  EXPECT_TRUE(diags.empty()) << render_text(diags);
  // The summary dump names every function and proves checksum balanced.
  EXPECT_NE(r.summaries_json.find("\"name\":\"checksum\""), std::string::npos);
  EXPECT_NE(r.summaries_json.find("\"name\":\"accumulate\""), std::string::npos);
  EXPECT_NE(r.summaries_json.find("\"sp_delta\":0"), std::string::npos);
}

// Smoke bound only: the context-sensitive interprocedural pass does real
// extra work (clone table, narrowing sweeps), so the old hard 2x wall-time
// ratio is retired — regressions are tracked by bench_lint against the
// committed BENCH_lint.json baseline instead. This test just catches
// runaway blowups (4x plus constant slack for timer noise on loaded CI
// machines).
TEST(FlowPerfTest, InterprocSmokeBound) {
  namespace fs = std::filesystem;
  std::vector<std::string> corpus;
  for (const char* dir : {NISC_SOURCE_DIR "/examples/guests",
                          NISC_SOURCE_DIR "/examples/guests/bad"}) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file() && entry.path().extension() == ".s") {
        corpus.push_back(read_file_or_die(entry.path().string()));
      }
    }
  }
  ASSERT_GE(corpus.size(), 10u);

  auto lint_corpus = [&](bool interproc) {
    LintOptions options;
    options.interproc = interproc;
    auto begin = std::chrono::steady_clock::now();
    for (const std::string& source : corpus) {
      DiagEngine diags;
      lint_guest_source(source, "perf.s", diags, options);
    }
    return std::chrono::steady_clock::now() - begin;
  };
  // Best of three to shrug off scheduler noise.
  auto best_off = lint_corpus(false);
  auto best_on = lint_corpus(true);
  for (int i = 0; i < 2; ++i) {
    best_off = std::min(best_off, lint_corpus(false));
    best_on = std::min(best_on, lint_corpus(true));
  }
  EXPECT_LE(best_on, 4 * best_off + std::chrono::milliseconds(100))
      << "interproc: " << std::chrono::duration_cast<std::chrono::microseconds>(best_on).count()
      << "us, intraproc only: "
      << std::chrono::duration_cast<std::chrono::microseconds>(best_off).count() << "us";
}

// ---------------------------------------------------------------- emit-test

TEST(EmitTestTest, CounterexamplesCompileIntoGtestSources) {
  ModelOptions model_options;
  model_options.recovery = false;
  ProtocolModel model = make_model(ModelId::DriverKernel, model_options);
  EnvOptions env = EnvOptions::faulty();
  ExploreReport report = explore(model, env);
  ASSERT_FALSE(report.violations.empty());  // the faulty environment bites

  std::string tu = emit_regression_tests(report, ModelId::DriverKernel, model_options, env);
  EXPECT_NE(tu.find("#include <gtest/gtest.h>"), std::string::npos);
  EXPECT_NE(tu.find("TEST(EmittedDriverKernel, NL41"), std::string::npos);
  EXPECT_NE(tu.find("ViolationKind::"), std::string::npos);
  EXPECT_NE(tu.find("ipc::FaultPlan plan;"), std::string::npos);
  EXPECT_NE(tu.find("options.recovery = false;"), std::string::npos);
  EXPECT_NE(tu.find("env.corrupting = true;"), std::string::npos);
  // Every counterexample became one TEST, each with its trace as comments.
  std::size_t tests = 0;
  for (std::size_t pos = 0; (pos = tu.find("TEST(", pos)) != std::string::npos; ++pos) ++tests;
  EXPECT_EQ(tests, report.violations.size());
  EXPECT_NE(tu.find("minimal counterexample trace"), std::string::npos);

  EXPECT_EQ(emitted_test_filename(ModelId::DriverKernel), "emitted_driver_kernel_test.cpp");
  EXPECT_EQ(emitted_test_filename(ModelId::GdbWrapper), "emitted_gdb_wrapper_test.cpp");
}

TEST(EmitTestTest, CleanExplorationEmitsDocumentationTest) {
  ModelOptions model_options;
  model_options.recovery = false;
  ExploreReport report = explore(make_model(ModelId::GdbWrapper, model_options), EnvOptions{});
  ASSERT_TRUE(report.clean());
  std::string tu =
      emit_regression_tests(report, ModelId::GdbWrapper, model_options, EnvOptions{});
  EXPECT_NE(tu.find("ExplorationStaysClean"), std::string::npos);
  EXPECT_NE(tu.find("EXPECT_TRUE(report.clean());"), std::string::npos);
}

// ---------------------------------------------------------------- frames

std::vector<std::uint8_t> sample_frames() {
  std::vector<std::uint8_t> bytes;
  for (const ipc::DriverMessage& msg :
       {ipc::DriverMessage::write_u32("router.from_cpu", 0xDEADBEEF),
        ipc::DriverMessage::read_request("router.to_cpu"), ipc::DriverMessage::interrupt(3)}) {
    std::vector<std::uint8_t> frame = ipc::encode_message(msg);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

TEST(FrameCheckTest, WellFormedFramesPass) {
  DiagEngine diags;
  EXPECT_EQ(check_frames(sample_frames(), diags), 3u);
  EXPECT_TRUE(diags.empty()) << render_text(diags);
}

// Seeded defect: truncated frame (buffer ends inside the last body).
TEST(FrameCheckTest, TruncatedFrameFlagged) {
  std::vector<std::uint8_t> bytes = sample_frames();
  bytes.resize(bytes.size() - 3);
  DiagEngine diags;
  EXPECT_EQ(check_frames(bytes, diags), 2u);
  ASSERT_TRUE(diags.has_rule("frame.truncated"));
  EXPECT_EQ(diags.diagnostics()[0].loc.line, 3);  // third frame is the bad one
}

// Seeded defect: oversized frame (corrupt packet_size field).
TEST(FrameCheckTest, OversizedFrameFlagged) {
  std::vector<std::uint8_t> bytes = sample_frames();
  bytes[0] = 0xFF;  // patch the first size field far beyond kMaxMessageBody
  bytes[1] = 0xFF;
  bytes[2] = 0xFF;
  bytes[3] = 0xFF;
  DiagEngine diags;
  EXPECT_EQ(check_frames(bytes, diags), 0u);
  EXPECT_TRUE(diags.has_rule("frame.oversized"));
}

TEST(FrameCheckTest, MalformedBodyFlagged) {
  // A frame whose size field is consistent but whose body is garbage.
  std::vector<std::uint8_t> bytes = {4, 0, 0, 0, 0xEE, 0xEE, 0xEE, 0xEE};
  DiagEngine diags;
  EXPECT_EQ(check_frames(bytes, diags), 0u);
  EXPECT_TRUE(diags.has_rule("frame.malformed"));
}

TEST(FrameCheckTest, EmptyBufferIsClean) {
  DiagEngine diags;
  EXPECT_EQ(check_frames({}, diags), 0u);
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------- clean model

// The shipped router example must produce zero diagnostics end to end: the
// guest programs lint clean, the elaborated design checks clean, and a live
// co-simulated run raises no race reports.
TEST(CleanModelTest, RouterExampleHasNoFindings) {
  DiagEngine diags;

  LintOptions options;
  options.known_ports = {"router.to_cpu", "router.from_cpu"};
  LintResult gdb_guest = lint_guest_source(
      router::word_stream_checksum_source("router.to_cpu", "router.from_cpu"),
      "<builtin:checksum_gdb>", diags, options);
  EXPECT_TRUE(gdb_guest.assembled);
  EXPECT_EQ(gdb_guest.bindings.size(), 2u);

  lint_guest_source(rtos::guest_abi_prelude() + router::bulk_checksum_source(),
                    "<builtin:checksum_driver>", diags);

  race_monitor monitor(diags);
  router::TestbenchConfig config;
  config.scheme = router::Scheme::GdbKernel;
  config.packets_per_producer = 2;
  config.num_producers = 2;
  config.inter_packet_delay = 2_us;
  router::Testbench bench(config);
  race_monitor::scoped_attach attach(bench.context(), monitor);
  check_elaboration(bench.context(), diags);
  bench.run_until_drained(sysc::sc_time(50, sysc::SC_MS));
  EXPECT_GE(bench.report().received, 1u);

  EXPECT_TRUE(diags.empty()) << render_text(diags);
  EXPECT_EQ(monitor.total_races(), 0u);
}

}  // namespace
}  // namespace nisc::analysis
