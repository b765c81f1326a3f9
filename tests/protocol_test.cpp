// Tests for the protocol automata layer (DESIGN.md §11): model construction,
// the explicit-state model checker (fault-free proofs + known-by-construction
// counterexamples under adversarial environments), the conformance monitor
// (NL401..NL404 over synthetic and captured traffic, including the PR 2
// quiesce degradation), and the acceptance pipeline: a statically found
// counterexample replayed through a real FaultyChannel schedule and caught by
// the live monitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/diag.hpp"
#include "analysis/explore.hpp"
#include "analysis/frame.hpp"
#include "analysis/protocol.hpp"
#include "cosim/driver_kernel.hpp"
#include "cosim/worker.hpp"
#include "ipc/capture.hpp"
#include "ipc/channel.hpp"
#include "ipc/fault.hpp"
#include "ipc/message.hpp"
#include "rsp/packet.hpp"
#include "sysc/sysc.hpp"

namespace nisc::analysis {
namespace {

using namespace sysc::time_literals;

// encode_message already emits the full wire frame (u32 size + body).
std::vector<std::uint8_t> frame_bytes(const ipc::DriverMessage& msg) {
  return ipc::encode_message(msg);
}

std::vector<std::uint8_t> rsp_bytes(std::string_view payload) {
  std::string framed = rsp::frame_packet(payload);
  return std::vector<std::uint8_t>(framed.begin(), framed.end());
}

/// One worker wire frame (u32 body_len | u8 op | u64 seq | payload), with
/// the optional 12-byte FTID trace trailer when `trace_id` is nonzero and
/// the op has a fixed payload — byte-compatible with cosim::send_frame.
std::vector<std::uint8_t> worker_frame_bytes(cosim::WorkerOp op, std::uint64_t seq,
                                             std::vector<std::uint8_t> payload = {},
                                             std::uint64_t trace_id = 0) {
  const std::size_t fixed = cosim::worker_op_fixed_payload(op);
  const bool trailer = trace_id != 0 && fixed != 0 && payload.size() == fixed;
  std::vector<std::uint8_t> out;
  const auto le32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  const auto le64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  le32(static_cast<std::uint32_t>(1 + 8 + payload.size() + (trailer ? 12 : 0)));
  out.push_back(static_cast<std::uint8_t>(op));
  le64(seq);
  out.insert(out.end(), payload.begin(), payload.end());
  if (trailer) {
    le64(trace_id);
    le32(cosim::kFrameTraceMagic);
  }
  return out;
}

// ------------------------------------------------------------------- Models

TEST(ProtocolModelTest, AllFiveModelsBuild) {
  for (ModelId id : {ModelId::DriverKernel, ModelId::GdbKernel, ModelId::GdbWrapper,
                     ModelId::Worker, ModelId::DriverIrq}) {
    ProtocolModel model = make_model(id);
    EXPECT_EQ(model.id, id);
    EXPECT_FALSE(model.symbols.empty());
    EXPECT_FALSE(model.channels.empty());
    EXPECT_GE(model.endpoint_a.states().size(), 2u);
    EXPECT_GE(model.endpoint_b.states().size(), 2u);
    EXPECT_EQ(model_from_name(model.name), id);
  }
  EXPECT_FALSE(model_from_name("no-such-model").has_value());
}

TEST(ProtocolModelTest, WorkerShape) {
  ProtocolModel model = make_model(ModelId::Worker);
  EXPECT_EQ(model.wire, WireFormat::Worker);
  EXPECT_TRUE(model.monitored(0));   // data socket carries the capture
  EXPECT_FALSE(model.monitored(1));  // irq socket is its own wire
  EXPECT_EQ(model.reset_event, "respawn");
  EXPECT_EQ(model.reset_state, 0);
  EXPECT_TRUE(model.crash.enabled);
  EXPECT_EQ(model.crash.units, 2);
  ASSERT_EQ(model.crash.unit_irq_symbols.size(), 2u);
  EXPECT_GE(model.crash.unit_irq_symbols[0], 0);  // the DevWrite unit irqs
  EXPECT_EQ(model.crash.unit_irq_symbols[1], -1);
  // The sideband states only exist when the side-band is spoken.
  EXPECT_GE(model.endpoint_a.find_state("SyncClock"), 0);
  ModelOptions nosb;
  nosb.sideband = false;
  EXPECT_LT(make_model(ModelId::Worker, nosb).endpoint_a.find_state("SyncClock"), 0);
}

TEST(ProtocolModelTest, DriverIrqWorkerWireVariant) {
  ProtocolModel plain = make_model(ModelId::DriverIrq);
  EXPECT_EQ(plain.wire, WireFormat::DriverKernel);
  EXPECT_TRUE(plain.reset_event.empty());

  ModelOptions o;
  o.worker_wire = true;
  ProtocolModel wk = make_model(ModelId::DriverIrq, o);
  EXPECT_EQ(wk.wire, WireFormat::Worker);
  EXPECT_EQ(wk.reset_event, "respawn");
  EXPECT_EQ(wk.symbols.size(), 15u);  // the full worker alphabet
  EXPECT_GE(wk.endpoint_a.find_state("Isr"), 0);
}

TEST(ProtocolModelTest, DriverKernelShape) {
  ProtocolModel model = make_model(ModelId::DriverKernel);
  // Kernel (A) has the quiesce degradation state from PR 2; the irq channel
  // is not observable by the monitor (separate socket, no capture).
  EXPECT_GE(model.endpoint_a.find_state("Quiesced"), 0);
  EXPECT_GE(model.endpoint_b.find_state("Degraded"), 0);
  EXPECT_TRUE(model.monitored(0));   // data
  EXPECT_FALSE(model.monitored(1));  // irq
  EXPECT_GE(model.garbage_symbol, 0);

  // ModelOptions::recovery = false removes the degradation machinery: no
  // transition of the core model is a recovery escape hatch.
  ModelOptions no_recovery;
  no_recovery.recovery = false;
  ProtocolModel core = make_model(ModelId::DriverKernel, no_recovery);
  for (const ProtocolAutomaton* automaton : {&core.endpoint_a, &core.endpoint_b}) {
    for (std::size_t s = 0; s < automaton->states().size(); ++s) {
      for (const ProtoTransition& t : automaton->from(static_cast<int>(s))) {
        EXPECT_FALSE(t.recovery);
      }
    }
  }
}

// ----------------------------------------------------------- Model checking

TEST(ExploreTest, FaultFreeCompositionsAreClean) {
  for (ModelId id : {ModelId::DriverKernel, ModelId::GdbKernel, ModelId::GdbWrapper}) {
    ExploreReport report = explore(make_model(id));
    EXPECT_TRUE(report.complete) << model_name(id);
    EXPECT_TRUE(report.violations.empty())
        << model_name(id) << ":\n" << render_text(report);
    EXPECT_GT(report.states, 10u);
  }
}

TEST(ExploreTest, FaultFreeCoreProtocolIsCleanWithoutRecovery) {
  ModelOptions options;
  options.recovery = false;
  for (ModelId id : {ModelId::DriverKernel, ModelId::GdbKernel, ModelId::GdbWrapper}) {
    ExploreReport report = explore(make_model(id, options));
    EXPECT_TRUE(report.clean()) << model_name(id) << ":\n" << render_text(report);
  }
}

TEST(ExploreTest, RecoveryHandlesFullyAdversarialEnvironment) {
  // The resilience machinery (quiesce / timeout / die) must absorb loss,
  // duplication, corruption and disconnects without dead ends.
  for (ModelId id : {ModelId::DriverKernel, ModelId::GdbKernel, ModelId::GdbWrapper}) {
    ExploreReport report = explore(make_model(id), EnvOptions::faulty());
    EXPECT_TRUE(report.clean()) << model_name(id) << ":\n" << render_text(report);
  }
}

TEST(ExploreTest, WorkerAndDriverIrqFaultFreeAreClean) {
  for (ModelId id : {ModelId::Worker, ModelId::DriverIrq}) {
    ExploreReport report = explore(make_model(id));
    EXPECT_TRUE(report.clean()) << model_name(id) << ":\n" << render_text(report);
    EXPECT_GT(report.states, 5u);
  }
  // The irq automaton also survives the fully adversarial wire.
  ExploreReport irq = explore(make_model(ModelId::DriverIrq), EnvOptions::faulty());
  EXPECT_TRUE(irq.clean()) << render_text(irq);
}

TEST(ExploreTest, WorkerIsCrashConsistentUnderKillAnywhere) {
  // The tentpole proof: SIGKILL at every reachable state (two kills deep),
  // respawn from the last checkpoint, irq-log re-delivery — and no effect is
  // ever duplicated (NL413), no ack ever lost (NL414), no dead end appears.
  EnvOptions crash;
  crash.crashing = true;
  for (bool sideband : {true, false}) {
    ModelOptions options;
    options.sideband = sideband;
    ExploreReport report = explore(make_model(ModelId::Worker, options), crash);
    EXPECT_TRUE(report.clean())
        << "sideband=" << sideband << ":\n" << render_text(report);
    // The crash environment must actually enlarge the space (kill points).
    ExploreReport fault_free = explore(make_model(ModelId::Worker, options));
    EXPECT_GT(report.states, fault_free.states) << "sideband=" << sideband;
  }
}

TEST(ExploreTest, DisabledReplyLogDuplicatesEffectNL413) {
  // Negative control: without the reply log a post-crash replay re-applies
  // the device write — the checker must find NL413 with a minimal trace
  // that contains the kill itself.
  ModelOptions options;
  options.worker_reply_log = false;
  EnvOptions crash;
  crash.crashing = true;
  ExploreReport report = explore(make_model(ModelId::Worker, options), crash);
  ASSERT_FALSE(report.violations.empty());
  const auto dup = std::find_if(report.violations.begin(), report.violations.end(),
                                [](const Counterexample& ce) {
                                  return ce.kind == ViolationKind::DuplicateEffect;
                                });
  ASSERT_NE(dup, report.violations.end()) << render_text(report);
  EXPECT_STREQ(violation_rule(dup->kind), "NL413");
  EXPECT_STREQ(violation_kind_name(dup->kind), "duplicate-effect");
  EXPECT_TRUE(std::any_of(dup->trace.begin(), dup->trace.end(), [](const TraceStep& s) {
    return s.effect == TraceStep::Effect::Crashed;
  })) << render_text(report);
  // BFS minimality: kill after the first applied write, replay, re-apply.
  EXPECT_LE(dup->trace.size(), 10u) << render_text(report);
}

TEST(ExploreTest, EagerReplyLogPruningLosesAckNL414) {
  // Negative control: pruning the reply log at ack time (instead of at the
  // checkpoint) starves a replayed request after a crash — the worker waits
  // forever for the ack of an effect the supervisor already applied.
  ModelOptions options;
  options.worker_eager_prune = true;
  EnvOptions crash;
  crash.crashing = true;
  ExploreReport report = explore(make_model(ModelId::Worker, options), crash);
  const auto lost = std::find_if(report.violations.begin(), report.violations.end(),
                                 [](const Counterexample& ce) {
                                   return ce.kind == ViolationKind::LostAck;
                                 });
  ASSERT_NE(lost, report.violations.end()) << render_text(report);
  EXPECT_STREQ(violation_rule(lost->kind), "NL414");
  EXPECT_STREQ(violation_kind_name(lost->kind), "lost-ack");
}

TEST(ExploreTest, LossWithoutRecoveryDeadlocksDriverKernel) {
  // Known by construction: with no recovery and no spontaneous output
  // pushes, losing a READ leaves the driver waiting forever. (With
  // push_outputs the kernel's pushes genuinely rescue the lost reply — the
  // full model is clean under loss, which FaultFree/Recovery tests cover.)
  ModelOptions options;
  options.recovery = false;
  options.push_outputs = false;
  options.interrupts = false;
  EnvOptions env;
  env.lossy = true;
  ExploreReport report = explore(make_model(ModelId::DriverKernel, options), env);
  ASSERT_FALSE(report.violations.empty());
  bool saw_minimal_deadlock = false;
  for (const Counterexample& ce : report.violations) {
    if (ce.kind != ViolationKind::Deadlock) continue;
    EXPECT_FALSE(ce.trace.empty());
    std::size_t faults = 0;
    for (const TraceStep& step : ce.trace) {
      if (step.effect != TraceStep::Effect::Normal) ++faults;
    }
    // Minimality: one lost message suffices, and BFS must find such a trace.
    if (faults == 1) saw_minimal_deadlock = true;
  }
  EXPECT_TRUE(saw_minimal_deadlock) << render_text(report);

  DiagEngine diags;
  report_violations(report, diags);
  EXPECT_TRUE(diags.has_rule("NL410"));
  EXPECT_GT(diags.errors(), 0u);
}

TEST(ExploreTest, CorruptionWithoutRecoveryIsUnspecifiedReception) {
  // Garbage arriving at an endpoint with no garbage transition and no other
  // way forward is an unspecified reception, not a deadlock.
  ModelOptions options;
  options.recovery = false;
  options.push_outputs = false;
  options.interrupts = false;
  EnvOptions env;
  env.corrupting = true;
  ExploreReport report = explore(make_model(ModelId::DriverKernel, options), env);
  bool saw_unspecified = false;
  for (const Counterexample& ce : report.violations) {
    if (ce.kind == ViolationKind::UnspecifiedReception) saw_unspecified = true;
  }
  EXPECT_TRUE(saw_unspecified) << render_text(report);

  DiagEngine diags;
  report_violations(report, diags);
  EXPECT_TRUE(diags.has_rule("NL411"));
}

TEST(ExploreTest, ReportRenderings) {
  ModelOptions options;
  options.recovery = false;
  ExploreReport report = explore(make_model(ModelId::GdbWrapper, options), EnvOptions::faulty());
  ASSERT_FALSE(report.violations.empty());
  std::string text = render_text(report);
  EXPECT_NE(text.find("deadlock"), std::string::npos);
  util::JsonWriter w;
  render_json(w, report);
  const std::string& json = w.str();
  EXPECT_NE(json.find("\"model\":\"gdb-wrapper\""), std::string::npos);
  EXPECT_NE(json.find("\"violations\":["), std::string::npos);
}

// ------------------------------------------------------------ StreamDecoder

TEST(StreamDecoderTest, ReassemblesDriverKernelFramesAcrossChunks) {
  StreamDecoder decoder(WireFormat::DriverKernel, /*toward_target=*/false);
  std::vector<std::uint8_t> frame = frame_bytes(ipc::DriverMessage::write_u32("p", 7));
  std::vector<WireSymbol> out;
  // Feed byte by byte: exactly one symbol, no garbage.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    decoder.feed(std::span<const std::uint8_t>(&frame[i], 1), out);
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].malformed);
  EXPECT_EQ(decoder.pending(), 0u);
}

TEST(StreamDecoderTest, RspAcksAreFilteredAndPayloadsClassified) {
  StreamDecoder decoder(WireFormat::Rsp, /*toward_target=*/true);
  std::vector<WireSymbol> out;
  std::vector<std::uint8_t> bytes = {'+'};
  decoder.feed(bytes, out);
  EXPECT_TRUE(out.empty());  // acks are advisory, not protocol symbols
  bytes = rsp_bytes("c");
  decoder.feed(bytes, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].malformed);
}

TEST(StreamDecoderTest, WorkerFramesReassembleWithChunkBoundaryInsideTrailer) {
  // A traced DevWrite: 8 payload bytes + the 12-byte FTID trailer. Split the
  // stream so one chunk boundary falls inside the trailer — the decoder must
  // still emit exactly one symbol and strip the trailer from the payload.
  StreamDecoder decoder(WireFormat::Worker, /*toward_target=*/false);
  const std::vector<std::uint8_t> frame =
      worker_frame_bytes(cosim::WorkerOp::DevWrite, 1, {1, 0, 0, 0, 42, 0, 0, 0},
                         /*trace_id=*/0xABCDu);
  ASSERT_EQ(frame.size(), 4u + 1 + 8 + 8 + 12);
  std::vector<WireSymbol> out;
  const std::size_t mid_trailer = frame.size() - 6;  // inside the u64 trace_id
  decoder.feed(std::span<const std::uint8_t>(frame.data(), mid_trailer), out);
  EXPECT_TRUE(out.empty());
  EXPECT_GT(decoder.pending(), 0u);
  decoder.feed(std::span<const std::uint8_t>(frame.data() + mid_trailer,
                                             frame.size() - mid_trailer),
               out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].malformed);
  EXPECT_NE(out[0].detail.find("traced"), std::string::npos);
  EXPECT_NE(out[0].detail.find("8 payload byte(s)"), std::string::npos) << out[0].detail;
  EXPECT_EQ(decoder.pending(), 0u);
}

TEST(StreamDecoderTest, WorkerDrainSplitMidTrailerAndTruncatedFinalFrame) {
  // drain_to_frame_boundary on the worker wire (the checkpoint invariant):
  // a drain that starts with the frame torn inside the FTID trailer keeps
  // reading until the trailer completes, and a sender that dies mid-frame
  // leaves the drain dirty.
  ipc::ChannelPair pair = ipc::make_channel_pair(ipc::Transport::SocketPair);
  const std::vector<std::uint8_t> frame =
      worker_frame_bytes(cosim::WorkerOp::WriteAck, 3, {7, 0, 0, 0, 0, 0, 0, 0},
                         /*trace_id=*/0x1122334455667788u);
  const std::size_t split = frame.size() - 9;  // boundary inside the trailer
  pair.b.send(std::span<const std::uint8_t>(frame.data(), split));
  std::thread finisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    pair.b.send(std::span<const std::uint8_t>(frame.data() + split, frame.size() - split));
  });
  DrainResult drained = drain_to_frame_boundary(pair.a, WireFormat::Worker,
                                                /*toward_target=*/false, /*timeout_ms=*/2000);
  finisher.join();
  EXPECT_TRUE(drained.clean);
  EXPECT_EQ(drained.bytes, frame);
  ASSERT_EQ(drained.symbols.size(), 1u);
  EXPECT_FALSE(drained.symbols[0].malformed);
  EXPECT_NE(drained.symbols[0].detail.find("traced"), std::string::npos);

  // Truncated final frame: the sender never completes the body.
  pair.b.send(std::span<const std::uint8_t>(frame.data(), split));
  DrainResult dirty = drain_to_frame_boundary(pair.a, WireFormat::Worker,
                                              /*toward_target=*/false, /*timeout_ms=*/50);
  EXPECT_FALSE(dirty.clean);
  EXPECT_EQ(dirty.bytes.size(), split);
}

TEST(FrameDialectTest, WorkerFramesValidateAndTrailersAreNotDefects) {
  // Satellite regression: the Driver-Kernel validator false-positives on
  // every worker frame; the Worker dialect accepts them, FTID trailers
  // included, and still catches real defects.
  std::vector<std::uint8_t> stream;
  const auto append = [&](std::vector<std::uint8_t> f) {
    stream.insert(stream.end(), f.begin(), f.end());
  };
  append(worker_frame_bytes(cosim::WorkerOp::Hello, 0, {0x57, 0x52, 0x4B, 0x31}));
  append(worker_frame_bytes(cosim::WorkerOp::DevWrite, 1, {1, 0, 0, 0, 9, 0, 0, 0},
                            /*trace_id=*/77));
  append(worker_frame_bytes(cosim::WorkerOp::WriteAck, 1, {0, 0, 0, 0, 0, 0, 0, 0}));

  DiagEngine worker_diags;
  EXPECT_EQ(check_frames(stream, worker_diags, "<worker>", WireFormat::Worker), 3u);
  EXPECT_EQ(worker_diags.errors(), 0u);
  EXPECT_EQ(worker_diags.warnings(), 0u);

  DiagEngine dk_diags;
  check_frames(stream, dk_diags, "<worker-as-dk>");  // the old false positive
  EXPECT_GT(dk_diags.errors(), 0u);

  // Real defects still fire: unknown op, then a fixed-payload length lie.
  std::vector<std::uint8_t> bad_op = worker_frame_bytes(cosim::WorkerOp::Hello, 0, {});
  bad_op[4] = 0x7F;
  DiagEngine bad_op_diags;
  EXPECT_EQ(check_frames(bad_op, bad_op_diags, "<bad-op>", WireFormat::Worker), 0u);
  EXPECT_TRUE(bad_op_diags.has_rule("frame.malformed"));

  std::vector<std::uint8_t> short_write =
      worker_frame_bytes(cosim::WorkerOp::DevWrite, 2, {1, 2, 3});
  DiagEngine short_diags;
  EXPECT_EQ(check_frames(short_write, short_diags, "<short>", WireFormat::Worker), 0u);
  EXPECT_TRUE(short_diags.has_rule("frame.malformed"));

  std::vector<std::uint8_t> torn =
      worker_frame_bytes(cosim::WorkerOp::DevRead, 3, {8, 0, 0, 0});
  torn.resize(torn.size() - 2);
  DiagEngine torn_diags;
  EXPECT_EQ(check_frames(torn, torn_diags, "<torn>", WireFormat::Worker), 0u);
  EXPECT_TRUE(torn_diags.has_rule("frame.truncated"));
}

/// One row of the decoder-agreement table: a byte stream on one wire and
/// whether it holds only well-formed frames.
struct WireRow {
  const char* name;
  WireFormat format;
  std::vector<std::uint8_t> bytes;
  bool accept;
};

std::vector<std::uint8_t> concat(std::initializer_list<std::vector<std::uint8_t>> parts) {
  std::vector<std::uint8_t> out;
  for (const std::vector<std::uint8_t>& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

std::vector<WireRow> agreement_rows() {
  using cosim::WorkerOp;
  const std::vector<std::uint8_t> dk_valid =
      concat({frame_bytes(ipc::DriverMessage::write_u32("router.from_cpu", 0xDEADBEEF)),
              frame_bytes(ipc::DriverMessage::read_request("router.to_cpu")),
              frame_bytes(ipc::DriverMessage::interrupt(3))});
  std::vector<std::uint8_t> dk_torn = dk_valid;
  dk_torn.resize(dk_torn.size() - 3);
  const std::vector<std::uint8_t> dk_bad_body = {4, 0, 0, 0, 0xEE, 0xEE, 0xEE, 0xEE};
  const std::vector<std::uint8_t> dk_bad_length = {0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0};

  const std::vector<std::uint8_t> write = {1, 0, 0, 0, 9, 0, 0, 0};
  const std::vector<std::uint8_t> ack = {0, 0, 0, 0, 0, 0, 0, 0};
  const std::vector<std::uint8_t> wk_plain =
      concat({worker_frame_bytes(WorkerOp::Hello, 0, {0x57, 0x52, 0x4B, 0x31}),
              worker_frame_bytes(WorkerOp::DevWrite, 1, write),
              worker_frame_bytes(WorkerOp::WriteAck, 1, ack),
              worker_frame_bytes(WorkerOp::Ckpt, 2, {0xAA, 0xBB, 0xCC})});
  const std::vector<std::uint8_t> wk_traced =
      concat({worker_frame_bytes(WorkerOp::DevWrite, 1, write, /*trace_id=*/77),
              worker_frame_bytes(WorkerOp::WriteAck, 1, ack, /*trace_id=*/77),
              worker_frame_bytes(WorkerOp::DevRead, 2, {4, 1, 0, 0}, /*trace_id=*/78)});
  std::vector<std::uint8_t> wrong_magic = write;
  for (int i = 0; i < 12; ++i) wrong_magic.push_back(0x33);  // trailer-sized, no "FTID"
  std::vector<std::uint8_t> unknown_op = worker_frame_bytes(WorkerOp::Hello, 0, {});
  unknown_op[4] = 0x7F;
  std::vector<std::uint8_t> wk_torn = wk_traced;
  wk_torn.resize(wk_torn.size() - 5);
  const std::vector<std::uint8_t> wk_bad_length = {3, 0, 0, 0, 0x12, 0, 0};

  return {
      {"dk-valid", WireFormat::DriverKernel, dk_valid, true},
      {"dk-malformed-body", WireFormat::DriverKernel, concat({dk_valid, dk_bad_body}), false},
      {"dk-torn-final-frame", WireFormat::DriverKernel, dk_torn, false},
      {"dk-bad-length", WireFormat::DriverKernel, dk_bad_length, false},
      {"worker-valid-plain", WireFormat::Worker, wk_plain, true},
      {"worker-valid-traced", WireFormat::Worker, wk_traced, true},
      {"worker-short-devwrite", WireFormat::Worker,
       concat({wk_plain, worker_frame_bytes(WorkerOp::DevWrite, 3, {1, 2, 3})}), false},
      {"worker-long-devwrite", WireFormat::Worker,
       concat({worker_frame_bytes(WorkerOp::DevWrite, 1, {1, 0, 0, 0, 9, 0, 0, 0, 0}),
               wk_plain}),
       false},
      {"worker-trailer-sized-wrong-magic", WireFormat::Worker,
       worker_frame_bytes(WorkerOp::DevWrite, 1, wrong_magic), false},
      {"worker-unknown-op", WireFormat::Worker, concat({unknown_op, wk_plain}), false},
      {"worker-torn-final-frame", WireFormat::Worker, wk_torn, false},
      {"worker-bad-length", WireFormat::Worker, wk_bad_length, false},
  };
}

/// The wire's own reader (recv_message / recv_frame) over a socketpair:
/// accepts when every byte is consumed as a frame without a throw.
bool reader_accepts(const WireRow& row) {
  ipc::ChannelPair pair = ipc::make_channel_pair(ipc::Transport::SocketPair);
  pair.b.set_io_timeout(100);  // a torn final frame times out instead of hanging
  pair.a.send(row.bytes);
  try {
    while (pair.b.readable(0)) {
      if (row.format == WireFormat::Worker) {
        cosim::recv_frame(pair.b);
      } else {
        ipc::recv_message(pair.b);
      }
    }
  } catch (const util::RuntimeError&) {
    return false;
  }
  return true;
}

bool monitor_accepts(const WireRow& row) {
  DiagEngine diags;
  ConformanceMonitor monitor(
      make_model(row.format == WireFormat::Worker ? ModelId::Worker : ModelId::DriverKernel),
      diags, MonitorOptions{"<agreement>", /*end_check=*/false});
  monitor.on_transfer(ipc::CaptureDir::Rx, row.bytes);
  monitor.finish();
  return !diags.has_rule("NL402");
}

TEST(FrameDialectTest, EveryParserOfAWireReachesTheSameVerdict) {
  // Each wire has one parser; its reader, the conformance monitor, the frame
  // validator and the stream decoder (fed in two chunks split at every byte
  // offset) must therefore agree on which streams hold only good frames.
  for (const WireRow& row : agreement_rows()) {
    SCOPED_TRACE(row.name);
    EXPECT_EQ(reader_accepts(row), row.accept);
    EXPECT_EQ(monitor_accepts(row), row.accept);
    DiagEngine frame_diags;
    check_frames(row.bytes, frame_diags, row.name, row.format);
    EXPECT_EQ(frame_diags.errors() == 0, row.accept) << render_text(frame_diags);

    StreamDecoder whole(row.format, /*toward_target=*/false);
    std::vector<WireSymbol> expected;
    whole.feed(row.bytes, expected);
    for (std::size_t split = 0; split <= row.bytes.size(); ++split) {
      StreamDecoder decoder(row.format, /*toward_target=*/false);
      std::vector<WireSymbol> got;
      const std::span<const std::uint8_t> bytes(row.bytes);
      decoder.feed(bytes.first(split), got);
      decoder.feed(bytes.subspan(split), got);
      const bool clean = decoder.pending() == 0 && !decoder.wedged() &&
                         std::none_of(got.begin(), got.end(),
                                      [](const WireSymbol& sym) { return sym.malformed; });
      EXPECT_EQ(clean, row.accept) << "split at " << split;
      ASSERT_EQ(got.size(), expected.size()) << "split at " << split;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].symbol, expected[i].symbol) << "split at " << split;
        EXPECT_EQ(got[i].malformed, expected[i].malformed) << "split at " << split;
      }
    }
  }
}

// ------------------------------------------------------ Conformance monitor

TEST(ConformanceMonitorTest, CleanDriverKernelStreamIsAccepted) {
  DiagEngine diags;
  ConformanceMonitor monitor(make_model(ModelId::DriverKernel), diags);
  // Driver -> kernel WRITE (monitor watches A, so this is Rx), kernel ->
  // driver READ-REPLY push (Tx).
  std::vector<std::uint8_t> write = frame_bytes(ipc::DriverMessage::write_u32("iss_in", 1));
  monitor.on_transfer(ipc::CaptureDir::Rx, write);
  std::vector<std::uint8_t> reply = frame_bytes(ipc::DriverMessage{
      ipc::MsgType::ReadReply, {{"iss_out", {1, 0, 0, 0}}}});
  monitor.on_transfer(ipc::CaptureDir::Tx, reply);
  monitor.finish();
  EXPECT_EQ(monitor.messages_seen(), 2u);
  EXPECT_EQ(diags.errors(), 0u);
  EXPECT_EQ(diags.warnings(), 0u);
}

TEST(ConformanceMonitorTest, QuiesceDegradationSequenceIsAccepted) {
  // Satellite: the full PR 2 degradation sequence must conform — healthy
  // traffic, then the out-of-band quiesce event, then silence.
  DiagEngine diags;
  ConformanceMonitor monitor(make_model(ModelId::DriverKernel), diags);
  std::vector<std::uint8_t> write = frame_bytes(ipc::DriverMessage::write_u32("iss_in", 1));
  monitor.on_transfer(ipc::CaptureDir::Rx, write);
  EXPECT_TRUE(monitor.state_possible("Run"));
  monitor.on_event("quiesce");
  EXPECT_TRUE(monitor.state_possible("Quiesced"));
  monitor.finish();
  EXPECT_EQ(diags.errors(), 0u);
  EXPECT_EQ(diags.warnings(), 0u);
}

TEST(ConformanceMonitorTest, TrafficAfterQuiesceIsNL403) {
  DiagEngine diags;
  ConformanceMonitor monitor(make_model(ModelId::DriverKernel), diags);
  monitor.on_event("quiesce");
  std::vector<std::uint8_t> write = frame_bytes(ipc::DriverMessage::write_u32("iss_in", 1));
  monitor.on_transfer(ipc::CaptureDir::Rx, write);
  monitor.finish();
  EXPECT_TRUE(diags.has_rule("NL403"));
  EXPECT_GT(diags.errors(), 0u);
}

TEST(ConformanceMonitorTest, UnexpectedMessageIsNL401) {
  // Interrupts travel on the dedicated irq socket; one on the data port is
  // impossible in every kernel state.
  DiagEngine diags;
  ConformanceMonitor monitor(make_model(ModelId::DriverKernel), diags);
  std::vector<std::uint8_t> irq = frame_bytes(ipc::DriverMessage::interrupt(3));
  monitor.on_transfer(ipc::CaptureDir::Tx, irq);
  EXPECT_TRUE(diags.has_rule("NL401"));
}

TEST(ConformanceMonitorTest, StreamEndingMidFrameIsNL402) {
  DiagEngine diags;
  ConformanceMonitor monitor(make_model(ModelId::DriverKernel), diags);
  std::vector<std::uint8_t> frame = frame_bytes(ipc::DriverMessage::write_u32("iss_in", 1));
  frame.resize(frame.size() - 2);  // cut mid-body
  monitor.on_transfer(ipc::CaptureDir::Rx, frame);
  monitor.finish();
  EXPECT_TRUE(diags.has_rule("NL402"));
}

TEST(ConformanceMonitorTest, MissingReplyIsNL404) {
  // A READ with no READ-REPLY leaves the kernel in MustReply: the stream
  // ends non-quiescent.
  DiagEngine diags;
  ConformanceMonitor monitor(make_model(ModelId::DriverKernel), diags);
  std::vector<std::uint8_t> read = frame_bytes(ipc::DriverMessage::read_request("iss_out"));
  monitor.on_transfer(ipc::CaptureDir::Rx, read);
  EXPECT_TRUE(monitor.state_possible("MustReply"));
  monitor.finish();
  EXPECT_TRUE(diags.has_rule("NL404"));
  EXPECT_EQ(diags.errors(), 0u);  // NL404 is a warning
  EXPECT_GT(diags.warnings(), 0u);
}

TEST(ConformanceMonitorTest, GdbKernelRoundTripConforms) {
  DiagEngine diags;
  ConformanceMonitor monitor(make_model(ModelId::GdbKernel), diags);
  std::vector<std::uint8_t> cont = rsp_bytes("c");
  monitor.on_transfer(ipc::CaptureDir::Tx, cont);
  EXPECT_TRUE(monitor.state_possible("Running"));
  std::vector<std::uint8_t> stop = rsp_bytes("T05");
  monitor.on_transfer(ipc::CaptureDir::Rx, stop);
  EXPECT_TRUE(monitor.state_possible("Halted"));
  std::vector<std::uint8_t> kill = rsp_bytes("k");
  monitor.on_transfer(ipc::CaptureDir::Tx, kill);
  monitor.finish();
  EXPECT_EQ(diags.errors(), 0u);
  EXPECT_EQ(diags.warnings(), 0u);
  EXPECT_EQ(monitor.messages_seen(), 3u);
}

TEST(ConformanceMonitorTest, CheckCaptureReplaysWireCaptureDumps) {
  ipc::WireCapture capture("drv-data", 8);
  std::vector<std::uint8_t> read = frame_bytes(ipc::DriverMessage::read_request("iss_out"));
  std::vector<std::uint8_t> reply = frame_bytes(ipc::DriverMessage{
      ipc::MsgType::ReadReply, {{"iss_out", {1, 0, 0, 0}}}});
  capture.record(ipc::CaptureDir::Rx, read);
  capture.record(ipc::CaptureDir::Tx, reply);
  std::vector<std::uint8_t> dump = capture.dump();

  DiagEngine diags;
  std::size_t transfers =
      check_capture(dump, make_model(ModelId::DriverKernel), diags, "<test>");
  EXPECT_EQ(transfers, 2u);
  EXPECT_EQ(diags.errors(), 0u);
  EXPECT_EQ(diags.warnings(), 0u);
}

TEST(ConformanceMonitorTest, TruncatedFinalFrameInDumpIsFlagged) {
  // A worker SIGKILLed mid-send leaves its capture dump ending inside the
  // last frame. Both post-mortem paths must flag it: the frame validator
  // (frame.truncated) and the capture replayer (NL402, stream ends
  // mid-frame) — while still crediting the complete frames before the tear.
  ipc::WireCapture capture("drv-data", 8);
  std::vector<std::uint8_t> read = frame_bytes(ipc::DriverMessage::read_request("iss_out"));
  std::vector<std::uint8_t> reply = frame_bytes(ipc::DriverMessage{
      ipc::MsgType::ReadReply, {{"iss_out", {1, 0, 0, 0}}}});
  capture.record(ipc::CaptureDir::Rx, read);
  capture.record(ipc::CaptureDir::Tx, reply);
  std::vector<std::uint8_t> dump = capture.dump();
  ASSERT_GT(dump.size(), 6u);
  dump.resize(dump.size() - 5);  // tear the final frame mid-body

  DiagEngine frame_diags;
  const std::size_t good = check_frames(dump, frame_diags, "<truncated>");
  EXPECT_EQ(good, 1u);
  EXPECT_TRUE(frame_diags.has_rule("frame.truncated"));

  DiagEngine wire_diags;
  check_capture(dump, make_model(ModelId::DriverKernel), wire_diags, "<truncated>");
  EXPECT_TRUE(wire_diags.has_rule("NL402"));
  EXPECT_GE(wire_diags.errors(), 1u);
}

TEST(ConformanceMonitorTest, DrainToFrameBoundaryReassemblesSplitFrames) {
  // The checkpoint frame-boundary invariant (DESIGN.md §12): a drain that
  // starts mid-frame keeps reading until the sender finishes the frame, so
  // the returned bytes are whole frames — safe to store in a snapshot.
  ipc::ChannelPair pair = ipc::make_channel_pair(ipc::Transport::SocketPair);
  std::vector<std::uint8_t> frame = frame_bytes(ipc::DriverMessage::read_request("iss_out"));

  // First half now; second half from a helper thread after a delay.
  const std::size_t split = frame.size() / 2;
  pair.b.send(std::span<const std::uint8_t>(frame.data(), split));
  std::thread finisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    pair.b.send(std::span<const std::uint8_t>(frame.data() + split, frame.size() - split));
  });

  DrainResult drained =
      drain_to_frame_boundary(pair.a, WireFormat::DriverKernel, /*toward_target=*/true,
                              /*timeout_ms=*/2000);
  finisher.join();
  EXPECT_TRUE(drained.clean);
  EXPECT_EQ(drained.bytes, frame);
  ASSERT_EQ(drained.symbols.size(), 1u);
  EXPECT_FALSE(drained.symbols[0].malformed);

  // And when the sender never completes the frame, the drain reports dirty.
  pair.b.send(std::span<const std::uint8_t>(frame.data(), split));
  DrainResult dirty =
      drain_to_frame_boundary(pair.a, WireFormat::DriverKernel, /*toward_target=*/true,
                              /*timeout_ms=*/50);
  EXPECT_FALSE(dirty.clean);
  EXPECT_EQ(dirty.bytes.size(), split);
}

TEST(ConformanceMonitorTest, ObsEnabledWorkerSessionReplaysWithZeroFindings) {
  // Satellite regression: a captured obs-enabled session — spawn ClockSync
  // handshake, seq-0 PullObs/ObsReport interleaved with guest traffic, FTID
  // trailers on the data frames — must replay through the Worker model with
  // zero findings. Frames are recorded from the supervisor's side (Tx =
  // supervisor send), exactly as the real capture ring sees them.
  ipc::WireCapture capture("sup-data", 32);
  const auto rec = [&](ipc::CaptureDir dir, std::vector<std::uint8_t> frame) {
    capture.record(dir, frame);
  };
  using cosim::WorkerOp;
  rec(ipc::CaptureDir::Rx, worker_frame_bytes(WorkerOp::Hello, 0, {0x57, 0x52, 0x4B, 0x31,
                                                                   1, 0, 0, 0}));
  rec(ipc::CaptureDir::Tx, worker_frame_bytes(WorkerOp::Start, 0, {1, 2, 3}));
  rec(ipc::CaptureDir::Tx, worker_frame_bytes(WorkerOp::ClockSync, 0, {0, 0, 0, 0, 0, 0, 0, 0}));
  rec(ipc::CaptureDir::Rx,
      worker_frame_bytes(WorkerOp::ClockSyncAck, 0, {9, 0, 0, 0, 0, 0, 0, 0}));
  rec(ipc::CaptureDir::Rx, worker_frame_bytes(WorkerOp::DevWrite, 1,
                                              {0, 1, 0, 0, 42, 0, 0, 0}, /*trace_id=*/5));
  rec(ipc::CaptureDir::Tx, worker_frame_bytes(WorkerOp::WriteAck, 1,
                                              {1, 0, 0, 0, 0, 0, 0, 0}, /*trace_id=*/5));
  rec(ipc::CaptureDir::Rx, worker_frame_bytes(WorkerOp::Ckpt, 2, {0xAA, 0xBB}));
  rec(ipc::CaptureDir::Tx, worker_frame_bytes(WorkerOp::PullObs, 0, {}));
  rec(ipc::CaptureDir::Rx, worker_frame_bytes(WorkerOp::ObsReport, 0, {0x7B, 0x7D}));
  rec(ipc::CaptureDir::Rx, worker_frame_bytes(WorkerOp::DevRead, 3, {4, 1, 0, 0},
                                              /*trace_id=*/6));
  rec(ipc::CaptureDir::Tx,
      worker_frame_bytes(WorkerOp::ReadReply, 3, {7, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0},
                         /*trace_id=*/6));
  rec(ipc::CaptureDir::Rx, worker_frame_bytes(WorkerOp::Done, 4, {1, 0xCC}));

  DiagEngine diags;
  const std::size_t transfers =
      check_capture(capture.dump(), make_model(ModelId::Worker), diags, "<obs-session>");
  EXPECT_EQ(transfers, 12u);
  EXPECT_EQ(diags.errors(), 0u) << render_text(diags);
  EXPECT_EQ(diags.warnings(), 0u) << render_text(diags);
}

TEST(ConformanceMonitorTest, RespawnEventResetsWorkerDecodersAndState) {
  // A SIGKILL tears the last frame mid-wire; the supervisor announces
  // "respawn" before the replacement socket speaks. The live monitor must
  // drop the torn bytes and accept the fresh handshake with no findings.
  auto monitor = std::make_shared<LiveConformanceMonitor>(make_model(ModelId::Worker),
                                                          "<live>");
  using cosim::WorkerOp;
  const std::vector<std::uint8_t> hello =
      worker_frame_bytes(WorkerOp::Hello, 0, {0x57, 0x52, 0x4B, 0x31});
  const std::vector<std::uint8_t> sync =
      worker_frame_bytes(WorkerOp::ClockSync, 0, {0, 0, 0, 0, 0, 0, 0, 0});
  const std::vector<std::uint8_t> sync_ack =
      worker_frame_bytes(WorkerOp::ClockSyncAck, 0, {9, 0, 0, 0, 0, 0, 0, 0});
  monitor->on_wire(ipc::CaptureDir::Rx, hello);
  monitor->on_wire(ipc::CaptureDir::Tx, worker_frame_bytes(WorkerOp::Start, 0, {1}));
  monitor->on_wire(ipc::CaptureDir::Tx, sync);
  monitor->on_wire(ipc::CaptureDir::Rx, sync_ack);
  // Worker dies mid-frame: only half a DevWrite arrives.
  const std::vector<std::uint8_t> torn =
      worker_frame_bytes(WorkerOp::DevWrite, 1, {0, 1, 0, 0, 42, 0, 0, 0});
  monitor->on_wire(ipc::CaptureDir::Rx,
                   std::span<const std::uint8_t>(torn.data(), torn.size() / 2));
  monitor->on_wire_event("respawn");
  // Fresh epoch: full handshake again, this time a Resume.
  monitor->on_wire(ipc::CaptureDir::Rx, hello);
  monitor->on_wire(ipc::CaptureDir::Tx, worker_frame_bytes(WorkerOp::Resume, 0, {1}));
  monitor->on_wire(ipc::CaptureDir::Tx, sync);
  monitor->on_wire(ipc::CaptureDir::Rx, sync_ack);
  monitor->on_wire(ipc::CaptureDir::Rx, torn);  // the replayed write, whole
  monitor->on_wire(ipc::CaptureDir::Tx,
                   worker_frame_bytes(WorkerOp::WriteAck, 1, {1, 0, 0, 0, 0, 0, 0, 0}));
  monitor->finish();
  EXPECT_EQ(monitor->diags().errors(), 0u) << render_text(monitor->diags());
}

TEST(ConformanceMonitorTest, DriverIrqMonitorAcceptsDeliveryAckCycles) {
  // Pump-side monitor (no flip): INTERRUPTs arrive as Rx, the pump's "ack"
  // wire event closes each Isr cycle.
  auto monitor = std::make_shared<LiveConformanceMonitor>(make_model(ModelId::DriverIrq),
                                                          "<irq>");
  const std::vector<std::uint8_t> irq =
      frame_bytes(ipc::DriverMessage::interrupt(2));
  for (int i = 0; i < 3; ++i) {
    monitor->on_wire(ipc::CaptureDir::Rx, irq);
    monitor->on_wire_event("ack");
  }
  monitor->finish();
  EXPECT_EQ(monitor->diags().errors(), 0u) << render_text(monitor->diags());
  EXPECT_EQ(monitor->messages_seen(), 3u);
}

TEST(ConformanceMonitorTest, WorkerWireIrqMonitorAcceptsSupervisorIrqStream) {
  // The supervisor's irq socket: Worker-format Irq frames, sent by the
  // supervisor (flip_direction puts it in the sender role), arbitrarily many
  // per session via the internal-ack epsilon, respawn re-sends included.
  ModelOptions o;
  o.worker_wire = true;
  auto monitor = std::make_shared<LiveConformanceMonitor>(
      make_model(ModelId::DriverIrq, o), "<sup-irq>", /*flip_direction=*/true);
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    monitor->on_wire(ipc::CaptureDir::Tx,
                     worker_frame_bytes(cosim::WorkerOp::Irq, seq, {2, 0, 0, 0}));
  }
  monitor->on_wire_event("respawn");
  for (std::uint64_t seq = 3; seq <= 5; ++seq) {  // irq-log re-send overlaps
    monitor->on_wire(ipc::CaptureDir::Tx,
                     worker_frame_bytes(cosim::WorkerOp::Irq, seq, {2, 0, 0, 0}));
  }
  monitor->finish();
  EXPECT_EQ(monitor->diags().errors(), 0u) << render_text(monitor->diags());
}

// ---------------------------------------- Counterexample -> FaultPlan replay

/// Finds a counterexample whose environment faults all hit endpoint A's
/// sends and which fault_plan_for can express completely.
const Counterexample* find_a_side_counterexample(const ExploreReport& report) {
  for (const Counterexample& ce : report.violations) {
    bool has_fault = false;
    bool all_a = true;
    for (const TraceStep& step : ce.trace) {
      if (step.effect == TraceStep::Effect::Normal) continue;
      has_fault = true;
      if (step.endpoint != 'A') all_a = false;
    }
    if (has_fault && all_a && fault_plan_for(ce, 'A').complete) return &ce;
  }
  return nullptr;
}

/// The known-by-construction stuck state the acceptance pipeline replays: a
/// corrupting wire turns the kernel's READ-REPLY into garbage the
/// recovery-less driver cannot receive (unspecified reception).
ExploreReport corrupted_reply_report() {
  ModelOptions options;
  options.recovery = false;
  options.push_outputs = false;
  options.interrupts = false;
  EnvOptions env;
  env.corrupting = true;
  ExploreLimits limits;
  // The kernel-side corruption needs three steps; keep enough per-kind slots
  // that the shallower driver-side counterexamples do not crowd it out.
  limits.max_violations_per_kind = 32;
  return explore(make_model(ModelId::DriverKernel, options), env, limits);
}

TEST(ReplayTest, CounterexampleMapsToSingleCorruptFaultPlan) {
  // The acceptance pipeline, static half: the counterexample's environment
  // faults must translate into a complete FaultPlan against the kernel-side
  // endpoint (its first send gets corrupted).
  ExploreReport report = corrupted_reply_report();
  const Counterexample* ce = find_a_side_counterexample(report);
  ASSERT_NE(ce, nullptr) << render_text(report);

  FaultPlanResult result = fault_plan_for(*ce, 'A');
  EXPECT_TRUE(result.complete);
  ASSERT_EQ(result.plan.specs.size(), 1u);
  EXPECT_EQ(result.plan.specs[0].kind, ipc::FaultKind::CorruptByte);
  EXPECT_EQ(result.plan.specs[0].nth, 1u);
}

TEST(ReplayTest, StaticCounterexampleReproducesLiveAsNL4xx) {
  // The acceptance pipeline, dynamic half: run the statically found fault
  // schedule against a *real* DriverKernelExtension with a live conformance
  // monitor on the kernel-side data endpoint. The kernel's READ-REPLY is
  // corrupted on the wire, so the monitor must flag the send as an NL4xx
  // error (NL402 when the frame no longer decodes, NL401 when the flipped
  // type byte decodes as a message the kernel never sends).
  ExploreReport report = corrupted_reply_report();
  const Counterexample* ce = find_a_side_counterexample(report);
  ASSERT_NE(ce, nullptr) << render_text(report);
  ipc::FaultPlan plan = fault_plan_for(*ce, 'A').plan;

  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  sysc::iss_out<std::uint32_t> out_port("hw.out");
  out_port.write(42);

  ipc::ChannelPair data = ipc::make_channel_pair(ipc::Transport::SocketPair);
  ipc::ChannelPair irq = ipc::make_channel_pair(ipc::Transport::SocketPair);
  data.a.set_io_timeout(2000);
  data.b.set_io_timeout(2000);
  ipc::FaultyChannel::install(data.a, plan);
  auto monitor = std::make_shared<LiveConformanceMonitor>(
      make_model(ModelId::DriverKernel), "<replay>");
  data.a.attach_observer(monitor);

  cosim::DriverKernelOptions dk_options;
  dk_options.push_outputs = false;
  cosim::DriverKernelExtension ext(std::move(data.a), std::move(irq.a),
                                   /*budget=*/nullptr, dk_options);
  ctx.register_extension(&ext);

  // Act as the driver: ask for hw.out; the reply leaves the kernel mangled.
  ipc::send_message(data.b, ipc::DriverMessage::read_request("hw.out"));
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    ctx.run(100_ns);
    if (monitor->messages_seen() >= 2) break;
  }
  ctx.unregister_extension(&ext);
  try {
    ipc::recv_message(data.b);  // the driver-side view of the mangled reply
  } catch (const util::RuntimeError&) {
    // Undecodable on the driver side too: exactly the modelled garbage.
  }

  monitor->finish();
  EXPECT_GE(monitor->messages_seen(), 2u);  // the READ and the mangled reply
  EXPECT_GT(monitor->diags().errors(), 0u);
  EXPECT_TRUE(monitor->diags().has_rule("NL402") || monitor->diags().has_rule("NL401"));
}

TEST(ReplayTest, LostReadDeadlockReplaysViaDriverSidePlan) {
  // The lossy counterpart: the checker's minimal deadlock under a lossy
  // environment loses the driver's READ. fault_plan_for('B') turns that
  // into a drop on the driver-side endpoint; replayed against a real
  // extension, the stuck state manifests as a reply that never comes.
  ModelOptions options;
  options.recovery = false;
  options.push_outputs = false;
  options.interrupts = false;
  EnvOptions env;
  env.lossy = true;
  ExploreReport report = explore(make_model(ModelId::DriverKernel, options), env);
  const Counterexample* lost_read = nullptr;
  for (const Counterexample& ce : report.violations) {
    if (ce.kind != ViolationKind::Deadlock) continue;
    FaultPlanResult candidate = fault_plan_for(ce, 'B');
    if (candidate.complete && !candidate.plan.empty()) {
      lost_read = &ce;
      break;
    }
  }
  ASSERT_NE(lost_read, nullptr) << render_text(report);
  ipc::FaultPlan plan = fault_plan_for(*lost_read, 'B').plan;
  ASSERT_EQ(plan.specs[0].kind, ipc::FaultKind::Drop);

  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  sysc::iss_out<std::uint32_t> out_port("hw.out");
  out_port.write(42);

  ipc::ChannelPair data = ipc::make_channel_pair(ipc::Transport::SocketPair);
  ipc::ChannelPair irq = ipc::make_channel_pair(ipc::Transport::SocketPair);
  data.a.set_io_timeout(2000);
  data.b.set_io_timeout(2000);
  ipc::FaultyChannel::install(data.b, plan);
  auto monitor = std::make_shared<LiveConformanceMonitor>(
      make_model(ModelId::DriverKernel), "<replay>");
  data.a.attach_observer(monitor);

  cosim::DriverKernelOptions dk_options;
  dk_options.push_outputs = false;
  cosim::DriverKernelExtension ext(std::move(data.a), std::move(irq.a),
                                   /*budget=*/nullptr, dk_options);
  ctx.register_extension(&ext);

  ipc::send_message(data.b, ipc::DriverMessage::read_request("hw.out"));
  ctx.run(1_us);
  ctx.unregister_extension(&ext);

  // The READ was swallowed on the wire: the kernel never saw it (the
  // monitor observed nothing) and the driver's reply never arrives — the
  // statically predicted (Run, AwaitReply) deadlock, live.
  EXPECT_FALSE(data.b.readable(100));
  monitor->finish();
  EXPECT_EQ(monitor->messages_seen(), 0u);
  EXPECT_EQ(monitor->diags().errors(), 0u);
}

TEST(ReplayTest, HealthyWireStaysCleanUnderLiveMonitor) {
  // Control: same setup, no fault plan — the reply arrives and the monitor
  // reports nothing.
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  sysc::iss_out<std::uint32_t> out_port("hw.out");
  out_port.write(7);

  ipc::ChannelPair data = ipc::make_channel_pair(ipc::Transport::SocketPair);
  ipc::ChannelPair irq = ipc::make_channel_pair(ipc::Transport::SocketPair);
  data.a.set_io_timeout(2000);
  data.b.set_io_timeout(2000);
  auto monitor = std::make_shared<LiveConformanceMonitor>(
      make_model(ModelId::DriverKernel), "<replay>");
  data.a.attach_observer(monitor);

  cosim::DriverKernelOptions dk_options;
  dk_options.push_outputs = false;
  cosim::DriverKernelExtension ext(std::move(data.a), std::move(irq.a),
                                   /*budget=*/nullptr, dk_options);
  ctx.register_extension(&ext);

  ipc::send_message(data.b, ipc::DriverMessage::read_request("hw.out"));
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    ctx.run(100_ns);
    if (monitor->messages_seen() >= 2) break;
  }
  ipc::DriverMessage reply = ipc::recv_message(data.b);
  EXPECT_EQ(reply.type, ipc::MsgType::ReadReply);
  ctx.unregister_extension(&ext);

  monitor->finish();
  EXPECT_EQ(monitor->messages_seen(), 2u);
  EXPECT_EQ(monitor->diags().errors(), 0u);
  EXPECT_EQ(monitor->diags().warnings(), 0u);
}

}  // namespace
}  // namespace nisc::analysis
