// Supervised ISS worker: the guest side of the crash-recovery scheme
// (DESIGN.md §12).
//
// The paper keeps the ISS in its own process and talks to it over a data
// socket plus a dedicated interrupt socket. The supervised-session variant
// reproduces that process boundary for real: cosim::Supervisor fork/execs
// the `cosim_issworker` binary with a data and an irq socketpair, and the
// worker runs an iss::Cpu over a guest program, exchanging the frames
// defined here. Because the worker is a real process it can really die
// (SIGKILL, hang, stream corruption) and the supervisor can really
// recover it from the last checkpoint.
//
// Frame format on both sockets (little-endian):
//   u32 body_len | u8 op | u64 seq | payload
//
// Fixed-payload ops (DevWrite/DevRead/WriteAck/ReadReply/Irq) may carry an
// optional correlation-id trailer after the payload:
//   u64 trace_id | u32 "FTID"
// The wire has exactly two rules, each applied in one place that every
// reader (recv_frame, peek_frame_trace_id, the analysis StreamDecoder and
// check_frames) calls: the header rule `9 <= body_len <= kMaxWorkerFrame`
// (worker_frame_body_size) and the body rule (parse_worker_frame_body): the
// op is known, and a fixed-payload op carries exactly its fixed payload,
// optionally followed by the trailer, recognised by length + closing magic.
// The trace_id doubles as a Chrome-trace flow id, so a worker-side ecall
// span and the supervisor-side device-access span it caused render as one
// flow arrow in the merged timeline (DESIGN.md §10.5).
//
// Crash-consistency contract:
//  * every worker->supervisor frame carries a monotonically increasing
//    sequence number (tx_seq); the supervisor deduplicates replays after a
//    restore by tracking the last applied seq;
//  * device writes/reads are synchronous: each is acknowledged, and the ack
//    carries the supervisor's interrupt-wire high-water mark, which the
//    worker drains from the irq socket before retiring the guest's ecall —
//    interrupt delivery is thereby a deterministic function of the guest
//    instruction stream, so a replayed run is bit-identical to an
//    uninterrupted one;
//  * checkpoints are emitted on instruction-count boundaries with no
//    request outstanding, so channel snapshots never contain partial
//    frames (the frame-boundary invariant);
//  * the observability side-band (ClockSync/PullObs/ClockSyncAck/ObsReport)
//    runs entirely at seq 0: it never consumes a tx_seq, is never logged or
//    replayed, and therefore leaves the bit-identical-replay property of
//    the checkpoint scheme untouched.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ipc/capture.hpp"
#include "ipc/channel.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace nisc::cosim {

/// Fault injected into the worker for crash-matrix tests. The trigger fires
/// when `at_instret` guest instructions have retired.
enum class FaultKind : std::uint8_t {
  None = 0,
  CrashAt = 1,    ///< raise(SIGKILL): the crash-matrix kill point
  HangAt = 2,     ///< stop making progress (supervisor deadline fires)
  GarbageAt = 3,  ///< write junk into the data socket (protocol error)
};

struct WorkerFault {
  FaultKind kind = FaultKind::None;
  std::uint64_t at_instret = 0;

  bool operator==(const WorkerFault&) const = default;
};

/// Everything a worker needs to run a guest, sent in the Start/Resume frame.
/// The observability fields ride in a tagged extension block ("WCX1") after
/// the original fields, so configs encoded by old supervisors decode here
/// with the defaults and configs encoded here decode in old workers (their
/// reader stops before the extension).
struct WorkerConfig {
  std::string guest_source;       ///< RV32IM assembly, assembled in the worker
  std::uint64_t mem_size = 1 << 20;
  std::uint64_t ckpt_every = 64;  ///< checkpoint cadence in retired instructions
  WorkerFault fault;

  // -- observability extension (DESIGN.md §10.5) ----------------------------
  bool trace = false;             ///< enable the worker's trace rings
  bool obs_export = false;        ///< speak the ClockSync/PullObs side-band
  std::uint64_t trace_buf = 0;    ///< per-thread ring capacity (0 = default)
  std::uint32_t clock_period_ps = 1000;  ///< guest cycle -> sim_ps conversion
  std::uint32_t worker_index = 0;        ///< namespaces the worker's flow ids
  std::string session_label = "worker";  ///< process label in merged traces

  bool operator==(const WorkerConfig&) const = default;
};

std::vector<std::uint8_t> encode_worker_config(const WorkerConfig& config);
WorkerConfig decode_worker_config(std::span<const std::uint8_t> payload);

/// Frame opcodes. 0x0x: supervisor -> worker; 0x1x: worker -> supervisor.
enum class WorkerOp : std::uint8_t {
  Start = 0x01,      ///< payload: WorkerConfig — run the guest from reset
  Resume = 0x02,     ///< payload: WorkerConfig | checkpoint bytes — restore then run
  WriteAck = 0x03,   ///< payload: u64 irq high-water mark; seq echoes the DevWrite
  ReadReply = 0x04,  ///< payload: u32 value | u64 irq high-water mark
  Irq = 0x05,        ///< irq socket only; payload: u32 line; seq: irq ordinal
  ClockSync = 0x06,  ///< seq 0; payload: u64 supervisor steady-clock ns
  PullObs = 0x07,    ///< seq 0; empty payload — request an ObsReport

  Hello = 0x10,      ///< payload: u32 protocol magic [| u32 feature bits]
  Ckpt = 0x11,       ///< payload: checkpoint bytes (ISS + WRKR + CHAN sections)
  DevWrite = 0x12,   ///< payload: u32 addr | u32 value
  DevRead = 0x13,    ///< payload: u32 addr
  Done = 0x14,       ///< payload: u8 halt reason | final checkpoint bytes
  ClockSyncAck = 0x15,  ///< seq 0; payload: u64 worker steady-clock ns
  ObsReport = 0x16,     ///< seq 0; payload: WorkerObsReport
};

const char* worker_op_name(WorkerOp op) noexcept;

/// Magic carried by Hello frames (protocol version 1).
inline constexpr std::uint32_t kWorkerHelloMagic = 0x314B5257u;  // "WRK1"

/// Hello feature bits (appended after the magic; absent = no features).
inline constexpr std::uint32_t kWorkerFeatureObs = 1u << 0;

/// Magic closing the optional trace-id trailer on fixed-payload frames.
inline constexpr std::uint32_t kFrameTraceMagic = 0x44495446u;  // "FTID"

/// Magic opening the WorkerConfig observability extension block.
inline constexpr std::uint32_t kWorkerConfigExtMagic = 0x31584357u;  // "WCX1"

/// Guard on frame bodies; anything larger is stream corruption.
inline constexpr std::uint32_t kMaxWorkerFrame = 64u << 20;

/// Bytes in the u32 body_len field that opens every frame.
inline constexpr std::size_t kWorkerHeaderSize = 4;

struct WorkerFrame {
  WorkerOp op = WorkerOp::Hello;
  std::uint64_t seq = 0;
  std::uint64_t trace_id = 0;  ///< 0 = no correlation trailer on the wire
  std::vector<std::uint8_t> payload;

  bool operator==(const WorkerFrame&) const = default;
};

/// Payload size of ops eligible for the trace-id trailer; 0 for ops whose
/// payload is variable (those never carry a trailer).
std::size_t worker_op_fixed_payload(WorkerOp op) noexcept;

/// A frame body parsed in place: `payload` views the parsed bytes, with any
/// trace-id trailer already stripped into `trace_id`.
struct WorkerFrameView {
  WorkerOp op = WorkerOp::Hello;
  std::uint64_t seq = 0;
  std::uint64_t trace_id = 0;  ///< 0 = no correlation trailer on the wire
  std::span<const std::uint8_t> payload;
};

/// The header rule: returns the body length announced by `header` (its
/// first kWorkerHeaderSize bytes), or an error when it is outside
/// [9, kMaxWorkerFrame] — too short for op + seq, or stream corruption.
util::Result<std::uint32_t> worker_frame_body_size(std::span<const std::uint8_t> header);

/// The body rule: parses one frame body (without its length field). Fails
/// on an unknown op and on a fixed-payload op whose payload is neither its
/// fixed size nor that size plus a well-formed trace-id trailer. Does not
/// allocate unless it fails.
util::Result<WorkerFrameView> parse_worker_frame_body(std::span<const std::uint8_t> body);

/// Writes one frame (atomically, as a single send). A nonzero trace_id on a
/// fixed-payload op is appended as the 12-byte trailer.
void send_frame(ipc::Channel& channel, const WorkerFrame& frame);

/// Blocking read of one frame; throws RuntimeError when the frame breaks
/// the header or body rule (the supervisor treats that as a protocol error
/// and recycles the worker). Strips a well-formed trace-id trailer into
/// frame.trace_id.
WorkerFrame recv_frame(ipc::Channel& channel);

/// Trace-id peeker for an ipc::ObsTap on a worker-protocol socket: returns
/// the correlation-trailer id of one complete, well-formed Tx transfer
/// (send_frame writes a whole frame per send, so Tx transfers are
/// parseable; Rx traffic arrives as header/body chunks and yields 0).
std::uint64_t peek_frame_trace_id(ipc::CaptureDir dir,
                                  std::span<const std::uint8_t> bytes) noexcept;

/// Everything a worker exports on PullObs and before Done: its steady-clock
/// reading (for offset drift checks), its metrics registry rendered as the
/// schema-1 JSON, and its trace rings.
struct WorkerObsReport {
  std::uint64_t worker_now_ns = 0;
  std::string metrics_json;
  obs::TraceSnapshot trace;

  bool operator==(const WorkerObsReport&) const = default;
};

std::vector<std::uint8_t> encode_obs_report(const WorkerObsReport& report);
WorkerObsReport decode_obs_report(std::span<const std::uint8_t> payload);

// -- guest-visible device ABI (ecall, args a0/a1, selector a7) --------------
inline constexpr std::uint32_t kEcallExit = 0;      ///< a0: exit code
inline constexpr std::uint32_t kEcallDevWrite = 1;  ///< a0: addr, a1: value
inline constexpr std::uint32_t kEcallDevRead = 2;   ///< a0: addr -> a0: value
inline constexpr std::uint32_t kEcallIrqPop = 3;    ///< -> a0: line or ~0u

/// Device register that raises an interrupt when written (line = value).
inline constexpr std::uint32_t kDevIrqTriggerAddr = 0x100;
/// Read-only register returning the number of writes the device has applied.
inline constexpr std::uint32_t kDevOpCountAddr = 0x104;

/// Runs the worker protocol over the two channels until the guest halts or
/// the supervisor goes away. Returns the process exit code (0 = guest ran
/// to completion and Done was sent).
int run_worker(ipc::Channel data, ipc::Channel irq);

}  // namespace nisc::cosim
