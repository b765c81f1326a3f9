// The little-endian codec (util/bytes.hpp) and every binary format built on
// it: one golden encoding per format pins the layout byte for byte, and a
// seeded hostile-bytes sweep checks that each decoder rejects corrupt input
// only with util::RuntimeError (or a failed Result), never with bad_alloc,
// a LogicError or undefined behaviour.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "cosim/checkpoint.hpp"
#include "cosim/worker.hpp"
#include "ipc/message.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace nisc {
namespace {

using Bytes = std::vector<std::uint8_t>;

// ---------------------------------------------------------------- fixtures

obs::TraceSnapshot sample_trace() {
  obs::TraceSnapshot snapshot;
  obs::TraceSnapshot::Thread thread;
  thread.tid = 3;
  thread.dropped = 1;
  thread.events.push_back({"n", "c", "a", 5, 0x10, 0x20, 0x30, 'B'});
  thread.events.push_back({"end", "c", "", 0, 0x11, obs::kNoSimTime, 0, 'E'});
  snapshot.threads.push_back(std::move(thread));
  return snapshot;
}

cosim::WorkerConfig sample_worker_config() {
  cosim::WorkerConfig config;
  config.guest_source = "nop\n";
  config.mem_size = 0x1000;
  config.ckpt_every = 7;
  config.fault = {cosim::FaultKind::CrashAt, 9};
  config.trace = true;
  config.trace_buf = 64;
  config.clock_period_ps = 1250;
  config.worker_index = 2;
  config.session_label = "s";
  return config;
}

cosim::WorkerObsReport sample_obs_report() {
  cosim::WorkerObsReport report;
  report.worker_now_ns = 0x1122;
  report.metrics_json = "{}";
  report.trace = sample_trace();
  return report;
}

ipc::DriverMessage sample_message() {
  ipc::DriverMessage msg;
  msg.type = ipc::MsgType::Write;
  msg.items.push_back({"a", {1, 2}});
  msg.items.push_back({"bc", {}});
  return msg;
}

cosim::Checkpoint sample_checkpoint() {
  cosim::Checkpoint checkpoint;
  cosim::IssSnapshot iss;
  iss.regs[1] = 5;
  iss.regs[31] = 0xCAFEF00D;
  iss.pc = 0x100;
  iss.instret = 3;
  iss.cycles = 4;
  iss.breakpoints = {0x104};
  iss.watchpoints = {{0x200, 4}};
  iss.mem_size = 4096;
  iss.pages.emplace_back(0, Bytes{0x13, 0, 0, 0});
  checkpoint.iss = iss;
  sysc::kernel_state kernel;
  kernel.now_ps = 10;
  kernel.timed_seq = 2;
  kernel.stats.delta_cycles = 6;
  kernel.timed.push_back({20, 1, true, "top.p", 0});
  kernel.delta_events.push_back({"top.e", 1});
  checkpoint.kernel = kernel;
  checkpoint.channels.push_back({"worker-data", 2, 1, {9}});
  checkpoint.worker = cosim::WorkerSnapshot{1, {3}, {4, 5}};
  return checkpoint;
}

std::string hex(const Bytes& bytes) { return util::hex_encode(bytes); }

// ---------------------------------------------------------------- the codec

TEST(ByteCodecTest, PrimitivesAreLittleEndian) {
  std::uint8_t buf[8];
  util::store_le64(buf, 0x0807060504030201ULL);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(buf[i], i + 1);
  EXPECT_EQ(util::load_le16(buf), 0x0201u);
  EXPECT_EQ(util::load_le32(buf + 4), 0x08070605u);
  EXPECT_EQ(util::load_le64(buf), 0x0807060504030201ULL);
  util::store_le32(buf, 0xDEADBEEF);
  EXPECT_EQ(util::read_le(buf, 4), 0xDEADBEEFu);
}

TEST(ByteCodecTest, WriterAndReaderAgreeOnEveryField) {
  util::ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0x89ABCDEF);
  w.u64(0x0123456789ABCDEFULL);
  w.str("port");
  w.blob(util::as_bytes("data"));
  EXPECT_EQ(hex(w.data()), "ab3412efcdab89efcdab89674523010400706f72740400000064617461");
  util::ByteReader r(w.data(), "fields");
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0x89ABCDEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.str(), "port");
  EXPECT_EQ(r.blob_str(), "data");
  EXPECT_TRUE(r.done());
}

TEST(ByteCodecTest, CountsMustFitTheRemainingBytes) {
  const Bytes two_of_three = {2, 0, 0, 0, 1, 2, 3, 4, 5, 6};
  util::ByteReader fits(two_of_three, "sample");
  EXPECT_EQ(fits.count(3), 2u);  // two 3-byte elements in the six bytes left
  util::ByteReader too_big(two_of_three, "sample");
  try {
    (void)too_big.count(4);
    FAIL() << "two 4-byte elements were accepted in six bytes";
  } catch (const util::RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("sample"), std::string::npos) << e.what();
  }
  const Bytes hostile = {0xFF, 0xFF, 0x00};
  util::ByteReader r16(hostile, "sample");
  EXPECT_THROW((void)r16.count16(1), util::RuntimeError);
}

TEST(ByteCodecTest, ReaderLengthsNeverWrapAround) {
  const Bytes bytes = {1, 2, 3, 4};
  util::ByteReader r(bytes, "sample");
  (void)r.u8();
  EXPECT_THROW((void)r.bytes(SIZE_MAX), util::RuntimeError);
  EXPECT_THROW((void)r.u32(), util::RuntimeError);
  EXPECT_EQ(r.remaining(), 3u);  // a failed read consumes nothing
  EXPECT_EQ(r.rest().size(), 3u);
  EXPECT_TRUE(r.done());
}

// ---------------------------------------------------------------- golden bytes
//
// One encoding per format, byte for byte. A change here changes a wire or a
// file format: bump that format's version instead.

TEST(GoldenBytesTest, TraceSnapshotNtrc) {
  const Bytes wire = obs::encode_trace_snapshot(sample_trace());
  EXPECT_EQ(hex(wire),
            "4e54524301000000010000000300000001000000000000000200000042100000000000000020"
            "0000000000000005000000000000003000000000000000010000006e01000000630100000061"
            "451100000000000000ffffffffffffffff000000000000000000000000000000000300000065"
            "6e64010000006300000000");
  EXPECT_EQ(obs::decode_trace_snapshot(wire), sample_trace());
}

TEST(GoldenBytesTest, WorkerConfig) {
  const Bytes wire = cosim::encode_worker_config(sample_worker_config());
  EXPECT_EQ(hex(wire),
            "040000006e6f700a001000000000000007000000000000000109000000000000005743583101"
            "4000000000000000e204000002000000010073");
  EXPECT_EQ(cosim::decode_worker_config(wire), sample_worker_config());
}

TEST(GoldenBytesTest, WorkerObsReport) {
  const Bytes wire = cosim::encode_obs_report(sample_obs_report());
  EXPECT_EQ(hex(wire),
            "2211000000000000020000007b7d4e5452430100000001000000030000000100000000000000"
            "0200000042100000000000000020000000000000000500000000000000300000000000000001"
            "0000006e01000000630100000061451100000000000000ffffffffffffffff00000000000000"
            "00000000000000000003000000656e64010000006300000000");
  EXPECT_EQ(cosim::decode_obs_report(wire), sample_obs_report());
}

TEST(GoldenBytesTest, DriverKernelMessage) {
  // u32 packet_size | u8 type | u16 items | (u16 port_len, port, u32 size, data)*
  const Bytes wire = ipc::encode_message(sample_message());
  EXPECT_EQ(hex(wire), "140000000102000100610200000001020200626300000000");
  std::size_t frame_size = 0;
  EXPECT_EQ(ipc::decode_message(wire, frame_size).value(), sample_message());
  EXPECT_EQ(frame_size, wire.size());
}

TEST(GoldenBytesTest, CheckpointNckp) {
  const Bytes wire = cosim::encode_checkpoint(sample_checkpoint());
  EXPECT_EQ(hex(wire),
            "4e434b500100000049535320d500000000000000000000000500000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000df0feca00010000"
            "0300000000000000040000000000000000010000000100000001000000030000001000000001"
            "0000000401000001000000000200000400000000100000000000000100000000000000040000"
            "00130000001506a9754b524e4c67000000000000000a00000000000000020000000000000006"
            "0000000000000000000000000000000000000000000000000000000000000000000000000000"
            "000100000014000000000000000100000000000000010500746f702e70000000000100000005"
            "00746f702e65010000001c7c1d3f4348414e26000000000000000b00776f726b65722d646174"
            "6102000000000000000100000000000000010000000000000009b6b5870157524b521a000000"
            "000000000100000000000000010000000300000002000000000000000405296a31cb");
  EXPECT_EQ(cosim::decode_checkpoint(wire), sample_checkpoint());
}

// ---------------------------------------------------------------- hostile bytes

constexpr int kTrials = 3000;

/// One seeded mutation of a valid encoding: truncate it, flip one bit, or
/// splice 0xFFFFFFFF over four bytes (a count or a length wherever it lands
/// on one).
Bytes mutate(Bytes bytes, util::Rng& rng) {
  if (bytes.empty()) return bytes;
  switch (rng.below(3)) {
    case 0: bytes.resize(rng.below(bytes.size())); break;
    case 1: bytes[rng.below(bytes.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8)); break;
    default:
      if (bytes.size() >= 4) util::store_le32(&bytes[rng.below(bytes.size() - 3)], 0xFFFFFFFFu);
      break;
  }
  return bytes;
}

/// Feeds `trials` mutations of `valid` to `decode`, which throws on a
/// rejected input. Only util::RuntimeError may come out; anything else
/// (bad_alloc, length_error, LogicError) fails the test.
void expect_only_runtime_errors(const char* format, const Bytes& valid,
                                const std::function<void(std::span<const std::uint8_t>)>& decode,
                                std::uint64_t seed, const std::function<Bytes(util::Rng&)>& make =
                                                        nullptr) {
  util::Rng rng(seed);
  int rejected = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Bytes bytes = make ? make(rng) : mutate(valid, rng);
    try {
      decode(bytes);
    } catch (const util::RuntimeError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << format << " trial " << trial << ": non-RuntimeError escaped: " << e.what()
                    << "\n  input " << hex(bytes);
    }
  }
  EXPECT_GT(rejected, kTrials / 4) << format << ": the sweep must reach the error paths";
}

TEST(HostileBytesTest, TraceSnapshotWithAHugeThreadCountIsARuntimeError) {
  // NTRC | version 1 | 0xFFFFFFFF threads, and nothing else.
  const Bytes ntrc = {'N', 'T', 'R', 'C', 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW(obs::decode_trace_snapshot(ntrc), util::RuntimeError);
  // The same snapshot inside a worker's ObsReport, as the supervisor reads it.
  util::ByteWriter report;
  report.u64(0);
  report.blob({});
  report.bytes(ntrc);
  EXPECT_THROW(cosim::decode_obs_report(report.data()), util::RuntimeError);
}

TEST(HostileBytesTest, ZeroCheckpointCadenceIsARuntimeError) {
  cosim::WorkerConfig config = sample_worker_config();
  Bytes wire = cosim::encode_worker_config(config);
  // ckpt_every follows the source blob (u32 + 4 bytes) and mem_size (u64).
  util::store_le64(&wire[4 + 4 + 8], 0);
  EXPECT_THROW(cosim::decode_worker_config(wire), util::RuntimeError);
}

TEST(HostileBytesTest, TraceSnapshot) {
  expect_only_runtime_errors("NTRC", obs::encode_trace_snapshot(sample_trace()),
                             [](auto bytes) { (void)obs::decode_trace_snapshot(bytes); }, 1);
}

TEST(HostileBytesTest, WorkerConfig) {
  expect_only_runtime_errors("WorkerConfig", cosim::encode_worker_config(sample_worker_config()),
                             [](auto bytes) { (void)cosim::decode_worker_config(bytes); }, 2);
}

TEST(HostileBytesTest, WorkerObsReport) {
  expect_only_runtime_errors("WorkerObsReport", cosim::encode_obs_report(sample_obs_report()),
                             [](auto bytes) { (void)cosim::decode_obs_report(bytes); }, 3);
}

TEST(HostileBytesTest, DriverKernelMessageBody) {
  const Bytes frame = ipc::encode_message(sample_message());
  const Bytes body(frame.begin() + ipc::kMessageHeaderSize, frame.end());
  // decode_message_body never throws; a failed Result is its rejection.
  expect_only_runtime_errors(
      "message body", body, [](auto bytes) { (void)ipc::decode_message_body(bytes).value(); }, 4);
}

/// An NCKP container's sections as (tag, payload).
std::vector<std::pair<std::uint32_t, Bytes>> nckp_sections(const Bytes& wire) {
  util::ByteReader r(wire, "checkpoint");
  r.u32();
  r.u32();
  std::vector<std::pair<std::uint32_t, Bytes>> sections;
  while (!r.done()) {
    const std::uint32_t tag = r.u32();
    sections.emplace_back(tag, r.bytes(r.u64()));
    r.u32();
  }
  return sections;
}

/// Frames `sections` as an NCKP container with fresh lengths and CRCs.
Bytes nckp(const std::vector<std::pair<std::uint32_t, Bytes>>& sections) {
  util::ByteWriter w;
  w.u32(cosim::kCheckpointMagic);
  w.u32(cosim::kCheckpointVersion);
  for (const auto& [tag, payload] : sections) {
    w.u32(tag);
    w.u64(payload.size());
    w.bytes(payload);
    w.u32(util::crc32(payload));
  }
  return w.take();
}

TEST(HostileBytesTest, CheckpointContainer) {
  expect_only_runtime_errors("NCKP", cosim::encode_checkpoint(sample_checkpoint()),
                             [](auto bytes) { (void)cosim::decode_checkpoint(bytes); }, 5);
}

TEST(HostileBytesTest, CheckpointSectionsMutatedThenReCrcd) {
  // The CRC stops a mutated section at the container; re-CRC'd, the
  // mutation reaches the ISS, KRNL, CHAN and WRKR decoders themselves.
  const Bytes wire = cosim::encode_checkpoint(sample_checkpoint());
  const auto sections = nckp_sections(wire);
  ASSERT_EQ(sections.size(), 4u);
  ASSERT_EQ(nckp(sections), wire);
  expect_only_runtime_errors(
      "NCKP section", wire, [](auto bytes) { (void)cosim::decode_checkpoint(bytes); }, 6,
      [&sections](util::Rng& rng) {
        auto mutated = sections;
        Bytes& payload = mutated[rng.below(mutated.size())].second;
        payload = mutate(payload, rng);
        return nckp(mutated);
      });
}

}  // namespace
}  // namespace nisc
