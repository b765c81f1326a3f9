// Property-based and fuzz tests across modules: randomized inputs checked
// against invariants and independent oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "ipc/message.hpp"
#include "iss/assembler.hpp"
#include "iss/cpu.hpp"
#include "iss/isa.hpp"
#include "rsp/packet.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace {

using nisc::util::Rng;

// ---------------------------------------------------------------- ISA fuzz

TEST(IsaProperty, RandomWordsNeverCrashTheDecoder) {
  Rng rng(101);
  for (int i = 0; i < 200000; ++i) {
    nisc::iss::Instr instr = nisc::iss::decode(rng.next_u32());
    if (instr.op != nisc::iss::Op::Illegal) {
      // Every legal decode must disassemble and re-encode without throwing.
      std::string text = nisc::iss::disassemble(instr);
      ASSERT_FALSE(text.empty());
      std::uint32_t word = nisc::iss::encode(instr);
      (void)word;
    }
  }
}

TEST(IsaProperty, DecodeEncodeDecodeIsStable) {
  // For legal words, the canonical re-encoding must decode to an equivalent
  // instruction (same disassembly). FENCE/ECALL/EBREAK are canonicalized.
  Rng rng(202);
  int checked = 0;
  for (int i = 0; i < 200000; ++i) {
    std::uint32_t word = rng.next_u32();
    nisc::iss::Instr a = nisc::iss::decode(word);
    if (a.op == nisc::iss::Op::Illegal || a.op == nisc::iss::Op::Fence) continue;
    nisc::iss::Instr b = nisc::iss::decode(nisc::iss::encode(a));
    ASSERT_EQ(nisc::iss::disassemble(a), nisc::iss::disassemble(b)) << "word=" << word;
    ++checked;
  }
  EXPECT_GT(checked, 5000);  // the encoding space is dense enough to hit
}

// ------------------------------------------------- CPU vs host-side oracle

/// Host-side evaluator for register-register/immediate arithmetic — an
/// independent oracle for the interpreter's ALU semantics.
std::uint32_t oracle_alu(nisc::iss::Op op, std::uint32_t rs1, std::uint32_t rs2,
                         std::int32_t imm) {
  using nisc::iss::Op;
  auto s = [](std::uint32_t v) { return static_cast<std::int32_t>(v); };
  switch (op) {
    case Op::Addi: return rs1 + static_cast<std::uint32_t>(imm);
    case Op::Slti: return s(rs1) < imm ? 1 : 0;
    case Op::Sltiu: return rs1 < static_cast<std::uint32_t>(imm) ? 1 : 0;
    case Op::Xori: return rs1 ^ static_cast<std::uint32_t>(imm);
    case Op::Ori: return rs1 | static_cast<std::uint32_t>(imm);
    case Op::Andi: return rs1 & static_cast<std::uint32_t>(imm);
    case Op::Add: return rs1 + rs2;
    case Op::Sub: return rs1 - rs2;
    case Op::Sll: return rs1 << (rs2 & 31);
    case Op::Slt: return s(rs1) < s(rs2) ? 1 : 0;
    case Op::Sltu: return rs1 < rs2 ? 1 : 0;
    case Op::Xor: return rs1 ^ rs2;
    case Op::Srl: return rs1 >> (rs2 & 31);
    case Op::Sra: return static_cast<std::uint32_t>(s(rs1) >> (rs2 & 31));
    case Op::Or: return rs1 | rs2;
    case Op::And: return rs1 & rs2;
    case Op::Mul: return rs1 * rs2;
    default: return 0;
  }
}

TEST(CpuProperty, RandomAluProgramsMatchOracle) {
  using nisc::iss::Op;
  static constexpr std::array<Op, 11> kRegOps = {Op::Add, Op::Sub, Op::Sll, Op::Slt,
                                                 Op::Sltu, Op::Xor, Op::Srl, Op::Sra,
                                                 Op::Or, Op::And, Op::Mul};
  static constexpr std::array<Op, 6> kImmOps = {Op::Addi, Op::Slti, Op::Sltiu,
                                                Op::Xori, Op::Ori, Op::Andi};
  Rng rng(303);
  for (int trial = 0; trial < 200; ++trial) {
    // Generate a random straight-line ALU program over x1..x15.
    std::array<std::uint32_t, 32> oracle_regs{};
    nisc::iss::Cpu cpu(1 << 16);
    std::uint32_t addr = 0;
    const int length = 1 + static_cast<int>(rng.below(60));
    for (int i = 0; i < length; ++i) {
      nisc::iss::Instr instr;
      instr.rd = static_cast<std::uint8_t>(1 + rng.below(15));
      instr.rs1 = static_cast<std::uint8_t>(rng.below(16));
      if (rng.chance(0.5)) {
        instr.op = kRegOps[rng.below(kRegOps.size())];
        instr.rs2 = static_cast<std::uint8_t>(rng.below(16));
      } else {
        instr.op = kImmOps[rng.below(kImmOps.size())];
        instr.imm = static_cast<std::int32_t>(rng.between(0, 4095)) - 2048;
      }
      cpu.mem().write32(addr, nisc::iss::encode(instr));
      addr += 4;
      // Oracle evaluation.
      std::uint32_t result = oracle_alu(instr.op, oracle_regs[instr.rs1],
                                        oracle_regs[instr.rs2], instr.imm);
      if (instr.rd != 0) oracle_regs[instr.rd] = result;
    }
    cpu.mem().write32(addr, nisc::iss::encode({nisc::iss::Op::Ebreak, 0, 0, 0, 0}));
    ASSERT_EQ(cpu.run(10000), nisc::iss::Halt::Ebreak) << "trial " << trial;
    for (std::uint8_t r = 0; r < 16; ++r) {
      ASSERT_EQ(cpu.reg(r), oracle_regs[r]) << "trial " << trial << " reg " << int(r);
    }
  }
}

TEST(CpuProperty, RandomMemoryImagesNeverCrash) {
  Rng rng(404);
  for (int trial = 0; trial < 100; ++trial) {
    nisc::iss::Cpu cpu(4096);
    for (std::uint32_t a = 0; a < 4096; a += 4) cpu.mem().write32(a, rng.next_u32());
    nisc::iss::Halt halt = cpu.run(5000);
    // Whatever happens, the CPU halts or exhausts its quantum with sane state.
    EXPECT_EQ(cpu.reg(0), 0u);
    (void)halt;
  }
}

TEST(CpuProperty, X0StaysZeroUnderRandomArithmetic) {
  Rng rng(505);
  nisc::iss::Cpu cpu(1 << 12);
  std::uint32_t addr = 0;
  for (int i = 0; i < 100; ++i) {
    nisc::iss::Instr instr{nisc::iss::Op::Addi, 0, static_cast<std::uint8_t>(rng.below(32)), 0,
                           static_cast<std::int32_t>(rng.below(100))};
    cpu.mem().write32(addr, nisc::iss::encode(instr));
    addr += 4;
  }
  cpu.mem().write32(addr, nisc::iss::encode({nisc::iss::Op::Ebreak, 0, 0, 0, 0}));
  EXPECT_EQ(cpu.run(1000), nisc::iss::Halt::Ebreak);
  EXPECT_EQ(cpu.reg(0), 0u);
}

// ---------------------------------------------------------------- RSP fuzz

TEST(RspProperty, RandomBytesNeverCrashTheReader) {
  Rng rng(606);
  nisc::rsp::PacketReader reader;
  for (int burst = 0; burst < 2000; ++burst) {
    std::uint8_t buf[64];
    std::size_t n = 1 + rng.below(sizeof(buf));
    for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<std::uint8_t>(rng.next_u32());
    reader.feed(std::span<const std::uint8_t>(buf, n));
    while (reader.next().has_value()) {
    }
  }
}

TEST(RspProperty, FrameParseRoundTripsArbitraryPayloads) {
  Rng rng(707);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string payload;
    std::size_t n = rng.below(64);
    for (std::size_t i = 0; i < n; ++i) {
      payload.push_back(static_cast<char>(rng.between(1, 126)));  // no NUL
    }
    std::string frame = nisc::rsp::frame_packet(payload);
    nisc::rsp::PacketReader reader;
    reader.feed(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(frame.data()), frame.size()));
    auto event = reader.next();
    ASSERT_TRUE(event.has_value());
    ASSERT_EQ(event->kind, nisc::rsp::RspEventKind::Packet);
    ASSERT_EQ(event->payload, payload);
    EXPECT_FALSE(reader.next().has_value());
  }
}

// ---------------------------------------------------------------- message fuzz

TEST(MessageProperty, RandomBodiesNeverCrashTheDecoder) {
  Rng rng(808);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> body(rng.below(128));
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.next_u32());
    auto result = nisc::ipc::decode_message_body(body);
    (void)result;  // ok or clean error, never UB
  }
}

TEST(MessageProperty, EncodeDecodeIsIdentityForRandomMessages) {
  Rng rng(909);
  for (int trial = 0; trial < 1000; ++trial) {
    nisc::ipc::DriverMessage msg;
    msg.type = static_cast<nisc::ipc::MsgType>(rng.below(4));
    std::size_t items = rng.below(5);
    for (std::size_t i = 0; i < items; ++i) {
      nisc::ipc::MsgItem item;
      std::size_t name_len = 1 + rng.below(20);
      for (std::size_t c = 0; c < name_len; ++c) {
        item.port.push_back(static_cast<char>(rng.between('a', 'z')));
      }
      item.data.resize(rng.below(40));
      for (auto& b : item.data) b = static_cast<std::uint8_t>(rng.next_u32());
      msg.items.push_back(std::move(item));
    }
    auto frame = nisc::ipc::encode_message(msg);
    auto decoded = nisc::ipc::decode_message_body(
        std::span<const std::uint8_t>(frame).subspan(4));
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value(), msg);
  }
}

TEST(MessageProperty, DecodeThenEncodeIsIdentityOnAcceptedBodies) {
  // The codec is a bijection on well-formed frames: any body the decoder
  // accepts, however it was produced, re-encodes to the same bytes. Bodies
  // come from mutating valid encodings (byte overwrite, insert, erase,
  // truncate), so most stay close enough to the format to decode.
  Rng rng(1010);
  int accepted = 0;
  for (int trial = 0; trial < 8000; ++trial) {
    nisc::ipc::DriverMessage msg;
    msg.type = static_cast<nisc::ipc::MsgType>(rng.below(4));
    const std::size_t items = rng.below(4);
    for (std::size_t i = 0; i < items; ++i) {
      nisc::ipc::MsgItem item;
      item.port.assign(1 + rng.below(12), static_cast<char>(rng.between('a', 'z')));
      item.data.resize(rng.below(16));
      for (auto& b : item.data) b = static_cast<std::uint8_t>(rng.next_u32());
      msg.items.push_back(std::move(item));
    }
    const std::vector<std::uint8_t> frame = nisc::ipc::encode_message(msg);
    std::vector<std::uint8_t> body(frame.begin() + 4, frame.end());
    for (std::size_t m = 1 + rng.below(3); m > 0 && !body.empty(); --m) {
      const std::size_t at = rng.below(body.size());
      const auto pos = body.begin() + static_cast<std::ptrdiff_t>(at);
      switch (rng.below(4)) {
        case 0: body[at] = static_cast<std::uint8_t>(rng.next_u32()); break;
        case 1: body.insert(pos, static_cast<std::uint8_t>(rng.next_u32())); break;
        case 2: body.erase(pos); break;
        default: body.resize(at); break;
      }
    }
    const auto decoded = nisc::ipc::decode_message_body(body);
    if (!decoded.ok()) continue;
    ++accepted;
    const std::vector<std::uint8_t> again = nisc::ipc::encode_message(decoded.value());
    ASSERT_EQ(nisc::util::read_le(again, 4), body.size()) << "trial " << trial;
    ASSERT_TRUE(std::equal(again.begin() + 4, again.end(), body.begin(), body.end()))
        << "trial " << trial;
  }
  EXPECT_GE(accepted, 300);  // the oracle must not pass vacuously
}

// ---------------------------------------------------------------- checksum properties

TEST(ChecksumProperty, InternetChecksumVerifiesAppendedData) {
  Rng rng(111);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> data(2 * (1 + rng.below(100)));  // even length
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
    std::uint16_t checksum = nisc::util::internet_checksum(data);
    data.push_back(static_cast<std::uint8_t>(checksum & 0xFF));
    data.push_back(static_cast<std::uint8_t>(checksum >> 8));
    ASSERT_EQ(nisc::util::internet_checksum(data), 0);
  }
}

TEST(ChecksumProperty, Crc16DetectsSingleBitFlips) {
  Rng rng(222);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> data(1 + rng.below(64));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
    std::uint16_t original = nisc::util::crc16_ccitt(data);
    std::size_t byte = rng.below(data.size());
    data[byte] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    ASSERT_NE(nisc::util::crc16_ccitt(data), original);
  }
}

TEST(ChecksumProperty, WordSumMatchesNaiveSum) {
  Rng rng(333);
  for (int trial = 0; trial < 500; ++trial) {
    std::size_t words = rng.below(32);
    std::vector<std::uint8_t> data(words * 4);
    std::uint32_t expected = 0;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint32_t v = rng.next_u32();
      expected += v;
      nisc::util::write_le(std::span<std::uint8_t>(data).subspan(w * 4), 4, v);
    }
    ASSERT_EQ(nisc::util::word_sum32(data), expected);
  }
}

// ---------------------------------------------------------------- hex property

TEST(HexProperty, EncodeDecodeIsIdentity) {
  Rng rng(444);
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<std::uint8_t> data(rng.below(64));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
    auto decoded = nisc::util::hex_decode(nisc::util::hex_encode(data));
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value(), data);
  }
}

// ---------------------------------------------------------------- assembler property

TEST(AsmProperty, AssembleDisassembleAgreesOnMnemonic) {
  // Every mnemonic assembled alone must disassemble back to itself.
  const char* lines[] = {
      "add a0, a1, a2", "sub s0, s1, s2", "xor t0, t1, t2", "or t3, t4, t5",
      "and a3, a4, a5", "sll s3, s4, s5", "srl t6, a6, a7", "sra s6, s7, s8",
      "slt s9, s10, s11", "sltu a0, a1, a2", "mul a0, a1, a2", "div a0, a1, a2",
      "rem a0, a1, a2", "addi a0, a1, -5", "andi a0, a1, 7", "ori a0, a1, 7",
      "xori a0, a1, 7", "slti a0, a1, -1", "sltiu a0, a1, 9", "slli a0, a1, 3",
      "srli a0, a1, 3", "srai a0, a1, 3", "lw a0, 4(sp)", "lh a0, 2(sp)",
      "lb a0, 1(sp)", "lbu a0, 1(sp)", "lhu a0, 2(sp)", "sw a0, 4(sp)",
      "sh a0, 2(sp)", "sb a0, 1(sp)", "ecall", "ebreak",
  };
  for (const char* line : lines) {
    nisc::iss::Program prog = nisc::iss::assemble(std::string(line) + "\n");
    ASSERT_EQ(prog.bytes.size(), 4u) << line;
    std::uint32_t word = nisc::util::read_le(prog.bytes, 4);
    std::string mnemonic = std::string(line).substr(0, std::string(line).find(' '));
    std::string dis = nisc::iss::disassemble(nisc::iss::decode(word));
    ASSERT_EQ(dis.substr(0, mnemonic.size()), mnemonic) << line << " -> " << dis;
  }
}

TEST(AsmProperty, BranchOffsetsResolveBothDirections) {
  Rng rng(555);
  for (int trial = 0; trial < 50; ++trial) {
    // A chain of numbered labels with random forward/backward branches that
    // must all assemble (targets within range by construction).
    std::string source;
    const int blocks = 10;
    for (int b = 0; b < blocks; ++b) {
      source += "blk" + std::to_string(b) + ":\n  addi t0, t0, 1\n";
      int target = static_cast<int>(rng.below(blocks));
      source += "  beq t1, t2, blk" + std::to_string(target) + "\n";
    }
    source += "  ebreak\n";
    nisc::iss::Program prog = nisc::iss::assemble(source);
    EXPECT_EQ(prog.bytes.size(), static_cast<std::size_t>(blocks * 8 + 4));
  }
}

}  // namespace
