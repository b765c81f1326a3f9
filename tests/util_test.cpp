// Unit tests for nisc::util.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/json.hpp"
#include "util/loc.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace nisc::util {
namespace {

// ---------------------------------------------------------------- error

TEST(ErrorTest, RequirePassesOnTrue) { EXPECT_NO_THROW(require(true, "nope")); }

TEST(ErrorTest, RequireThrowsLogicError) {
  EXPECT_THROW(require(false, "boom"), LogicError);
}

TEST(ErrorTest, ResultHoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.error().empty());
}

TEST(ErrorTest, ResultHoldsError) {
  auto r = Result<int>::failure("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "bad");
  EXPECT_THROW(r.value(), RuntimeError);
}

TEST(ErrorTest, ResultMoveValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

// ---------------------------------------------------------------- hex

TEST(HexTest, DigitRoundTrip) {
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(hex_value(hex_digit(i)), static_cast<int>(i));
  }
}

TEST(HexTest, DigitRejectsGarbage) {
  EXPECT_EQ(hex_value('g'), -1);
  EXPECT_EQ(hex_value(' '), -1);
  EXPECT_EQ(hex_value('\0'), -1);
}

TEST(HexTest, UppercaseAccepted) {
  EXPECT_EQ(hex_value('A'), 10);
  EXPECT_EQ(hex_value('F'), 15);
}

TEST(HexTest, EncodeBytes) {
  const std::uint8_t data[] = {0x00, 0x7F, 0xFF, 0x0A};
  EXPECT_EQ(hex_encode(data), "007fff0a");
}

TEST(HexTest, EncodeEmpty) {
  EXPECT_EQ(hex_encode(std::span<const std::uint8_t>{}), "");
}

TEST(HexTest, DecodeRoundTrip) {
  const std::uint8_t data[] = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  auto decoded = hex_decode(hex_encode(data));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), std::vector<std::uint8_t>(std::begin(data), std::end(data)));
}

TEST(HexTest, DecodeRejectsOddLength) { EXPECT_FALSE(hex_decode("abc").ok()); }

TEST(HexTest, DecodeRejectsNonHex) { EXPECT_FALSE(hex_decode("zz").ok()); }

TEST(HexTest, U32LittleEndian) {
  EXPECT_EQ(hex_encode_u32_le(0x12345678), "78563412");
  auto back = hex_decode_u32_le("78563412");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), 0x12345678u);
}

TEST(HexTest, U32RejectsShortInput) { EXPECT_FALSE(hex_decode_u32_le("7856").ok()); }

TEST(HexTest, ReadWriteLeWidths) {
  std::uint8_t buf[4] = {0, 0, 0, 0};
  write_le(buf, 2, 0xBEEF);
  EXPECT_EQ(buf[0], 0xEF);
  EXPECT_EQ(buf[1], 0xBE);
  EXPECT_EQ(read_le(buf, 2), 0xBEEFu);
  write_le(buf, 4, 0xCAFEBABE);
  EXPECT_EQ(read_le(buf, 4), 0xCAFEBABEu);
  EXPECT_EQ(read_le(buf, 1), 0xBEu);
}

TEST(HexTest, ReadLeChecksWidth) {
  std::uint8_t buf[4] = {};
  EXPECT_THROW(read_le(buf, 5), LogicError);
  EXPECT_THROW(read_le(std::span<const std::uint8_t>(buf, 1), 2), LogicError);
}

// ---------------------------------------------------------------- rng

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(RngTest, BelowRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.below(0), LogicError);
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.between(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(6);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  Rng rng(8);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits, 2500, 250);
}

// ---------------------------------------------------------------- checksum

TEST(ChecksumTest, InternetChecksumKnownVector) {
  // Classic RFC1071 example bytes.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // Compute with an independent formulation.
  std::uint32_t sum = 0x0100 + 0x03f2 + 0xf5f4 + 0xf7f6;  // big-endian words... but our
  (void)sum;  // implementation pairs little-endian; just verify involution property below.
  std::uint16_t c = internet_checksum(data);
  // Appending the checksum (LE) must make the raw sum all-ones.
  std::vector<std::uint8_t> with(data, data + sizeof(data));
  with.push_back(static_cast<std::uint8_t>(c & 0xFF));
  with.push_back(static_cast<std::uint8_t>(c >> 8));
  EXPECT_EQ(internet_checksum(with), 0);
}

TEST(ChecksumTest, InternetChecksumOddLength) {
  const std::uint8_t data[] = {0xAB};
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xABu));
}

TEST(ChecksumTest, InternetChecksumEmpty) {
  EXPECT_EQ(internet_checksum(std::span<const std::uint8_t>{}), 0xFFFF);
}

TEST(ChecksumTest, Crc16KnownVector) {
  // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16_ccitt(data), 0x29B1);
}

TEST(ChecksumTest, Crc16Empty) {
  EXPECT_EQ(crc16_ccitt(std::span<const std::uint8_t>{}), 0xFFFF);
}

TEST(ChecksumTest, Crc16DetectsSwap) {
  const std::uint8_t a[] = {1, 2, 3, 4};
  const std::uint8_t b[] = {2, 1, 3, 4};
  EXPECT_NE(crc16_ccitt(a), crc16_ccitt(b));
}

TEST(ChecksumTest, WordSumBasic) {
  const std::uint8_t data[] = {1, 0, 0, 0, 2, 0, 0, 0};
  EXPECT_EQ(word_sum32(data), 3u);
}

TEST(ChecksumTest, WordSumTail) {
  const std::uint8_t data[] = {0, 0, 0, 0, 0xFF, 0x01};
  EXPECT_EQ(word_sum32(data), 0x01FFu);
}

TEST(ChecksumTest, WordSumEmpty) {
  EXPECT_EQ(word_sum32(std::span<const std::uint8_t>{}), 0u);
}

TEST(ChecksumTest, WordSumOrderSensitiveAcrossWords) {
  const std::uint8_t a[] = {1, 0, 0, 0, 0, 2, 0, 0};
  const std::uint8_t b[] = {0, 2, 0, 0, 1, 0, 0, 0};
  EXPECT_EQ(word_sum32(a), word_sum32(b));  // addition commutes across words...
  const std::uint8_t c[] = {2, 0, 0, 0, 0, 1, 0, 0};
  EXPECT_NE(word_sum32(a), word_sum32(c));  // ...but not across byte lanes
}

// ---------------------------------------------------------------- strings

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t x \n"), "x");
}

TEST(StringsTest, SplitKeepsEmpties) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, SplitSingle) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, SplitWsDropsEmpties) {
  auto parts = split_ws("  add  x1, x2 \t x3 ");
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "add");
  EXPECT_EQ(parts[3], "x3");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("iss_in.port", "iss_in"));
  EXPECT_FALSE(starts_with("iss", "iss_in"));
  EXPECT_TRUE(ends_with("router.clk", ".clk"));
  EXPECT_FALSE(ends_with("clk", "router.clk"));
}

TEST(StringsTest, ParseIntDecimal) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-17"), -17);
  EXPECT_EQ(parse_int("+8"), 8);
  EXPECT_EQ(parse_int(" 10 "), 10);
}

TEST(StringsTest, ParseIntHexAndBinary) {
  EXPECT_EQ(parse_int("0x1F"), 31);
  EXPECT_EQ(parse_int("-0x10"), -16);
  EXPECT_EQ(parse_int("0b101"), 5);
}

TEST(StringsTest, ParseIntRejectsGarbage) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("abc").has_value());
  EXPECT_FALSE(parse_int("0x").has_value());
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("-").has_value());
  EXPECT_FALSE(parse_int("0b2").has_value());
}

TEST(StringsTest, ParseIntOverflow) {
  EXPECT_FALSE(parse_int("99999999999999999999").has_value());
  EXPECT_TRUE(parse_int("9223372036854775807").has_value());
  EXPECT_FALSE(parse_int("9223372036854775808").has_value());
  EXPECT_TRUE(parse_int("-9223372036854775808").has_value());
}

TEST(StringsTest, ToLower) { EXPECT_EQ(to_lower("AdDi X1"), "addi x1"); }

// ---------------------------------------------------------------- loc

TEST(LocTest, CountsCodeCommentBlank) {
  auto loc = count_loc("int x;\n// comment\n\nint y; // trailing\n");
  EXPECT_EQ(loc.code, 2);
  EXPECT_EQ(loc.comment, 1);
  EXPECT_EQ(loc.blank, 1);
}

TEST(LocTest, BlockComments) {
  auto loc = count_loc("/* a\n b\n c */\nint x;\n");
  EXPECT_EQ(loc.comment, 3);
  EXPECT_EQ(loc.code, 1);
}

TEST(LocTest, AssemblyComments) {
  auto loc = count_loc("# full line\n  addi x1, x0, 1\n; another\n");
  EXPECT_EQ(loc.comment, 2);
  EXPECT_EQ(loc.code, 1);
}

TEST(LocTest, Empty) {
  auto loc = count_loc("");
  EXPECT_EQ(loc.total(), 0);
}

TEST(LocTest, CodeBeforeBlockComment) {
  auto loc = count_loc("int x; /* start\n end */ int y;\n");
  EXPECT_EQ(loc.code, 2);
}

// ---------------------------------------------------------------- json

TEST(JsonTest, EscapeCoversEveryControlCharacter) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\t\r\n"), "\\t\\r\\n");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  for (int c = 0; c < 0x20; ++c) {
    const std::string raw(1, static_cast<char>(c));
    std::string literal = "\"";
    literal += json_escape(raw);
    literal += '"';
    EXPECT_EQ(parse_json(literal).as_string(), raw) << "char " << c;
  }
}

TEST(JsonTest, ParserRejectsRawControlCharactersInStrings) {
  EXPECT_THROW(parse_json("\"a\tb\""), RuntimeError);
  EXPECT_THROW(parse_json("{\"k\r\":1}"), RuntimeError);
  EXPECT_EQ(parse_json("\"a\\tb\"").as_string(), "a\tb");
  EXPECT_EQ(parse_json(" {\n\t\"k\": 1\r\n} ").at("k").as_int(), 1);  // whitespace is fine
}

}  // namespace
}  // namespace nisc::util
