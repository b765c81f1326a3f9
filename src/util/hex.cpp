#include "util/hex.hpp"

#include "util/bytes.hpp"

namespace nisc::util {

char hex_digit(unsigned nibble) {
  require(nibble < 16, "hex_digit: nibble out of range");
  return "0123456789abcdef"[nibble];
}

int hex_value(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string hex_encode(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(hex_digit(b >> 4));
    out.push_back(hex_digit(b & 0xF));
  }
  return out;
}

Result<std::vector<std::uint8_t>> hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return Result<std::vector<std::uint8_t>>::failure("hex_decode: odd length");
  }
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int hi = hex_value(hex[i]);
    int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Result<std::vector<std::uint8_t>>::failure("hex_decode: invalid digit");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

std::string hex_encode_u32_le(std::uint32_t value) {
  std::uint8_t bytes[4];
  write_le(bytes, 4, value);
  return hex_encode(bytes);
}

Result<std::uint32_t> hex_decode_u32_le(std::string_view hex) {
  auto bytes = hex_decode(hex);
  if (!bytes.ok()) return Result<std::uint32_t>::failure(bytes.error());
  if (bytes.value().size() != 4) {
    return Result<std::uint32_t>::failure("hex_decode_u32_le: need 8 hex chars");
  }
  return read_le(bytes.value(), 4);
}

}  // namespace nisc::util
