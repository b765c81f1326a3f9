// Hex codecs used by the RSP protocol (little-endian integers: util/bytes.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace nisc::util {

/// Lower-case hex digit for `nibble` in [0, 15].
char hex_digit(unsigned nibble);

/// Value of hex digit `c`; returns -1 for non-hex characters.
int hex_value(char c) noexcept;

/// Encodes `data` as lower-case hex, two characters per byte.
std::string hex_encode(std::span<const std::uint8_t> data);

/// Decodes a hex string into bytes. Fails on odd length or non-hex chars.
Result<std::vector<std::uint8_t>> hex_decode(std::string_view hex);

/// Encodes a 32-bit value as 8 hex chars in *target byte order* (little
/// endian), the register encoding used by the GDB remote protocol.
std::string hex_encode_u32_le(std::uint32_t value);

/// Inverse of hex_encode_u32_le.
Result<std::uint32_t> hex_decode_u32_le(std::string_view hex);

}  // namespace nisc::util
