// Driver-Kernel co-simulation message protocol (paper §4.2).
//
// Messages exchanged between the device driver in the OS running on the ISS
// and the SystemC kernel carry: Packet Size, Type (READ or WRITE), and a
// sequence of (DataSize_i, Data_i, SCPort_i) triples naming the iss_in /
// iss_out ports involved. We add two frame types the paper describes in
// prose but does not name: ReadReply (kernel -> driver, the data answering a
// READ) and Interrupt (kernel -> driver on the dedicated interrupt socket).
//
// Wire format (all integers little-endian):
//   u32 packet_size      -- bytes following this field
//   u8  type             -- MsgType
//   u16 item_count
//   repeated item_count times:
//     u16 port_len, port bytes (SCPort_i)
//     u32 data_size, data bytes (DataSize_i, Data_i; empty for READ requests)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ipc/channel.hpp"
#include "util/error.hpp"

namespace nisc::ipc {

enum class MsgType : std::uint8_t {
  Read = 0,       ///< driver asks the kernel for the value of iss_out ports
  Write = 1,      ///< driver pushes data into iss_in ports
  ReadReply = 2,  ///< kernel answers a Read with the port values
  Interrupt = 3,  ///< kernel notifies the driver of a device interrupt
};

const char* msg_type_name(MsgType type) noexcept;

/// One (SCPort, Data) element of a message.
struct MsgItem {
  std::string port;                ///< SystemC port name (SCPort_i)
  std::vector<std::uint8_t> data;  ///< payload (DataSize_i bytes)

  bool operator==(const MsgItem&) const = default;
};

/// A complete driver<->kernel message.
struct DriverMessage {
  MsgType type = MsgType::Read;
  std::vector<MsgItem> items;

  bool operator==(const DriverMessage&) const = default;

  /// Convenience: WRITE of one 32-bit little-endian word to `port`.
  static DriverMessage write_u32(const std::string& port, std::uint32_t value);
  /// Convenience: READ request for one port.
  static DriverMessage read_request(const std::string& port);
  /// Convenience: interrupt notification for IRQ line `irq`.
  static DriverMessage interrupt(std::uint32_t irq);

  /// For Interrupt messages: decodes the IRQ number; nullopt otherwise.
  std::optional<std::uint32_t> irq() const;
};

/// Serializes the message to its wire format.
std::vector<std::uint8_t> encode_message(const DriverMessage& msg);

/// Bytes in the u32 packet_size field that opens every frame.
inline constexpr std::size_t kMessageHeaderSize = 4;

/// Upper bound on accepted frame bodies; guards against corrupt size fields.
inline constexpr std::uint32_t kMaxMessageBody = 16u << 20;

/// The header rule, the one place a packet_size field is judged: returns the
/// body size announced by `header` (its first kMessageHeaderSize bytes), or
/// an error when it exceeds kMaxMessageBody — the stream is desynchronized
/// and no later frame boundary can be trusted.
util::Result<std::uint32_t> message_body_size(std::span<const std::uint8_t> header);

/// Parses one message from `bytes` (which must be exactly one frame *body*,
/// i.e. without the leading packet_size field).
util::Result<DriverMessage> decode_message_body(std::span<const std::uint8_t> body);

/// Parses the whole frame at the front of `bytes` (header rule, then
/// decode_message_body); on success `frame_size` holds its length on the
/// wire. Fails when `bytes` ends before the frame does.
util::Result<DriverMessage> decode_message(std::span<const std::uint8_t> bytes,
                                           std::size_t& frame_size);

/// Writes one framed message to the channel.
void send_message(Channel& channel, const DriverMessage& msg);

/// Blocking read of one framed message.
DriverMessage recv_message(Channel& channel);

/// Non-blocking probe: returns a message only if one has started arriving
/// (then blocks for its remainder — senders write whole frames atomically).
std::optional<DriverMessage> try_recv_message(Channel& channel);

}  // namespace nisc::ipc
