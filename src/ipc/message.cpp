#include "ipc/message.hpp"

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace nisc::ipc {

using util::Result;

const char* msg_type_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::Read: return "READ";
    case MsgType::Write: return "WRITE";
    case MsgType::ReadReply: return "READ-REPLY";
    case MsgType::Interrupt: return "INTERRUPT";
  }
  return "?";
}

DriverMessage DriverMessage::write_u32(const std::string& port, std::uint32_t value) {
  DriverMessage msg;
  msg.type = MsgType::Write;
  MsgItem item;
  item.port = port;
  item.data.resize(4);
  util::write_le(item.data, 4, value);
  msg.items.push_back(std::move(item));
  return msg;
}

DriverMessage DriverMessage::read_request(const std::string& port) {
  DriverMessage msg;
  msg.type = MsgType::Read;
  msg.items.push_back(MsgItem{port, {}});
  return msg;
}

DriverMessage DriverMessage::interrupt(std::uint32_t irq) {
  DriverMessage msg;
  msg.type = MsgType::Interrupt;
  MsgItem item;
  item.port = "irq";
  item.data.resize(4);
  util::write_le(item.data, 4, irq);
  msg.items.push_back(std::move(item));
  return msg;
}

std::optional<std::uint32_t> DriverMessage::irq() const {
  if (type != MsgType::Interrupt || items.size() != 1 || items[0].data.size() != 4) {
    return std::nullopt;
  }
  return util::read_le(items[0].data, 4);
}

std::vector<std::uint8_t> encode_message(const DriverMessage& msg) {
  util::require(msg.items.size() <= 0xFFFF, "encode_message: too many items");
  util::ByteWriter w;
  w.u32(0);  // packet_size, patched below
  w.u8(static_cast<std::uint8_t>(msg.type));
  w.u16(static_cast<std::uint16_t>(msg.items.size()));
  for (const MsgItem& item : msg.items) {
    w.str(item.port);
    w.blob(item.data);
  }
  std::vector<std::uint8_t> frame = w.take();
  util::store_le32(frame.data(), static_cast<std::uint32_t>(frame.size() - kMessageHeaderSize));
  return frame;
}

Result<std::uint32_t> message_body_size(std::span<const std::uint8_t> header) {
  const std::uint32_t size = util::read_le(header, kMessageHeaderSize);
  if (size > kMaxMessageBody) {
    return Result<std::uint32_t>::failure("packet_size " + std::to_string(size) +
                                          " exceeds the " + std::to_string(kMaxMessageBody) +
                                          "-byte limit");
  }
  return size;
}

Result<DriverMessage> decode_message_body(std::span<const std::uint8_t> body) {
  util::ByteReader r(body, "message body");
  try {
    const std::uint8_t raw_type = r.u8();
    if (raw_type > static_cast<std::uint8_t>(MsgType::Interrupt)) {
      return Result<DriverMessage>::failure("decode_message: unknown type");
    }
    DriverMessage msg;
    msg.type = static_cast<MsgType>(raw_type);
    // An item is at least a u16 port length and a u32 data size.
    const std::uint16_t count = r.count16(2 + 4);
    msg.items.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) msg.items.push_back({r.str(), r.blob()});
    if (!r.done()) return Result<DriverMessage>::failure("decode_message: trailing bytes");
    return msg;
  } catch (const util::RuntimeError& e) {
    return Result<DriverMessage>::failure(std::string("decode_message: ") + e.what());
  }
}

Result<DriverMessage> decode_message(std::span<const std::uint8_t> bytes,
                                     std::size_t& frame_size) {
  if (bytes.size() < kMessageHeaderSize) {
    return Result<DriverMessage>::failure("decode_message: truncated packet_size");
  }
  const Result<std::uint32_t> size = message_body_size(bytes);
  if (!size.ok()) return Result<DriverMessage>::failure(size.error());
  if (bytes.size() - kMessageHeaderSize < size.value()) {
    return Result<DriverMessage>::failure("decode_message: truncated body");
  }
  frame_size = kMessageHeaderSize + size.value();
  return decode_message_body(bytes.subspan(kMessageHeaderSize, size.value()));
}

void send_message(Channel& channel, const DriverMessage& msg) {
  channel.send(encode_message(msg));
}

DriverMessage recv_message(Channel& channel) {
  std::uint8_t header[kMessageHeaderSize];
  channel.recv_exact(header);
  const std::uint32_t size = message_body_size(header).value();
  std::vector<std::uint8_t> body(size);
  if (size > 0) channel.recv_exact(body);
  return decode_message_body(body).value();
}

std::optional<DriverMessage> try_recv_message(Channel& channel) {
  if (!channel.readable(0)) return std::nullopt;
  return recv_message(channel);
}

}  // namespace nisc::ipc
