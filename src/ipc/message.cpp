#include "ipc/message.hpp"

#include "util/error.hpp"
#include "util/hex.hpp"

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

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

}  // namespace

std::vector<std::uint8_t> encode_message(const DriverMessage& msg) {
  util::require(msg.items.size() <= 0xFFFF, "encode_message: too many items");
  std::vector<std::uint8_t> body;
  body.push_back(static_cast<std::uint8_t>(msg.type));
  put_u16(body, static_cast<std::uint16_t>(msg.items.size()));
  for (const MsgItem& item : msg.items) {
    util::require(item.port.size() <= 0xFFFF, "encode_message: port name too long");
    put_u16(body, static_cast<std::uint16_t>(item.port.size()));
    body.insert(body.end(), item.port.begin(), item.port.end());
    put_u32(body, static_cast<std::uint32_t>(item.data.size()));
    body.insert(body.end(), item.data.begin(), item.data.end());
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(4 + body.size());
  put_u32(frame, static_cast<std::uint32_t>(body.size()));
  frame.insert(frame.end(), body.begin(), body.end());
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
  auto fail = [](const char* why) { return Result<DriverMessage>::failure(why); };
  std::size_t pos = 0;
  auto need = [&](std::size_t n) { return pos + n <= body.size(); };

  if (!need(3)) return fail("decode_message: truncated header");
  std::uint8_t raw_type = body[pos++];
  if (raw_type > static_cast<std::uint8_t>(MsgType::Interrupt)) {
    return fail("decode_message: unknown type");
  }
  DriverMessage msg;
  msg.type = static_cast<MsgType>(raw_type);
  std::uint16_t count = static_cast<std::uint16_t>(body[pos] | (body[pos + 1] << 8));
  pos += 2;
  msg.items.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    if (!need(2)) return fail("decode_message: truncated port length");
    std::uint16_t port_len = static_cast<std::uint16_t>(body[pos] | (body[pos + 1] << 8));
    pos += 2;
    if (!need(port_len)) return fail("decode_message: truncated port name");
    MsgItem item;
    item.port.assign(reinterpret_cast<const char*>(body.data() + pos), port_len);
    pos += port_len;
    if (!need(4)) return fail("decode_message: truncated data size");
    std::uint32_t data_size = util::read_le(body.subspan(pos), 4);
    pos += 4;
    if (data_size > kMaxMessageBody || !need(data_size)) {
      return fail("decode_message: truncated data");
    }
    item.data.assign(body.begin() + static_cast<std::ptrdiff_t>(pos),
                     body.begin() + static_cast<std::ptrdiff_t>(pos + data_size));
    pos += data_size;
    msg.items.push_back(std::move(item));
  }
  if (pos != body.size()) return fail("decode_message: trailing bytes");
  return msg;
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
