// Wire-protocol frame validator (paper §4.2).
//
// Validates a buffer holding zero or more concatenated frames of one wire
// by running it through the StreamDecoder the conformance monitor uses, so
// the validator, the monitor and the wire's own reader share one parser per
// wire: ipc/message for Driver-Kernel frames ({u32 packet_size, body}, as
// produced by ipc::encode_message), cosim/worker for worker frames
// ({u32 body_len, u8 op, u64 seq, payload}, as produced by
// cosim::send_frame; the optional FTID trace-id trailer is not a defect).
//
// Rules:
//  * frame.truncated (error): buffer ends inside a frame.
//  * frame.oversized (error): a length field breaks the wire's header rule
//    (corrupt length; scanning stops — resynchronisation is hopeless).
//  * frame.malformed (error): a body breaks the wire's body rule
//    (Driver-Kernel: bad type or truncated item; Worker: unknown op or a
//    fixed-payload op with the wrong payload length).
//
// The reported SourceLoc uses `file` for the buffer's origin and `line` for
// the 1-based frame ordinal within it.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "analysis/diag.hpp"
#include "analysis/protocol.hpp"

namespace nisc::analysis {

/// Validates every frame in `buffer`; returns the number of well-formed
/// frames.
std::size_t check_frames(std::span<const std::uint8_t> buffer, DiagEngine& diags,
                         const std::string& origin = "<frames>",
                         WireFormat format = WireFormat::DriverKernel);

}  // namespace nisc::analysis
