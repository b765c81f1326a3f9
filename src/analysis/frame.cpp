#include "analysis/frame.hpp"

#include <vector>

namespace nisc::analysis {

std::size_t check_frames(std::span<const std::uint8_t> buffer, DiagEngine& diags,
                         const std::string& origin, WireFormat format) {
  StreamDecoder decoder(format, /*toward_target=*/true);
  std::vector<WireSymbol> symbols;
  decoder.feed(buffer, symbols);
  std::size_t good = 0;
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const int ordinal = static_cast<int>(i + 1);
    if (!symbols[i].malformed) {
      ++good;
      continue;
    }
    // A wedged decoder stops at the symbol that wedged it: the last one.
    const bool wedge = decoder.wedged() && i + 1 == symbols.size();
    diags.report(Severity::Error, wedge ? "frame.oversized" : "frame.malformed",
                 "frame #" + std::to_string(ordinal) + ": " + symbols[i].detail +
                     (wedge ? "; stopping scan" : ""),
                 SourceLoc{origin, ordinal, 0});
  }
  if (!decoder.wedged() && decoder.pending() > 0) {
    const int ordinal = static_cast<int>(symbols.size() + 1);
    diags.report(Severity::Error, "frame.truncated",
                 "frame #" + std::to_string(ordinal) + ": buffer ends " +
                     std::to_string(decoder.pending()) + " byte(s) into the frame",
                 SourceLoc{origin, ordinal, 0});
  }
  return good;
}

}  // namespace nisc::analysis
