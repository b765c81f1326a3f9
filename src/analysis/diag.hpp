// Shared diagnostics engine for the analysis subsystem (cosim-lint, the
// delta-cycle race detector, the elaboration checks and the IPC frame
// validator all report through it).
//
// A Diagnostic is (severity, rule, message, source location). Rules are
// stable dotted identifiers ("race.write-write", "lint.variable-unused",
// ...) listed in DESIGN.md; per-rule suppression filters diagnostics at
// report time, so suppressed rules cost nothing downstream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace nisc::analysis {

enum class Severity : std::uint8_t { Note = 0, Warning = 1, Error = 2 };

const char* severity_name(Severity severity) noexcept;

/// A position in an input artifact. `file` may name a real file, a synthetic
/// source ("<builtin:checksum_gdb>") or a frame buffer; line 0 means "no
/// line information" (e.g. simulation-time diagnostics).
struct SourceLoc {
  std::string file;
  int line = 0;
  int column = 0;

  bool valid() const noexcept { return line > 0 || !file.empty(); }
  /// "file:line:column", omitting absent parts.
  std::string to_string() const;

  bool operator==(const SourceLoc&) const = default;
};

struct Diagnostic {
  Severity severity = Severity::Warning;
  std::string rule;     ///< stable dotted rule id
  std::string message;  ///< human-readable explanation
  SourceLoc loc;

  /// "file:line: error: message [rule]" (the text emitter's line format).
  std::string to_string() const;
};

/// Collects diagnostics; applies per-rule suppression at report time.
class DiagEngine {
 public:
  /// Records `diag` unless its rule is suppressed.
  void report(Diagnostic diag);
  void report(Severity severity, std::string rule, std::string message, SourceLoc loc = {});

  /// Suppresses every future diagnostic carrying `rule`.
  void suppress_rule(std::string rule) { suppressed_rules_.insert(std::move(rule)); }
  bool rule_suppressed(std::string_view rule) const {
    return suppressed_rules_.count(std::string(rule)) > 0;
  }

  const std::vector<Diagnostic>& diagnostics() const noexcept { return diagnostics_; }
  std::size_t count(Severity severity) const noexcept;
  std::size_t errors() const noexcept { return count(Severity::Error); }
  std::size_t warnings() const noexcept { return count(Severity::Warning); }
  bool empty() const noexcept { return diagnostics_.empty(); }

  /// True when at least one recorded diagnostic carries `rule`.
  bool has_rule(std::string_view rule) const noexcept;

  /// Diagnostics dropped by suppression since construction / clear().
  std::size_t suppressed_count() const noexcept { return suppressed_count_; }

  void clear() {
    diagnostics_.clear();
    suppressed_count_ = 0;
  }

 private:
  std::vector<Diagnostic> diagnostics_;
  std::set<std::string, std::less<>> suppressed_rules_;
  std::size_t suppressed_count_ = 0;
};

/// One line per diagnostic plus a summary line ("2 errors, 1 warning").
std::string render_text(const DiagEngine& engine);

/// Machine-readable report:
///   {"diagnostics":[{"severity":"error","rule":"...","message":"...",
///     "file":"...","line":N,"column":N}],"errors":N,"warnings":N,
///     "suppressed":N}
/// `extra_json`, when non-empty, is appended verbatim as additional
/// top-level members (it must be one or more `"key":value` fragments).
std::string render_json(const DiagEngine& engine, std::string_view extra_json = {});

}  // namespace nisc::analysis
