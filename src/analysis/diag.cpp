#include "analysis/diag.hpp"

#include <sstream>

#include "util/json.hpp"

namespace nisc::analysis {

const char* severity_name(Severity severity) noexcept {
  switch (severity) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

std::string SourceLoc::to_string() const {
  std::string out = file;
  if (line > 0) {
    out += ':';
    out += std::to_string(line);
    if (column > 0) {
      out += ':';
      out += std::to_string(column);
    }
  }
  return out;
}

std::string Diagnostic::to_string() const {
  std::string out;
  if (loc.valid()) {
    out += loc.to_string();
    out += ": ";
  }
  out += severity_name(severity);
  out += ": ";
  out += message;
  out += " [";
  out += rule;
  out += ']';
  return out;
}

void DiagEngine::report(Diagnostic diag) {
  if (rule_suppressed(diag.rule)) {
    ++suppressed_count_;
    return;
  }
  diagnostics_.push_back(std::move(diag));
}

void DiagEngine::report(Severity severity, std::string rule, std::string message, SourceLoc loc) {
  report(Diagnostic{severity, std::move(rule), std::move(message), std::move(loc)});
}

std::size_t DiagEngine::count(Severity severity) const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == severity) ++n;
  }
  return n;
}

bool DiagEngine::has_rule(std::string_view rule) const noexcept {
  for (const Diagnostic& d : diagnostics_) {
    if (d.rule == rule) return true;
  }
  return false;
}

std::string render_text(const DiagEngine& engine) {
  std::string out;
  for (const Diagnostic& d : engine.diagnostics()) {
    out += d.to_string();
    out += '\n';
  }
  std::size_t errors = engine.errors();
  std::size_t warnings = engine.warnings();
  out += std::to_string(errors) + (errors == 1 ? " error, " : " errors, ");
  out += std::to_string(warnings) + (warnings == 1 ? " warning" : " warnings");
  if (engine.suppressed_count() > 0) {
    out += " (" + std::to_string(engine.suppressed_count()) + " suppressed)";
  }
  out += '\n';
  return out;
}

std::string render_json(const DiagEngine& engine, std::string_view extra_json) {
  std::ostringstream out;
  out << "{\"schema\":1,\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : engine.diagnostics()) {
    if (!first) out << ',';
    first = false;
    out << "{\"severity\":\"" << severity_name(d.severity) << "\""
        << ",\"rule\":\"" << util::json_escape(d.rule) << "\""
        << ",\"message\":\"" << util::json_escape(d.message) << "\""
        << ",\"file\":\"" << util::json_escape(d.loc.file) << "\""
        << ",\"line\":" << d.loc.line << ",\"column\":" << d.loc.column << '}';
  }
  out << "],\"errors\":" << engine.errors() << ",\"warnings\":" << engine.warnings()
      << ",\"suppressed\":" << engine.suppressed_count();
  if (!extra_json.empty()) out << ',' << extra_json;
  out << "}";
  return out.str();
}

}  // namespace nisc::analysis
