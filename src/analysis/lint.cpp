#include "analysis/lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "analysis/flow.hpp"
#include "iss/assembler.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace nisc::analysis {
namespace {

using util::starts_with;
using util::to_lower;
using util::trim;

std::vector<std::string> split_lines(std::string_view source) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    std::size_t eol = source.find('\n', pos);
    if (eol == std::string_view::npos) {
      if (pos < source.size()) lines.emplace_back(source.substr(pos));
      break;
    }
    lines.emplace_back(source.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

/// The code part of a line: everything before the first comment marker.
/// Pragma lines are comments to the assembler but not to us; the caller
/// filters them out beforehand.
std::string_view code_part(std::string_view line) {
  std::size_t cut = line.size();
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '#' || line[i] == ';') {
      cut = i;
      break;
    }
    if (line[i] == '/' && i + 1 < line.size() && line[i + 1] == '/') {
      cut = i;
      break;
    }
  }
  return line.substr(0, cut);
}

bool is_identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

/// Strips leading "name:" labels; returns the remaining statement text.
std::string_view strip_labels(std::string_view text) {
  text = trim(text);
  while (true) {
    std::size_t colon = text.find(':');
    if (colon == std::string_view::npos) break;
    std::string_view head = trim(text.substr(0, colon));
    if (head.empty()) break;
    bool ident = true;
    for (char c : head) {
      if (!is_identifier_char(c)) ident = false;
    }
    if (!ident) break;
    text = trim(text.substr(colon + 1));
  }
  return text;
}

bool is_pragma_line(std::string_view line) { return starts_with(trim(line), "#pragma"); }

std::string mnemonic_of(std::string_view line) {
  std::string_view t = strip_labels(code_part(line));
  std::size_t ws = t.find_first_of(" \t");
  return to_lower(ws == std::string_view::npos ? t : t.substr(0, ws));
}

/// Whole-word occurrence of `ident` in `text`.
bool references_identifier(std::string_view text, std::string_view ident) {
  std::size_t pos = 0;
  while ((pos = text.find(ident, pos)) != std::string_view::npos) {
    bool left_ok = pos == 0 || !is_identifier_char(text[pos - 1]);
    std::size_t end = pos + ident.size();
    bool right_ok = end >= text.size() || !is_identifier_char(text[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// Parses "line N: message" (the assembler/pragma error convention) into a
/// line number and the bare message; line 0 when the prefix is absent.
std::pair<int, std::string> split_line_prefix(const std::string& what) {
  if (starts_with(what, "line ")) {
    std::size_t colon = what.find(':');
    if (colon != std::string::npos) {
      auto line = util::parse_int(trim(std::string_view(what).substr(5, colon - 5)));
      if (line && *line > 0) {
        return {static_cast<int>(*line), std::string(trim(std::string_view(what).substr(colon + 1)))};
      }
    }
  }
  return {0, what};
}

/// Per-line `nolint` / `nolint(rule,...)` markers found in comments.
struct NolintMap {
  std::map<int, std::set<std::string>> by_line;  // empty set = every rule

  bool suppressed(int line, std::string_view rule) const {
    auto it = by_line.find(line);
    if (it == by_line.end()) return false;
    return it->second.empty() || it->second.count(std::string(rule)) > 0;
  }
};

NolintMap scan_nolint(const std::vector<std::string>& lines) {
  NolintMap map;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    std::size_t pos = line.find("nolint");
    if (pos == std::string::npos) continue;
    std::set<std::string> rules;
    std::size_t after = pos + 6;
    if (after < line.size() && line[after] == '(') {
      std::size_t close = line.find(')', after);
      if (close != std::string::npos) {
        for (std::string_view rule : util::split(std::string_view(line).substr(after + 1, close - after - 1), ',')) {
          rule = trim(rule);
          if (!rule.empty()) rules.emplace(rule);
        }
      }
    }
    map.by_line[static_cast<int>(i) + 1] = std::move(rules);
  }
  return map;
}

}  // namespace

LintResult lint_guest_source(std::string_view source, const std::string& file,
                             DiagEngine& diags, const LintOptions& options) {
  LintResult result;
  std::vector<std::string> lines = split_lines(source);
  NolintMap nolint = scan_nolint(lines);

  auto report = [&](Severity severity, std::string rule, std::string message, int line) {
    if (line > 0 && nolint.suppressed(line, rule)) return;
    diags.report(severity, std::move(rule), std::move(message), SourceLoc{file, line, 0});
  };

  // 1. Pragma extraction (the production filter validates syntax and
  //    breakpoint placement; a failure is exactly the class of defect the
  //    paper's filter tool exists to catch).
  cosim::FilteredSource filtered;
  try {
    filtered = cosim::filter_pragmas(source);
  } catch (const util::RuntimeError& e) {
    auto [line, message] = split_line_prefix(e.what());
    report(Severity::Error, "lint.pragma", message, line);
    return result;
  }
  result.bindings = filtered.bindings;

  // 2. Binding-level checks: duplicates, conflicts, unknown ports.
  for (std::size_t i = 0; i < result.bindings.size(); ++i) {
    const cosim::PragmaBinding& b = result.bindings[i];
    for (std::size_t j = 0; j < i; ++j) {
      const cosim::PragmaBinding& prev = result.bindings[j];
      if (prev.port != b.port) continue;
      if (prev.direction == b.direction) {
        report(Severity::Error, "lint.duplicate-binding",
               "port '" + b.port + "' already bound by the pragma on line " +
                   std::to_string(prev.pragma_line),
               b.pragma_line);
      } else {
        report(Severity::Error, "lint.conflicting-binding",
               "port '" + b.port + "' bound as both iss_in and iss_out (see line " +
                   std::to_string(prev.pragma_line) + ")",
               b.pragma_line);
      }
      break;
    }
    if (!options.known_ports.empty() &&
        std::find(options.known_ports.begin(), options.known_ports.end(), b.port) ==
            options.known_ports.end()) {
      report(Severity::Error, "lint.unknown-port",
             "pragma names iss port '" + b.port + "' which is not in the design port list",
             b.pragma_line);
    }
  }

  // 3. Assembly. A line-preserving variant of the filtered source (pragmas
  //    blanked in place, synthetic breakpoint labels prepended to their
  //    target lines) keeps assembler line numbers aligned with the original
  //    file; it lays out to the same image as the production filter output.
  std::string preserving;
  {
    std::vector<std::string> transformed = lines;
    for (std::string& line : transformed) {
      if (is_pragma_line(line)) line.clear();
    }
    for (const cosim::PragmaBinding& b : result.bindings) {
      std::string& target = transformed[static_cast<std::size_t>(b.breakpoint_line) - 1];
      target = b.label + ": " + target;
    }
    for (const std::string& line : transformed) {
      preserving += line;
      preserving += '\n';
    }
  }
  {
    iss::AssembleResult assembled = iss::assemble_all(preserving, options.base);
    for (const iss::AsmError& e : assembled.errors) {
      report(Severity::Error, e.label_redefined ? "lint.label-redefined" : "lint.asm", e.message,
             e.line);
    }
    result.program = std::move(assembled.program);
    result.assembled = assembled.errors.empty();
  }

  // 4. Per-binding data-flow checks.
  for (const cosim::PragmaBinding& b : result.bindings) {
    if (result.assembled && !result.program.has_symbol(b.variable)) {
      report(Severity::Error, "lint.variable-undefined",
             "variable '" + b.variable + "' bound to port '" + b.port +
                 "' is not defined by the program",
             b.pragma_line);
    }

    bool referenced = false;
    for (const std::string& line : lines) {
      if (is_pragma_line(line)) continue;
      if (references_identifier(strip_labels(code_part(line)), b.variable)) {
        referenced = true;
        break;
      }
    }
    if (!referenced) {
      report(Severity::Warning, "lint.variable-unused",
             "variable '" + b.variable + "' bound to port '" + b.port +
                 "' is never read or written by an instruction; the binding cannot carry data",
             b.pragma_line);
    }

    const std::string mnemonic = mnemonic_of(lines[static_cast<std::size_t>(b.statement_line) - 1]);
    if (b.direction == cosim::BindDirection::IssToSc) {
      if (mnemonic != "sw" && mnemonic != "sh" && mnemonic != "sb") {
        report(Severity::Warning, "lint.bind-direction",
               "iss_in pragma for '" + b.variable + "' annotates '" + mnemonic +
                   "', not a store; the guest must write the variable before the breakpoint",
               b.statement_line);
      }
    } else {
      if (mnemonic != "lw" && mnemonic != "lh" && mnemonic != "lb" && mnemonic != "lhu" &&
          mnemonic != "lbu") {
        report(Severity::Warning, "lint.bind-direction",
               "iss_out pragma for '" + b.variable + "' annotates '" + mnemonic +
                   "', not a load; the injected value would never be consumed",
               b.statement_line);
      }
    }
  }

  // 5. Flow-sensitive NL3xx rules over the assembled program's CFG.
  if (result.assembled && options.flow) {
    FlowStats flow_stats;
    util::JsonWriter summaries;
    summaries.begin_object().key("file").value(file);
    check_flow(
        result.program, result.bindings,
        FlowOptions{options.mem_size, options.interproc, options.context_k},
        [&](Severity severity, std::string rule, std::string message, int line) {
          report(severity, std::move(rule), std::move(message), line);
        },
        &summaries, &flow_stats);
    // Only an interprocedural pass that ran counts functions and dumps them.
    if (flow_stats.functions > 0) result.summaries_json = summaries.end_object().str();
    result.stats.functions = flow_stats.functions;
    result.stats.clones = flow_stats.clones;
    result.stats.havoc_summaries = flow_stats.havoc_summaries;
    result.stats.narrowing_iterations = flow_stats.narrowing_iterations;
    result.stats.clone_overflows = flow_stats.clone_overflows;
  }

  return result;
}

}  // namespace nisc::analysis
