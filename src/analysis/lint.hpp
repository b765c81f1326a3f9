// cosim-lint: static analysis of guest assembly programs and their pragma
// port bindings — the paper's §3.2 filter tool grown into a checker.
//
// Rules (all locations refer to the original, unfiltered source):
//  * lint.pragma (error): malformed #pragma iss_in/iss_out, or a pragma with
//    no statement to attach its breakpoint to (breakpoint on a missing
//    line).
//  * lint.asm (error): the program does not assemble — undefined labels,
//    unknown mnemonics, bad operands (assembler messages, re-homed to the
//    original line numbers). All errors in the file are reported in one
//    pass, not just the first.
//  * lint.label-redefined (error): a label is defined twice; the first
//    definition wins for the rest of the analysis.
//  * lint.duplicate-binding (error): the same iss port bound by two pragmas
//    of the same direction.
//  * lint.conflicting-binding (error): the same iss port bound as both
//    iss_in and iss_out.
//  * lint.unknown-port (error, needs LintOptions::known_ports): a pragma
//    names a port outside the declared design port list.
//  * lint.variable-undefined (error): a bound guest variable is not a symbol
//    of the assembled program.
//  * lint.variable-unused (warning): a bound variable is never read or
//    written by any instruction — the binding can never carry data.
//  * lint.bind-direction (warning): an iss_in pragma annotates a statement
//    that is not a store (the guest must write the variable before the
//    breakpoint), or an iss_out pragma annotates one that is not a load.
//  * NL301..NL305 (see analysis/flow.hpp): flow-sensitive rules over the
//    assembled program's CFG — breakpoint reachability, uninitialized
//    register reads, provably out-of-map accesses, stack balance, and
//    binding liveness. They run only when the program assembled cleanly and
//    can be disabled wholesale with LintOptions::flow = false.
//  * NL311..NL317 (see analysis/flow.hpp): interprocedural rules over the
//    call graph and context-sensitive function summaries — uninitialized
//    call arguments, out-of-map accesses through helpers, cross-call stack
//    imbalance, callee-saved register clobbers, bindings written only in
//    dead code, stack growth over a binding, and context-divergent clobbers.
//    Disabled with LintOptions::interproc = false; the call-string depth of
//    the clone pass is LintOptions::context_k.
//
// Inline suppression: a `nolint` token in a comment on the offending line
// silences all rules for that line; `nolint(rule-a,rule-b)` silences only
// the listed rules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/diag.hpp"
#include "cosim/pragma.hpp"
#include "iss/program.hpp"

namespace nisc::analysis {

struct LintOptions {
  /// When non-empty, pragma port names must appear in this list.
  std::vector<std::string> known_ports;
  /// Load address passed to the assembler.
  std::uint32_t base = 0;
  /// Run the flow-sensitive NL3xx rules (CFG + abstract interpretation).
  bool flow = true;
  /// Run the interprocedural pass (call graph, summaries, NL31x rules).
  bool interproc = true;
  /// Call-string depth for context-sensitive summaries and the clone pass
  /// (0 = context-insensitive, the pre-context behavior).
  std::size_t context_k = 1;
  /// Guest memory map size the NL303/NL305 in-map checks use.
  std::uint64_t mem_size = std::uint64_t(1) << 20;
};

/// Precision counters from the interprocedural pass (cosim_lint --stats).
struct LintStats {
  std::size_t functions = 0;
  std::size_t clones = 0;
  std::size_t havoc_summaries = 0;
  std::size_t narrowing_iterations = 0;
  std::size_t clone_overflows = 0;
};

struct LintResult {
  bool assembled = false;                        ///< program assembled cleanly
  iss::Program program;                          ///< valid when assembled
  std::vector<cosim::PragmaBinding> bindings;    ///< parsed pragma bindings
  /// `{"file":F,"context_k":K,"functions":[...]}` summary dump from the
  /// interprocedural pass; empty when the pass did not run (summary.hpp).
  std::string summaries_json;
  /// Precision counters; all zero when the interprocedural pass did not run.
  LintStats stats;
};

/// Lints one guest program. `file` is used in diagnostic locations.
LintResult lint_guest_source(std::string_view source, const std::string& file,
                             DiagEngine& diags, const LintOptions& options = {});

}  // namespace nisc::analysis
