// Flow-sensitive NL3xx rules: the analyses cosim-lint runs once a guest
// program assembles. Each rule is a pass over the basic-block CFG
// (analysis/cfg.hpp) using the worklist dataflow engine
// (analysis/dataflow.hpp) with the interval/taint register domain
// (analysis/absint.hpp); the NL31x rules additionally use the call graph
// (analysis/callgraph.hpp) and bottom-up function summaries
// (analysis/summary.hpp).
//
// Intraprocedural rules (PR 3):
//  * NL301 (warning): a pragma breakpoint address is not reachable from the
//    program entry along any CFG path — the ISS can never stop there.
//  * NL302 (warning): an instruction reads a register that is uninitialized
//    on EVERY path from the entry (x0 and sp are environment-provided).
//    The *data* operand of a store is exempt: spilling a caller-saved
//    register in a prologue is idiomatic, not a use of its value.
//  * NL303 (error): a load/store whose effective address is provably outside
//    the memory map [0, mem_size) on every path. Stack-relative and
//    unbounded addresses are never flagged — only definite faults.
//  * NL304 (warning): a function returns with the stack pointer provably
//    off its entry value (per-function analysis over intraprocedural edges;
//    callees are summarized as balanced and checked separately).
//  * NL305: binding liveness. Error when a bound variable's address is
//    provably outside the memory map (the co-simulation side could never
//    read or inject it); warning when an iss_in-bound variable might not be
//    written on some path from the entry to its breakpoint.
//
// Interprocedural rules (computed from call-graph summaries; disabled with
// FlowOptions::interproc = false):
//  * NL311 (warning): a call site passes a register that is uninitialized
//    on every path to the call, and the callee (transitively) consumes that
//    entry value. At a resolved multi-target site the claim must hold for
//    every possible callee (summaries join with entry-read intersection).
//  * NL312 (error): a callee dereferences an address derived from a caller
//    argument, and with this call site's argument the access is provably
//    outside the memory map. Single-target sites only: a footprint entry of
//    a joined multi-target summary belongs to just one of the candidates.
//  * NL313 (warning): a function returns with sp provably displaced and the
//    imbalance flows in through one of its callees — the cross-call
//    counterpart of NL304, which by design trusts callees to balance.
//  * NL314 (warning): a callee provably fails to preserve a callee-saved
//    register (s0-s11) whose caller value is still live (read after the
//    call before being rewritten) — an ABI/calling-convention violation
//    with observable effect. Fires on multi-target sites too: the joined
//    exit state only proves a clobber when every candidate clobbers.
//
// Context-sensitive rules (computed in the top-down clone pass, which walks
// one clone per k-limited call string — FlowOptions::context_k; k = 0
// reproduces the joined, context-insensitive view):
//  * NL315 (warning): an iss_in-bound variable's only writes live in a
//    function that is unreachable from the entry; refines the matching
//    NL305 warning (which it replaces) with the dead-callee evidence.
//  * NL316 (error): under some call string the caller's concrete stack
//    pointer places the callee's frame stores over a bound variable's word
//    — the co-simulation binding would be silently clobbered by stack
//    growth. Needs an exact sp, which survives only in an unjoined clone;
//    with context_k = 0 the joined sp interval stays silent.
//  * NL317 (warning): a context-divergent callee-saved clobber — under this
//    call string the caller's live register value is provably initialized
//    and provably destroyed by the callee, but the context-joined view
//    (which NL314 checks) masks it behind a Mixed initialization state.
//
// When the intra- and inter-procedural passes flag the same (rule, PC,
// operand) triple, one diagnostic is emitted with a "via call from <line>"
// note instead of two entries. Clones share the same keys, so the same
// defect reached over several call strings stays one diagnostic.
//
// All rules are definite-evidence only: an inconclusive analysis stays
// silent, so a clean guest produces zero NL3xx findings.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/diag.hpp"
#include "cosim/pragma.hpp"
#include "iss/program.hpp"
#include "util/json.hpp"

namespace nisc::analysis {

struct FlowOptions {
  /// Size of the guest memory map the loads/stores must stay inside.
  std::uint64_t mem_size = std::uint64_t(1) << 20;
  /// Run the interprocedural pass (call graph + summaries + NL31x).
  bool interproc = true;
  /// Call-string depth for context-sensitive summaries and the top-down
  /// clone pass: 0 joins every caller (context-insensitive), 1 keeps one
  /// clone per immediate call site.
  std::size_t context_k = 1;
};

/// Precision counters for cosim_lint --stats (mirrors analysis::SummaryStats
/// so this header stays free of the summary machinery).
struct FlowStats {
  std::size_t functions = 0;             ///< discovered call-graph functions
  std::size_t clones = 0;                ///< materialized (function, context) clones
  std::size_t havoc_summaries = 0;       ///< clones whose summary fell back to havoc
  std::size_t narrowing_iterations = 0;  ///< descending sweeps executed
  std::size_t clone_overflows = 0;       ///< call strings folded into the root clone
};

/// Sink for flow findings; the caller applies nolint/suppression and file
/// attribution. `line` is the original source line (0 when unknown).
using FlowReport =
    std::function<void(Severity severity, std::string rule, std::string message, int line)>;

/// Runs every NL3xx rule over an assembled program and its pragma bindings.
/// When `summaries` is non-null and the interprocedural pass ran, the
/// summary-dump members "context_k":K,"functions":[...] are written into the
/// object it has open (see summary.hpp); `stats`, when non-null, receives
/// the precision counters.
void check_flow(const iss::Program& program, const std::vector<cosim::PragmaBinding>& bindings,
                const FlowOptions& options, const FlowReport& report,
                util::JsonWriter* summaries = nullptr, FlowStats* stats = nullptr);

}  // namespace nisc::analysis
