// Bottom-up, context-sensitive function summaries over the abstract domain
// of analysis/absint.hpp, cloned per k-limited call string.
//
// Each clone (function, call-site suffix) is analyzed on a fully *symbolic*
// boundary — every register holds the opaque entry value of itself
// (AbsValue::entry) — so the fixpoint describes the function as a
// transformer of its entry state:
//
//   * exit_regs  — the register file at return, entry-relative where
//                  possible ("a0 := entry(a0) + 4", "s1 := 0", ...)
//   * sp_delta   — exact stack-pointer displacement at return, when provable
//   * entry_reads — entry registers whose value is consumed before being
//                  overwritten (value-based: reads of any Entry(k)-derived
//                  value count, so a value copied through a temporary is
//                  still attributed to the register the caller must set)
//   * mem        — loads/stores whose address is entry-relative, i.e. the
//                  function's memory footprint as a function of its
//                  arguments
//   * must_written — tracked pragma-variable bits definitely written
//
// Summaries compose: a call site inside a function folds the callee's
// (already computed) summary into the symbolic state, resolved under the
// caller clone's own context — the callee clone keyed by pushing the call
// site onto the caller's call string, truncated to the last k sites
// (classic k-limited call-strings). k = 0 degenerates to one summary per
// function with every caller joined (the pre-context behavior); k = 1 gives
// one clone per immediate call site.
//
// Strongly connected components of the call graph iterate to a fixpoint in
// three phases: a few plain rounds, then FunctionSummary::widen_from
// acceleration (interval bounds jump to the lattice extremes, footprints
// collapse per (register, size, kind) group) until the ascending chain
// stops, then a bounded descending (narrowing) phase that re-runs the
// summary computation from the widened post-fixpoint to pull overshot
// bounds back in. Recursive helpers therefore get sound *finite* summaries
// — exact sp_delta, bounded intervals — instead of the old havoc collapse;
// the havoc fallback survives only as a backstop that SummaryStats counts
// (and CI keeps at zero across the committed clean guests).
//
// The havoc summary remains the deliberate model of an *unresolved* call
// (indirect with no address-taken labels, or a call into data): every
// register except x0/sp becomes unknown-but-initialized, the frame-slot map
// is dropped, and no read/footprint/write claims are made. A *resolved*
// indirect site with several possible targets no longer havocs: the targets'
// summaries are joined with multi-target semantics (exit states joined,
// footprints unioned, entry-read and must-write claims intersected — a
// definite claim must hold whichever target the jalr picks). sp is assumed
// ABI-balanced under havoc — this can hide a defect behind an unresolved
// call but can never invent one, matching the analyzer's
// zero-false-positive contract.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/absint.hpp"
#include "analysis/callgraph.hpp"
#include "analysis/cfg.hpp"
#include "util/json.hpp"

namespace nisc::analysis {

/// A k-limited call-string suffix: CallGraph::sites() indices, outermost
/// call first, the site that entered the function last. Empty = the root
/// context (program entry, or every caller joined when k == 0).
using Context = std::vector<std::size_t>;

/// `ctx` extended by call site `site`, truncated to the last `k` entries.
Context context_push(const Context& ctx, std::size_t site, std::size_t k);

/// Human-readable call-string: "line 4 > line 12" (empty for the root).
std::string context_label(const CallGraph& cg, const Context& ctx);

/// Evidence that a function consumes the entry value of a register.
struct EntryRead {
  std::uint8_t reg = 0;    ///< entry register whose value is consumed
  std::uint32_t addr = 0;  ///< first instruction that consumes it
  int line = 0;

  bool operator==(const EntryRead&) const = default;
};

/// One entry-relative memory access: address = entry(entry_reg) + offset.
struct MemAccess {
  std::uint8_t entry_reg = 0;
  Interval offset;
  std::uint32_t size = 4;
  bool is_store = false;
  std::uint32_t addr = 0;  ///< instruction evidence
  int line = 0;

  bool operator==(const MemAccess&) const = default;
};

/// Most entry-relative accesses a summary records before truncating.
constexpr std::size_t kMaxSummaryMem = 32;

struct FunctionSummary {
  bool havoc = false;        ///< unresolved target: assume nothing but ABI sp
  bool reached_ret = false;  ///< false: the function provably never returns
  std::array<AbsValue, 32> exit_regs{};
  std::optional<std::int64_t> sp_delta;
  std::vector<EntryRead> entry_reads;  ///< at most one entry per register
  std::vector<MemAccess> mem;
  bool mem_truncated = false;  ///< footprint overflowed kMaxSummaryMem
  std::uint64_t must_written = 0;
  std::vector<std::pair<std::uint32_t, int>> rets;  ///< reachable ret (addr, line)

  static FunctionSummary make_havoc();

  /// Entry value of `reg` consumed on some path? (linear scan; ≤31 entries)
  const EntryRead* read_of(std::uint8_t reg) const noexcept;

  /// Multi-target join: the summary of "one of these functions runs".
  /// Exit states join, footprints union; entry-read and must-write claims
  /// intersect (a definite claim must hold for EVERY possible target).
  /// A never-returning target contributes reads/footprint but no exit state.
  void join_target(const FunctionSummary& o);

  /// SCC widening accelerator: exit registers widen pointwise, the
  /// footprint collapses to one widened interval per (register, size, kind)
  /// group so a recursive frame chain cannot grow the list forever, and the
  /// read/ret sets union. Monotone, finite ascending chain.
  void widen_from(const FunctionSummary& o);

  bool operator==(const FunctionSummary&) const = default;
};

/// Folds `summary` into a caller state sitting just after the call
/// instruction: exit registers are translated from the callee's
/// entry-relative terms into the caller's own terms (the caller's registers
/// at the call *are* the callee's entry values), must-written bits are
/// imported, and frame slots the callee provably stores over are dropped.
/// A no-return summary marks the state dead.
void apply_summary(const FunctionSummary& summary, RegState& state);

/// The symbolic boundary the summary fixpoint starts from: regs[r] =
/// entry(r) for every r, x0 pinned to zero, nothing written.
RegState symbolic_boundary();

/// Domain for per-function flows that step over calls via their summaries:
/// wraps RegDomain, substituting a configurable boundary and folding the
/// call-site summary into the state right after each call instruction.
/// Summaries are held by value: multi-target sites carry a joined summary
/// that exists nowhere else.
class CallAwareDomain {
 public:
  using State = RegState;

  CallAwareDomain(RegDomain inner, State boundary,
                  std::map<std::uint32_t, FunctionSummary> site_summaries)
      : inner_(std::move(inner)),
        boundary_(std::move(boundary)),
        site_summaries_(std::move(site_summaries)) {}

  State boundary() const { return boundary_; }
  bool join(State& into, const State& from) const { return inner_.join(into, from); }
  bool widen(State& into, const State& from) const { return inner_.widen(into, from); }
  bool narrow(State& into, const State& from) const { return inner_.narrow(into, from); }
  void transfer(const CfgInstr& instr, State& state) const {
    inner_.transfer(instr, state);
    auto it = site_summaries_.find(instr.addr);
    if (it != site_summaries_.end()) apply_summary(it->second, state);
  }

  const RegDomain& inner() const noexcept { return inner_; }
  const FunctionSummary* summary_at(std::uint32_t addr) const noexcept {
    auto it = site_summaries_.find(addr);
    return it == site_summaries_.end() ? nullptr : &it->second;
  }

 private:
  RegDomain inner_;
  State boundary_;
  std::map<std::uint32_t, FunctionSummary> site_summaries_;
};

/// Plain SCC rounds before widening acceleration kicks in.
constexpr int kSccPlainRounds = 4;
/// Hard cap on SCC rounds; exceeding it havocs the SCC (backstop only —
/// widening is supposed to converge well before, and --stats counts hits).
constexpr int kMaxSccRounds = 16;
/// Bounded descending sweeps, both per-function (dataflow narrowing) and
/// per-SCC (summary recomputation from the widened post-fixpoint).
constexpr int kNarrowSweeps = 2;
/// Clone-count cap per function; call strings beyond it fold into the root
/// clone (counted by SummaryStats::clone_overflows).
constexpr std::size_t kMaxClonesPerFunction = 32;

/// Precision accounting for cosim_lint --stats.
struct SummaryStats {
  std::size_t functions = 0;             ///< CallGraph functions
  std::size_t clones = 0;                ///< materialized (function, context) clones
  std::size_t havoc_summaries = 0;       ///< clones that ended up havoc'd
  std::size_t narrowing_iterations = 0;  ///< descending sweeps executed
  std::size_t clone_overflows = 0;       ///< contexts folded into the root clone
};

class SummaryTable {
 public:
  /// Computes a summary for every (function, context) clone, bottom-up over
  /// SCCs. `tracked` is the pragma-variable address list (see RegDomain);
  /// `context_k` is the call-string depth (0 = context-insensitive).
  static SummaryTable compute(const Cfg& cfg, const CallGraph& cg,
                              std::vector<std::uint32_t> tracked, std::size_t context_k = 1);

  /// Root-context clone of `fn` (always present).
  const FunctionSummary& of(std::size_t fn) const;
  /// Clone of `fn` under `ctx`; falls back to the root clone when the exact
  /// context was never materialized (clone-cap overflow, k truncation).
  const FunctionSummary& of(std::size_t fn, const Context& ctx) const;

  /// Contexts materialized for `fn`, root context first.
  const std::vector<Context>& contexts_of(std::size_t fn) const;

  /// Summary a call site folds in under the caller clone `caller_ctx`: the
  /// join of every resolved callee's clone summary, or havoc for unresolved
  /// sites. Multi-target sites join instead of collapsing to havoc.
  FunctionSummary at_site(const CallGraph& cg, std::size_t site,
                          const Context& caller_ctx = {}) const;

  /// addr-of-call -> summary map for every call site of `fn` under `ctx`,
  /// ready for CallAwareDomain.
  std::map<std::uint32_t, FunctionSummary> site_summaries(const CallGraph& cg, std::size_t fn,
                                                          const Context& ctx = {}) const;

  const SummaryStats& stats() const noexcept { return stats_; }
  std::size_t context_k() const noexcept { return context_k_; }

 private:
  using Key = std::pair<std::size_t, Context>;
  std::map<Key, FunctionSummary> summaries_;
  std::vector<std::vector<Context>> contexts_;
  SummaryStats stats_;
  std::size_t context_k_ = 1;
};

/// Writes the members `"context_k":K,"functions":[...]` describing every
/// summary into the object `w` has open (dumped under the cosim_lint --json
/// "summaries" member; schema documented in DESIGN.md §8.6). The root clone
/// of each function is always emitted (with "context":[]); non-root clones
/// appear only when their summary differs from the root's, carrying the
/// call-string line list.
void render_summaries_json(util::JsonWriter& w, const CallGraph& cg, const SummaryTable& table);

}  // namespace nisc::analysis
