#include "analysis/summary.hpp"

#include <algorithm>
#include <tuple>

#include "analysis/dataflow.hpp"
#include "analysis/diag.hpp"
#include "iss/isa.hpp"

namespace nisc::analysis {
namespace {

using iss::Op;

bool is_load(Op op) {
  return op == Op::Lb || op == Op::Lh || op == Op::Lw || op == Op::Lbu || op == Op::Lhu;
}
bool is_store(Op op) { return op == Op::Sb || op == Op::Sh || op == Op::Sw; }

std::uint32_t access_size(Op op) {
  switch (op) {
    case Op::Lb: case Op::Lbu: case Op::Sb: return 1;
    case Op::Lh: case Op::Lhu: case Op::Sh: return 2;
    default: return 4;
  }
}

bool is_ret(const iss::Instr& in) {
  return in.op == Op::Jalr && in.rd == 0 && in.rs1 == 1 && in.imm == 0;
}

AbsValue wrap_exact(AbsValue v) noexcept {
  if (v.base == AbsValue::Base::None && v.range.is_exact()) {
    v.range = Interval::exact(static_cast<std::uint32_t>(v.range.lo));
  }
  return v;
}

/// Rewrites a callee-exit value (entry-relative) into the caller's terms:
/// the caller's registers at the call *are* the callee's entry values.
AbsValue translate(const AbsValue& exit, const std::array<AbsValue, 32>& entry_vals) {
  if (exit.base != AbsValue::Base::Entry) return exit;
  const AbsValue& e = entry_vals[exit.entry_reg];
  return wrap_exact({e.range.plus(exit.range), e.base, e.init, e.entry_reg});
}

/// One symbolic-fixpoint pass over a single function clone, stepping over
/// call sites via `env` (addr -> callee summary under this clone's context;
/// bottom defaults for not-yet-computed SCC peers). `narrow_iters` counts
/// the descending sweeps the inner dataflow executes.
FunctionSummary summarize(const Cfg& cfg, const CallGraph& cg, std::size_t f,
                          std::map<std::uint32_t, FunctionSummary> env,
                          const std::vector<std::uint32_t>& tracked,
                          std::size_t* narrow_iters) {
  const Function& fn = cg.functions()[f];
  CallAwareDomain dom(RegDomain(tracked), symbolic_boundary(), std::move(env));
  DataflowResult<CallAwareDomain> flow = run_forward(cfg, dom, kIntraprocEdges, fn.entry_block, 8,
                                                     kNarrowSweeps, narrow_iters);

  FunctionSummary s;
  for (std::size_t b : fn.blocks) {
    if (!flow.out[b] || flow.out[b]->dead) continue;
    const CfgInstr& last = cfg.blocks()[b].instrs.back();
    if (!is_ret(last.instr)) continue;
    s.rets.emplace_back(last.addr, last.line);
    if (!s.reached_ret) {
      s.reached_ret = true;
      s.exit_regs = flow.out[b]->regs;
      s.must_written = flow.out[b]->written;
    } else {
      for (std::size_t r = 0; r < 32; ++r) s.exit_regs[r].join(flow.out[b]->regs[r]);
      s.must_written &= flow.out[b]->written;
    }
  }
  const AbsValue& sp = s.exit_regs[2];
  if (s.reached_ret && sp.is_sp_rel() && sp.range.is_exact()) s.sp_delta = sp.range.lo;

  // Replay every reachable block to harvest entry reads and the
  // entry-relative memory footprint, folding callee claims in transitively.
  std::map<std::uint8_t, EntryRead> reads;
  auto note_read = [&](std::uint8_t entry_reg, const CfgInstr& ci) {
    if (entry_reg != 0) reads.emplace(entry_reg, EntryRead{entry_reg, ci.addr, ci.line});
  };
  auto note_mem = [&](MemAccess m) {
    if (s.mem_truncated || m.offset.is_top()) return;
    if (std::find(s.mem.begin(), s.mem.end(), m) != s.mem.end()) return;
    if (s.mem.size() >= kMaxSummaryMem) {
      s.mem_truncated = true;
      return;
    }
    s.mem.push_back(std::move(m));
  };
  for (std::size_t b : fn.blocks) {
    if (!flow.in[b] || flow.in[b]->dead) continue;
    RegState state = *flow.in[b];
    for (const CfgInstr& ci : cfg.blocks()[b].instrs) {
      if (state.dead) break;
      for (std::uint8_t q : RegDomain::regs_read_values(ci.instr)) {
        const AbsValue& v = state.regs[q];
        if (v.base == AbsValue::Base::Entry) note_read(v.entry_reg, ci);
      }
      if (is_load(ci.instr.op) || is_store(ci.instr.op)) {
        AbsValue addr = RegDomain::effective_address(state, ci.instr);
        if (addr.base == AbsValue::Base::Entry && !addr.range.is_top()) {
          note_mem({addr.entry_reg, addr.range, access_size(ci.instr.op), is_store(ci.instr.op),
                    ci.addr, ci.line});
        }
      }
      if (const FunctionSummary* callee = dom.summary_at(ci.addr)) {
        if (!callee->havoc) {
          RegState at_call = state;
          dom.inner().transfer(ci, at_call);  // link register written first
          for (const EntryRead& er : callee->entry_reads) {
            const AbsValue& v = at_call.regs[er.reg];
            if (v.base == AbsValue::Base::Entry) note_read(v.entry_reg, ci);
          }
          for (const MemAccess& m : callee->mem) {
            const AbsValue& v = at_call.regs[m.entry_reg];
            if (v.base == AbsValue::Base::Entry && !v.range.is_top()) {
              note_mem({v.entry_reg, v.range.plus(m.offset), m.size, m.is_store, ci.addr, ci.line});
            }
          }
          if (callee->mem_truncated) s.mem_truncated = true;
        }
      }
      dom.transfer(ci, state);
    }
  }
  for (auto& [reg, read] : reads) s.entry_reads.push_back(read);
  return s;
}

}  // namespace

Context context_push(const Context& ctx, std::size_t site, std::size_t k) {
  if (k == 0) return {};
  Context out = ctx;
  out.push_back(site);
  if (out.size() > k) out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(out.size() - k));
  return out;
}

std::string context_label(const CallGraph& cg, const Context& ctx) {
  std::string out;
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    if (i) out += " > ";
    out += "line ";
    out += std::to_string(cg.sites()[ctx[i]].line);
  }
  return out;
}

FunctionSummary FunctionSummary::make_havoc() {
  FunctionSummary s;
  s.havoc = true;
  s.reached_ret = true;
  for (AbsValue& v : s.exit_regs) v = AbsValue::top_init();
  s.exit_regs[0] = AbsValue::exact(0);
  s.exit_regs[2] = AbsValue::entry(2, AbsValue::Init::Init);  // ABI-balanced sp
  return s;
}

const EntryRead* FunctionSummary::read_of(std::uint8_t reg) const noexcept {
  for (const EntryRead& er : entry_reads) {
    if (er.reg == reg) return &er;
  }
  return nullptr;
}

void FunctionSummary::join_target(const FunctionSummary& o) {
  if (havoc || o.havoc) {
    *this = make_havoc();
    return;
  }
  // Definite claims survive only when every target makes them.
  std::vector<EntryRead> kept;
  for (const EntryRead& er : entry_reads) {
    if (o.read_of(er.reg) != nullptr) kept.push_back(er);
  }
  entry_reads = std::move(kept);
  // The footprint is a may-set: union, respecting the cap.
  for (const MemAccess& m : o.mem) {
    if (std::find(mem.begin(), mem.end(), m) != mem.end()) continue;
    if (mem.size() >= kMaxSummaryMem) {
      mem_truncated = true;
      break;
    }
    mem.push_back(m);
  }
  mem_truncated = mem_truncated || o.mem_truncated;
  if (!o.reached_ret) return;  // a never-returning target adds no exit state
  if (!reached_ret) {
    reached_ret = true;
    exit_regs = o.exit_regs;
    sp_delta = o.sp_delta;
    must_written = o.must_written;
    rets = o.rets;
    return;
  }
  for (std::size_t r = 0; r < 32; ++r) exit_regs[r].join(o.exit_regs[r]);
  if (sp_delta != o.sp_delta) sp_delta.reset();
  must_written &= o.must_written;
  for (const auto& ret : o.rets) {
    if (std::find(rets.begin(), rets.end(), ret) == rets.end()) rets.push_back(ret);
  }
}

void FunctionSummary::widen_from(const FunctionSummary& o) {
  if (havoc || o.havoc) {
    *this = make_havoc();
    return;
  }
  for (const EntryRead& er : o.entry_reads) {
    if (read_of(er.reg) == nullptr) entry_reads.push_back(er);
  }
  for (const auto& ret : o.rets) {
    if (std::find(rets.begin(), rets.end(), ret) == rets.end()) rets.push_back(ret);
  }
  // Collapse the footprint to one widened interval per (register, size,
  // kind) group: a recursive frame chain would otherwise add one entry per
  // round forever. Evidence (addr/line) sticks with the group's first entry.
  std::map<std::tuple<std::uint8_t, std::uint32_t, bool>, MemAccess> groups;
  auto fold = [&](const MemAccess& m, bool accelerate) {
    auto key = std::make_tuple(m.entry_reg, m.size, m.is_store);
    auto it = groups.find(key);
    if (it == groups.end()) {
      groups.emplace(key, m);
    } else if (accelerate) {
      it->second.offset.widen(m.offset);
    } else {
      it->second.offset.join(m.offset);
    }
  };
  for (const MemAccess& m : mem) fold(m, false);
  for (const MemAccess& m : o.mem) fold(m, true);
  mem.clear();
  for (auto& [key, m] : groups) mem.push_back(m);
  mem_truncated = mem_truncated || o.mem_truncated;
  if (!o.reached_ret) return;
  if (!reached_ret) {
    reached_ret = true;
    exit_regs = o.exit_regs;
    sp_delta = o.sp_delta;
    must_written = o.must_written;
    return;
  }
  for (std::size_t r = 0; r < 32; ++r) exit_regs[r].widen(o.exit_regs[r]);
  if (sp_delta != o.sp_delta) sp_delta.reset();
  must_written &= o.must_written;
}

void apply_summary(const FunctionSummary& summary, RegState& state) {
  if (state.dead) return;
  if (summary.havoc) {
    for (std::size_t r = 1; r < 32; ++r) {
      if (r != 2) state.regs[r] = AbsValue::top_init();
    }
    state.frame.clear();
    return;
  }
  if (!summary.reached_ret) {
    state.dead = true;
    return;
  }
  const std::array<AbsValue, 32> entry_vals = state.regs;
  for (std::size_t r = 1; r < 32; ++r) {
    state.regs[r] = translate(summary.exit_regs[r], entry_vals);
  }
  state.written |= summary.must_written;
  for (const MemAccess& m : summary.mem) {
    if (!m.is_store) continue;
    const AbsValue& base = entry_vals[m.entry_reg];
    AbsValue addr =
        wrap_exact({base.range.plus(m.offset), base.base, AbsValue::Init::Init, base.entry_reg});
    if (auto key = frame_key_of(addr)) state.frame.erase(*key);
  }
  if (summary.mem_truncated) state.frame.clear();  // stores beyond the cap are unknown
}

RegState symbolic_boundary() {
  RegState state;
  for (std::size_t r = 0; r < 32; ++r) {
    state.regs[r] = AbsValue::entry(static_cast<std::uint8_t>(r), AbsValue::Init::Init);
  }
  state.regs[0] = AbsValue::exact(0);
  state.written = 0;
  return state;
}

SummaryTable SummaryTable::compute(const Cfg& cfg, const CallGraph& cg,
                                   std::vector<std::uint32_t> tracked, std::size_t context_k) {
  SummaryTable table;
  table.context_k_ = context_k;
  const std::size_t nfns = cg.functions().size();
  table.contexts_.resize(nfns);
  table.stats_.functions = nfns;
  for (std::size_t f = 0; f < nfns; ++f) table.contexts_[f].push_back(Context{});

  // Top-down clone discovery: the closure of k-limited call strings over
  // resolved call sites. Recursive functions keep the root clone only — the
  // SCC fixpoint joins their callers anyway, and per-cycle clones would
  // multiply the iteration space for no precision.
  if (context_k > 0) {
    std::vector<std::pair<std::size_t, Context>> work;
    work.reserve(nfns);
    for (std::size_t f = 0; f < nfns; ++f) work.push_back({f, Context{}});
    while (!work.empty()) {
      std::pair<std::size_t, Context> item = std::move(work.back());
      work.pop_back();
      for (std::size_t site : cg.functions()[item.first].call_sites) {
        const CallSite& cs = cg.sites()[site];
        if (!cs.resolved) continue;
        Context nctx = context_push(item.second, site, context_k);
        for (std::size_t g : cs.callees) {
          if (cg.scc_is_recursive(cg.functions()[g].scc)) continue;
          std::vector<Context>& known = table.contexts_[g];
          if (std::find(known.begin(), known.end(), nctx) != known.end()) continue;
          if (known.size() >= kMaxClonesPerFunction) {
            ++table.stats_.clone_overflows;
            continue;
          }
          known.push_back(nctx);
          work.push_back({g, nctx});
        }
      }
    }
  }
  for (std::size_t f = 0; f < nfns; ++f) {
    for (const Context& ctx : table.contexts_[f]) table.summaries_[{f, ctx}];  // bottom
  }

  std::size_t* ni = &table.stats_.narrowing_iterations;
  for (std::size_t sidx = 0; sidx < cg.sccs().size(); ++sidx) {
    const std::vector<std::size_t>& scc = cg.sccs()[sidx];
    const bool recursive = cg.scc_is_recursive(sidx);

    // One recompute pass over every clone of the SCC. Clones whose call-site
    // environment matches the root clone's (always true at k <= 1) reuse the
    // root's fresh summary instead of re-running the dataflow.
    auto sweep = [&](bool accelerate) {
      bool changed = false;
      for (std::size_t f : scc) {
        std::map<std::uint32_t, FunctionSummary> root_env;
        const FunctionSummary* root_sum = nullptr;
        for (const Context& ctx : table.contexts_[f]) {
          std::map<std::uint32_t, FunctionSummary> env = table.site_summaries(cg, f, ctx);
          FunctionSummary s;
          if (root_sum != nullptr && env == root_env) {
            s = *root_sum;
          } else {
            s = summarize(cfg, cg, f, std::move(env), tracked, ni);
          }
          FunctionSummary& slot = table.summaries_.at({f, ctx});
          if (accelerate) {
            FunctionSummary w = slot;
            w.widen_from(s);
            s = std::move(w);
          }
          if (!(s == slot)) {
            slot = std::move(s);
            changed = true;
          }
          if (ctx.empty()) {
            root_env = table.site_summaries(cg, f, ctx);
            root_sum = &slot;
          }
        }
      }
      return changed;
    };

    // Ascending phase: plain rounds, then widening acceleration, with the
    // havoc collapse kept only as a hard backstop.
    int rounds = 0;
    bool havocked = false;
    while (true) {
      bool changed = sweep(recursive && rounds >= kSccPlainRounds);
      if (!changed || !recursive) break;
      if (++rounds >= kMaxSccRounds) {
        for (std::size_t f : scc) {
          for (const Context& ctx : table.contexts_[f]) {
            table.summaries_.at({f, ctx}) = FunctionSummary::make_havoc();
          }
        }
        havocked = true;
        break;
      }
    }
    // Descending phase: recompute from the widened post-fixpoint. Each
    // sweep is F(X) with X a sound post-fixpoint, so stopping anywhere is
    // safe; the bound keeps worst-case cost linear in kNarrowSweeps.
    if (recursive && !havocked) {
      for (int n = 0; n < kNarrowSweeps; ++n) {
        bool improved = sweep(false);
        ++table.stats_.narrowing_iterations;
        if (!improved) break;
      }
    }
  }

  for (const auto& [key, s] : table.summaries_) {
    ++table.stats_.clones;
    if (s.havoc) ++table.stats_.havoc_summaries;
  }
  return table;
}

const FunctionSummary& SummaryTable::of(std::size_t fn) const {
  return summaries_.at({fn, Context{}});
}

const FunctionSummary& SummaryTable::of(std::size_t fn, const Context& ctx) const {
  auto it = summaries_.find({fn, ctx});
  return it != summaries_.end() ? it->second : of(fn);
}

const std::vector<Context>& SummaryTable::contexts_of(std::size_t fn) const {
  return contexts_[fn];
}

FunctionSummary SummaryTable::at_site(const CallGraph& cg, std::size_t site,
                                      const Context& caller_ctx) const {
  const CallSite& s = cg.sites()[site];
  if (!s.resolved || s.callees.empty()) return FunctionSummary::make_havoc();
  Context callee_ctx = context_push(caller_ctx, site, context_k_);
  FunctionSummary joined = of(s.callees.front(), callee_ctx);
  for (std::size_t i = 1; i < s.callees.size(); ++i) {
    joined.join_target(of(s.callees[i], callee_ctx));
  }
  return joined;
}

std::map<std::uint32_t, FunctionSummary> SummaryTable::site_summaries(const CallGraph& cg,
                                                                      std::size_t fn,
                                                                      const Context& ctx) const {
  std::map<std::uint32_t, FunctionSummary> map;
  for (std::size_t site : cg.functions()[fn].call_sites) {
    map.emplace(cg.sites()[site].addr, at_site(cg, site, ctx));
  }
  return map;
}

void render_summaries_json(util::JsonWriter& w, const CallGraph& cg, const SummaryTable& table) {
  w.key("context_k").value(table.context_k()).key("functions").begin_array();
  auto emit = [&](std::size_t f, const Context& ctx, const FunctionSummary& s) {
    const Function& fn = cg.functions()[f];
    w.begin_object().key("name").value(fn.name).key("entry").value(fn.entry_addr);
    w.key("context").begin_array();
    for (const std::size_t site : ctx) w.value(cg.sites()[site].line);
    w.end_array().key("havoc").value(s.havoc).key("returns").value(s.reached_ret);
    w.key("sp_delta");
    if (s.sp_delta) {
      w.value(*s.sp_delta);
    } else {
      w.null();
    }
    w.key("reads").begin_array();
    for (const EntryRead& read : s.entry_reads) {
      w.begin_object().key("reg").value(iss::reg_abi_name(read.reg));
      w.key("line").value(read.line).end_object();
    }
    w.end_array().key("mem").begin_array();
    for (const MemAccess& m : s.mem) {
      w.begin_object().key("reg").value(iss::reg_abi_name(m.entry_reg));
      w.key("lo").value(m.offset.lo).key("hi").value(m.offset.hi).key("size").value(m.size);
      w.key("store").value(m.is_store).key("line").value(m.line).end_object();
    }
    w.end_array().key("mem_truncated").value(s.mem_truncated).end_object();
  };
  for (std::size_t f = 0; f < cg.functions().size(); ++f) {
    const FunctionSummary& root = table.of(f);
    emit(f, Context{}, root);
    // Non-root clones appear only when context sensitivity actually changed
    // the summary — the common identical clone would just repeat the root.
    for (const Context& ctx : table.contexts_of(f)) {
      if (ctx.empty()) continue;
      const FunctionSummary& s = table.of(f, ctx);
      if (s == root) continue;
      emit(f, ctx, s);
    }
  }
  w.end_array();
}

}  // namespace nisc::analysis
