#include "analysis/cfg.hpp"

#include <algorithm>
#include <set>

#include "util/bytes.hpp"

namespace nisc::analysis {
namespace {

/// Control-transfer class of one decoded instruction.
enum class Term : std::uint8_t {
  None,          // falls through
  Cond,          // conditional branch
  Jump,          // jal rd=x0
  Call,          // jal rd!=x0
  Ret,           // jalr x0, ra, 0
  Indirect,      // jalr x0 through any other register (jr / jump table)
  IndirectCall,  // jalr with a link register
  Halt,          // ebreak or undecodable word: execution stops
};

Term classify(const iss::Instr& instr) {
  using iss::Op;
  switch (instr.op) {
    case Op::Beq:
    case Op::Bne:
    case Op::Blt:
    case Op::Bge:
    case Op::Bltu:
    case Op::Bgeu: return Term::Cond;
    case Op::Jal: return instr.rd == 0 ? Term::Jump : Term::Call;
    case Op::Jalr:
      if (instr.rd != 0) return Term::IndirectCall;
      if (instr.rs1 == 1 && instr.imm == 0) return Term::Ret;
      return Term::Indirect;
    case Op::Ebreak:
    case Op::Illegal: return Term::Halt;
    default: return Term::None;
  }
}

}  // namespace

Cfg Cfg::build(const iss::Program& program) {
  Cfg cfg;
  if (program.code.empty()) return cfg;

  // Decode the code table. The assembler emits it in ascending address
  // order, one entry per instruction word.
  std::vector<CfgInstr> instrs;
  instrs.reserve(program.code.size());
  std::set<std::uint32_t> code_addrs;
  for (const iss::CodeLoc& loc : program.code) {
    std::uint64_t off = loc.addr - program.base;
    if (off + 4 > program.bytes.size()) continue;
    instrs.push_back({loc.addr, iss::decode(util::load_le32(&program.bytes[off])), loc.line});
    code_addrs.insert(loc.addr);
  }
  if (instrs.empty()) return cfg;
  auto is_code = [&](std::uint32_t addr) { return code_addrs.count(addr) > 0; };

  // Conservative indirect-jump target set: address-taken code labels, or
  // every code symbol when nothing was address-taken.
  bool has_indirect = false;
  std::set<std::uint32_t> call_target_set;
  std::set<std::uint32_t> return_sites;
  for (const CfgInstr& ci : instrs) {
    Term term = classify(ci.instr);
    if (term == Term::Indirect || term == Term::IndirectCall) has_indirect = true;
    if (term == Term::Call || term == Term::IndirectCall) {
      if (is_code(ci.addr + 4)) return_sites.insert(ci.addr + 4);
    }
    if (term == Term::Call) {
      std::uint32_t target = ci.addr + static_cast<std::uint32_t>(ci.instr.imm);
      if (is_code(target)) call_target_set.insert(target);
    }
  }
  std::set<std::uint32_t> indirect_targets;
  if (has_indirect) {
    for (std::uint32_t addr : program.address_taken) {
      if (is_code(addr)) indirect_targets.insert(addr);
    }
    if (indirect_targets.empty()) {
      for (const auto& [name, addr] : program.symbols) {
        if (is_code(addr)) indirect_targets.insert(addr);
      }
    }
  }

  // Leaders: the entry, every labeled / address-taken code address, every
  // control-transfer target, the instruction after every transfer, and any
  // address discontinuity (.org gaps).
  std::set<std::uint32_t> leaders;
  leaders.insert(instrs.front().addr);
  if (is_code(program.entry)) leaders.insert(program.entry);
  for (const auto& [name, addr] : program.symbols) {
    if (is_code(addr)) leaders.insert(addr);
  }
  for (std::uint32_t addr : program.address_taken) {
    if (is_code(addr)) leaders.insert(addr);
  }
  for (std::uint32_t addr : return_sites) leaders.insert(addr);
  for (std::uint32_t addr : indirect_targets) leaders.insert(addr);
  for (const CfgInstr& ci : instrs) {
    Term term = classify(ci.instr);
    if (term == Term::Cond || term == Term::Jump || term == Term::Call) {
      std::uint32_t target = ci.addr + static_cast<std::uint32_t>(ci.instr.imm);
      if (is_code(target)) leaders.insert(target);
    }
    if (term != Term::None && is_code(ci.addr + 4)) leaders.insert(ci.addr + 4);
  }

  // Carve instructions into blocks.
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    bool discontinuous = i > 0 && instrs[i].addr != instrs[i - 1].addr + 4;
    if (i == 0 || discontinuous || leaders.count(instrs[i].addr) > 0) {
      cfg.blocks_.push_back(BasicBlock{instrs[i].addr, {}, {}, {}});
    }
    cfg.blocks_.back().instrs.push_back(instrs[i]);
    cfg.block_of_instr_[instrs[i].addr] = cfg.blocks_.size() - 1;
  }

  // Edges from each block's last instruction. Return edges are deferred:
  // they need the intra-procedural reachability of each call target, which
  // needs the other edges in place first.
  auto add_edge = [&](std::size_t from, std::uint32_t to_addr, EdgeKind kind) {
    auto it = cfg.block_of_instr_.find(to_addr);
    if (it == cfg.block_of_instr_.end()) return;  // transfer into data: no edge
    cfg.blocks_[from].succs.push_back({it->second, kind});
    cfg.blocks_[it->second].preds.push_back({from, kind});
  };
  struct PendingCall {
    std::size_t block;                  // block whose call produced the return site
    std::uint32_t return_site;          // call addr + 4
    std::vector<std::uint32_t> targets; // possible callee entries
  };
  std::vector<PendingCall> pending_calls;
  for (std::size_t b = 0; b < cfg.blocks_.size(); ++b) {
    const CfgInstr& last = cfg.blocks_[b].instrs.back();
    std::uint32_t target = last.addr + static_cast<std::uint32_t>(last.instr.imm);
    switch (classify(last.instr)) {
      case Term::None:
        add_edge(b, last.addr + 4, EdgeKind::FallThrough);
        break;
      case Term::Cond:
        add_edge(b, target, EdgeKind::Branch);
        add_edge(b, last.addr + 4, EdgeKind::FallThrough);
        break;
      case Term::Jump:
        add_edge(b, target, EdgeKind::Jump);
        break;
      case Term::Call:
        add_edge(b, target, EdgeKind::Call);
        add_edge(b, last.addr + 4, EdgeKind::CallFall);
        pending_calls.push_back({b, last.addr + 4, {target}});
        break;
      case Term::Ret:
        break;  // paired with its calls below
      case Term::Indirect:
        for (std::uint32_t t : indirect_targets) add_edge(b, t, EdgeKind::Indirect);
        break;
      case Term::IndirectCall:
        for (std::uint32_t t : indirect_targets) {
          add_edge(b, t, EdgeKind::Call);
          call_target_set.insert(t);
        }
        add_edge(b, last.addr + 4, EdgeKind::CallFall);
        pending_calls.push_back({b, last.addr + 4,
                                 {indirect_targets.begin(), indirect_targets.end()}});
        break;
      case Term::Halt: break;
    }
  }

  // Call-site-paired Return edges: a call's return site only receives
  // Return edges from the ret blocks of its own callee body — the blocks
  // reachable from the callee entry over intra-procedural edges. The body
  // walk per target is memoized, so the cost is one BFS per distinct callee.
  std::map<std::uint32_t, std::vector<std::size_t>> ret_blocks_of_target;
  auto ret_blocks_of = [&](std::uint32_t target) -> const std::vector<std::size_t>& {
    auto it = ret_blocks_of_target.find(target);
    if (it != ret_blocks_of_target.end()) return it->second;
    std::vector<std::size_t>& rets = ret_blocks_of_target[target];
    auto entry_it = cfg.block_of_instr_.find(target);
    if (entry_it == cfg.block_of_instr_.end()) return rets;  // call into data
    std::vector<bool> seen(cfg.blocks_.size(), false);
    std::vector<std::size_t> work{entry_it->second};
    seen[entry_it->second] = true;
    while (!work.empty()) {
      std::size_t b = work.back();
      work.pop_back();
      if (classify(cfg.blocks_[b].instrs.back().instr) == Term::Ret) rets.push_back(b);
      for (const CfgEdge& e : cfg.blocks_[b].succs) {
        if (!(edge_bit(e.kind) & kIntraprocEdges)) continue;
        if (!seen[e.block]) {
          seen[e.block] = true;
          work.push_back(e.block);
        }
      }
    }
    return rets;
  };
  for (const PendingCall& call : pending_calls) {
    std::set<std::size_t> sources;  // dedupe: two targets can share a ret block
    for (std::uint32_t target : call.targets) {
      for (std::size_t ret_block : ret_blocks_of(target)) sources.insert(ret_block);
    }
    for (std::size_t ret_block : sources) {
      add_edge(ret_block, call.return_site, EdgeKind::Return);
    }
  }

  cfg.entry_ = cfg.block_at(program.entry);
  cfg.call_targets_.assign(call_target_set.begin(), call_target_set.end());
  return cfg;
}

std::size_t Cfg::block_at(std::uint32_t addr) const noexcept {
  auto it = block_of_instr_.find(addr);
  return it == block_of_instr_.end() ? npos : it->second;
}

const CfgInstr* Cfg::instr_at(std::uint32_t addr) const noexcept {
  std::size_t b = block_at(addr);
  if (b == npos) return nullptr;
  for (const CfgInstr& ci : blocks_[b].instrs) {
    if (ci.addr == addr) return &ci;
  }
  return nullptr;
}

}  // namespace nisc::analysis
