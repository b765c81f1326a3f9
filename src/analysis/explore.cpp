#include "analysis/explore.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <unordered_map>

#include "util/json.hpp"

namespace nisc::analysis {

EnvOptions EnvOptions::faulty() {
  EnvOptions env;
  env.lossy = true;
  env.duplicating = true;
  env.corrupting = true;
  env.disconnecting = true;
  return env;
}

const char* violation_kind_name(ViolationKind kind) noexcept {
  switch (kind) {
    case ViolationKind::Deadlock: return "deadlock";
    case ViolationKind::UnspecifiedReception: return "unspecified-reception";
    case ViolationKind::StuckProgress: return "stuck-progress";
    case ViolationKind::DuplicateEffect: return "duplicate-effect";
    case ViolationKind::LostAck: return "lost-ack";
  }
  return "?";
}

const char* violation_rule(ViolationKind kind) noexcept {
  switch (kind) {
    case ViolationKind::Deadlock: return "NL410";
    case ViolationKind::UnspecifiedReception: return "NL411";
    case ViolationKind::StuckProgress: return "NL412";
    case ViolationKind::DuplicateEffect: return "NL413";
    case ViolationKind::LostAck: return "NL414";
  }
  return "NL410";
}

namespace {

/// One global state of the composition: both endpoint states plus, per
/// channel, a FIFO each way and a liveness flag. The crash-environment
/// bookkeeping (effect masks, last checkpoint, crash budget) rides along so
/// duplicate/lost effects are distinguishable global states, not a property
/// recovered from traces.
struct GlobalState {
  int a = 0;
  int b = 0;
  /// queues[channel][0] carries A->B, queues[channel][1] carries B->A.
  std::vector<std::array<std::vector<int>, 2>> queues;
  std::vector<char> open;
  int crashes = 0;   ///< crash/respawn cycles taken so far
  int b_ckpt = -1;   ///< B state restored on respawn; -1 = CrashSpec::b_restart
  int dup_effect = -1;  ///< unit applied twice by A (NL413), else -1
  std::uint32_t a_mask = 0;       ///< units A has applied (ProtoTransition::apply_effect)
  std::uint32_t b_mask = 0;       ///< units B has retired (ProtoTransition::retire_effect)
  std::uint32_t b_ckpt_mask = 0;  ///< b_mask recorded by the last checkpoint
};

std::string key_of(const GlobalState& s) {
  std::string key = std::to_string(s.a) + "." + std::to_string(s.b);
  for (std::size_t c = 0; c < s.queues.size(); ++c) {
    key += s.open[c] != 0 ? "|" : "!";
    for (int dir = 0; dir < 2; ++dir) {
      for (int sym : s.queues[c][dir]) key += static_cast<char>('a' + sym);
      if (dir == 0) key += "/";
    }
  }
  if (s.crashes != 0 || s.a_mask != 0 || s.b_mask != 0 || s.b_ckpt >= 0 || s.dup_effect >= 0) {
    key += '#';
    for (int v : {s.crashes, static_cast<int>(s.a_mask), static_cast<int>(s.b_mask), s.b_ckpt,
                  static_cast<int>(s.b_ckpt_mask), s.dup_effect}) {
      key += std::to_string(v);
      key += '.';
    }
  }
  return key;
}

/// NL414: after a recovery, B sits in a state awaiting the ack of an effect
/// A has already applied but B never retired — the ack is gone for good when
/// no replay re-ack can reach B. Returns the starved unit, or -1.
int lost_ack_unit(const ProtocolModel& model, const GlobalState& s) {
  if (s.crashes == 0) return -1;
  const int unit = model.endpoint_b.state(s.b).awaiting_effect;
  if (unit < 0 || unit >= 32) return -1;
  const std::uint32_t bit = 1u << unit;
  if ((s.a_mask & bit) == 0 || (s.b_mask & bit) != 0) return -1;
  return unit;
}

/// Connection-reset semantics: a closed endpoint never consumes its inbox,
/// so clear it to keep dead letters from blocking the composition forever.
void apply_closed_clearing(const ProtocolModel& model, GlobalState& s) {
  if (model.endpoint_a.state(s.a).closed) {
    for (auto& q : s.queues) q[1].clear();
  }
  if (model.endpoint_b.state(s.b).closed) {
    for (auto& q : s.queues) q[0].clear();
  }
}

bool accepting(const ProtocolModel& model, const GlobalState& s) {
  if (!model.endpoint_a.state(s.a).accepting) return false;
  if (!model.endpoint_b.state(s.b).accepting) return false;
  for (const auto& q : s.queues) {
    if (!q[0].empty() || !q[1].empty()) return false;
  }
  return true;
}

std::string render_state(const ProtocolModel& model, const GlobalState& s) {
  std::string out = model.endpoint_a.role() + "=" + model.endpoint_a.state(s.a).name + " " +
                    model.endpoint_b.role() + "=" + model.endpoint_b.state(s.b).name;
  for (std::size_t c = 0; c < s.queues.size(); ++c) {
    if (s.open[c] == 0) out += " " + model.channel_name(static_cast<int>(c)) + "=cut";
    for (int dir = 0; dir < 2; ++dir) {
      if (s.queues[c][dir].empty()) continue;
      out += " " + model.channel_name(static_cast<int>(c)) + (dir == 0 ? "[a->b]=" : "[b->a]=");
      for (std::size_t i = 0; i < s.queues[c][dir].size(); ++i) {
        if (i > 0) out += ",";
        out += model.symbol_name(s.queues[c][dir][i]);
      }
    }
  }
  return out;
}

struct Successor {
  GlobalState state;
  TraceStep step;
};

const char* effect_suffix(TraceStep::Effect effect) {
  switch (effect) {
    case TraceStep::Effect::Normal: return "";
    case TraceStep::Effect::Lost: return " [lost]";
    case TraceStep::Effect::Duplicated: return " [duplicated]";
    case TraceStep::Effect::Corrupted: return " [arrives as garbage]";
    case TraceStep::Effect::Cut: return "";
    case TraceStep::Effect::Crashed: return "";
  }
  return "";
}

/// Folds a transition's crash-bookkeeping tags into the successor state.
/// Applying a unit whose mask bit is already set is the NL413 witness.
void apply_crash_tags(const ProtoTransition& t, GlobalState& next) {
  if (t.apply_effect >= 0 && t.apply_effect < 32) {
    const std::uint32_t bit = 1u << t.apply_effect;
    if ((next.a_mask & bit) != 0 && next.dup_effect < 0) next.dup_effect = t.apply_effect;
    next.a_mask |= bit;
  }
  if (t.retire_effect >= 0 && t.retire_effect < 32) {
    next.b_mask |= 1u << t.retire_effect;
  }
  if (t.ckpt_state >= 0) {
    next.b_ckpt = t.ckpt_state;
    next.b_ckpt_mask = t.ckpt_mask;
  }
}

/// Appends every move available to one endpoint ('A' or 'B').
void endpoint_successors(const ProtocolModel& model, const EnvOptions& env, const GlobalState& s,
                         char who, std::vector<Successor>& out) {
  const bool is_a = who == 'A';
  const ProtocolAutomaton& self = is_a ? model.endpoint_a : model.endpoint_b;
  const ProtocolAutomaton& peer = is_a ? model.endpoint_b : model.endpoint_a;
  const int own_state = is_a ? s.a : s.b;
  const int peer_state = is_a ? s.b : s.a;
  const int out_dir = is_a ? 0 : 1;  // queue index this endpoint sends into
  const int in_dir = is_a ? 1 : 0;

  const auto emit = [&](const ProtoTransition& t, TraceStep step, auto&& mutate_queues) {
    Successor succ;
    succ.state = s;
    (is_a ? succ.state.a : succ.state.b) = t.to;
    mutate_queues(succ.state);
    apply_crash_tags(t, succ.state);
    apply_closed_clearing(model, succ.state);
    succ.step = std::move(step);
    succ.step.endpoint = who;
    out.push_back(std::move(succ));
  };

  for (const ProtoTransition& t : self.from(own_state)) {
    if (t.kind == ActionKind::Internal) {
      TraceStep step;
      step.kind = ActionKind::Internal;
      step.text = self.role() + ": " + t.label;
      emit(t, std::move(step), [](GlobalState&) {});
      continue;
    }
    const auto ch = static_cast<std::size_t>(t.channel);
    if (t.kind == ActionKind::Recv) {
      const std::vector<int>& inbox = s.queues[ch][static_cast<std::size_t>(in_dir)];
      if (inbox.empty() || inbox.front() != t.symbol) continue;
      TraceStep step;
      step.kind = ActionKind::Recv;
      step.symbol = t.symbol;
      step.channel = t.channel;
      step.text = self.role() + " receives " + model.symbol_name(t.symbol) + " on " +
                  model.channel_name(t.channel);
      emit(t, std::move(step), [&](GlobalState& next) {
        auto& q = next.queues[ch][static_cast<std::size_t>(in_dir)];
        q.erase(q.begin());
      });
      continue;
    }

    // Send.
    if (s.open[ch] == 0) continue;  // cut channel: the write blocks/fails
    const auto send_step = [&](TraceStep::Effect effect) {
      TraceStep step;
      step.kind = ActionKind::Send;
      step.symbol = t.symbol;
      step.channel = t.channel;
      step.effect = effect;
      step.text = self.role() + " sends " + model.symbol_name(t.symbol) + " on " +
                  model.channel_name(t.channel) + effect_suffix(effect);
      return step;
    };
    if (peer.state(peer_state).closed) {
      // Peer tore its wire down: the bytes go nowhere (connection reset).
      TraceStep step = send_step(TraceStep::Effect::Normal);
      step.text += " (peer closed, discarded)";
      emit(t, std::move(step), [](GlobalState&) {});
      continue;
    }
    const std::vector<int>& outbox = s.queues[ch][static_cast<std::size_t>(out_dir)];
    if (outbox.size() >= env.channel_capacity) continue;  // backpressure
    emit(t, send_step(TraceStep::Effect::Normal), [&](GlobalState& next) {
      next.queues[ch][static_cast<std::size_t>(out_dir)].push_back(t.symbol);
    });
    if (env.lossy) {
      emit(t, send_step(TraceStep::Effect::Lost), [](GlobalState&) {});
    }
    if (env.duplicating && outbox.size() + 2 <= env.channel_capacity) {
      emit(t, send_step(TraceStep::Effect::Duplicated), [&](GlobalState& next) {
        auto& q = next.queues[ch][static_cast<std::size_t>(out_dir)];
        q.push_back(t.symbol);
        q.push_back(t.symbol);
      });
    }
    if (env.corrupting && model.garbage_symbol >= 0) {
      emit(t, send_step(TraceStep::Effect::Corrupted), [&](GlobalState& next) {
        next.queues[ch][static_cast<std::size_t>(out_dir)].push_back(model.garbage_symbol);
      });
    }
  }
}

/// The crash move: the environment kills endpoint B mid-run and the
/// supervisor respawns it. Modeled atomically — B restarts from its last
/// checkpoint (or CrashSpec::b_restart when none), every in-flight queue is
/// flushed (SIGKILL + fresh sockets), A snaps from a handshake state back to
/// serving (Hello/Start/Resume never ride the modeled wire), and the
/// environment re-delivers the interrupt for every unit that was applied by
/// A but is unretired in the restored B — exactly Supervisor::recover()'s
/// irq-log replay. Only offered in A states where the real supervisor polls
/// (handlers run atomically between polls).
void crash_successors(const ProtocolModel& model, const EnvOptions& env, const GlobalState& s,
                      std::vector<Successor>& out) {
  const CrashSpec& crash = model.crash;
  if (!env.crashing || !crash.enabled) return;
  if (s.crashes >= static_cast<int>(env.max_crashes)) return;
  if (model.endpoint_b.state(s.b).closed) return;
  const auto a_in = [&](const std::vector<int>& states) {
    return std::find(states.begin(), states.end(), s.a) != states.end();
  };
  const bool in_handshake = a_in(crash.a_handshake_states);
  if (!in_handshake && !a_in(crash.a_stable_states)) return;

  Successor succ;
  succ.state = s;
  GlobalState& next = succ.state;
  ++next.crashes;
  const bool from_ckpt = s.b_ckpt >= 0;
  next.b = from_ckpt ? s.b_ckpt : crash.b_restart;
  next.b_mask = from_ckpt ? s.b_ckpt_mask : 0;
  if (in_handshake) next.a = crash.a_serve;
  for (auto& q : next.queues) {
    q[0].clear();
    q[1].clear();
  }
  std::string resent;
  for (int u = 0; u < crash.units && u < static_cast<int>(crash.unit_irq_symbols.size()); ++u) {
    const int sym = crash.unit_irq_symbols[static_cast<std::size_t>(u)];
    if (sym < 0 || crash.irq_channel < 0) continue;
    const std::uint32_t bit = 1u << u;
    if ((next.a_mask & bit) == 0 || (next.b_mask & bit) != 0) continue;
    next.queues[static_cast<std::size_t>(crash.irq_channel)][0].push_back(sym);
    if (!resent.empty()) resent += ",";
    resent += model.symbol_name(sym);
  }
  succ.step.endpoint = 'E';
  succ.step.kind = ActionKind::Internal;
  succ.step.effect = TraceStep::Effect::Crashed;
  succ.step.text = "environment kills " + model.endpoint_b.role() + "; respawn from " +
                   model.endpoint_b.state(next.b).name +
                   (resent.empty() ? "" : " (irq re-sent: " + resent + ")");
  out.push_back(std::move(succ));
}

std::vector<Successor> successors(const ProtocolModel& model, const EnvOptions& env,
                                  const GlobalState& s) {
  std::vector<Successor> out;
  endpoint_successors(model, env, s, 'A', out);
  endpoint_successors(model, env, s, 'B', out);
  crash_successors(model, env, s, out);
  if (env.disconnecting) {
    for (std::size_t c = 0; c < s.open.size(); ++c) {
      if (s.open[c] == 0) continue;
      Successor succ;
      succ.state = s;
      succ.state.open[c] = 0;
      succ.state.queues[c][0].clear();
      succ.state.queues[c][1].clear();
      succ.step.endpoint = 'E';
      succ.step.kind = ActionKind::Internal;
      succ.step.channel = static_cast<int>(c);
      succ.step.effect = TraceStep::Effect::Cut;
      succ.step.text = "environment cuts channel " + model.channel_name(static_cast<int>(c));
      out.push_back(std::move(succ));
    }
  }
  return out;
}

/// Dedup key: two counterexamples reaching the same violating state through
/// the same fault attribution are the same bug.
std::string violation_key(ViolationKind kind, const GlobalState& s,
                          const std::vector<TraceStep>& trace) {
  int faults_a = 0;
  int faults_b = 0;
  int cuts = 0;
  int crashes = 0;
  for (const TraceStep& step : trace) {
    if (step.effect == TraceStep::Effect::Normal) continue;
    if (step.effect == TraceStep::Effect::Cut) {
      ++cuts;
    } else if (step.effect == TraceStep::Effect::Crashed) {
      ++crashes;
    } else if (step.endpoint == 'A') {
      ++faults_a;
    } else {
      ++faults_b;
    }
  }
  return std::string(violation_kind_name(kind)) + "#" + key_of(s) + "#" +
         std::to_string(faults_a) + "." + std::to_string(faults_b) + "." + std::to_string(cuts) +
         "." + std::to_string(crashes);
}

}  // namespace

ExploreReport explore(const ProtocolModel& model, const EnvOptions& env,
                      const ExploreLimits& limits) {
  ExploreReport report;
  report.model = model.name;
  report.env = env;

  struct Node {
    GlobalState state;
    int parent = -1;
    TraceStep step;  ///< edge from parent
    bool accept = false;
    bool dead = false;  ///< no successors, not accepting
  };
  std::vector<Node> nodes;
  std::vector<std::vector<int>> children;
  std::unordered_map<std::string, int> visited;
  std::deque<int> frontier;

  GlobalState initial;
  initial.queues.resize(model.channels.size());
  initial.open.assign(model.channels.size(), 1);

  nodes.push_back(Node{initial, -1, {}, accepting(model, initial), false});
  children.emplace_back();
  visited.emplace(key_of(initial), 0);
  frontier.push_back(0);

  const auto trace_to = [&](int id) {
    std::vector<TraceStep> trace;
    for (int cur = id; cur > 0; cur = nodes[static_cast<std::size_t>(cur)].parent) {
      trace.push_back(nodes[static_cast<std::size_t>(cur)].step);
    }
    std::reverse(trace.begin(), trace.end());
    return trace;
  };

  std::vector<std::string> seen_keys;
  std::size_t count_by_kind[5] = {};
  const auto add_violation = [&](ViolationKind kind, int id) {
    if (count_by_kind[static_cast<int>(kind)] >= limits.max_violations_per_kind) return;
    const Node& node = nodes[static_cast<std::size_t>(id)];
    std::vector<TraceStep> trace = trace_to(id);
    std::string key = violation_key(kind, node.state, trace);
    for (const std::string& seen : seen_keys) {
      if (seen == key) return;
    }
    seen_keys.push_back(std::move(key));
    ++count_by_kind[static_cast<int>(kind)];
    report.violations.push_back(
        Counterexample{kind, std::move(trace), render_state(model, node.state)});
  };

  while (!frontier.empty()) {
    const int id = frontier.front();
    frontier.pop_front();
    // Copy out: successor insertion reallocates `nodes`.
    const GlobalState state = nodes[static_cast<std::size_t>(id)].state;
    std::vector<Successor> succs = successors(model, env, state);
    report.edges += succs.size();
    if (succs.empty() && !nodes[static_cast<std::size_t>(id)].accept) {
      nodes[static_cast<std::size_t>(id)].dead = true;
      bool queued = false;
      for (const auto& q : state.queues) {
        if (!q[0].empty() || !q[1].empty()) queued = true;
      }
      // A post-recovery ack starvation is the sharper diagnosis than the
      // generic deadlock/unspecified-reception it manifests as.
      if (lost_ack_unit(model, state) >= 0) {
        add_violation(ViolationKind::LostAck, id);
      } else {
        add_violation(queued ? ViolationKind::UnspecifiedReception : ViolationKind::Deadlock, id);
      }
    }
    for (Successor& succ : succs) {
      std::string key = key_of(succ.state);
      auto [it, inserted] = visited.emplace(std::move(key), static_cast<int>(nodes.size()));
      if (!inserted) {
        children[static_cast<std::size_t>(id)].push_back(it->second);
        continue;
      }
      if (nodes.size() >= limits.max_states) {
        report.complete = false;
        visited.erase(it);
        break;
      }
      const int child = static_cast<int>(nodes.size());
      const bool accept = accepting(model, succ.state);
      const bool fresh_dup =
          succ.state.dup_effect >= 0 && state.dup_effect < 0;  // this edge re-applied the unit
      nodes.push_back(Node{std::move(succ.state), id, std::move(succ.step), accept, false});
      children[static_cast<std::size_t>(id)].push_back(child);
      children.emplace_back();
      frontier.push_back(child);
      if (fresh_dup) add_violation(ViolationKind::DuplicateEffect, child);
    }
    if (!report.complete) break;
  }
  report.states = nodes.size();

  // Stuck-progress: states from which no accepting state is reachable.
  // Needs the full graph, so skip when the search was truncated.
  if (report.complete) {
    std::vector<std::vector<int>> parents_of(nodes.size());
    for (std::size_t from = 0; from < children.size(); ++from) {
      for (int to : children[from]) {
        parents_of[static_cast<std::size_t>(to)].push_back(static_cast<int>(from));
      }
    }
    std::vector<char> can_accept(nodes.size(), 0);
    std::deque<int> work;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].accept) {
        can_accept[i] = 1;
        work.push_back(static_cast<int>(i));
      }
    }
    while (!work.empty()) {
      const int id = work.front();
      work.pop_front();
      for (int parent : parents_of[static_cast<std::size_t>(id)]) {
        if (can_accept[static_cast<std::size_t>(parent)] == 0) {
          can_accept[static_cast<std::size_t>(parent)] = 1;
          work.push_back(parent);
        }
      }
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      // Deadlocks are already reported with their sharper rule.
      if (can_accept[i] == 0 && !nodes[i].dead) {
        add_violation(lost_ack_unit(model, nodes[i].state) >= 0 ? ViolationKind::LostAck
                                                                : ViolationKind::StuckProgress,
                      static_cast<int>(i));
      }
    }
  }
  return report;
}

namespace {

std::string render_trace_line(const Counterexample& ce) {
  std::string out;
  for (std::size_t i = 0; i < ce.trace.size(); ++i) {
    if (i > 0) out += "; ";
    out += ce.trace[i].text;
  }
  return out.empty() ? "<initial state>" : out;
}

}  // namespace

void report_violations(const ExploreReport& report, DiagEngine& diags) {
  const SourceLoc loc{"<model:" + report.model + ">", 0, 0};
  for (const Counterexample& ce : report.violations) {
    diags.report(Severity::Error, violation_rule(ce.kind),
                 std::string(violation_kind_name(ce.kind)) + " at " + ce.state +
                     "; trace: " + render_trace_line(ce),
                 loc);
  }
}

std::string render_text(const ExploreReport& report) {
  std::string out = "model " + report.model + ": " + std::to_string(report.states) + " states, " +
                    std::to_string(report.edges) + " edges" +
                    (report.complete ? "" : " (truncated at the state limit)") + "\n";
  if (report.violations.empty()) {
    out += report.complete
               ? "  clean: no deadlock, unspecified reception, or stuck-progress state\n"
               : "  no violation found before truncation (raise the state limit to conclude)\n";
    return out;
  }
  for (const Counterexample& ce : report.violations) {
    out += std::string("  [") + violation_rule(ce.kind) + "] " + violation_kind_name(ce.kind) +
           " at " + ce.state + "\n";
    for (std::size_t i = 0; i < ce.trace.size(); ++i) {
      out += "    " + std::to_string(i + 1) + ". " + ce.trace[i].text + "\n";
    }
  }
  return out;
}

std::string render_json(const ExploreReport& report) {
  std::string out;
  const auto field = [&out](const char* name, const std::string& value, bool quoted) {
    if (!out.empty() && out.back() != '{' && out.back() != '[') out += ",";
    out += "\"";
    out += name;
    out += quoted ? "\":\"" : "\":";
    out += value;
    if (quoted) out += "\"";
  };
  const auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  out += "{";
  field("model", util::json_escape(report.model), true);
  out += ",\"env\":{";
  field("capacity", std::to_string(report.env.channel_capacity), false);
  field("lossy", flag(report.env.lossy), false);
  field("duplicating", flag(report.env.duplicating), false);
  field("corrupting", flag(report.env.corrupting), false);
  field("disconnecting", flag(report.env.disconnecting), false);
  field("crashing", flag(report.env.crashing), false);
  field("max_crashes", std::to_string(report.env.max_crashes), false);
  out += "}";
  field("states", std::to_string(report.states), false);
  field("edges", std::to_string(report.edges), false);
  field("complete", flag(report.complete), false);
  out += ",\"violations\":[";
  for (std::size_t i = 0; i < report.violations.size(); ++i) {
    const Counterexample& ce = report.violations[i];
    if (i > 0) out += ",";
    out += "{";
    field("kind", violation_kind_name(ce.kind), true);
    field("rule", violation_rule(ce.kind), true);
    field("state", util::json_escape(ce.state), true);
    out += ",\"trace\":[";
    for (std::size_t j = 0; j < ce.trace.size(); ++j) {
      if (j > 0) out += ",";
      out += "\"";
      out += util::json_escape(ce.trace[j].text);
      out += "\"";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

FaultPlanResult fault_plan_for(const Counterexample& ce, char endpoint) {
  FaultPlanResult result;
  std::uint64_t nth = 0;
  for (const TraceStep& step : ce.trace) {
    if (step.effect == TraceStep::Effect::Cut || step.effect == TraceStep::Effect::Crashed) {
      // A FaultPlan speaks wire faults only; crash placement needs the
      // crash-matrix harness (CrashAt / chaos knobs) instead.
      result.complete = false;
      continue;
    }
    if (step.kind != ActionKind::Send) continue;
    if (step.endpoint == endpoint) ++nth;
    if (step.effect == TraceStep::Effect::Normal) continue;
    if (step.endpoint != endpoint) {
      result.complete = false;
      continue;
    }
    switch (step.effect) {
      case TraceStep::Effect::Lost: result.plan.drop_send(nth); break;
      case TraceStep::Effect::Duplicated: result.plan.duplicate_send(nth); break;
      case TraceStep::Effect::Corrupted: result.plan.corrupt_send(nth, 4); break;
      default: result.complete = false; break;
    }
  }
  return result;
}

}  // namespace nisc::analysis
