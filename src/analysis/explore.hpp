// Explicit-state model checker for the protocol automata (DESIGN.md §11).
//
// Composes a model's two endpoint automata with a bounded-channel
// environment (per channel, one FIFO each way) and exhaustively explores
// every interleaving by breadth-first search over the global state space
// (a_state, b_state, queue contents, channel liveness). The environment can
// optionally lose, duplicate, or corrupt in-flight messages and cut
// channels, mirroring what ipc::FaultyChannel does to real wires.
//
// Reported violations (the static half of the NL4xx family):
//   NL410 Deadlock              no successor, not accepting, queues empty
//   NL411 UnspecifiedReception  no successor with a message stuck in a queue
//   NL412 StuckProgress         no accepting state reachable any more
//   NL413 DuplicateEffect       a guest-visible effect applied twice after a
//                               crash/respawn recovery (dedup failure)
//   NL414 LostAck               endpoint B waits forever for the ack of an
//                               effect that was applied before a crash
// BFS order makes every counterexample trace minimal for its violation.
//
// The crash environment (EnvOptions::crashing) models SIGKILL-at-any-point
// plus supervised respawn for models with a CrashSpec: endpoint B jumps back
// to its last checkpoint (or its restart state), every queue is flushed, and
// the environment re-delivers the interrupts recorded for already-applied
// but not-yet-retired effects — mirroring Supervisor::recover()'s irq-log
// replay. Effect/checkpoint bookkeeping rides along in the global state, so
// exploration proves the seq-dedup/replay automaton loses or duplicates no
// effect under *every* kill interleaving, not just sampled kill points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diag.hpp"
#include "analysis/protocol.hpp"
#include "ipc/fault.hpp"

namespace nisc::analysis {

/// The channel environment the endpoints are composed with.
struct EnvOptions {
  /// Messages in flight per channel per direction before a send blocks.
  std::size_t channel_capacity = 2;
  bool lossy = false;          ///< a sent message may vanish (Drop)
  bool duplicating = false;    ///< a sent message may arrive twice (Duplicate)
  bool corrupting = false;     ///< a sent message may arrive as garbage
                               ///  (CorruptByte/Truncate at the symbol level)
  bool disconnecting = false;  ///< a channel may be cut, flushing its queues
  /// Endpoint B may be killed and respawned at any point (requires the
  /// model to carry a CrashSpec; ignored otherwise). Kept out of faulty():
  /// crash-consistency is a separate proof from wire-fault tolerance.
  bool crashing = false;
  /// Crash/respawn cycles per run under `crashing` (2 covers crash-during-
  /// recovery double faults without blowing up the state space).
  std::size_t max_crashes = 2;

  /// All four adversarial wire behaviors on (the `--faults` environment).
  static EnvOptions faulty();
};

struct ExploreLimits {
  /// Exploration stops (report.complete = false) beyond this many states.
  std::size_t max_states = 200000;
  /// Reported counterexamples per violation kind (deduplicated by final
  /// state and fault attribution; BFS order keeps the shallowest ones).
  std::size_t max_violations_per_kind = 4;
};

enum class ViolationKind : std::uint8_t {
  Deadlock,
  UnspecifiedReception,
  StuckProgress,
  DuplicateEffect,
  LostAck,
};

const char* violation_kind_name(ViolationKind kind) noexcept;
/// The NL41x rule id for a violation kind.
const char* violation_rule(ViolationKind kind) noexcept;

/// One step of a counterexample trace.
struct TraceStep {
  char endpoint = 'A';  ///< 'A', 'B', or 'E' (environment)
  ActionKind kind = ActionKind::Internal;
  int symbol = -1;
  int channel = -1;
  /// What the environment did to a Send ('E' steps use Cut or Crashed).
  enum class Effect : std::uint8_t { Normal, Lost, Duplicated, Corrupted, Cut, Crashed };
  Effect effect = Effect::Normal;
  std::string text;  ///< human-readable rendering
};

struct Counterexample {
  ViolationKind kind = ViolationKind::Deadlock;
  std::vector<TraceStep> trace;  ///< minimal path from the initial state
  std::string state;             ///< rendering of the violating global state
};

struct ExploreReport {
  std::string model;
  EnvOptions env;
  std::size_t states = 0;
  std::size_t edges = 0;
  /// False when ExploreLimits::max_states stopped the search early.
  bool complete = true;
  std::vector<Counterexample> violations;

  bool clean() const noexcept { return complete && violations.empty(); }
};

/// Exhaustive BFS of the composed system. Violations are deduplicated by
/// (kind, endpoint states, queue contents, fault attribution) and capped per
/// kind; the survivors are minimal traces by BFS order.
ExploreReport explore(const ProtocolModel& model, const EnvOptions& env = {},
                      const ExploreLimits& limits = {});

/// Reports each violation as an NL41x diagnostic (error), one per
/// counterexample, with the trace in the message.
void report_violations(const ExploreReport& report, DiagEngine& diags);

/// Multi-line human rendering of the report (summary + traces).
std::string render_text(const ExploreReport& report);

/// Writes the report as one JSON object value, the element of cosim_lint's
/// --json "protocol" array: {"model":...,"states":N,...,"violations":[...]}.
void render_json(util::JsonWriter& w, const ExploreReport& report);

/// A FaultPlan reproducing a counterexample's environment faults as
/// `endpoint`-side send faults ('A' or 'B'): the trace's nth Send by that
/// endpoint maps to drop_send/duplicate_send/corrupt_send(nth). `complete`
/// is false when the trace also contains faults the plan cannot express
/// (the other endpoint's sends, channel cuts).
struct FaultPlanResult {
  ipc::FaultPlan plan;
  bool complete = true;
};

FaultPlanResult fault_plan_for(const Counterexample& ce, char endpoint);

}  // namespace nisc::analysis
