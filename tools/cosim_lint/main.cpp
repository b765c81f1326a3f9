// cosim_lint: standalone static analyzer for guest assembly programs, their
// pragma port bindings, and Driver-Kernel wire frames — the paper's §3.2
// filter tool grown into a checker (see src/analysis/lint.hpp for the rule
// catalog, DESIGN.md §8 for the subsystem overview).
//
// Usage:
//   cosim_lint [options] [file.s ...]
//     --json [FILE]        emit a JSON report instead of text; with FILE,
//                          write it there (text still goes to stdout)
//     --suppress RULE      drop diagnostics of RULE (repeatable)
//     --ports p1,p2,...    declared iss port list; pragmas must stay inside it
//     --base ADDR          guest load address (default 0)
//     --mem-size N         guest memory map size for NL303/NL305 (default 1 MiB)
//     --no-flow            skip the flow-sensitive NL3xx rules
//     --no-interproc       skip the interprocedural pass (call-graph function
//                          summaries + NL311-NL317); also drops the summary
//                          dump from --json output
//     --context-k N        call-string depth for context-sensitive summaries
//                          and the clone pass (default 1; 0 joins every
//                          caller, the context-insensitive view)
//     --stats              report precision counters (functions, clones,
//                          havoc'd summaries, narrowing iterations); with
//                          --json they land in a "stats" member
//     --max-warnings N     tolerate up to N warnings before exiting 1 (default 0)
//     --frames FILE        validate FILE as concatenated driver-kernel frames
//     --protocol           model-check the wire protocol automata (DESIGN.md
//                          §11): exhaustive exploration, NL41x counterexamples
//     --model NAME         restrict --protocol/--conform to one model
//                          (driver-kernel | gdb-kernel | gdb-wrapper |
//                           worker | driver-irq)
//     --faults             compose with the adversarial channel environment
//                          (lossy + duplicating + corrupting + disconnecting;
//                          the worker model rides a reliable socketpair, so
//                          its adversary is the crash environment instead)
//     --env LIST           pick adversarial behaviors individually, e.g.
//                          --env lossy,corrupting or --env crash (implies
//                          --protocol faults); "crash" is kill-at-any-state
//                          + respawn + Resume replay from the last Ckpt
//     --no-recovery        drop the resilience transitions from the automata
//     --no-push            driver-kernel: kernel does not push outputs
//     --no-interrupts      driver-kernel: kernel raises no interrupts
//     --no-sideband        worker: drop the seq-0 ClockSync/PullObs ops
//     --no-reply-log       worker: supervisor re-applies replayed effects
//                          instead of re-acking from the reply log (the
//                          NL413 duplicate-effect negative control)
//     --eager-prune        worker: reply log pruned before the ack is known
//                          to have landed (the NL414 lost-ack control)
//     --channel-cap N      in-flight messages per channel direction (default 2)
//     --conform FILE       replay a wire-capture post-mortem through the
//                          protocol conformance monitor (NL40x rules)
//     --emit-test DIR      with --protocol: compile every model-checker
//                          counterexample into a gtest source under DIR
//                          (one emitted_<model>_test.cpp per model)
//     --builtin            lint the built-in router guest programs
//     --rtos-prelude       prepend the RTOS guest-ABI prelude (SYS_* equates)
//                          to each linted source, as the Driver-Kernel
//                          session does before assembling
//     -                    read a guest program from stdin
//
// Exit status: 0 clean (no errors, warnings within --max-warnings),
// 1 findings, 2 usage or IO error.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/emit_test.hpp"
#include "analysis/explore.hpp"
#include "analysis/frame.hpp"
#include "analysis/lint.hpp"
#include "analysis/protocol.hpp"
#include "router/guest_programs.hpp"
#include "rtos/rtos.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

using namespace nisc;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json[=FILE]] [--suppress RULE]... [--ports p1,p2] [--base ADDR]\n"
               "       %*s [--mem-size N] [--no-flow] [--no-interproc] [--context-k N]\n"
               "       %*s [--stats] [--max-warnings N]\n"
               "       %*s [--rtos-prelude] [--frames FILE] [--protocol] [--model NAME]\n"
               "       %*s [--faults] [--env LIST] [--no-recovery] [--no-push]\n"
               "       %*s [--no-interrupts] [--no-sideband] [--no-reply-log] [--eager-prune]\n"
               "       %*s [--channel-cap N] [--conform FILE] [--emit-test DIR] [--builtin]\n"
               "       %*s [file.s ... | -]\n",
               argv0, static_cast<int>(std::string(argv0).size()), "",
               static_cast<int>(std::string(argv0).size()), "",
               static_cast<int>(std::string(argv0).size()), "",
               static_cast<int>(std::string(argv0).size()), "",
               static_cast<int>(std::string(argv0).size()), "",
               static_cast<int>(std::string(argv0).size()), "",
               static_cast<int>(std::string(argv0).size()), "");
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  analysis::DiagEngine diags;
  analysis::LintOptions options;
  bool json = false;
  std::string json_path;
  bool builtin = false;
  bool rtos_prelude = false;
  bool stats_flag = false;
  long max_warnings = 0;
  std::vector<std::string> sources;
  std::vector<std::string> frame_files;
  std::vector<std::string> conform_files;
  bool protocol = false;
  bool faults = false;
  std::optional<analysis::EnvOptions> custom_env;
  std::string model_filter;
  analysis::ModelOptions model_options;
  std::size_t channel_cap = 2;
  std::string emit_test_dir;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      if (json_path.empty()) {
        std::fprintf(stderr, "--json=FILE needs a path\n");
        return 2;
      }
    } else if (arg == "--no-flow") {
      options.flow = false;
    } else if (arg == "--no-interproc") {
      options.interproc = false;
    } else if (arg == "--context-k" || arg.rfind("--context-k=", 0) == 0) {
      const char* text = arg == "--context-k" ? next() : arg.c_str() + 12;
      if (text == nullptr) return usage(argv[0]);
      auto value = util::parse_int(text);
      if (!value || *value < 0 || *value > 8) {
        std::fprintf(stderr, "--context-k: bad depth '%s' (expected 0..8)\n", text);
        return 2;
      }
      options.context_k = static_cast<std::size_t>(*value);
    } else if (arg == "--stats") {
      stats_flag = true;
    } else if (arg == "--mem-size") {
      const char* text = next();
      if (text == nullptr) return usage(argv[0]);
      auto value = util::parse_int(text);
      if (!value || *value <= 0) {
        std::fprintf(stderr, "--mem-size: bad size '%s'\n", text);
        return 2;
      }
      options.mem_size = static_cast<std::uint64_t>(*value);
    } else if (arg == "--max-warnings") {
      const char* text = next();
      if (text == nullptr) return usage(argv[0]);
      auto value = util::parse_int(text);
      if (!value || *value < 0) {
        std::fprintf(stderr, "--max-warnings: bad count '%s'\n", text);
        return 2;
      }
      max_warnings = static_cast<long>(*value);
    } else if (arg == "--builtin") {
      builtin = true;
    } else if (arg == "--rtos-prelude") {
      rtos_prelude = true;
    } else if (arg == "--suppress") {
      const char* rule = next();
      if (rule == nullptr) return usage(argv[0]);
      diags.suppress_rule(rule);
    } else if (arg == "--ports") {
      const char* list = next();
      if (list == nullptr) return usage(argv[0]);
      for (std::string_view port : util::split(list, ',')) {
        port = util::trim(port);
        if (!port.empty()) options.known_ports.emplace_back(port);
      }
    } else if (arg == "--base") {
      const char* text = next();
      if (text == nullptr) return usage(argv[0]);
      auto value = util::parse_int(text);
      if (!value || *value < 0) {
        std::fprintf(stderr, "--base: bad address '%s'\n", text);
        return 2;
      }
      options.base = static_cast<std::uint32_t>(*value);
    } else if (arg == "--frames") {
      const char* path = next();
      if (path == nullptr) return usage(argv[0]);
      frame_files.emplace_back(path);
    } else if (arg == "--protocol") {
      protocol = true;
    } else if (arg == "--faults") {
      faults = true;
    } else if (arg == "--env" || arg.rfind("--env=", 0) == 0) {
      const char* list = arg == "--env" ? next() : arg.c_str() + 6;
      if (list == nullptr) return usage(argv[0]);
      custom_env = analysis::EnvOptions{};
      for (std::string_view flag : util::split(list, ',')) {
        flag = util::trim(flag);
        if (flag == "lossy") {
          custom_env->lossy = true;
        } else if (flag == "duplicating") {
          custom_env->duplicating = true;
        } else if (flag == "corrupting") {
          custom_env->corrupting = true;
        } else if (flag == "disconnecting") {
          custom_env->disconnecting = true;
        } else if (flag == "crash") {
          custom_env->crashing = true;
        } else if (!flag.empty()) {
          std::fprintf(stderr, "--env: unknown behavior '%.*s'\n",
                       static_cast<int>(flag.size()), flag.data());
          return 2;
        }
      }
    } else if (arg == "--no-recovery") {
      model_options.recovery = false;
    } else if (arg == "--no-push") {
      model_options.push_outputs = false;
    } else if (arg == "--no-interrupts") {
      model_options.interrupts = false;
    } else if (arg == "--no-sideband") {
      model_options.sideband = false;
    } else if (arg == "--no-reply-log") {
      model_options.worker_reply_log = false;
    } else if (arg == "--eager-prune") {
      model_options.worker_eager_prune = true;
    } else if (arg == "--model" || arg.rfind("--model=", 0) == 0) {
      const char* name = arg == "--model" ? next() : arg.c_str() + 8;
      if (name == nullptr) return usage(argv[0]);
      if (!analysis::model_from_name(name)) {
        std::fprintf(stderr, "--model: unknown model '%s'\n", name);
        return 2;
      }
      model_filter = name;
    } else if (arg == "--channel-cap") {
      const char* text = next();
      if (text == nullptr) return usage(argv[0]);
      auto value = util::parse_int(text);
      if (!value || *value < 1) {
        std::fprintf(stderr, "--channel-cap: bad capacity '%s'\n", text);
        return 2;
      }
      channel_cap = static_cast<std::size_t>(*value);
    } else if (arg == "--conform") {
      const char* path = next();
      if (path == nullptr) return usage(argv[0]);
      conform_files.emplace_back(path);
    } else if (arg == "--emit-test" || arg.rfind("--emit-test=", 0) == 0) {
      const char* dir = arg == "--emit-test" ? next() : arg.c_str() + 12;
      if (dir == nullptr || *dir == '\0') {
        std::fprintf(stderr, "--emit-test needs a directory\n");
        return 2;
      }
      emit_test_dir = dir;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "-" || arg[0] != '-') {
      sources.push_back(arg);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (sources.empty() && frame_files.empty() && conform_files.empty() && !builtin && !protocol) {
    return usage(argv[0]);
  }
  if (!emit_test_dir.empty() && !protocol) {
    std::fprintf(stderr, "--emit-test needs --protocol (it compiles counterexamples)\n");
    return 2;
  }

  // Per-file "summaries" JSON members from the interprocedural pass, plus
  // the aggregated precision counters for --stats.
  std::vector<std::string> summaries;  // one rendered object per linted file
  analysis::LintStats stats_total;
  auto collect_summaries = [&](const analysis::LintResult& result) {
    stats_total.functions += result.stats.functions;
    stats_total.clones += result.stats.clones;
    stats_total.havoc_summaries += result.stats.havoc_summaries;
    stats_total.narrowing_iterations += result.stats.narrowing_iterations;
    stats_total.clone_overflows += result.stats.clone_overflows;
    if (!result.summaries_json.empty()) summaries.push_back(result.summaries_json);
  };

  for (const std::string& path : sources) {
    std::string text;
    if (path == "-") {
      std::ostringstream buf;
      buf << std::cin.rdbuf();
      text = buf.str();
    } else if (!read_file(path, text)) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    if (rtos_prelude) text = rtos::guest_abi_prelude() + text;
    const std::string file = path == "-" ? "<stdin>" : path;
    collect_summaries(analysis::lint_guest_source(text, file, diags, options));
  }

  if (builtin) {
    collect_summaries(analysis::lint_guest_source(
        router::word_stream_checksum_source("router.to_cpu", "router.from_cpu"),
        "<builtin:checksum_gdb>", diags, options));
    collect_summaries(
        analysis::lint_guest_source(rtos::guest_abi_prelude() + router::bulk_checksum_source(),
                                    "<builtin:checksum_driver>", diags, options));
  }

  for (const std::string& path : frame_files) {
    std::string bytes;
    if (!read_file(path, bytes)) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    analysis::check_frames(
        std::span(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()), diags,
        path);
  }

  // Conformance replay of wire-capture post-mortems. The model defaults to
  // driver-kernel (the scheme whose captures the examples ship); RSP
  // captures need an explicit --model.
  for (const std::string& path : conform_files) {
    std::string bytes;
    if (!read_file(path, bytes)) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    const analysis::ModelId id =
        model_filter.empty() ? analysis::ModelId::DriverKernel
                             : *analysis::model_from_name(model_filter);
    const analysis::ProtocolModel model = analysis::make_model(id, model_options);
    analysis::check_capture(
        std::span(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()), model,
        diags, path);
  }

  // Model-check the protocol automata; violations become NL41x errors.
  std::vector<analysis::ExploreReport> reports;
  if (protocol) {
    analysis::EnvOptions env =
        custom_env ? *custom_env
                   : (faults ? analysis::EnvOptions::faulty() : analysis::EnvOptions{});
    env.channel_capacity = channel_cap;
    std::vector<analysis::ModelId> ids;
    if (model_filter.empty()) {
      ids = {analysis::ModelId::DriverKernel, analysis::ModelId::GdbKernel,
             analysis::ModelId::GdbWrapper, analysis::ModelId::Worker,
             analysis::ModelId::DriverIrq};
    } else {
      ids = {*analysis::model_from_name(model_filter)};
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      analysis::EnvOptions model_env = env;
      if (ids[i] == analysis::ModelId::Worker && faults && !custom_env) {
        // The worker wire rides a reliable SOCK_STREAM socketpair, so its
        // adversary is not byte-level wire faults but SIGKILL: --faults
        // composes this model with the crash environment instead.
        model_env = analysis::EnvOptions{};
        model_env.channel_capacity = channel_cap;
        model_env.crashing = true;
      }
      const analysis::ProtocolModel model = analysis::make_model(ids[i], model_options);
      const analysis::ExploreReport& report =
          reports.emplace_back(analysis::explore(model, model_env));
      analysis::report_violations(report, diags);
      if (!json) std::fputs(analysis::render_text(report).c_str(), stdout);
      if (!emit_test_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(emit_test_dir, ec);
        const std::filesystem::path out_path =
            std::filesystem::path(emit_test_dir) / analysis::emitted_test_filename(ids[i]);
        std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
        out << analysis::emit_regression_tests(report, ids[i], model_options, model_env);
        if (!out) {
          std::fprintf(stderr, "cannot write %s\n", out_path.string().c_str());
          return 2;
        }
        if (!json) {
          std::fprintf(stdout, "emitted %s (%zu counterexamples)\n",
                       out_path.string().c_str(), report.violations.size());
        }
      }
    }
  }

  // The --json report: the diagnostics, then the optional members — the
  // protocol exploration, the per-file interprocedural summary dumps, and
  // the --stats precision counters (schema stays 1).
  util::JsonWriter w;
  w.begin_object();
  analysis::render_json(w, diags);
  if (protocol) {
    w.key("protocol").begin_array();
    for (const analysis::ExploreReport& report : reports) analysis::render_json(w, report);
    w.end_array();
  }
  if (!summaries.empty()) {
    w.key("summaries").begin_array();
    for (const std::string& summary : summaries) w.raw(summary);
    w.end_array();
  }
  if (stats_flag) {
    w.key("stats").begin_object().key("context_k").value(options.context_k);
    w.key("functions").value(stats_total.functions).key("clones").value(stats_total.clones);
    w.key("havoc_summaries").value(stats_total.havoc_summaries);
    w.key("narrowing_iterations").value(stats_total.narrowing_iterations);
    w.key("clone_overflows").value(stats_total.clone_overflows).end_object();
  }
  const std::string& report_json = w.end_object().str();

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    out << report_json << '\n';
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
  }
  if (json) {
    std::fputs(report_json.c_str(), stdout);
    std::fputc('\n', stdout);
  } else {
    std::fputs(analysis::render_text(diags).c_str(), stdout);
    if (stats_flag) {
      std::printf(
          "stats: %zu functions, %zu clones (k=%zu), %zu havoc'd summaries, "
          "%zu narrowing iterations, %zu clone overflows\n",
          stats_total.functions, stats_total.clones, options.context_k,
          stats_total.havoc_summaries, stats_total.narrowing_iterations,
          stats_total.clone_overflows);
    }
  }
  // Notes never gate the exit status; warnings do once they exceed the
  // --max-warnings budget.
  bool findings = diags.errors() > 0 ||
                  diags.warnings() > static_cast<std::size_t>(max_warnings);
  return findings ? 1 : 0;
}
