// Shared --trace-out=FILE / --stats-out=FILE handling for the example
// binaries: --trace-out enables the span tracer and dumps a Chrome
// trace_event JSON (load it in Perfetto or chrome://tracing); --stats-out
// dumps the metrics-registry snapshot. Both are off by default, so the
// undecorated examples stay sink-free.
#pragma once

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nisc::examples {

struct ObsCli {
  std::string trace_out;
  std::string stats_out;

  /// Parses the observability flags (unknown arguments are ignored) and
  /// enables tracing when --trace-out is requested.
  static ObsCli parse(int argc, char** argv) {
    ObsCli cli;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--trace-out=", 12) == 0) {
        cli.trace_out = arg + 12;
      } else if (std::strncmp(arg, "--stats-out=", 12) == 0) {
        cli.stats_out = arg + 12;
      } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
        std::printf("usage: %s [--trace-out=FILE] [--stats-out=FILE]\n"
                    "  --trace-out=FILE  Chrome trace_event JSON (Perfetto-loadable)\n"
                    "  --stats-out=FILE  metrics registry snapshot (JSON)\n",
                    argv[0]);
      }
    }
    if (!cli.trace_out.empty()) obs::enable_tracing();
    return cli;
  }

  /// Writes the requested sinks; call once after the simulation finished.
  void finish() const {
    if (!trace_out.empty()) {
      if (obs::write_chrome_trace(trace_out)) {
        std::printf("trace written to %s (%llu events, %llu dropped)\n", trace_out.c_str(),
                    static_cast<unsigned long long>(obs::trace_event_count()),
                    static_cast<unsigned long long>(obs::trace_dropped_count()));
      } else {
        std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
      }
    }
    if (!stats_out.empty()) {
      std::ofstream out(stats_out);
      if (out && obs::MetricsRegistry::exists()) {
        out << obs::MetricsRegistry::instance().render_json() << '\n';
        std::printf("stats written to %s\n", stats_out.c_str());
      } else if (!out) {
        std::fprintf(stderr, "cannot write stats to %s\n", stats_out.c_str());
      } else {
        out << obs::render_snapshot_json({}) << '\n';
      }
    }
  }
};

}  // namespace nisc::examples
