#include "bench_json.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace nisc::bench {

bool quick_mode() {
  const char* env = std::getenv("NISC_BENCH_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

int repetitions() {
  if (const char* env = std::getenv("NISC_BENCH_REPS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  return 3;
}

Recorder::Recorder(std::string bench_name) : bench_(std::move(bench_name)) {}

Recorder::Series& Recorder::series(const std::string& name, const char* unit) {
  for (Series& s : series_) {
    if (s.name == name) return s;
  }
  series_.push_back(Series{name, unit, {}});
  return series_.back();
}

void Recorder::record(const std::string& result, double value, const char* unit) {
  series(result, unit).values.push_back(value);
}

std::string Recorder::path() const {
  std::string dir = ".";
  if (const char* env = std::getenv("NISC_BENCH_OUT")) {
    if (env[0] != '\0') dir = env;
  }
  return dir + "/BENCH_" + bench_ + ".json";
}

namespace {

/// Nearest-rank quantile of an already-sorted sample.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

std::string Recorder::render_json() const {
  util::JsonWriter w;
  w.begin_object().key("schema").value(1).key("bench").value(bench_);
  w.key("quick").value(quick_mode()).key("results").begin_array();
  for (const Series& s : series_) {
    std::vector<double> sorted = s.values;
    std::sort(sorted.begin(), sorted.end());
    w.begin_object().key("name").value(s.name).key("unit").value(s.unit).key("runs").begin_array();
    for (const double v : s.values) w.value(v);
    w.end_array().key("median").value(quantile_sorted(sorted, 0.5));
    w.key("p90").value(quantile_sorted(sorted, 0.9)).end_object();
  }
  w.end_array().key("metrics");
  // Embed the registry snapshot only if the run touched it: writing the
  // report must not be the first registry touch.
  if (obs::MetricsRegistry::exists()) {
    w.raw(obs::MetricsRegistry::instance().render_json());
  } else {
    w.null();
  }
  return w.end_object().str();
}

bool Recorder::write() const {
  const std::string file = path();
  std::ofstream out(file);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", file.c_str());
    return false;
  }
  out << render_json() << '\n';
  std::printf("wrote %s\n", file.c_str());
  return true;
}

}  // namespace nisc::bench
