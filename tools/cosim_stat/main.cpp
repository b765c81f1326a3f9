// cosim_stat: renders the observability JSON artifacts as tables and gates
// CI on bench regressions.
//
//   cosim_stat STATS.json                 metrics-registry snapshot -> table
//   cosim_stat BENCH_x.json               bench results -> table
//   cosim_stat diff A.json B.json         delta table between two stats or
//                                         two bench documents (eyeballing
//                                         regressions before the gate)
//   cosim_stat --check-bench CUR.json --baseline BASE.json
//              [--max-regress-pct N]      exit 1 when any shared result's
//                                         median regressed more than N%
//                                         (default 15); repeat either flag
//                                         to pool the runs of several files
//                                         per side (interleaved rounds)
//
// Both file shapes are the schema-1 documents produced by --stats-out and
// the bench_json harness; the file kind is sniffed from its fields.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/json.hpp"

using nisc::util::JsonValue;

namespace {

int fail_usage() {
  std::fprintf(stderr,
               "usage: cosim_stat FILE.json\n"
               "       cosim_stat diff A.json B.json\n"
               "       cosim_stat --check-bench CURRENT.json... --baseline BASELINE.json..."
               " [--max-regress-pct N]\n");
  return 2;
}

void print_stats_table(const JsonValue& doc) {
  std::printf("%-36s %16s\n", "counter", "value");
  for (const auto& [name, value] : doc.at("counters").as_object()) {
    std::printf("%-36s %16llu\n", name.c_str(),
                static_cast<unsigned long long>(value.as_uint()));
  }
  for (const auto& [name, value] : doc.at("gauges").as_object()) {
    std::printf("%-36s %16.6g  (gauge)\n", name.c_str(), value.as_double());
  }
  const auto& histograms = doc.at("histograms").as_object();
  if (!histograms.empty()) {
    std::printf("\n%-36s %10s %12s %10s %10s\n", "histogram", "count", "sum", "p50", "p90");
    for (const auto& [name, h] : histograms) {
      std::printf("%-36s %10llu %12llu %10.4g %10.4g\n", name.c_str(),
                  static_cast<unsigned long long>(h.at("count").as_uint()),
                  static_cast<unsigned long long>(h.at("sum").as_uint()),
                  h.at("p50").as_double(), h.at("p90").as_double());
    }
  }
}

void print_bench_table(const JsonValue& doc) {
  std::printf("bench %s%s\n\n", doc.at("bench").as_string().c_str(),
              doc.at("quick").as_bool() ? " (quick)" : "");
  std::printf("%-44s %6s %14s %14s %8s\n", "result", "runs", "median", "p90", "unit");
  for (const JsonValue& r : doc.at("results").as_array()) {
    std::printf("%-44s %6zu %14.6g %14.6g %8s\n", r.at("name").as_string().c_str(),
                r.at("runs").as_array().size(), r.at("median").as_double(),
                r.at("p90").as_double(), r.at("unit").as_string().c_str());
  }
  const JsonValue* metrics = doc.find("metrics");
  if (metrics != nullptr && metrics->is_object()) {
    std::printf("\nembedded metrics snapshot:\n");
    print_stats_table(*metrics);
  }
}

const JsonValue* find_result(const JsonValue& doc, const std::string& name) {
  for (const JsonValue& r : doc.at("results").as_array()) {
    if (r.at("name").as_string() == name) return &r;
  }
  return nullptr;
}

std::vector<JsonValue> parse_files(const std::vector<std::string>& paths) {
  std::vector<JsonValue> docs;
  for (const std::string& path : paths) docs.push_back(nisc::util::parse_json_file(path));
  return docs;
}

/// Median (the upper one for an even count) of every run of `name` pooled
/// across `docs`; NaN when no file has it.
double pooled_median(const std::vector<JsonValue>& docs, const std::string& name) {
  std::vector<double> runs;
  for (const JsonValue& doc : docs) {
    if (const JsonValue* r = find_result(doc, name)) {
      for (const JsonValue& run : r->at("runs").as_array()) runs.push_back(run.as_double());
    }
  }
  if (runs.empty()) return std::nan("");
  std::nth_element(runs.begin(), runs.begin() + static_cast<std::ptrdiff_t>(runs.size() / 2),
                   runs.end());
  return runs[runs.size() / 2];
}

int check_bench(const std::vector<std::string>& current_paths,
                const std::vector<std::string>& baseline_paths, double max_regress_pct) {
  const std::vector<JsonValue> current = parse_files(current_paths);
  const std::vector<JsonValue> baseline = parse_files(baseline_paths);
  std::printf("%-44s %14s %14s %9s\n", "result", "baseline", "current", "delta");
  int regressions = 0;
  int compared = 0;
  for (const JsonValue& base : baseline.front().at("results").as_array()) {
    const std::string& name = base.at("name").as_string();
    const double cur_median = pooled_median(current, name);
    if (std::isnan(cur_median)) {
      std::printf("%-44s %14s %14s %9s\n", name.c_str(), "-", "missing", "-");
      continue;
    }
    const double base_median = pooled_median(baseline, name);
    if (!(base_median > 0.0)) continue;
    ++compared;
    const double delta_pct = (cur_median - base_median) / base_median * 100.0;
    // Seconds-like units: larger is slower. Non-time units (%, loc, ...)
    // are informational only.
    const bool time_like = base.at("unit").as_string() == "s";
    const bool regressed = time_like && delta_pct > max_regress_pct;
    if (regressed) ++regressions;
    std::printf("%-44s %14.6g %14.6g %+8.1f%%%s\n", name.c_str(), base_median, cur_median,
                delta_pct, regressed ? "  REGRESSED" : "");
  }
  if (compared == 0) {
    std::fprintf(stderr, "cosim_stat: no comparable results between %s and %s\n",
                 current_paths.front().c_str(), baseline_paths.front().c_str());
    return 2;
  }
  if (regressions > 0) {
    std::fprintf(stderr, "cosim_stat: %d result(s) regressed more than %.1f%%\n", regressions,
                 max_regress_pct);
    return 1;
  }
  std::printf("\nall %d comparable result(s) within %.1f%% of baseline\n", compared,
              max_regress_pct);
  return 0;
}

// -- diff -------------------------------------------------------------------

/// "A -> B (+delta)" row over the union of names in two scalar maps.
void diff_scalar_section(const JsonValue& a, const JsonValue& b, const char* section,
                         const char* suffix) {
  const JsonValue* section_a = a.find(section);
  const JsonValue* section_b = b.find(section);
  std::set<std::string> names;
  if (section_a != nullptr) {
    for (const auto& [name, value] : section_a->as_object()) names.insert(name);
  }
  if (section_b != nullptr) {
    for (const auto& [name, value] : section_b->as_object()) names.insert(name);
  }
  for (const std::string& name : names) {
    const JsonValue* va = section_a != nullptr ? section_a->find(name) : nullptr;
    const JsonValue* vb = section_b != nullptr ? section_b->find(name) : nullptr;
    if (va == nullptr) {
      std::printf("%-36s %16s %16.6g %12s%s\n", name.c_str(), "-", vb->as_double(), "added",
                  suffix);
    } else if (vb == nullptr) {
      std::printf("%-36s %16.6g %16s %12s%s\n", name.c_str(), va->as_double(), "-", "removed",
                  suffix);
    } else {
      const double da = va->as_double();
      const double db = vb->as_double();
      std::printf("%-36s %16.6g %16.6g %+12.6g%s\n", name.c_str(), da, db, db - da, suffix);
    }
  }
}

int diff_stats(const JsonValue& a, const JsonValue& b) {
  std::printf("%-36s %16s %16s %12s\n", "metric", "A", "B", "delta");
  diff_scalar_section(a, b, "counters", "");
  diff_scalar_section(a, b, "gauges", "  (gauge)");
  const JsonValue* hist_a = a.find("histograms");
  const JsonValue* hist_b = b.find("histograms");
  std::set<std::string> names;
  if (hist_a != nullptr) {
    for (const auto& [name, value] : hist_a->as_object()) names.insert(name);
  }
  if (hist_b != nullptr) {
    for (const auto& [name, value] : hist_b->as_object()) names.insert(name);
  }
  if (!names.empty()) {
    std::printf("\n%-36s %16s %16s %12s\n", "histogram", "count A", "count B", "p50 delta");
    for (const std::string& name : names) {
      const JsonValue* ha = hist_a != nullptr ? hist_a->find(name) : nullptr;
      const JsonValue* hb = hist_b != nullptr ? hist_b->find(name) : nullptr;
      if (ha == nullptr || hb == nullptr) {
        std::printf("%-36s %16s %16s %12s\n", name.c_str(),
                    ha != nullptr ? "present" : "-", hb != nullptr ? "present" : "-",
                    ha == nullptr ? "added" : "removed");
        continue;
      }
      std::printf("%-36s %16llu %16llu %+12.6g\n", name.c_str(),
                  static_cast<unsigned long long>(ha->at("count").as_uint()),
                  static_cast<unsigned long long>(hb->at("count").as_uint()),
                  hb->at("p50").as_double() - ha->at("p50").as_double());
    }
  }
  return 0;
}

int diff_bench(const JsonValue& a, const JsonValue& b) {
  std::printf("bench %s vs %s\n\n", a.at("bench").as_string().c_str(),
              b.at("bench").as_string().c_str());
  std::printf("%-44s %14s %14s %9s %8s\n", "result", "A median", "B median", "delta", "unit");
  std::map<std::string, const JsonValue*> results_b;
  for (const JsonValue& r : b.at("results").as_array()) {
    results_b[r.at("name").as_string()] = &r;
  }
  for (const JsonValue& ra : a.at("results").as_array()) {
    const std::string& name = ra.at("name").as_string();
    const auto it = results_b.find(name);
    if (it == results_b.end()) {
      std::printf("%-44s %14.6g %14s %9s\n", name.c_str(), ra.at("median").as_double(), "-",
                  "removed");
      continue;
    }
    const double ma = ra.at("median").as_double();
    const double mb = it->second->at("median").as_double();
    if (ma > 0.0) {
      std::printf("%-44s %14.6g %14.6g %+8.1f%% %8s\n", name.c_str(), ma, mb,
                  (mb - ma) / ma * 100.0, ra.at("unit").as_string().c_str());
    } else {
      std::printf("%-44s %14.6g %14.6g %9s %8s\n", name.c_str(), ma, mb, "-",
                  ra.at("unit").as_string().c_str());
    }
    results_b.erase(it);
  }
  for (const auto& [name, r] : results_b) {
    std::printf("%-44s %14s %14.6g %9s\n", name.c_str(), "-", r->at("median").as_double(),
                "added");
  }
  return 0;
}

int diff_files(const std::string& path_a, const std::string& path_b) {
  const JsonValue a = nisc::util::parse_json_file(path_a);
  const JsonValue b = nisc::util::parse_json_file(path_b);
  const bool bench_a = a.find("results") != nullptr;
  const bool bench_b = b.find("results") != nullptr;
  if (bench_a != bench_b) {
    std::fprintf(stderr, "cosim_stat: %s and %s are different document kinds\n", path_a.c_str(),
                 path_b.c_str());
    return 2;
  }
  return bench_a ? diff_bench(a, b) : diff_stats(a, b);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "diff") == 0) {
    try {
      return diff_files(argv[2], argv[3]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cosim_stat: %s\n", e.what());
      return 2;
    }
  }
  if (argc > 1 && std::strcmp(argv[1], "diff") == 0) return fail_usage();
  std::vector<std::string> files;
  std::vector<std::string> check_current;
  std::vector<std::string> baseline;
  double max_regress_pct = 15.0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--check-bench") == 0 && i + 1 < argc) {
      check_current.push_back(argv[++i]);
    } else if (std::strcmp(arg, "--baseline") == 0 && i + 1 < argc) {
      baseline.push_back(argv[++i]);
    } else if (std::strcmp(arg, "--max-regress-pct") == 0 && i + 1 < argc) {
      max_regress_pct = std::atof(argv[++i]);
    } else if (arg[0] == '-') {
      return fail_usage();
    } else {
      files.push_back(arg);
    }
  }

  try {
    if (!check_current.empty()) {
      if (baseline.empty()) return fail_usage();
      return check_bench(check_current, baseline, max_regress_pct);
    }
    if (files.empty()) return fail_usage();
    for (const std::string& file : files) {
      const JsonValue doc = nisc::util::parse_json_file(file);
      if (files.size() > 1) std::printf("== %s ==\n", file.c_str());
      if (doc.find("results") != nullptr) {
        print_bench_table(doc);
      } else if (doc.find("counters") != nullptr) {
        print_stats_table(doc);
      } else {
        std::fprintf(stderr, "cosim_stat: %s: neither a bench nor a stats document\n",
                     file.c_str());
        return 2;
      }
      if (files.size() > 1) std::printf("\n");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cosim_stat: %s\n", e.what());
    return 2;
  }
  return 0;
}
