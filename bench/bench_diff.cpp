#include "bench_diff.hpp"

#include <algorithm>
#include <cmath>
#include <locale>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/table.hpp"

namespace nd::bench {

namespace {

/// Severity rank for report ordering (regressions first, notes last).
int rank(DiffClass c) {
  switch (c) {
    case DiffClass::kIncomparable: return 0;
    case DiffClass::kRegression: return 1;
    case DiffClass::kImprovement: return 2;
    case DiffClass::kWithinNoise: return 3;
    case DiffClass::kNote: return 4;
  }
  return 5;
}

/// Counter names whose totals are machine- or wall-clock-dependent and must
/// not be compared exactly: anything carrying nanoseconds, memory high-water
/// counters, and the parallel scheduler's work-stealing tallies.
bool nondeterministic_counter(const std::string& name) {
  return name.find("_ns") != std::string::npos || name.rfind("mem.", 0) == 0 ||
         name.rfind("bnb.par.", 0) == 0;
}

/// Histogram whose unit is nanoseconds (timing distribution — noise-banded)
/// as opposed to a count distribution (deterministic).
bool time_histogram(const std::string& name) {
  return name.find(".ns") != std::string::npos || name.find("_ns") != std::string::npos;
}

const json::Value* walk(const json::Value& doc, const std::vector<std::string>& path) {
  const json::Value* v = &doc;
  for (const std::string& key : path) {
    if (!v->is_object()) return nullptr;
    v = v->find(key);
    if (v == nullptr) return nullptr;
  }
  return v;
}

double num_or(const json::Value* v, double fallback) {
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

struct Differ {
  const DiffOptions& opt;
  DiffResult out;

  void add(DiffClass cls, std::string code, std::string metric, std::string detail) {
    switch (cls) {
      case DiffClass::kRegression: ++out.regressions; break;
      case DiffClass::kImprovement: ++out.improvements; break;
      case DiffClass::kWithinNoise: ++out.within_noise; break;
      case DiffClass::kIncomparable: out.comparable = false; break;
      case DiffClass::kNote: ++out.notes; break;
    }
    out.findings.push_back(
        {cls, std::move(code), std::move(metric), std::move(detail)});
  }

  static std::string fmt_pair(double a, double b, double band) {
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << a << " -> " << b << " (band " << band << ")";
    return os.str();
  }

  /// Noise-banded comparison for a timing metric (lower is better). The band
  /// scales with the OLD document's own spread so noisy machines gate wider.
  void compare_time(const std::string& metric, double old_v, double new_v,
                    double noise_std) {
    const double band = std::max({opt.sigma * noise_std,
                                  opt.rel_floor * std::abs(old_v), opt.abs_floor_s});
    if (new_v > old_v + band) {
      add(DiffClass::kRegression, "bench-diff-time-regression", metric,
          fmt_pair(old_v, new_v, band));
    } else if (new_v < old_v - band) {
      add(DiffClass::kImprovement, "bench-diff-time-improvement", metric,
          fmt_pair(old_v, new_v, band));
    } else {
      add(DiffClass::kWithinNoise, "bench-diff-within-noise", metric,
          fmt_pair(old_v, new_v, band));
    }
  }

  /// Dimensionless ratio where HIGHER is better (speedups): relative band
  /// only — a ratio has no per-seed stddev of its own.
  void compare_ratio(const std::string& metric, double old_v, double new_v) {
    const double band = opt.rel_floor * std::max(std::abs(old_v), 1.0);
    if (new_v < old_v - band) {
      add(DiffClass::kRegression, "bench-diff-time-regression", metric,
          fmt_pair(old_v, new_v, band));
    } else if (new_v > old_v + band) {
      add(DiffClass::kImprovement, "bench-diff-time-improvement", metric,
          fmt_pair(old_v, new_v, band));
    } else {
      add(DiffClass::kWithinNoise, "bench-diff-within-noise", metric,
          fmt_pair(old_v, new_v, band));
    }
  }

  /// Deterministic counters: identical or it's a behavioural change.
  void compare_exact(const std::string& metric, double old_v, double new_v) {
    if (old_v == new_v) {  // fp-exact: integer totals round-tripped via JSON
      ++out.within_noise;  // tallied, but no per-counter finding row
      return;
    }
    add(DiffClass::kRegression, "bench-diff-counter-drift", metric,
        fmt_pair(old_v, new_v, 0.0));
  }

  void missing(const std::string& metric) {
    add(DiffClass::kNote, "bench-diff-missing-metric", metric,
        "present in old document, absent in new");
  }
};

/// Sum one per-seed counter field ("counters", "parallel_counters",
/// "presolve_off_counters") across the document's seeds.
std::map<std::string, double> seed_counter_totals(const json::Value& doc,
                                                  const std::string& field) {
  std::map<std::string, double> totals;
  const json::Value* per_seed = doc.find("per_seed");
  if (per_seed == nullptr || !per_seed->is_array()) return totals;
  for (const json::Value& seed : per_seed->as_array()) {
    if (!seed.is_object()) continue;
    const json::Value* counters = seed.find(field);
    if (counters == nullptr || !counters->is_object()) continue;
    for (const auto& [name, v] : counters->as_object()) {
      if (v.is_number()) totals[name] += v.as_number();
    }
  }
  return totals;
}

}  // namespace

const char* to_string(DiffClass c) {
  switch (c) {
    case DiffClass::kImprovement: return "improvement";
    case DiffClass::kWithinNoise: return "within-noise";
    case DiffClass::kRegression: return "REGRESSION";
    case DiffClass::kIncomparable: return "incomparable";
    case DiffClass::kNote: return "note";
  }
  return "unknown";
}

int DiffResult::exit_code() const {
  if (!comparable) return 3;
  return regressions > 0 ? 1 : 0;
}

std::string DiffResult::to_table() const {
  Table t({"class", "code", "metric", "detail"});
  for (const DiffFinding& f : findings) {
    t.add_row({to_string(f.cls), f.code, f.metric, f.detail});
  }
  std::string out = t.to_ascii();
  out += "\nbench diff: " + fmt_i(regressions) + " regression(s), " +
         fmt_i(improvements) + " improvement(s), " + fmt_i(within_noise) +
         " within noise, " + fmt_i(notes) + " note(s)" +
         (comparable ? "" : " — DOCUMENTS NOT COMPARABLE") + "\n";
  return out;
}

json::Value DiffResult::to_json() const {
  json::Array rows;
  for (const DiffFinding& f : findings) {
    rows.push_back(json::Object{{"class", to_string(f.cls)},
                                {"code", f.code},
                                {"metric", f.metric},
                                {"detail", f.detail}});
  }
  return json::Object{
      {"schema", "nocdeploy-bench-diff/1"},
      {"comparable", comparable},
      {"regressions", regressions},
      {"improvements", improvements},
      {"within_noise", within_noise},
      {"notes", notes},
      {"exit_code", exit_code()},
      {"findings", std::move(rows)},
  };
}

DiffResult diff_sweeps(const json::Value& old_doc, const json::Value& new_doc,
                       const DiffOptions& opt) {
  if (!old_doc.is_object() || !new_doc.is_object()) {
    throw std::invalid_argument("bench diff: both inputs must be JSON objects");
  }
  Differ d{opt, {}};

  // -- Comparability gates: schema string, then solve configuration ---------
  const json::Value* old_schema = old_doc.find("schema");
  const json::Value* new_schema = new_doc.find("schema");
  const std::string old_s =
      (old_schema != nullptr && old_schema->is_string()) ? old_schema->as_string() : "";
  const std::string new_s =
      (new_schema != nullptr && new_schema->is_string()) ? new_schema->as_string() : "";
  if (old_s != new_s || old_s.rfind("nocdeploy-sweep/", 0) != 0) {
    d.add(DiffClass::kIncomparable, "bench-diff-schema-mismatch", "schema",
          "'" + old_s + "' vs '" + new_s + "'");
    return d.out;
  }

  // Identical workload or the numbers mean different things entirely.
  for (const char* key : {"seeds", "first_seed", "threads", "time_limit_s",
                          "num_tasks", "rows", "cols", "levels"}) {
    const json::Value* ov = walk(old_doc, {"config", key});
    const json::Value* nv = walk(new_doc, {"config", key});
    const double o = num_or(ov, -1.0);
    const double n = num_or(nv, -2.0);
    if (o != n) {  // fp-exact: config integers must round-trip identically
      d.add(DiffClass::kIncomparable, "bench-diff-config-mismatch",
            std::string("config.") + key, Differ::fmt_pair(o, n, 0.0));
    }
  }
  if (!d.out.comparable) return d.out;

  const double num_seeds = num_or(walk(old_doc, {"config", "seeds"}), 1.0);
  const double sqrt_k = std::sqrt(std::max(1.0, num_seeds));

  // -- Timing metrics (noise-banded, lower is better) -----------------------
  for (const char* phase : {"serial", "parallel", "presolve_off"}) {
    const std::string p(phase);
    const double old_std =
        num_or(walk(old_doc, {p, "seconds_per_seed", "stddev"}), 0.0);
    const json::Value* ov = walk(old_doc, {p, "seconds_per_seed", "mean"});
    const json::Value* nv = walk(new_doc, {p, "seconds_per_seed", "mean"});
    if (ov != nullptr && nv == nullptr) {
      d.missing(p + ".seconds_per_seed.mean");
    } else if (ov != nullptr && nv != nullptr) {
      d.compare_time(p + ".seconds_per_seed.mean", ov->as_number(), nv->as_number(),
                     old_std);
    }
    const json::Value* ow = walk(old_doc, {p, "wall_clock_s"});
    const json::Value* nw = walk(new_doc, {p, "wall_clock_s"});
    if (ow != nullptr && nw == nullptr) {
      d.missing(p + ".wall_clock_s");
    } else if (ow != nullptr && nw != nullptr) {
      // A K-seed phase wall clock spreads ~ stddev x sqrt(K); widen the
      // absolute floor the same way.
      const double band_std = old_std * sqrt_k;
      d.compare_time(p + ".wall_clock_s", ow->as_number(), nw->as_number(), band_std);
    }
  }
  for (const char* ratio : {"speedup", "presolve_speedup"}) {
    const json::Value* ov = old_doc.find(ratio);
    const json::Value* nv = new_doc.find(ratio);
    if (ov != nullptr && ov->is_number() && nv != nullptr && nv->is_number()) {
      d.compare_ratio(ratio, ov->as_number(), nv->as_number());
    } else if (ov != nullptr && nv == nullptr) {
      d.missing(ratio);
    }
  }

  // -- Deterministic aggregates (exact) -------------------------------------
  for (const auto& [metric, path] :
       std::vector<std::pair<std::string, std::vector<std::string>>>{
           {"mismatches", {"mismatches"}},
           {"presolve_mismatches", {"presolve_mismatches"}},
           {"rows_removed_total", {"rows_removed_total"}},
           {"cols_removed_total", {"cols_removed_total"}},
           {"serial.nodes", {"serial", "nodes"}},
           {"parallel.nodes", {"parallel", "nodes"}},
       }) {
    const json::Value* ov = walk(old_doc, path);
    const json::Value* nv = walk(new_doc, path);
    if (ov != nullptr && ov->is_number() && nv != nullptr && nv->is_number()) {
      d.compare_exact(metric, ov->as_number(), nv->as_number());
    } else if (ov != nullptr && nv == nullptr) {
      d.missing(metric);
    }
  }

  // -- Per-seed counter totals (exact, nondeterministic names excluded) -----
  for (const char* field : {"counters", "parallel_counters", "presolve_off_counters"}) {
    const std::map<std::string, double> old_totals = seed_counter_totals(old_doc, field);
    const std::map<std::string, double> new_totals = seed_counter_totals(new_doc, field);
    if (old_totals.empty()) continue;  // obs-off baseline: nothing to compare
    if (new_totals.empty()) {
      d.missing(std::string(field));
      continue;
    }
    for (const auto& [name, old_total] : old_totals) {
      if (nondeterministic_counter(name)) continue;
      const auto it = new_totals.find(name);
      if (it == new_totals.end()) {
        d.missing(std::string(field) + "." + name);
        continue;
      }
      d.compare_exact(std::string(field) + "." + name, old_total, it->second);
    }
  }

  // -- Histogram percentile shifts ------------------------------------------
  const json::Value* old_hists = old_doc.find("histograms");
  const json::Value* new_hists = new_doc.find("histograms");
  if (old_hists != nullptr && old_hists->is_object()) {
    for (const auto& [name, oh] : old_hists->as_object()) {
      if (!oh.is_object()) continue;
      const json::Value* nh = (new_hists != nullptr && new_hists->is_object())
                                  ? new_hists->find(name)
                                  : nullptr;
      if (nh == nullptr || !nh->is_object()) {
        d.missing("histograms." + name);
        continue;
      }
      if (!time_histogram(name)) {
        // Count-valued distribution (iterations, events): deterministic.
        d.compare_exact("histograms." + name + ".count",
                        num_or(oh.find("count"), 0.0), num_or(nh->find("count"), 0.0));
      }
      for (const char* pct : {"p50", "p99"}) {
        const double o = num_or(oh.find(pct), 0.0);
        const double n = num_or(nh->find(pct), 0.0);
        const std::string metric = "histograms." + name + "." + pct;
        const double band = opt.hist_rel * std::max(std::abs(o), 1.0);
        if (n > o + band) {
          d.add(DiffClass::kRegression, "bench-diff-hist-regression", metric,
                Differ::fmt_pair(o, n, band));
        } else if (n < o - band) {
          d.add(DiffClass::kImprovement, "bench-diff-time-improvement", metric,
                Differ::fmt_pair(o, n, band));
        } else {
          ++d.out.within_noise;  // tallied, no per-percentile row
        }
      }
    }
  }

  std::stable_sort(d.out.findings.begin(), d.out.findings.end(),
                   [](const DiffFinding& a, const DiffFinding& b) {
                     return rank(a.cls) < rank(b.cls);
                   });
  return d.out;
}

}  // namespace nd::bench
