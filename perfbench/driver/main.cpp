// perfbench — the deployment benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--counts <file>]
//
// Runs one workload, prints progress and failures on stderr, and as the last
// line of stdout one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad usage.
// --counts writes the per-instance deterministic counts as JSON (used by the
// self-test to compare two runs).
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "common/json.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--counts <file>]\nworkloads:");
  for (const auto& [name, fn] : perfbench::workloads()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_args(int argc, char** argv, perfbench::RunConfig* cfg) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* val = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      cfg->workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg->seed = std::strtoull(val, &end, 10);
    } else if (flag == "--seconds") {
      cfg->seconds = std::strtod(val, &end);
      if (!(cfg->seconds > 0.0) || !std::isfinite(cfg->seconds)) return false;
    } else if (flag == "--trace") {
      cfg->trace = std::strtol(val, &end, 10) != 0;
    } else if (flag == "--counts") {
      cfg->counts_path = val;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) return false;
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  if (!parse_args(argc, argv, &cfg)) return usage();
  const perfbench::Workload* run = nullptr;
  for (const auto& [name, fn] : perfbench::workloads()) {
    if (name == cfg.workload) run = &fn;
  }
  if (run == nullptr) return usage();

  perfbench::Result result;
  (*run)(cfg, result);

  nd::json::Object metrics;
  for (const perfbench::Metric& m : result.metrics) {
    metrics.emplace_back(m.name, nd::json::Object{{"value", m.value}, {"unit", m.unit}});
  }
  if (!cfg.counts_path.empty()) {
    nd::json::Object per_instance;
    for (const auto& [key, counts] : result.counts) {
      nd::json::Object o;
      for (const auto& [name, v] : counts) o.emplace_back(name, static_cast<std::int64_t>(v));
      per_instance.emplace_back(key, std::move(o));
    }
    std::FILE* f = std::fopen(cfg.counts_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", cfg.counts_path.c_str());
      return 1;
    }
    const std::string text = nd::json::Value(std::move(per_instance)).dump(1) + "\n";
    std::fputs(text.c_str(), f);
    std::fclose(f);
  }
  const bool correct = result.checks.failed() == 0;
  const nd::json::Value line = nd::json::Object{
      {"correct", correct},
      {"attempted", static_cast<std::int64_t>(std::max(1LL, result.checks.attempted()))},
      {"failed", static_cast<std::int64_t>(result.checks.failed())},
      {"metrics", std::move(metrics)},
  };
  std::printf("%s\n", line.dump().c_str());
  return correct ? 0 : 1;
}
