// Shared types of the deployment benchmark driver.
//
// A workload turns (seed, seconds, trace) into a Result: every metric by name
// and unit, the operations attempted and failed, and per-instance
// deterministic counts for the self-test. Workloads call the library only
// through its public headers; the library itself carries no benchmark code.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string counts_path;  ///< write per-instance deterministic counts here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Correctness gate: every checked operation counts as attempted, every
/// failed one as failed, with its reason on stderr.
class Checks {
 public:
  void pass() { ++attempted_; }
  bool expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
    return ok;
  }
  [[nodiscard]] long long attempted() const { return attempted_; }
  [[nodiscard]] long long failed() const { return failed_; }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
};

struct Result {
  Checks checks;
  std::vector<Metric> metrics;
  /// Per instance (keyed "seed=<n>"): deterministic counts such as nodes,
  /// pivots, presolve fixings, accepted annealing moves, fault successes.
  std::map<std::string, std::map<std::string, long long>> counts;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

using Workload = std::function<void(const RunConfig&, Result&)>;

/// Name -> workload, in the order BENCHMARK.json lists them.
const std::vector<std::pair<std::string, Workload>>& workloads();

}  // namespace perfbench
