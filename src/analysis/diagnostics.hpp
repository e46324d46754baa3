// Structured diagnostics emitted by the pre-solve linters (src/analysis).
//
// Each finding is a Diagnostic{severity, code, subject, message}: `code` is a
// stable kebab-case identifier (see codes:: below) that tests and tooling key
// on, `subject` names the offending constraint/variable/task/level. A Report
// collects diagnostics and renders them as an aligned ASCII table or JSON.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"

namespace nd::analysis {

enum class Severity { kInfo, kWarning, kError };

const char* to_string(Severity s);

struct Diagnostic {
  Severity severity = Severity::kWarning;
  std::string code;     ///< stable identifier, e.g. "bound-contradiction"
  std::string subject;  ///< constraint / variable / task / level name
  std::string message;  ///< human-readable detail
};

/// Stable diagnostic codes. Grouped by the linter that emits them.
namespace codes {

// lint_model (milp::Model / lp::Problem level)
inline constexpr const char* kNonFiniteCoef = "nonfinite-coef";            // error
inline constexpr const char* kHugeCoef = "huge-coef";                      // warning
inline constexpr const char* kTinyCoef = "tiny-coef";                      // warning
inline constexpr const char* kBoundContradiction = "bound-contradiction";  // error
inline constexpr const char* kFreeVariable = "free-variable";              // error
inline constexpr const char* kEmptyRow = "empty-row";                      // warning/error
inline constexpr const char* kDuplicateRow = "duplicate-row";              // warning
inline constexpr const char* kOrphanVariable = "orphan-variable";          // warning
inline constexpr const char* kRowBadIndex = "row-bad-index";               // error
inline constexpr const char* kRowInfeasible = "row-infeasible";            // error
inline constexpr const char* kPropagationInfeasible = "propagation-infeasible";  // error

// lint_task_graph (task-graph level)
inline constexpr const char* kTaskSelfDep = "task-self-dep";               // error
inline constexpr const char* kTaskDanglingEdge = "task-dangling-edge";     // error
inline constexpr const char* kTaskDuplicateEdge = "task-duplicate-edge";   // warning
inline constexpr const char* kTaskCycle = "task-cycle";                    // error
inline constexpr const char* kTaskZeroWcec = "task-zero-wcec";             // warning
inline constexpr const char* kTaskBadDeadline = "task-bad-deadline";       // error
inline constexpr const char* kTaskBadBytes = "task-bad-bytes";             // error

// lint_vf_levels (V/F-table level)
inline constexpr const char* kVfEmpty = "vf-empty";                          // error
inline constexpr const char* kVfNonPositive = "vf-nonpositive";              // error
inline constexpr const char* kVfNonMonotoneFreq = "vf-non-monotone-freq";    // error
inline constexpr const char* kVfNonMonotonePower = "vf-non-monotone-power";  // warning
inline constexpr const char* kVfUnreachableLevel = "vf-unreachable-level";   // warning

// lint_problem (deployment-problem level)
inline constexpr const char* kProblemBadHorizon = "problem-bad-horizon";          // error
inline constexpr const char* kProblemBadRth = "problem-bad-rth";                  // error
inline constexpr const char* kProblemDeadlineUnmeetable = "deadline-unmeetable";  // error
inline constexpr const char* kProblemRthUnreachable = "rth-unreachable";          // error

// lint_problem (NoC routing-path level)
inline constexpr const char* kNocPathEndpoint = "noc-path-endpoint";              // error
inline constexpr const char* kNocPathOutsideMesh = "noc-path-outside-mesh";       // error
inline constexpr const char* kNocPathDiscontiguous = "noc-path-discontiguous";    // error
inline constexpr const char* kNocPathsIdentical = "noc-paths-identical";          // warning

// certify_bnb (branch-and-bound audit replayer)
inline constexpr const char* kBnbStructure = "bnb-structure";                     // error
inline constexpr const char* kBnbBoundRegression = "bnb-bound-regression";        // error
inline constexpr const char* kBnbCoverGap = "bnb-cover-gap";                      // error
inline constexpr const char* kBnbPruneIllegal = "bnb-prune-illegal";              // error
inline constexpr const char* kBnbIncumbentMismatch = "bnb-incumbent-mismatch";    // error
inline constexpr const char* kBnbIncumbentRegression = "bnb-incumbent-regression";// error
inline constexpr const char* kBnbLimitNotOptimal = "bnb-limit-not-optimal";       // error
inline constexpr const char* kBnbTimeline = "bnb-timeline";                       // info
inline constexpr const char* kBnbPresolve = "bnb-presolve";                       // error/info

// certify_presolve (proof-carrying presolve log re-prover, analysis/presolve)
inline constexpr const char* kPresolveShape = "presolve-shape";               // error
inline constexpr const char* kPresolveBadBound = "presolve-bad-bound";        // error
inline constexpr const char* kPresolveBadFix = "presolve-bad-fix";            // error
inline constexpr const char* kPresolveBadRowDrop = "presolve-bad-row-drop";   // error
inline constexpr const char* kPresolveBadCoef = "presolve-bad-coef";          // error
inline constexpr const char* kPresolveBadDominance = "presolve-bad-dominance";// error
inline constexpr const char* kPresolveBadOrbit = "presolve-bad-orbit";        // error
inline constexpr const char* kPresolveBadTwin = "presolve-bad-twin";          // error
inline constexpr const char* kPresolveNeedsInstance = "presolve-needs-instance";  // error
inline constexpr const char* kPresolveHash = "presolve-hash";                 // error
inline constexpr const char* kPresolveInfeasible = "presolve-infeasible";     // info
inline constexpr const char* kPresolveNote = "presolve-note";                 // info

// certify_lp_exact (rational LP certificate re-checker, src/analysis/exact)
inline constexpr const char* kLpExactShape = "lp-exact-shape";                    // error
inline constexpr const char* kLpExactBasis = "lp-exact-basis";                    // error
inline constexpr const char* kLpExactPrimal = "lp-exact-primal";                  // warning/error
inline constexpr const char* kLpExactDual = "lp-exact-dual";                      // warning/error
inline constexpr const char* kLpExactDualDrift = "lp-exact-dual-drift";           // error
inline constexpr const char* kLpExactPointDrift = "lp-exact-point-drift";         // error
inline constexpr const char* kLpExactObjective = "lp-exact-objective";            // error
inline constexpr const char* kLpExactFarkas = "lp-exact-farkas";                  // error
inline constexpr const char* kLpExactVertex = "lp-exact-vertex";                  // info

// certify_bnb_exact (rational B&B audit re-proof)
inline constexpr const char* kBnbExactRoot = "bnb-exact-root";                    // error
inline constexpr const char* kBnbExactPrune = "bnb-exact-prune";                  // error
inline constexpr const char* kBnbExactResolve = "bnb-exact-resolve";              // warning
inline constexpr const char* kBnbExactFixing = "bnb-exact-fixing";                // error
inline constexpr const char* kBnbExactObjective = "bnb-exact-objective";          // error
inline constexpr const char* kBnbExactNode = "bnb-exact-node";                    // info

// verify_deployment (simulator-independent static deployment verifier)
inline constexpr const char* kVerifyShape = "verify-shape";                       // error
inline constexpr const char* kVerifyAssign = "verify-assign";                     // error
inline constexpr const char* kVerifyOrderCycle = "verify-order-cycle";            // error
inline constexpr const char* kVerifyDeadline = "verify-deadline";                 // error
inline constexpr const char* kVerifyHorizon = "verify-horizon";                   // error
inline constexpr const char* kVerifyRoute = "verify-route";                       // error
inline constexpr const char* kVerifyReliability = "verify-reliability";           // error
inline constexpr const char* kVerifyDupUnnecessary = "verify-dup-unnecessary";    // warning
inline constexpr const char* kVerifyEnergy = "verify-energy";                     // error
inline constexpr const char* kVerifyContention = "verify-contention";             // info/warning
inline constexpr const char* kVerifyExact = "verify-exact";                       // info

// crosscheck (differential MILP ↔ heuristic ↔ simulator harness)
inline constexpr const char* kXcheckAnnealInfeasible = "xcheck-anneal-infeasible";  // warning
inline constexpr const char* kXcheckHeuristicInfeasible = "xcheck-heuristic-infeasible";  // warning
inline constexpr const char* kXcheckMilpFailed = "xcheck-milp-failed";            // error
inline constexpr const char* kXcheckMilpNotOptimal = "xcheck-milp-not-optimal";   // warning
inline constexpr const char* kXcheckSolutionInvalid = "xcheck-solution-invalid";  // error
inline constexpr const char* kXcheckBeBelowOptimal = "xcheck-be-below-optimal";   // error
inline constexpr const char* kXcheckEnergyMismatch = "xcheck-energy-mismatch";    // error
inline constexpr const char* kXcheckSimDivergence = "xcheck-sim-divergence";      // error
inline constexpr const char* kXcheckPresolveDivergence = "xcheck-presolve-divergence";  // error

}  // namespace codes

class Report {
 public:
  void add(Severity severity, std::string code, std::string subject, std::string message);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  [[nodiscard]] bool empty() const { return diags_.empty(); }
  [[nodiscard]] std::size_t size() const { return diags_.size(); }

  [[nodiscard]] int count(Severity severity) const;
  [[nodiscard]] int num_errors() const { return count(Severity::kError); }
  [[nodiscard]] int num_warnings() const { return count(Severity::kWarning); }

  /// Number of diagnostics carrying `code`.
  [[nodiscard]] int count_code(const std::string& code) const;
  [[nodiscard]] bool has(const std::string& code) const { return count_code(code) > 0; }

  /// Append all diagnostics of `other`.
  void merge(const Report& other);

  /// Aligned ASCII table (empty string when there is nothing to report).
  [[nodiscard]] std::string to_table() const;

  /// {"diagnostics": [...], "errors": N, "warnings": N}
  [[nodiscard]] json::Value to_json() const;

  /// One-line summary, e.g. "2 error(s), 1 warning(s)" or "clean".
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<Diagnostic> diags_;
};

}  // namespace nd::analysis
