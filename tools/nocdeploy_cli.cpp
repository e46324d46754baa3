// nocdeploy command-line tool.
//
//   nocdeploy gen   --tasks 12 --rows 4 --cols 4 --alpha 1.5 --seed 7 -o prob.json
//   nocdeploy solve --problem prob.json --method heuristic|annealing|optimal
//                   [--time-limit 30] [-o sol.json] [--gantt] [--dot out.dot]
//   nocdeploy validate --problem prob.json --solution sol.json
//   nocdeploy simulate --problem prob.json --solution sol.json [--trials 100000]
//   nocdeploy lint     --problem prob.json [--model] [--presolve-report] [--json]
//   nocdeploy certify  --problem prob.json --method optimal|heuristic
//                      [--emit-certificate c.json] [--emit-audit a.json] [-o sol.json]
//   nocdeploy certify  --problem prob.json --solution sol.json
//                      [--certificate c.json] [--audit a.json] [--json]
//   nocdeploy verify   --problem prob.json --solution sol.json
//                      [--claimed-be X] [--no-contention] [--json]
//   nocdeploy crosscheck [--seeds N] [--first-seed S] [--tasks N] [--threads T] [--json]
//   nocdeploy sweep    [--seeds N] [--first-seed S] [--threads T] [--tasks N]
//                      [--time-limit SEC] [-o BENCH_sweep.json] [--json]
//                      [--append-history FILE]
//   nocdeploy bench diff OLD.json NEW.json [--sigma X] [--rel-floor X]
//                      [--abs-floor SEC] [--hist-rel X] [--json]
//   nocdeploy profile  [--problem P.json] [--tasks N] [--rows R] [--cols C]
//                      [--seed S] [--iters N] [--time-limit SEC] [--threads T]
//
// `--threads` (solve/certify with --method optimal, crosscheck) selects the
// MILP solver's thread count: 1 = sequential, >1 = work-sharing parallel
// branch-and-bound, 0 = machine default (honours NOCDEPLOY_THREADS).
//
// `certify` is always exact: it replays an audit with certify_bnb_exact, checks
// a certificate with certify_lp_exact, and verifies every deployment with the
// exact static verifier (docs/certify.md).
//
// `--presolve on|off` (solve/certify with --method optimal, crosscheck)
// toggles the proof-carrying presolve: instance-level dominance/symmetry
// fixings (analysis/presolve) seeding the model-structure root passes
// (milp/presolve). Default on. `lint --presolve-report` prints the reduction
// summary and the canonical instance hash without solving, and re-proves the
// emitted log with the independent checker (docs/presolve.md).
//
// Telemetry (docs/observability.md): every command accepts `--stats` (print
// the per-subsystem stats table after the run) and `--trace FILE` (write
// Chrome trace_event JSON loadable in chrome://tracing or ui.perfetto.dev).
// `profile` exercises every subsystem on one instance and implies --stats.
//
// Each command accepts only the flags it reads (plus the global telemetry
// flags); any other flag is a usage error, so a misspelled option cannot
// silently fall back to its default.
//
// Exit status: 0 on success/valid, 1 on infeasible/invalid/lint-errors,
// 2 on usage error.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench_diff.hpp"
#include "sweep_runner.hpp"
#include "analysis/exact/certify_bnb_exact.hpp"
#include "analysis/exact/certify_lp_exact.hpp"
#include "analysis/exact/verify_deployment.hpp"
#include "analysis/crosscheck.hpp"
#include "analysis/lint_model.hpp"
#include "analysis/lint_problem.hpp"
#include "analysis/presolve/certify_presolve.hpp"
#include "analysis/presolve/instance_presolve.hpp"
#include "analysis/solve_deployment.hpp"
#include "deploy/evaluate.hpp"
#include "deploy/export.hpp"
#include "deploy/serialize.hpp"
#include "deploy/validate.hpp"
#include "heuristic/annealing.hpp"
#include "heuristic/phases.hpp"
#include "lp/certificate.hpp"
#include "milp/audit.hpp"
#include "milp/presolve.hpp"
#include "model/formulation.hpp"
#include "obs/obs.hpp"
#include "sim/event_sim.hpp"
#include "sim/fault_injection.hpp"
#include "task/generator.hpp"

using namespace nd;  // NOLINT

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
  std::vector<std::string> positionals;  ///< non-flag operands (bench only)

  [[nodiscard]] std::string get(const std::string& key, const std::string& def = "") const {
    const auto it = flags.find(key);
    return it == flags.end() ? def : it->second;
  }
  [[nodiscard]] double num(const std::string& key, double def) const {
    const auto it = flags.find(key);
    return it == flags.end() ? def : std::stod(it->second);
  }
  /// `--presolve on|off`, default on (a bare `--presolve` also means on).
  [[nodiscard]] bool presolve_on() const { return get("presolve", "on") != "off"; }
};

int usage() {
  std::fprintf(stderr,
               "usage: nocdeploy <gen|solve|validate|simulate|lint> [flags]\n"
               "  gen      --tasks N --rows R --cols C --alpha A --r-th X --lambda L\n"
               "           --seed S -o problem.json\n"
               "  solve    --problem P.json --method heuristic|annealing|optimal\n"
               "           [--time-limit SEC] [--threads T] [--presolve on|off]\n"
               "           [--seed S] [--iters N] [-o solution.json]\n"
               "           [--gantt] [--dot FILE]\n"
               "  validate --problem P.json --solution S.json\n"
               "  simulate --problem P.json --solution S.json [--trials N]\n"
               "  lint     --problem P.json [--model] [--presolve-report] [--json]\n"
               "  certify  --problem P.json --method optimal|heuristic\n"
               "           [--time-limit SEC] [--threads T] [--presolve on|off]\n"
               "           [--exact-lp-budget SEC]\n"
               "           [--emit-certificate F] [--emit-audit F]\n"
               "           [-o solution.json] [--json]\n"
               "  certify  --problem P.json --solution S.json\n"
               "           [--certificate F] [--audit F] [--json]\n"
               "  verify   --problem P.json --solution S.json\n"
               "           [--claimed-be X] [--no-contention] [--json]\n"
               "  crosscheck [--seeds N] [--first-seed S] [--tasks N] [--rows R]\n"
               "           [--cols C] [--time-limit SEC] [--threads T]\n"
               "           [--presolve on|off] [--mesh-variation V] [--no-sim]\n"
               "           [--preset stress] [--json]\n"
               "  sweep    [--seeds N] [--first-seed S] [--threads T] [--tasks N]\n"
               "           [--rows R] [--cols C] [--time-limit SEC]\n"
               "           [--preset stress] [-o BENCH_sweep.json] [--json]\n"
               "           [--append-history FILE]\n"
               "  bench diff OLD.json NEW.json [--sigma X] [--rel-floor X]\n"
               "           [--abs-floor SEC] [--hist-rel X] [--json]\n"
               "  profile  [--problem P.json] [--tasks N] [--rows R] [--cols C]\n"
               "           [--seed S] [--iters N] [--time-limit SEC] [--threads T]\n"
               "           [--trials N] [--alpha A] [--r-th X] [--lambda L]\n"
               "global telemetry flags: [--stats] [--trace FILE] [--log-json FILE]\n");
  return 2;
}

int cmd_gen(const Args& a) {
  Prng prng(static_cast<std::uint64_t>(a.num("seed", 1)));
  task::GenParams gen;
  gen.num_tasks = static_cast<int>(a.num("tasks", 12));
  gen.width = std::max(2, gen.num_tasks / 5);
  noc::MeshParams mesh;
  mesh.rows = static_cast<int>(a.num("rows", 4));
  mesh.cols = static_cast<int>(a.num("cols", 4));
  mesh.seed = static_cast<std::uint64_t>(a.num("seed", 1)) + 7777;
  deploy::DeploymentProblem p(task::generate_layered(prng, gen), mesh,
                              dvfs::VfTable::typical6(),
                              reliability::FaultParams{a.num("lambda", 2e-5), 3.0},
                              a.num("r-th", 0.995), 1.0);
  p.set_horizon(p.horizon_for_alpha(a.num("alpha", 1.5)));
  const std::string out = a.get("o", "problem.json");
  deploy::write_file(out, deploy::problem_to_json(p).dump(2) + "\n");
  std::printf("wrote %s (M=%d, %dx%d mesh, H=%.4f s)\n", out.c_str(), p.num_tasks(),
              mesh.rows, mesh.cols, p.horizon());
  return 0;
}

int report_and_save(const deploy::DeploymentProblem& p, const deploy::DeploymentSolution& s,
                    const Args& a, double seconds) {
  const auto rep = deploy::evaluate_energy(p, s);
  const auto val = deploy::validate(p, s);
  std::printf("deployment: E_max %.4f J, E_total %.4f J, phi %.3f, duplicates %d, %s "
              "(solved in %.3f s)\n",
              rep.max_proc(), rep.total(), rep.phi(), s.num_duplicates(p.num_tasks()),
              val.ok() ? "valid" : "INVALID", seconds);
  if (!val.ok()) std::printf("%s\n", val.summary().c_str());
  if (!a.get("o").empty()) {
    deploy::write_file(a.get("o"), deploy::solution_to_json(s).dump(2) + "\n");
    std::printf("wrote %s\n", a.get("o").c_str());
  }
  if (a.flags.count("gantt") != 0) std::printf("\n%s", deploy::gantt_ascii(p, s).c_str());
  if (!a.get("dot").empty()) {
    deploy::write_file(a.get("dot"), deploy::deployment_to_dot(p, s));
    std::printf("wrote %s\n", a.get("dot").c_str());
  }
  return val.ok() ? 0 : 1;
}

int cmd_solve(const Args& a) {
  if (a.get("problem").empty()) return usage();
  auto p = deploy::problem_from_json(json::parse(deploy::read_file(a.get("problem"))));
  // Warn-only pre-solve lint: report model defects but always proceed.
  const auto lint = analysis::lint_problem(*p);
  if (!lint.empty()) {
    std::fprintf(stderr, "lint: %s\n%s", lint.summary().c_str(),
                 lint.to_table().c_str());
  }
  const std::string method = a.get("method", "heuristic");
  if (method == "heuristic") {
    const auto res = heuristic::solve_heuristic(*p);
    if (!res.feasible) {
      std::printf("infeasible: %s\n", res.why.c_str());
      return 1;
    }
    return report_and_save(*p, res.solution, a, res.seconds);
  }
  if (method == "annealing") {
    heuristic::AnnealOptions opt;
    opt.seed = static_cast<std::uint64_t>(a.num("seed", 1));
    opt.iterations = static_cast<int>(a.num("iters", 30000));
    const auto res = heuristic::solve_annealing(*p, opt);
    if (!res.feasible) {
      std::printf("annealing found no feasible deployment\n");
      return 1;
    }
    return report_and_save(*p, res.solution, a, res.seconds);
  }
  if (method == "optimal") {
    const auto warm = heuristic::solve_heuristic(*p);
    const model::Formulation f(*p);
    milp::MipOptions mopt;
    mopt.time_limit_s = a.num("time-limit", 60.0);
    mopt.num_threads = static_cast<int>(a.num("threads", 1));
    mopt.presolve = a.presolve_on();
    const auto res =
        analysis::solve_deployment(f, mopt, warm.feasible ? &warm.solution : nullptr);
    const auto& mip = res.mip;
    std::printf("MILP status: %s, nodes %lld, lp-iters %d, bound %.6f, gap %.2f%%\n",
                to_string(mip.status), static_cast<long long>(mip.nodes),
                mip.lp_iterations, mip.best_bound, 100.0 * mip.gap());
    if (mopt.presolve) {
      const auto& ipre = res.instance;
      std::printf("presolve: -%d rows -%d cols (%d instance fixing(s): %d dominance, "
                  "%d twin, %d orbit)\n",
                  mip.presolve_stats.rows_removed, mip.presolve_stats.cols_removed,
                  ipre.dominance_fixings + ipre.twin_fixings + ipre.orbit_fixings,
                  ipre.dominance_fixings, ipre.twin_fixings, ipre.orbit_fixings);
    }
    if (!mip.has_solution()) return 1;
    return report_and_save(*p, res.solution, a, mip.seconds);
  }
  return usage();
}

int cmd_validate(const Args& a) {
  if (a.get("problem").empty() || a.get("solution").empty()) return usage();
  auto p = deploy::problem_from_json(json::parse(deploy::read_file(a.get("problem"))));
  const auto s =
      deploy::solution_from_json(json::parse(deploy::read_file(a.get("solution"))), *p);
  const auto val = deploy::validate(*p, s);
  std::printf("%s\n", val.summary().c_str());
  return val.ok() ? 0 : 1;
}

int cmd_lint(const Args& a) {
  if (a.get("problem").empty()) return usage();
  auto p = deploy::problem_from_json(json::parse(deploy::read_file(a.get("problem"))));
  auto rep = analysis::lint_problem(*p);
  if (a.flags.count("model") != 0) {
    // Also build the MILP formulation and lint the generated model.
    const model::Formulation formulation(*p);
    rep.merge(analysis::lint_model(formulation.model()));
  }
  if (a.flags.count("presolve-report") != 0) {
    // Static presolve analysis without solving: run the instance passes and
    // the model-structure passes, print the reduction footprint and the
    // canonical hash, and dogfood the emitted log through the independent
    // checker — a rejected record here is a presolve bug, not a model defect.
    const model::Formulation f(*p);
    const auto ipre = analysis::instance_reductions(f);
    const auto pm = milp::presolve_model(f.model(), &ipre.log);
    analysis::CertifyPresolveOptions po;
    po.formulation = &f;
    rep.merge(analysis::certify_presolve(f.model(), pm.log, po));
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(ipre.log.canonical_hash));
    // Info diagnostics so --json carries the report too.
    rep.add(analysis::Severity::kInfo, analysis::codes::kPresolveNote, "presolve",
            std::string("canonical instance hash ") + hash);
    rep.add(analysis::Severity::kInfo, analysis::codes::kPresolveNote, "presolve",
            std::to_string(ipre.automorphisms) + " mesh automorphism(s); fixings: " +
                std::to_string(ipre.dominance_fixings) + " dominance, " +
                std::to_string(ipre.twin_fixings) + " twin, " +
                std::to_string(ipre.orbit_fixings) + " orbit");
    const auto& st = pm.map.stats;
    rep.add(analysis::Severity::kInfo, analysis::codes::kPresolveNote, "presolve",
            "model passes: -" + std::to_string(st.rows_removed) + " rows, -" +
                std::to_string(st.cols_removed) + " cols (" +
                std::to_string(st.cols_pinned) + " pinned), " +
                std::to_string(st.bound_tightenings) + " bound + " +
                std::to_string(st.coef_tightenings) + " coef tightening(s), " +
                std::to_string(pm.rounds) + " round(s); " +
                std::to_string(pm.log.reductions.size()) + " record(s) re-proved");
  }
  if (a.flags.count("json") != 0) {
    std::printf("%s\n", rep.to_json().dump(2).c_str());
  } else {
    if (!rep.empty()) std::printf("%s", rep.to_table().c_str());
    std::printf("lint: %s\n", rep.summary().c_str());
  }
  return rep.num_errors() > 0 ? 1 : 0;
}

/// Shared tail of the certify modes: render the report, honour --json, exit 1
/// on any error diagnostic.
int finish_certify(const analysis::Report& rep, const Args& a) {
  if (a.flags.count("json") != 0) {
    std::printf("%s\n", rep.to_json().dump(2).c_str());
  } else {
    if (!rep.empty()) std::printf("%s", rep.to_table().c_str());
    std::printf("certify: %s\n", rep.num_errors() > 0 ? "REJECTED" : "accepted");
    std::printf("certify: %s\n", rep.summary().c_str());
  }
  return rep.num_errors() > 0 ? 1 : 0;
}

/// Validate + event-simulate one deployment into certify diagnostics.
void certify_deployment(const deploy::DeploymentProblem& p,
                        const deploy::DeploymentSolution& s, const std::string& who,
                        analysis::Report& rep) {
  const auto val = deploy::validate(p, s);
  if (!val.ok()) {
    rep.add(analysis::Severity::kError, analysis::codes::kXcheckSolutionInvalid, who,
            val.violations.front());
  }
  const auto sr = sim::simulate(p, s);
  if (!sr.ok()) {
    rep.add(analysis::Severity::kError, analysis::codes::kXcheckSimDivergence, who,
            sr.anomalies.empty() ? "simulation failed" : sr.anomalies.front());
  }
}

/// Exact static verification of one deployment: the claimed objective is the
/// float evaluator's BE, which the exact aggregation must reproduce within
/// the derived envelope.
void verify_deployment_exact(const deploy::DeploymentProblem& p,
                             const deploy::DeploymentSolution& s, analysis::Report& rep) {
  analysis::VerifyDeploymentOptions vopt;
  vopt.claimed_be = deploy::evaluate_energy(p, s).max_proc();
  rep.merge(analysis::verify_deployment(p, s, vopt).report);
}

int cmd_certify(const Args& a) {
  if (a.get("problem").empty()) return usage();
  auto p = deploy::problem_from_json(json::parse(deploy::read_file(a.get("problem"))));
  analysis::Report rep;
  const std::string method = a.get("method");

  if (method.empty()) {
    // File mode: certify an existing solution (plus optional certificate and
    // audit artifacts from an earlier `certify --method optimal` run).
    if (a.get("solution").empty()) return usage();
    const auto s =
        deploy::solution_from_json(json::parse(deploy::read_file(a.get("solution"))), *p);
    certify_deployment(*p, s, "solution", rep);
    verify_deployment_exact(*p, s, rep);
    const double be = deploy::evaluate_energy(*p, s).max_proc();
    if (!a.get("certificate").empty() || !a.get("audit").empty()) {
      const model::Formulation f(*p);
      std::optional<milp::AuditLog> audit;
      if (!a.get("audit").empty()) {
        audit = milp::audit_from_json(json::parse(deploy::read_file(a.get("audit"))));
      }
      if (!a.get("certificate").empty()) {
        const auto cert =
            lp::certificate_from_json(json::parse(deploy::read_file(a.get("certificate"))));
        // The root LP relaxation lower-bounds every deployment's BE energy.
        // The audit's own root certificate lives in the space its tree
        // searched (where the objective is the original one less
        // presolve_shift), so the audit replay below proves it there; any
        // other certificate is checked here against the original LP.
        double lp_bound = cert.obj;
        if (audit && lp::certificate_to_json(audit->root_cert).dump() ==
                         lp::certificate_to_json(cert).dump()) {
          if (audit->presolved) lp_bound += audit->presolve_shift;
        } else {
          rep.merge(analysis::certify_lp_exact(f.model().lp(), cert).report);
        }
        if (cert.status == lp::SolveStatus::kOptimal && be < lp_bound - 1e-6 * (1.0 + lp_bound)) {
          rep.add(analysis::Severity::kError, analysis::codes::kXcheckBeBelowOptimal,
                  "solution", "BE energy beats the certified LP lower bound");
        }
      }
      if (audit) {
        analysis::CertifyBnbExactOptions bo;
        bo.formulation = &f;  // re-proves instance-tagged presolve reductions
        rep.merge(analysis::certify_bnb_exact(f.model(), *audit, bo).report);
        // Presolved audits record the objective in reduced space; the
        // original-space claim is obj + presolve_shift.
        const double audit_obj = audit->obj + (audit->presolved ? audit->presolve_shift : 0.0);
        if ((audit->status == milp::MipStatus::kOptimal ||
             audit->status == milp::MipStatus::kFeasible) &&
            std::abs(audit_obj - be) > 1e-6 * (1.0 + std::abs(audit_obj))) {
          rep.add(analysis::Severity::kError, analysis::codes::kBnbIncumbentMismatch,
                  "solution", "solution BE energy does not match the audited objective");
        }
      }
    }
    return finish_certify(rep, a);
  }

  if (method == "heuristic") {
    const auto res = heuristic::solve_heuristic(*p);
    if (!res.feasible) {
      rep.add(analysis::Severity::kError, analysis::codes::kXcheckHeuristicInfeasible,
              "heuristic", res.why);
      return finish_certify(rep, a);
    }
    certify_deployment(*p, res.solution, "heuristic", rep);
    verify_deployment_exact(*p, res.solution, rep);
    if (!a.get("o").empty()) {
      deploy::write_file(a.get("o"), deploy::solution_to_json(res.solution).dump(2) + "\n");
    }
    return finish_certify(rep, a);
  }

  if (method == "optimal") {
    const auto warm = heuristic::solve_heuristic(*p);
    const model::Formulation f(*p);
    milp::AuditLog audit;
    milp::MipOptions mopt;
    mopt.time_limit_s = a.num("time-limit", 60.0);
    mopt.num_threads = static_cast<int>(a.num("threads", 1));
    mopt.presolve = a.presolve_on();
    mopt.audit = &audit;
    const auto res =
        analysis::solve_deployment(f, mopt, warm.feasible ? &warm.solution : nullptr);
    const auto& mip = res.mip;
    std::printf("MILP status: %s, nodes %lld, bound %.6f\n", to_string(mip.status),
                static_cast<long long>(mip.nodes), mip.best_bound);
    analysis::CertifyBnbExactOptions bopt;
    bopt.lp_time_limit_s = a.num("exact-lp-budget", bopt.lp_time_limit_s);
    bopt.formulation = &f;  // re-proves instance-tagged presolve reductions
    rep.merge(analysis::certify_bnb_exact(f.model(), audit, bopt).report);
    if (mip.has_solution()) {
      certify_deployment(*p, res.solution, "milp", rep);
      verify_deployment_exact(*p, res.solution, rep);
      if (!a.get("o").empty()) {
        deploy::write_file(a.get("o"), deploy::solution_to_json(res.solution).dump(2) + "\n");
      }
    } else if (warm.feasible) {
      rep.add(analysis::Severity::kError, analysis::codes::kXcheckMilpFailed, "milp",
              std::string("status '") + to_string(mip.status) +
                  "' despite a feasible warm start");
      // Solver failure: flush the flight recorder so the events leading up to
      // the failed solve survive (docs/observability.md).
      ND_OBS_LOG(obs::LogLevel::kError, "milp-failed", {"status", to_string(mip.status)},
                 {"nodes", static_cast<long long>(mip.nodes)});
    }
    if (!a.get("emit-certificate").empty()) {
      deploy::write_file(a.get("emit-certificate"),
                         lp::certificate_to_json(audit.root_cert).dump(2) + "\n");
    }
    if (!a.get("emit-audit").empty()) {
      deploy::write_file(a.get("emit-audit"), milp::audit_to_json(audit).dump(2) + "\n");
    }
    return finish_certify(rep, a);
  }
  return usage();
}

/// Stand-alone exact static verifier: proves schedulability, reliability and
/// energy of a saved deployment without running the event simulator.
int cmd_verify(const Args& a) {
  if (a.get("problem").empty() || a.get("solution").empty()) return usage();
  auto p = deploy::problem_from_json(json::parse(deploy::read_file(a.get("problem"))));
  const auto s =
      deploy::solution_from_json(json::parse(deploy::read_file(a.get("solution"))), *p);
  analysis::VerifyDeploymentOptions vopt;
  vopt.claimed_be = a.get("claimed-be").empty()
                        ? deploy::evaluate_energy(*p, s).max_proc()
                        : a.num("claimed-be", 0.0);
  vopt.contention = a.flags.count("no-contention") == 0;
  const auto out = analysis::verify_deployment(*p, s, vopt);
  if (a.flags.count("json") != 0) {
    std::printf("%s\n", out.report.to_json().dump(2).c_str());
  } else {
    if (!out.report.empty()) std::printf("%s", out.report.to_table().c_str());
    std::printf("verify: exact makespan %.6f s (H %.4f s), exact BE %.6f J\n",
                out.exact_makespan.to_double(), p->horizon(), out.exact_be.to_double());
    std::printf("verify: %s\n", out.accepted() ? "PROVED" : "REJECTED");
    std::printf("verify: %s\n", out.report.summary().c_str());
  }
  return out.accepted() ? 0 : 1;
}

int cmd_crosscheck(const Args& a) {
  analysis::CrosscheckOptions opt;
  // `--preset stress` mirrors bench::sweep_stress() (explicit flags below
  // still override the preset's shape).
  if (a.get("preset") == "stress") {
    const bench::Scale st = bench::sweep_stress();
    opt.num_tasks = st.num_tasks;
    opt.rows = st.rows;
    opt.cols = st.cols;
    opt.mesh_variation = st.mesh_variation;
  } else if (!a.get("preset").empty()) {
    std::fprintf(stderr, "error: unknown --preset '%s' (expected stress)\n",
                 a.get("preset").c_str());
    return 2;
  }
  opt.num_tasks = static_cast<int>(a.num("tasks", opt.num_tasks));
  opt.rows = static_cast<int>(a.num("rows", opt.rows));
  opt.cols = static_cast<int>(a.num("cols", opt.cols));
  opt.milp_time_limit_s = a.num("time-limit", opt.milp_time_limit_s);
  opt.num_threads = static_cast<int>(a.num("threads", opt.num_threads));
  opt.mesh_variation = a.num("mesh-variation", opt.mesh_variation);
  opt.presolve = a.presolve_on();
  opt.run_simulation = a.flags.count("no-sim") == 0;
  opt.verbose = a.flags.count("json") == 0;
  const auto first = static_cast<std::uint64_t>(a.num("first-seed", 1));
  const int count = static_cast<int>(a.num("seeds", 10));
  const auto rep = analysis::crosscheck_range(first, count, opt);
  if (a.flags.count("json") != 0) {
    std::printf("%s\n", rep.to_json().dump(2).c_str());
  } else {
    if (!rep.empty()) std::printf("%s", rep.to_table().c_str());
    std::printf("crosscheck: %d seed(s), %s\n", count, rep.summary().c_str());
  }
  return rep.num_errors() > 0 ? 1 : 0;
}

int cmd_sweep(const Args& a) {
  bench::SweepOptions opt;
  if (a.get("preset") == "stress") {
    opt.scale = bench::sweep_stress();
  } else if (!a.get("preset").empty()) {
    std::fprintf(stderr, "error: unknown --preset '%s' (expected stress)\n",
                 a.get("preset").c_str());
    return 2;
  }
  opt.seeds = static_cast<int>(a.num("seeds", opt.seeds));
  opt.first_seed = static_cast<std::uint64_t>(a.num("first-seed", 1));
  opt.threads = static_cast<int>(a.num("threads", 0));
  opt.time_limit_s = a.num("time-limit", opt.time_limit_s);
  opt.scale.num_tasks = static_cast<int>(a.num("tasks", opt.scale.num_tasks));
  opt.scale.rows = static_cast<int>(a.num("rows", opt.scale.rows));
  opt.scale.cols = static_cast<int>(a.num("cols", opt.scale.cols));
  opt.verbose = a.flags.count("json") == 0;
  const auto res = bench::run_sweep(opt);
  const auto doc = res.to_json(opt);
  const std::string out = a.get("o", "BENCH_sweep.json");
  if (!out.empty()) deploy::write_file(out, doc.dump(2) + "\n");
  if (a.flags.count("json") != 0) {
    std::printf("%s\n", doc.dump(2).c_str());
  } else {
    std::printf("sweep: %d seed(s), %d thread(s): serial %.3f s, pooled %.3f s, "
                "speedup %.2fx, %d mismatch(es)\n",
                opt.seeds, res.threads_used, res.serial_wall_s, res.parallel_wall_s,
                res.speedup, res.mismatches);
    std::printf("sweep: presolve off %.3f s (%.2fx speedup from presolve), "
                "-%d rows -%d cols total, %d presolve mismatch(es)\n",
                res.presolve_off_wall_s, res.presolve_speedup, res.rows_removed_total,
                res.cols_removed_total, res.presolve_mismatches);
    if (!out.empty()) std::printf("wrote %s\n", out.c_str());
  }
  // --append-history FILE: append one compact JSONL line per run so repeated
  // sweeps build a perf trajectory (EXPERIMENTS.md). Compact dump is already
  // locale-independent; std::time gives a plain unix timestamp.
  const std::string hist_path = a.get("append-history");
  if (!hist_path.empty()) {
    json::Object line;
    line.emplace_back("unix_time", static_cast<double>(std::time(nullptr)));
    line.emplace_back("schema", std::string("nocdeploy-sweep/4"));
    line.emplace_back("seeds", static_cast<double>(opt.seeds));
    line.emplace_back("threads", static_cast<double>(res.threads_used));
    line.emplace_back("serial_wall_s", res.serial_wall_s);
    line.emplace_back("parallel_wall_s", res.parallel_wall_s);
    line.emplace_back("presolve_off_wall_s", res.presolve_off_wall_s);
    line.emplace_back("speedup", res.speedup);
    line.emplace_back("presolve_speedup", res.presolve_speedup);
    line.emplace_back("mismatches", static_cast<double>(res.mismatches));
    line.emplace_back("peak_rss_bytes", static_cast<double>(res.peak_rss_bytes));
    std::FILE* f = std::fopen(hist_path.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot append to history file '%s'\n", hist_path.c_str());
      return 2;
    }
    const std::string dumped = json::Value(std::move(line)).dump();
    std::fprintf(f, "%s\n", dumped.c_str());
    std::fclose(f);
    std::printf("appended %s\n", hist_path.c_str());
  }
  return res.mismatches > 0 || res.presolve_mismatches > 0 ? 1 : 0;
}

/// `bench diff OLD.json NEW.json`: the regression observatory's CLI gate.
/// Loads two sweep documents, runs the noise-aware comparator, prints the
/// findings table (or --json) and exits with DiffResult's contract: 0 pass,
/// 1 regression, 3 incomparable (2 stays reserved for usage errors).
int cmd_bench(const Args& a) {
  if (a.positionals.size() != 3 || a.positionals[0] != "diff") return usage();
  bench::DiffOptions dopt;
  dopt.sigma = a.num("sigma", dopt.sigma);
  dopt.rel_floor = a.num("rel-floor", dopt.rel_floor);
  dopt.abs_floor_s = a.num("abs-floor", dopt.abs_floor_s);
  dopt.hist_rel = a.num("hist-rel", dopt.hist_rel);
  const json::Value old_doc = json::parse(deploy::read_file(a.positionals[1]));
  const json::Value new_doc = json::parse(deploy::read_file(a.positionals[2]));
  const bench::DiffResult res = bench::diff_sweeps(old_doc, new_doc, dopt);
  if (a.flags.count("json") != 0) {
    std::printf("%s\n", res.to_json().dump(2).c_str());
  } else {
    std::printf("%s", res.to_table().c_str());
  }
  if (res.exit_code() != 0) {
    // Gate failure is an error-level event: triggers the flight-recorder dump
    // so CI logs carry the structured verdict alongside the table.
    ND_OBS_LOG(obs::LogLevel::kError, "bench-diff-gate", {"regressions", res.regressions},
               {"comparable", res.comparable ? "yes" : "no"});
  }
  return res.exit_code();
}

/// Build the `profile` subject: an explicit problem file when given,
/// otherwise a small seeded instance (gen defaults scaled down so the whole
/// run takes seconds).
std::unique_ptr<deploy::DeploymentProblem> profile_instance(const Args& a) {
  if (!a.get("problem").empty()) {
    return deploy::problem_from_json(json::parse(deploy::read_file(a.get("problem"))));
  }
  Prng prng(static_cast<std::uint64_t>(a.num("seed", 1)));
  task::GenParams gen;
  gen.num_tasks = static_cast<int>(a.num("tasks", 10));
  gen.width = std::max(2, gen.num_tasks / 5);
  noc::MeshParams mesh;
  mesh.rows = static_cast<int>(a.num("rows", 3));
  mesh.cols = static_cast<int>(a.num("cols", 3));
  mesh.seed = static_cast<std::uint64_t>(a.num("seed", 1)) + 7777;
  auto p = std::make_unique<deploy::DeploymentProblem>(
      task::generate_layered(prng, gen), mesh, dvfs::VfTable::typical6(),
      reliability::FaultParams{a.num("lambda", 2e-5), 3.0}, a.num("r-th", 0.995), 1.0);
  p->set_horizon(p->horizon_for_alpha(a.num("alpha", 1.5)));
  return p;
}

/// Exercise every instrumented subsystem on one instance — heuristic,
/// annealing, MILP (warm-started), event simulation and fault injection —
/// so the telemetry epilogue (`profile` implies --stats) shows a complete
/// per-subsystem breakdown; add --trace FILE for the Perfetto timeline.
int cmd_profile(const Args& a) {
  const auto p = profile_instance(a);
  std::printf("profile: M=%d tasks on %d procs, H=%.4f s\n", p->num_tasks(), p->num_procs(),
              p->horizon());

  const auto heur = heuristic::solve_heuristic(*p);
  std::printf("profile: heuristic %s in %.3f s\n", heur.feasible ? "feasible" : "infeasible",
              heur.seconds);

  heuristic::AnnealOptions aopt;
  aopt.seed = static_cast<std::uint64_t>(a.num("seed", 1));
  aopt.iterations = static_cast<int>(a.num("iters", 4000));
  const auto ann = heuristic::solve_annealing(*p, aopt);
  std::printf("profile: annealing %s (obj %.4f, %d/%d moves accepted) in %.3f s\n",
              ann.feasible ? "feasible" : "infeasible", ann.objective, ann.accepted_moves,
              aopt.iterations, ann.seconds);

  const model::Formulation f(*p);
  milp::MipOptions mopt;
  mopt.time_limit_s = a.num("time-limit", 20.0);
  mopt.num_threads = static_cast<int>(a.num("threads", 1));
  const auto res =
      analysis::solve_deployment(f, mopt, heur.feasible ? &heur.solution : nullptr);
  std::printf("profile: MILP %s, bound %.6f, %lld nodes, %d LP iters in %.3f s\n",
              to_string(res.mip.status), res.mip.best_bound,
              static_cast<long long>(res.mip.nodes), res.mip.lp_iterations, res.mip.seconds);

  const deploy::DeploymentSolution* best = nullptr;
  if (res.mip.has_solution()) {
    best = &res.solution;
  } else if (heur.feasible) {
    best = &heur.solution;
  } else if (ann.feasible) {
    best = &ann.solution;
  }
  if (best != nullptr) {
    const auto sr = sim::simulate(*p, *best);
    std::printf("profile: simulation %s, makespan %.4f s (H %.4f s)\n",
                sr.ok() ? "clean" : "ANOMALIES", sr.makespan, p->horizon());
    const auto fc =
        sim::run_fault_injection(*p, *best, static_cast<int>(a.num("trials", 20000)), 2024);
    std::printf("profile: fault injection observed %.6f vs predicted %.6f\n", fc.observed,
                fc.predicted);
  } else {
    std::printf("profile: no feasible deployment found; skipping simulation\n");
  }
  return 0;
}

int cmd_simulate(const Args& a) {
  if (a.get("problem").empty() || a.get("solution").empty()) return usage();
  auto p = deploy::problem_from_json(json::parse(deploy::read_file(a.get("problem"))));
  const auto s =
      deploy::solution_from_json(json::parse(deploy::read_file(a.get("solution"))), *p);
  const auto sim = sim::simulate(*p, s);
  std::printf("event simulation: %s, makespan %.4f s (H %.4f s)\n",
              sim.ok() ? "clean" : "ANOMALIES", sim.makespan, p->horizon());
  for (const auto& an : sim.anomalies) std::printf("  anomaly: %s\n", an.c_str());
  const int trials = static_cast<int>(a.num("trials", 100000));
  const auto fc = sim::run_fault_injection(*p, s, trials, 2024);
  std::printf("fault injection (%d trials): observed %.6f vs predicted %.6f (3sigma %.6f)\n",
              fc.trials, fc.observed, fc.predicted, fc.conf3sigma);
  return sim.ok() ? 0 : 1;
}

struct Command {
  int (*run)(const Args&);
  std::set<std::string> flags;  ///< every flag the command reads
};

/// Flags every command accepts: the telemetry session wrapped around it.
const std::set<std::string> kGlobalFlags = {"stats", "trace", "log-json"};

const std::map<std::string, Command> kCommands = {
    {"gen", {cmd_gen, {"tasks", "rows", "cols", "alpha", "r-th", "lambda", "seed", "o"}}},
    {"solve",
     {cmd_solve,
      {"problem", "method", "time-limit", "threads", "presolve", "seed", "iters", "o",
       "gantt", "dot"}}},
    {"validate", {cmd_validate, {"problem", "solution"}}},
    {"simulate", {cmd_simulate, {"problem", "solution", "trials"}}},
    {"lint", {cmd_lint, {"problem", "model", "presolve-report", "json"}}},
    {"certify",
     {cmd_certify,
      {"problem", "method", "solution", "certificate", "audit", "exact-lp-budget", "time-limit",
       "threads", "presolve", "emit-certificate", "emit-audit", "o", "json"}}},
    {"verify", {cmd_verify, {"problem", "solution", "claimed-be", "no-contention", "json"}}},
    {"crosscheck",
     {cmd_crosscheck,
      {"seeds", "first-seed", "tasks", "rows", "cols", "time-limit", "threads", "presolve",
       "mesh-variation", "no-sim", "preset", "json"}}},
    {"sweep",
     {cmd_sweep,
      {"seeds", "first-seed", "threads", "tasks", "rows", "cols", "time-limit", "preset", "o",
       "json", "append-history"}}},
    {"bench", {cmd_bench, {"sigma", "rel-floor", "abs-floor", "hist-rel", "json"}}},
    {"profile",
     {cmd_profile,
      {"problem", "tasks", "rows", "cols", "seed", "alpha", "r-th", "lambda", "iters",
       "time-limit", "threads", "trials"}}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Args a;
  a.command = argv[1];
  const auto cmd = kCommands.find(a.command);
  if (cmd == kCommands.end()) return usage();
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) {
      key = key.substr(2);
    } else if (key.rfind('-', 0) == 0) {
      key = key.substr(1);
    } else if (a.command == "bench") {
      // `bench` takes positional operands (subcommand + two files); every
      // other command is flag-only, where a bare word is a usage error.
      a.positionals.push_back(key);
      continue;
    } else {
      return usage();
    }
    if (i + 1 < argc && argv[i + 1][0] != '-') {
      a.flags[key] = argv[++i];
    } else {
      a.flags[key] = "";  // boolean flag
    }
  }
  for (const auto& [key, value] : a.flags) {
    if (cmd->second.flags.count(key) == 0 && kGlobalFlags.count(key) == 0) {
      std::fprintf(stderr, "error: unknown flag %s%s for %s\n", key.size() == 1 ? "-" : "--",
                   key.c_str(), a.command.c_str());
      return 2;
    }
  }

  // Telemetry session: --stats prints the per-subsystem table, --trace FILE
  // writes Chrome trace_event JSON; `profile` implies --stats. The session
  // wraps the whole command so every instrumented subsystem lands in one
  // profile (docs/observability.md).
  const std::string trace_path = a.get("trace");
  const bool want_trace = !trace_path.empty();
  const bool want_stats = a.flags.count("stats") != 0 || a.command == "profile";
  const bool telemetry_on = want_stats || want_trace;
  // --log-json FILE: route flight-recorder dumps (error-level events,
  // invariant failures) to a JSONL file instead of stderr. Set before the
  // command runs so early failures are captured too.
  if (!a.get("log-json").empty()) obs::set_log_sink(a.get("log-json"));
  if (telemetry_on) obs::start(want_trace);

  int rc;
  try {
    rc = cmd->second.run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // Error-level event flushes the flight recorder: whatever the subsystems
    // logged before the throw lands in the --log-json sink (or stderr).
    ND_OBS_LOG(obs::LogLevel::kError, "cli-exception", {"command", a.command},
               {"what", std::string(e.what())});
    return 2;
  }

  if (telemetry_on) {
    const obs::Profile prof = obs::stop();
    if (!obs::compiled_in()) {
      std::printf("telemetry: compiled out (rebuild with -DNOCDEPLOY_OBS=ON)\n");
    } else if (want_stats) {
      std::printf("telemetry:\n%s", obs::to_table(prof).c_str());
    }
    if (want_trace) {
      // With the layer compiled out this still writes a valid (empty) trace
      // document, so downstream tooling never has to special-case the build.
      try {
        deploy::write_file(trace_path, obs::trace_to_json(prof).dump(2) + "\n");
        std::printf("wrote %s\n", trace_path.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: cannot write trace file '%s': %s\n", trace_path.c_str(),
                     e.what());
        return 2;
      }
    }
  }
  return rc;
}
