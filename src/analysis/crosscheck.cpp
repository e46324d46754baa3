#include "analysis/crosscheck.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/exact/certify_bnb_exact.hpp"
#include "analysis/exact/envelope.hpp"
#include "analysis/exact/verify_deployment.hpp"
#include "analysis/solve_deployment.hpp"
#include "common/prng.hpp"
#include "deploy/evaluate.hpp"
#include "deploy/problem.hpp"
#include "deploy/validate.hpp"
#include "dvfs/vf_table.hpp"
#include "heuristic/annealing.hpp"
#include "heuristic/phases.hpp"
#include "milp/audit.hpp"
#include "model/formulation.hpp"
#include "noc/mesh.hpp"
#include "reliability/fault_model.hpp"
#include "sim/event_sim.hpp"
#include "task/generator.hpp"

namespace nd::analysis {

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Validate + simulate + exactly verify one deployment; `who` is "heuristic",
/// "milp" or "anneal".
void check_deployment(const deploy::DeploymentProblem& p, const deploy::DeploymentSolution& s,
                      const std::string& who, const CrosscheckOptions& opt, Report& rep) {
  const deploy::ValidationResult val = deploy::validate(p, s);
  if (!val.ok()) {
    rep.add(Severity::kError, codes::kXcheckSolutionInvalid, who,
            val.violations.front() +
                (val.violations.size() > 1
                     ? " (+" + std::to_string(val.violations.size() - 1) + " more)"
                     : ""));
  }
  if (opt.run_simulation) {
    const sim::SimResult sr = sim::simulate(p, s);
    if (!sr.ok()) {
      std::string why = !sr.anomalies.empty() ? sr.anomalies.front()
                        : !sr.completed       ? std::string("simulation incomplete")
                        : !sr.horizon_met     ? std::string("horizon missed")
                                              : std::string("deadline missed");
      rep.add(Severity::kError, codes::kXcheckSimDivergence, who, why);
    }
  }
  // Third, independent judgment: the exact static verifier proves the
  // deployment schedulable/reliable/energy-consistent without trusting
  // either the float validator or the simulator.
  VerifyDeploymentOptions vopt;
  vopt.claimed_be = deploy::evaluate_energy(p, s).max_proc();
  const VerifyDeploymentOutcome vd = verify_deployment(p, s, vopt);
  for (const Diagnostic& d : vd.report.diagnostics()) {
    rep.add(d.severity, d.code, who + "/" + d.subject, d.message);
  }
}

}  // namespace

SeedOutcome crosscheck_seed(std::uint64_t seed, const CrosscheckOptions& opt) {
  SeedOutcome out;
  Report& rep = out.report;

  // Instance construction mirrors `nocdeploy-cli gen`.
  Prng prng(seed);
  task::GenParams gen;
  gen.num_tasks = opt.num_tasks;
  gen.width = std::max(2, opt.num_tasks / 5);
  noc::MeshParams mesh;
  mesh.rows = opt.rows;
  mesh.cols = opt.cols;
  mesh.seed = seed + 7777;
  mesh.variation = opt.mesh_variation;
  deploy::DeploymentProblem p(task::generate_layered(prng, gen), mesh,
                              dvfs::VfTable::typical6(),
                              reliability::FaultParams{opt.lambda, 3.0}, opt.r_th, 1.0);
  p.set_horizon(p.horizon_for_alpha(opt.alpha));

  // --- Heuristic path.
  const heuristic::HeuristicResult h = heuristic::solve_heuristic(p);
  if (!h.feasible) {
    // The decomposition heuristic is incomplete, so giving up on a tight
    // instance is a legitimate outcome, not an inconsistency — skip the seed.
    rep.add(Severity::kWarning, codes::kXcheckHeuristicInfeasible, "heuristic",
            h.why + " (seed skipped)");
    return out;
  }
  check_deployment(p, h.solution, "heuristic", opt, rep);
  out.heuristic_be = deploy::evaluate_energy(p, h.solution).max_proc();

  // --- MILP path, fully audited, warm-started from the heuristic.
  const model::Formulation f(p);

  // Model ↔ evaluator consistency on the heuristic's point: the encoded
  // point's objective must equal the evaluator's BE energy.
  const double warm_obj = f.model().lp().objective_value(f.encode(h.solution));
  if (std::abs(warm_obj - out.heuristic_be) > opt.tol * (1.0 + std::abs(out.heuristic_be))) {
    rep.add(Severity::kError, codes::kXcheckEnergyMismatch, "heuristic",
            "model scores the heuristic point " + fmt(warm_obj) +
                " J but the evaluator reports " + fmt(out.heuristic_be) + " J");
  }

  milp::AuditLog audit;
  milp::MipOptions mopt;
  mopt.time_limit_s = opt.milp_time_limit_s;
  mopt.num_threads = opt.num_threads;
  mopt.presolve = opt.presolve;
  mopt.audit = &audit;
  const DeploymentSolveResult solved = solve_deployment(f, mopt, &h.solution);
  const milp::MipResult& mip = solved.mip;
  const InstancePresolveResult& ipre = solved.instance;
  out.instance_fixings = ipre.dominance_fixings + ipre.twin_fixings + ipre.orbit_fixings;
  out.milp_status = mip.status;
  out.presolve_stats = mip.presolve_stats;
  out.milp_nodes = mip.nodes;
  out.milp_obj = mip.obj;
  out.milp_bound = mip.best_bound;

  if (!mip.has_solution()) {
    // The heuristic point was offered as a warm start, so the MILP can never
    // legitimately end without an incumbent.
    rep.add(Severity::kError, codes::kXcheckMilpFailed, "milp",
            std::string("status '") + milp::to_string(mip.status) +
                "' despite a feasible warm start");
    return out;
  }
  if (mip.status != milp::MipStatus::kOptimal) {
    rep.add(Severity::kWarning, codes::kXcheckMilpNotOptimal, "milp",
            std::string("stopped '") + milp::to_string(mip.status) + "' with gap " +
                fmt(mip.gap()));
  }

  const deploy::DeploymentSolution& milp_sol = solved.solution;
  check_deployment(p, milp_sol, "milp", opt, rep);

  // Model ↔ evaluator consistency on the MILP's point.
  const double milp_be = deploy::evaluate_energy(p, milp_sol).max_proc();
  if (std::abs(milp_be - mip.obj) > opt.tol * (1.0 + std::abs(mip.obj))) {
    rep.add(Severity::kError, codes::kXcheckEnergyMismatch, "milp",
            "MILP claims " + fmt(mip.obj) + " J but the evaluator reports " +
                fmt(milp_be) + " J");
  }

  // The heuristic can never beat the MILP's PROVED lower bound.
  if (out.heuristic_be < mip.best_bound - opt.tol * (1.0 + std::abs(mip.best_bound))) {
    rep.add(Severity::kError, codes::kXcheckBeBelowOptimal, "heuristic",
            "heuristic BE " + fmt(out.heuristic_be) +
                " J beats the certified lower bound " + fmt(mip.best_bound) + " J");
  }

  // --- Annealing path: an independent metaheuristic over the same decision
  // space. Incomplete like the decomposition heuristic, so coming up empty is
  // a warning; a feasible state must clear every check the others do.
  if (opt.anneal_iterations > 0) {
    heuristic::AnnealOptions aopt;
    aopt.iterations = opt.anneal_iterations;
    aopt.seed = seed;
    const heuristic::AnnealResult ann = heuristic::solve_annealing(p, aopt);
    if (!ann.feasible) {
      rep.add(Severity::kWarning, codes::kXcheckAnnealInfeasible, "anneal",
              "no horizon-feasible state in " + std::to_string(aopt.iterations) +
                  " iterations (seed leg skipped)");
    } else {
      check_deployment(p, ann.solution, "anneal", opt, rep);
      out.anneal_be = deploy::evaluate_energy(p, ann.solution).max_proc();
      if (out.anneal_be < mip.best_bound - opt.tol * (1.0 + std::abs(mip.best_bound))) {
        rep.add(Severity::kError, codes::kXcheckBeBelowOptimal, "anneal",
                "annealing BE " + fmt(out.anneal_be) +
                    " J beats the certified lower bound " + fmt(mip.best_bound) + " J");
      }
    }
  }

  // Certify the run itself: the audit replay checks the tree and re-proves
  // the root certificate and every prune in rational arithmetic.
  CertifyBnbExactOptions eopt;
  eopt.formulation = &f;  // instance-tagged reductions are re-proved per seed
  rep.merge(certify_bnb_exact(f.model(), audit, eopt).report);

  // --- Presolve must be a pure reformulation: re-solve with every presolve
  // pass off and require the two proved-optimal runs to agree. The margin is
  // derived, not tuned: each incumbent must respect the other run's proved
  // lower bound within the claim envelope, and the two objectives must agree
  // within the solver's own declared gap tolerances plus that envelope.
  if (opt.presolve && opt.presolve_equality && mip.status == milp::MipStatus::kOptimal) {
    milp::MipOptions m2 = mopt;
    m2.audit = nullptr;
    m2.presolve = false;
    const milp::MipResult off = solve_deployment(f, m2, &h.solution).mip;
    if (off.status != milp::MipStatus::kOptimal) {
      rep.add(Severity::kWarning, codes::kXcheckMilpNotOptimal, "milp/presolve-off",
              std::string("stopped '") + milp::to_string(off.status) +
                  "' — presolve on/off equality degraded to the bound checks");
    }
    const double env = presolve_margin(
        static_cast<std::size_t>(f.model().num_vars()) + 8, 1.0 + std::abs(mip.obj));
    if (off.has_solution() &&
        off.obj < mip.best_bound - env) {
      rep.add(Severity::kError, codes::kXcheckPresolveDivergence, "milp/presolve-off",
              "raw-model incumbent " + fmt(off.obj) +
                  " J beats the presolved run's proved bound " + fmt(mip.best_bound) +
                  " J — a reduction cut off the optimum");
    }
    if (mip.obj < off.best_bound - env) {
      rep.add(Severity::kError, codes::kXcheckPresolveDivergence, "milp/presolve-on",
              "presolved incumbent " + fmt(mip.obj) +
                  " J beats the raw model's proved bound " + fmt(off.best_bound) + " J");
    }
    if (off.status == milp::MipStatus::kOptimal) {
      const double gap_budget = mopt.abs_gap + mopt.rel_gap * (1.0 + std::abs(mip.obj));
      if (std::abs(mip.obj - off.obj) > 2.0 * gap_budget + env) {
        rep.add(Severity::kError, codes::kXcheckPresolveDivergence, "milp",
                "presolve on/off objectives disagree: " + fmt(mip.obj) + " J vs " +
                    fmt(off.obj) + " J beyond the gap budget " + fmt(gap_budget));
      }
    }
  }
  return out;
}

Report crosscheck_range(std::uint64_t first_seed, int count, const CrosscheckOptions& opt) {
  Report rep;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
    const SeedOutcome out = crosscheck_seed(seed, opt);
    if (opt.verbose) {
      std::printf("[crosscheck] seed %llu: heuristic %.4f J, milp %.4f J (%s, %lld nodes) — %s\n",
                  static_cast<unsigned long long>(seed), out.heuristic_be, out.milp_obj,
                  milp::to_string(out.milp_status), static_cast<long long>(out.milp_nodes),
                  out.report.summary().c_str());
    }
    for (const Diagnostic& d : out.report.diagnostics()) {
      rep.add(d.severity, d.code, "seed" + std::to_string(seed) + "/" + d.subject, d.message);
    }
  }
  return rep;
}

}  // namespace nd::analysis
