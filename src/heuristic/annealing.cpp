#include "heuristic/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/prng.hpp"
#include "common/stopwatch.hpp"
#include "deploy/evaluate.hpp"
#include "heuristic/phases.hpp"
#include "obs/obs.hpp"

namespace nd::heuristic {

namespace {

/// Mutable annealing state: level/proc per task slot, path per pair.
/// Duplication (h) and the schedule are derived, never stored.
struct State {
  std::vector<int> level;  // 2M (duplicate slots meaningful only when derived-on)
  std::vector<int> proc;   // 2M
  std::vector<int> path;   // N*N
};

class Annealer {
 public:
  Annealer(const deploy::DeploymentProblem& p, const AnnealOptions& opt)
      : p_(p), opt_(opt), prng_(opt.seed) {
    const int levels = p_.num_levels();
    // Deadline-feasible level sets per task slot, and for original levels the
    // duplicate-level sets that satisfy the pairwise reliability cut (5).
    feasible_levels_.resize(static_cast<std::size_t>(p_.num_total_tasks()));
    for (int i = 0; i < p_.num_total_tasks(); ++i) {
      for (int l = 0; l < levels; ++l) {
        if (p_.vf().exec_time(p_.dup().wcec(i), l) <= p_.dup().deadline(i) + 1e-12) {
          feasible_levels_[static_cast<std::size_t>(i)].push_back(l);
        }
      }
    }
  }

  AnnealResult run() {
    Stopwatch clock;
    const obs::Span run_span("anneal.run");
    AnnealResult res;

    State s = initial_state();
    double cost = evaluate(s, &res.solution, &res.feasible, &res.objective);
    State best = s;
    double best_cost = cost;

    double temp = std::max(1e-12, opt_.initial_temp_frac * std::abs(cost));
    for (int it = 0; it < opt_.iterations; ++it) {
      State cand = s;
      mutate(cand);
      deploy::DeploymentSolution cand_sol;
      bool cand_feasible = false;
      double cand_obj = 0.0;
      const double cand_cost = evaluate(cand, &cand_sol, &cand_feasible, &cand_obj);
      const double delta = cand_cost - cost;
      if (delta <= 0.0 || prng_.uniform() < std::exp(-delta / temp)) {
        s = std::move(cand);
        cost = cand_cost;
        ++res.accepted_moves;
        if (cost < best_cost) {
          best = s;
          best_cost = cost;
        }
        // Track the best strictly feasible deployment separately.
        if (cand_feasible &&
            (!res.feasible || cand_obj < res.objective - 1e-15)) {
          res.feasible = true;
          res.objective = cand_obj;
          res.solution = std::move(cand_sol);
        }
      }
      temp *= opt_.cooling;
    }
    if (!res.feasible) {
      // Report the least-bad state so callers can inspect it.
      deploy::DeploymentSolution sol;
      bool feas = false;
      double obj = 0.0;
      evaluate(best, &sol, &feas, &obj);
      res.solution = std::move(sol);
      res.objective = obj;
      res.feasible = feas;
    }
    res.seconds = clock.seconds();
    ND_OBS_COUNT("anneal.proposed", opt_.iterations);
    ND_OBS_COUNT("anneal.accepted", res.accepted_moves);
    ND_OBS_COUNT("anneal.repair_failures", repair_failures_);
    return res;
  }

 private:
  State initial_state() {
    State s;
    const auto total = static_cast<std::size_t>(p_.num_total_tasks());
    s.level.assign(total, 0);
    s.proc.assign(total, 0);
    s.path.assign(static_cast<std::size_t>(p_.num_procs()) * p_.num_procs(), 0);
    // Seed from the decomposition heuristic when it succeeds, otherwise from
    // a legal random state.
    const HeuristicResult h = solve_heuristic(p_);
    for (int i = 0; i < p_.num_total_tasks(); ++i) {
      const auto iu = static_cast<std::size_t>(i);
      const auto& fl = feasible_levels_[iu];
      ND_REQUIRE(!fl.empty(), "annealing requires a deadline-feasible level per task");
      if (h.feasible && h.solution.level[iu] >= 0) {
        s.level[iu] = h.solution.level[iu];
      } else {
        s.level[iu] = fl[static_cast<std::size_t>(prng_.uniform_int(
            0, static_cast<std::int64_t>(fl.size()) - 1))];
      }
      s.proc[iu] = (h.feasible && h.solution.proc[iu] >= 0)
                       ? h.solution.proc[iu]
                       : static_cast<int>(prng_.uniform_int(0, p_.num_procs() - 1));
    }
    if (h.feasible) s.path = h.solution.path_choice;
    return s;
  }

  void mutate(State& s) {
    const int kind = static_cast<int>(prng_.uniform_int(0, 3));
    const int total = p_.num_total_tasks();
    switch (kind) {
      case 0: {  // re-level a task slot
        const int i = static_cast<int>(prng_.uniform_int(0, total - 1));
        const auto& fl = feasible_levels_[static_cast<std::size_t>(i)];
        s.level[static_cast<std::size_t>(i)] = fl[static_cast<std::size_t>(
            prng_.uniform_int(0, static_cast<std::int64_t>(fl.size()) - 1))];
        break;
      }
      case 1: {  // move a task to another processor
        const int i = static_cast<int>(prng_.uniform_int(0, total - 1));
        s.proc[static_cast<std::size_t>(i)] =
            static_cast<int>(prng_.uniform_int(0, p_.num_procs() - 1));
        break;
      }
      case 2: {  // flip one pair's path
        const int n = p_.num_procs();
        if (n < 2) break;
        int b = static_cast<int>(prng_.uniform_int(0, n - 1));
        int g = static_cast<int>(prng_.uniform_int(0, n - 2));
        if (g >= b) ++g;
        auto& c = s.path[static_cast<std::size_t>(b * n + g)];
        c = 1 - c;
        break;
      }
      default: {  // swap the processors of two task slots
        const int i = static_cast<int>(prng_.uniform_int(0, total - 1));
        const int j = static_cast<int>(prng_.uniform_int(0, total - 1));
        std::swap(s.proc[static_cast<std::size_t>(i)], s.proc[static_cast<std::size_t>(j)]);
        break;
      }
    }
  }

  /// Build the derived deployment (duplication per eq. (4), schedule via the
  /// list scheduler) and return the penalized cost.
  double evaluate(const State& s, deploy::DeploymentSolution* out, bool* feasible,
                  double* objective) {
    deploy::DeploymentSolution sol = deploy::DeploymentSolution::empty(p_);
    const int m = p_.num_tasks();
    bool rel_ok = true;
    for (int i = 0; i < m; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      sol.level[iu] = s.level[iu];
      sol.proc[iu] = s.proc[iu];
      const double r = p_.fault().task_reliability(p_.dup().wcec(i), s.level[iu]);
      const int d = i + m;
      const auto du = static_cast<std::size_t>(d);
      if (r < p_.r_th()) {
        sol.exists[du] = 1;
        // The duplicate's level must close the reliability gap; deterministic
        // repair: walk up from the state's level until (5) holds.
        int ld = s.level[du];
        const int levels = p_.num_levels();
        while (ld < levels &&
               reliability::FaultModel::duplicated(
                   r, p_.fault().task_reliability(p_.dup().wcec(d), ld)) < p_.r_th()) {
          ++ld;
        }
        if (ld >= levels) {
          ld = levels - 1;  // best effort; penalized as infeasible below
          rel_ok = false;
          ++repair_failures_;
        }
        sol.level[du] = ld;
        sol.proc[du] = s.proc[du];
      }
    }
    sol.path_choice = s.path;
    // Schedule with real communication times.
    std::vector<double> comm(static_cast<std::size_t>(p_.num_total_tasks()), 0.0);
    for (int i = 0; i < p_.num_total_tasks(); ++i) {
      comm[static_cast<std::size_t>(i)] = deploy::comm_time_into(p_, sol, i);
    }
    const double makespan = reschedule(p_, sol, comm);
    const auto rep = deploy::evaluate_energy(p_, sol);
    const double over = std::max(0.0, makespan - p_.horizon()) / p_.horizon();
    *out = std::move(sol);
    // over is max(0, excess)/H — exactly 0 iff the horizon is met.
    *feasible = (over == 0.0) && rel_ok;  // fp-exact
    *objective = rep.max_proc();
    return rep.max_proc() *
           (1.0 + opt_.infeasibility_weight * (over + (rel_ok ? 0.0 : 1.0)));
  }

  const deploy::DeploymentProblem& p_;
  AnnealOptions opt_;
  Prng prng_;
  std::vector<std::vector<int>> feasible_levels_;
  long long repair_failures_ = 0;  ///< duplicate level could not close (5)
};

}  // namespace

AnnealResult solve_annealing(const deploy::DeploymentProblem& p, const AnnealOptions& opt) {
  return Annealer(p, opt).run();
}

}  // namespace nd::heuristic
