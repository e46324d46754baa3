#include "heuristic/phases.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "deploy/evaluate.hpp"
#include "obs/obs.hpp"

namespace nd::heuristic {

namespace {
constexpr double kTimeTol = 1e-9;

double mean_edge_bytes(const deploy::DeploymentProblem& p) {
  const auto& edges = p.graph().edges();
  if (edges.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& e : edges) sum += e.bytes;
  return sum / static_cast<double>(edges.size());
}

/// Placeholder per-task input communication time used by Algorithm 2:
/// Σ over active in-edges of bytes · (max_t + min_t)/2 (per byte).
std::vector<double> placeholder_comm_times(const deploy::DeploymentProblem& p,
                                           const deploy::DeploymentSolution& s) {
  const double mid_t = 0.5 * (p.mesh().max_time_per_byte() + p.mesh().min_time_per_byte());
  std::vector<double> out(static_cast<std::size_t>(p.num_total_tasks()), 0.0);
  for (int i = 0; i < p.num_total_tasks(); ++i) {
    if (!s.exists[static_cast<std::size_t>(i)]) continue;
    for (const int ei : p.dup().in_edges(i)) {
      const auto& e = p.dup().edges()[static_cast<std::size_t>(ei)];
      if (!s.exists[static_cast<std::size_t>(e.from)]) continue;
      const bool gated = std::any_of(e.gates.begin(), e.gates.end(), [&](int g) {
        return s.exists[static_cast<std::size_t>(g)] == 0;
      });
      if (gated) continue;
      out[static_cast<std::size_t>(i)] += e.bytes * mid_t;
    }
  }
  return out;
}

/// Actual per-task input communication times from the current path choices.
std::vector<double> actual_comm_times(const deploy::DeploymentProblem& p,
                                      const deploy::DeploymentSolution& s) {
  std::vector<double> out(static_cast<std::size_t>(p.num_total_tasks()), 0.0);
  for (int i = 0; i < p.num_total_tasks(); ++i) {
    out[static_cast<std::size_t>(i)] = deploy::comm_time_into(p, s, i);
  }
  return out;
}

void set_fail(std::string* why, const std::string& msg) {
  if (why != nullptr) *why = msg;
}

}  // namespace

bool phase1_frequency_and_duplication(const deploy::DeploymentProblem& p,
                                      deploy::DeploymentSolution& s, std::string* why) {
  const int m = p.num_tasks();
  const int levels = p.num_levels();
  double e_max = 0.0;  // max computation energy among already-assigned tasks

  // Greedy level pick minimizing max(e_max, e_i(l)); `accept` filters levels.
  auto pick_level = [&](int i, auto&& accept) -> int {
    int best = -1;
    double best_cand = std::numeric_limits<double>::infinity();
    double best_energy = std::numeric_limits<double>::infinity();
    for (int l = 0; l < levels; ++l) {
      if (p.vf().exec_time(p.dup().wcec(i), l) > p.dup().deadline(i) + kTimeTol) continue;  // (8)
      if (!accept(l)) continue;
      const double e = p.vf().energy(p.dup().wcec(i), l);
      const double cand = std::max(e_max, e);
      if (cand < best_cand - 1e-15 ||
          (cand <= best_cand + 1e-15 && e < best_energy - 1e-15)) {
        best = l;
        best_cand = cand;
        best_energy = e;
      }
    }
    return best;
  };

  for (int i = 0; i < m; ++i) {
    const int l = pick_level(i, [](int) { return true; });
    if (l < 0) {
      std::ostringstream os;
      os << "task " << i << " has no deadline-feasible V/F level";
      set_fail(why, os.str());
      return false;
    }
    s.level[static_cast<std::size_t>(i)] = l;
    e_max = std::max(e_max, p.vf().energy(p.dup().wcec(i), l));

    // Duplication trigger (4): copy exists iff single-copy reliability falls
    // short of the threshold.
    const double r = p.fault().task_reliability(p.dup().wcec(i), l);
    const int d = i + m;
    if (r >= p.r_th()) {
      s.exists[static_cast<std::size_t>(d)] = 0;
      continue;
    }
    s.exists[static_cast<std::size_t>(d)] = 1;
    ND_OBS_COUNT("heur.phase1.duplications", 1);
    const int ld = pick_level(d, [&](int cand) {
      const double rd = p.fault().task_reliability(p.dup().wcec(d), cand);
      return reliability::FaultModel::duplicated(r, rd) >= p.r_th();  // (5)
    });
    if (ld < 0) {
      std::ostringstream os;
      os << "task " << i << " cannot reach R_th even with duplication";
      set_fail(why, os.str());
      return false;
    }
    s.level[static_cast<std::size_t>(d)] = ld;
    e_max = std::max(e_max, p.vf().energy(p.dup().wcec(d), ld));
  }
  return true;
}

std::vector<int> allocation_order(const deploy::DeploymentProblem& p,
                                  const deploy::DeploymentSolution& s, bool layered_sort) {
  std::vector<int> order;
  for (int i = 0; i < p.num_total_tasks(); ++i) {
    if (s.exists[static_cast<std::size_t>(i)]) order.push_back(i);
  }
  if (layered_sort) {
    const std::vector<int> layer = p.dup().layers();
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      const int la = layer[static_cast<std::size_t>(a)];
      const int lb = layer[static_cast<std::size_t>(b)];
      if (la != lb) return la < lb;
      const auto ca = p.dup().wcec(a);
      const auto cb = p.dup().wcec(b);
      if (ca != cb) return ca > cb;  // descending execution cycles
      return a < b;
    });
  }
  return order;
}

double reschedule(const deploy::DeploymentProblem& p, deploy::DeploymentSolution& s,
                  const std::vector<double>& comm_into_task) {
  ND_REQUIRE(static_cast<int>(comm_into_task.size()) == p.num_total_tasks(),
             "comm_into_task arity mismatch");
  // Layered order is topologically consistent (copies share their original's
  // layer and every edge goes to a strictly deeper layer).
  const std::vector<int> order = allocation_order(p, s, /*layered_sort=*/true);
  std::vector<double> avail(static_cast<std::size_t>(p.num_procs()), 0.0);
  double makespan = 0.0;
  for (const int i : order) {
    const auto iu = static_cast<std::size_t>(i);
    double pred_end = 0.0;
    for (const int ei : p.dup().in_edges(i)) {
      const auto& e = p.dup().edges()[static_cast<std::size_t>(ei)];
      if (!s.exists[static_cast<std::size_t>(e.from)]) continue;
      const bool gated = std::any_of(e.gates.begin(), e.gates.end(), [&](int g) {
        return s.exists[static_cast<std::size_t>(g)] == 0;
      });
      if (gated) continue;
      pred_end = std::max(pred_end, s.end[static_cast<std::size_t>(e.from)]);
    }
    const int k = s.proc[iu];
    ND_REQUIRE(k >= 0 && k < p.num_procs(), "reschedule requires allocated tasks");
    const double start = std::max(pred_end + comm_into_task[iu], avail[static_cast<std::size_t>(k)]);
    s.start[iu] = start;
    s.end[iu] = start + deploy::comp_time(p, s, i);
    avail[static_cast<std::size_t>(k)] = s.end[iu];
    makespan = std::max(makespan, s.end[iu]);
  }
  return makespan;
}

bool phase2_allocation_and_scheduling(const deploy::DeploymentProblem& p,
                                      deploy::DeploymentSolution& s, const Phase2Options& opt,
                                      std::string* why) {
  const int n = p.num_procs();
  const std::vector<int> order = allocation_order(p, s, opt.layered_sort);
  if (order.empty()) {
    set_fail(why, "no tasks to allocate");
    return false;
  }

  // Fixed per-processor communication-energy placeholder (Algorithm 2's
  // E_k^comm average): M2 · mean-bytes · (max+min)/2 per-byte share of k.
  std::vector<double> placeholder(static_cast<std::size_t>(n), 0.0);
  if (opt.comm_placeholder) {
    const double m2 = static_cast<double>(order.size());
    const double bytes = mean_edge_bytes(p);
    for (int k = 0; k < n; ++k) {
      placeholder[static_cast<std::size_t>(k)] = m2 * bytes * p.mesh().avg_energy_share(k);
    }
  }

  std::vector<double> load = placeholder;  // E_k^comm placeholder + E_k^comp
  for (const int i : order) {
    const double e = deploy::comp_energy(p, s, i);
    int best_k = -1;
    double best_cand = std::numeric_limits<double>::infinity();
    for (int k = 0; k < n; ++k) {
      double cand = 0.0;
      for (int k2 = 0; k2 < n; ++k2) {
        const double l =
            load[static_cast<std::size_t>(k2)] + ((k2 == k) ? e : 0.0);
        cand = std::max(cand, l);
      }
      if (cand < best_cand - 1e-15) {
        best_cand = cand;
        best_k = k;
      }
    }
    ND_ASSERT(best_k >= 0, "allocation always finds a processor");
    s.proc[static_cast<std::size_t>(i)] = best_k;
    load[static_cast<std::size_t>(best_k)] += e;
  }

  reschedule(p, s, placeholder_comm_times(p, s));
  return true;
}

bool phase3_path_selection(const deploy::DeploymentProblem& p, deploy::DeploymentSolution& s,
                           std::string* why) {
  const int n = p.num_procs();
  for (int beta = 0; beta < n; ++beta) {
    for (int gamma = 0; gamma < n; ++gamma) {
      if (beta == gamma) continue;
      const auto pair = static_cast<std::size_t>(beta * n + gamma);
      int best_rho = -1;
      double best_cost = std::numeric_limits<double>::infinity();
      int fallback_rho = 0;
      double fallback_makespan = std::numeric_limits<double>::infinity();
      for (int rho = 0; rho < noc::Mesh::kNumPaths; ++rho) {
        s.path_choice[pair] = rho;
        const double makespan = reschedule(p, s, actual_comm_times(p, s));
        if (makespan < fallback_makespan) {
          fallback_makespan = makespan;
          fallback_rho = rho;
        }
        if (makespan > p.horizon() + kTimeTol) continue;  // (9)
        const double cost = deploy::evaluate_energy(p, s).max_proc();
        if (cost < best_cost - 1e-15) {
          best_cost = cost;
          best_rho = rho;
        }
      }
      // The fallback keeps the best-makespan path even though no path met the
      // horizon for this pair in isolation; count it so profiles show how
      // often Algorithm 3 had to repair feasibility this way.
      if (best_rho < 0) ND_OBS_COUNT("heur.phase3.path_fallbacks", 1);
      s.path_choice[pair] = (best_rho >= 0) ? best_rho : fallback_rho;
    }
  }
  const double makespan = reschedule(p, s, actual_comm_times(p, s));
  if (makespan > p.horizon() + kTimeTol) {
    std::ostringstream os;
    os << "makespan " << makespan << " exceeds horizon " << p.horizon();
    set_fail(why, os.str());
    return false;
  }
  return true;
}

HeuristicResult solve_heuristic(const deploy::DeploymentProblem& p, const HeuristicOptions& opt) {
  Stopwatch clock;
  const obs::Span solve_span("heur.solve", /*armed=*/true, /*hist=*/true);
  HeuristicResult res;
  res.solution = deploy::DeploymentSolution::empty(p);
  std::string why;
  bool ok;
  {
    const obs::Span span("heur.phase1", /*armed=*/true, /*hist=*/true);
    ok = phase1_frequency_and_duplication(p, res.solution, &why);
  }
  if (!ok) {
    res.why = "phase1: " + why;
    res.seconds = clock.seconds();
    return res;
  }
  {
    const obs::Span span("heur.phase2", /*armed=*/true, /*hist=*/true);
    ok = phase2_allocation_and_scheduling(p, res.solution, opt.phase2, &why);
  }
  if (!ok) {
    res.why = "phase2: " + why;
    res.seconds = clock.seconds();
    return res;
  }
  {
    const obs::Span span("heur.phase3", /*armed=*/true, /*hist=*/true);
    if (opt.select_paths) {
      ok = phase3_path_selection(p, res.solution, &why);
    } else {
      // Single-path ablation: freeze ρ = 0 everywhere, keep the real schedule.
      std::fill(res.solution.path_choice.begin(), res.solution.path_choice.end(), 0);
      const double makespan = reschedule(p, res.solution, actual_comm_times(p, res.solution));
      ok = makespan <= p.horizon() + kTimeTol;
      if (!ok) why = "fixed-path makespan exceeds horizon";
    }
  }
  if (!ok) {
    res.why = "phase3: " + why;
    res.seconds = clock.seconds();
    return res;
  }
  res.feasible = true;
  res.seconds = clock.seconds();
  return res;
}

}  // namespace nd::heuristic
