// MILP formulation of the deployment problem P1 (§II-B).
//
// Decision variables (paper → here):
//   y_il   task V/F level          → binary y(i,l); Σ_l y = 1 (originals),
//                                    Σ_l y = h_i (duplicates — folding h·y
//                                    products away)
//   h_i    duplication             → binary h(d) for duplicates only
//   x_ik   allocation              → binary x(i,k); Σ_k x = 1 / = h_i
//   c_βγρ  path selection (P = 2)  → one binary cpath(β,γ); 0 ⇒ ρ=0, 1 ⇒ ρ=1
//   u_ij   execution order         → one binary z per unordered independent
//                                    pair (pairs ordered by precedence or
//                                    gated out by Σ_k x = h need no variable)
//   t_i^s  start times             → continuous ts(i), te(i) ∈ [0, H]
//
// Linearization (replacing the paper's generic Lemma 2.2 cascade with the
// equivalent but tighter assignment-polytope form):
//   * A(e,β,γ) ∈ [0,1]: edge e of the duplicated graph is placed with its
//     source on β and sink on γ — the product h·h·x·x. Rows force
//     A = g_e·x_{from,β}·x_{to,γ} at integral points, where g_e is the
//     edge's existence gate (1, h_d, or the McCormick product gprod of two).
//   * G(j,β,γ) = Σ_{e into j} bytes_e·A(e,β,γ) aggregates inbound flow;
//     qG(j,β,γ) = G·cpath via McCormick gives the path-dependent part, so
//     both communication time (t_j^comm) and per-processor communication
//     energy are linear in (A, G, qG).
//   * EC(i,k) ≥ e_i^comp − Emax_i·(1 − x_ik): per-processor computation
//     energy by lower-bounding McCormick (sufficient under minimization).
//   * Reliability: eq. (4) via Lemma 2.1 on r_i = Σ_l r_il·y_il; eq. (5) as
//     exact per-level-pair conflict cuts y_il + y_{dl'} ≤ 1 for pairs whose
//     combined reliability misses R_th (no products at all).
//
// Objectives: BE = min max_k (E_k^comp + E_k^comm) via an epigraph variable;
// ME = min Σ_k (…) (Fig. 2(d,e) comparison).
#pragma once

#include <vector>

#include "deploy/problem.hpp"
#include "deploy/solution.hpp"
#include "milp/model.hpp"

namespace nd::model {

enum class Objective {
  kBalanceEnergy,   ///< BE: min max_k E_k (the paper's P1)
  kMinimizeEnergy,  ///< ME: min Σ_k E_k (comparison scheme of Fig. 2(d,e))
};

struct FormulationOptions {
  Objective objective = Objective::kBalanceEnergy;
  /// false fixes every pair to path ρ=0 (the single-path baseline of
  /// Fig. 2(a)).
  bool multi_path = true;
};

class Formulation {
 public:
  Formulation(const deploy::DeploymentProblem& problem, FormulationOptions opt = {});

  [[nodiscard]] const milp::Model& model() const { return model_; }
  [[nodiscard]] const FormulationOptions& options() const { return opt_; }
  [[nodiscard]] const deploy::DeploymentProblem& problem() const { return *p_; }

  // --- Instance-table accessors (analysis/presolve) -----------------------
  // The instance presolver and its certifier must reason about EXACTLY the
  // constants this formulation wrote into the model, so the per-(task,level)
  // tables and the reliability-row constants are exposed here instead of
  // being recomputed (and possibly rounded differently) outside.
  [[nodiscard]] int num_tasks() const { return M_; }          ///< M (originals)
  [[nodiscard]] int num_total_tasks() const { return T_; }    ///< 2M
  [[nodiscard]] int num_procs() const { return N_; }
  [[nodiscard]] int num_levels() const { return L_; }
  [[nodiscard]] int num_edges() const { return E_; }          ///< duplicated graph
  [[nodiscard]] double horizon() const { return H_; }
  [[nodiscard]] double wcec_time(int i, int l) const;         ///< C_i / f_l
  [[nodiscard]] double wcec_energy(int i, int l) const;       ///< E_il
  [[nodiscard]] double reliability(int i, int l) const;       ///< r_il
  /// σ of Lemma 2.1: the margin row (4b) is built with (see
  /// add_reliability_rows). Exposed so level-dominance proofs can reason
  /// about the exact constant in the model, not a re-derivation of it.
  [[nodiscard]] double reliability_sigma() const { return sigma_; }
  /// True iff the model contains conflict cut y(i,l) + y(i+M,ld) ≤ 1 —
  /// decided with the same comparison add_reliability_rows used.
  [[nodiscard]] bool conflict_cut(int i, int l, int ld) const;

  // Variable index accessors (-1 where the model has no such variable).
  [[nodiscard]] int var_y(int i, int l) const { return y(i, l); }
  [[nodiscard]] int var_h(int d) const { return h(d); }       ///< d in [M, T)
  [[nodiscard]] int var_x(int i, int k) const { return x(i, k); }
  [[nodiscard]] int var_cpath(int beta, int gamma) const {
    return cpath_[static_cast<std::size_t>(beta * N_ + gamma)];
  }
  /// Ordering binary of unordered pair i < j; -1 when precedence orders it.
  [[nodiscard]] int var_z(int i, int j) const { return z_[pair_index(i, j)]; }
  [[nodiscard]] int var_ts(int i) const { return ts_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int var_te(int i) const { return te_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int var_tc(int i) const { return tc_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int var_ec(int i, int k) const {
    return ec_[static_cast<std::size_t>(i * N_ + k)];
  }
  [[nodiscard]] int var_a(int e, int beta, int gamma) const {
    return a_var(e, beta, gamma);
  }
  [[nodiscard]] int var_gprod(int e) const { return gprod_[static_cast<std::size_t>(e)]; }
  [[nodiscard]] int var_gflow(int j, int beta, int gamma) const;
  [[nodiscard]] int var_qgflow(int j, int beta, int gamma) const;
  [[nodiscard]] int var_emax() const { return emax_; }

  /// Decode an integral MILP point into a deployment.
  [[nodiscard]] deploy::DeploymentSolution decode(const std::vector<double>& point) const;

  /// Encode a deployment (e.g. the heuristic's) as a warm-start point that
  /// satisfies every row of the model.
  [[nodiscard]] std::vector<double> encode(const deploy::DeploymentSolution& s) const;

  /// Completion heuristic for branch-and-bound (MipOptions::completion):
  /// when a node's placement decisions (y, h, x, c) are all integral, the
  /// remaining freedom is pure scheduling, which does not affect the energy
  /// objective — so a constructive list schedule that fits the horizon
  /// solves the node exactly. Returns false when the placement is still
  /// fractional or the schedule misses the horizon.
  [[nodiscard]] bool complete(const std::vector<double>& lp_point,
                              std::vector<double>* out) const;

 private:
  void build();
  void add_variables();
  void add_assignment_rows();
  void add_reliability_rows();
  void add_placement_rows();
  void add_flow_rows();
  void add_schedule_rows();
  void add_energy_rows();

  // Variable index helpers (all return indices into model_).
  [[nodiscard]] int y(int i, int l) const { return y_[static_cast<std::size_t>(i * L_ + l)]; }
  [[nodiscard]] int h(int d) const { return h_[static_cast<std::size_t>(d - M_)]; }
  [[nodiscard]] int x(int i, int k) const { return x_[static_cast<std::size_t>(i * N_ + k)]; }
  [[nodiscard]] int cpath(int beta, int gamma) const {
    return cpath_[static_cast<std::size_t>(beta * N_ + gamma)];
  }
  [[nodiscard]] int a_var(int e, int beta, int gamma) const {
    return a_[static_cast<std::size_t>((e * N_ + beta) * N_ + gamma)];
  }
  [[nodiscard]] int g_flow(int j, int beta, int gamma) const;
  [[nodiscard]] int qg_flow(int j, int beta, int gamma) const;

  const deploy::DeploymentProblem* p_;
  FormulationOptions opt_;
  milp::Model model_;

  int M_ = 0, T_ = 0, N_ = 0, L_ = 0, E_ = 0;
  double H_ = 0.0;

  std::vector<int> y_, h_, x_, cpath_, ts_, te_, a_, ec_;
  std::vector<int> gprod_;            // per edge with 2 gates, else -1
  std::vector<int> z_;                // per unordered pair (i<j), -1 if ordered
  std::vector<int> tc_;               // per task, -1 if no in-edges
  std::vector<int> gflow_, qgflow_;   // per (task-with-preds, off-diag pair), -1 otherwise
  std::vector<int> gflow_task_base_;  // offset per task into gflow_/qgflow_
  int emax_ = -1;

  double sigma_ = 0.0;                // Lemma 2.1 margin σ of row (4b)
  double rmax_ = 0.0;                 // max r_il over originals, ≥ R_th
  double byte_scale_ = 1.0;           // flow unit: max edge payload (numerics)
  std::vector<double> wcec_energy_;   // [i*L + l] = E_il
  std::vector<double> wcec_time_;     // [i*L + l] = C_i/f_l
  std::vector<double> rel_;           // [i*L + l] = r_il
  std::vector<double> in_bytes_;      // total inbound bytes per task

  [[nodiscard]] std::size_t pair_index(int i, int j) const;  // unordered i<j
};

}  // namespace nd::model
