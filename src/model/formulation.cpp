#include "model/formulation.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.hpp"
#include "deploy/evaluate.hpp"
#include "heuristic/phases.hpp"

namespace nd::model {

using lp::Row;
using lp::Sense;

namespace {
/// Linear expression of an edge-existence gate: constant part + optional
/// variable terms (h_d or the McCormick pair product).
struct GateExpr {
  double constant = 0.0;
  std::vector<std::pair<int, double>> terms;
};
}  // namespace

Formulation::Formulation(const deploy::DeploymentProblem& problem, FormulationOptions opt)
    : p_(&problem), opt_(opt) {
  build();
}

std::size_t Formulation::pair_index(int i, int j) const {
  ND_ASSERT(i < j, "unordered pair expects i < j");
  // Index into the upper-triangular pair array.
  const auto t = static_cast<std::size_t>(T_);
  const auto iu = static_cast<std::size_t>(i);
  const auto ju = static_cast<std::size_t>(j);
  return iu * t - iu * (iu + 1) / 2 + (ju - iu - 1);
}

int Formulation::g_flow(int j, int beta, int gamma) const {
  const int base = gflow_task_base_[static_cast<std::size_t>(j)];
  ND_ASSERT(base >= 0, "task has no inbound flow variables");
  return gflow_[static_cast<std::size_t>(base + beta * N_ + gamma)];
}

int Formulation::qg_flow(int j, int beta, int gamma) const {
  const int base = gflow_task_base_[static_cast<std::size_t>(j)];
  ND_ASSERT(base >= 0, "task has no inbound flow variables");
  return qgflow_[static_cast<std::size_t>(base + beta * N_ + gamma)];
}

void Formulation::build() {
  M_ = p_->num_tasks();
  T_ = p_->num_total_tasks();
  N_ = p_->num_procs();
  L_ = p_->num_levels();
  E_ = static_cast<int>(p_->dup().edges().size());
  H_ = p_->horizon();

  // Per-(task, level) tables.
  wcec_energy_.resize(static_cast<std::size_t>(T_) * L_);
  wcec_time_.resize(static_cast<std::size_t>(T_) * L_);
  rel_.resize(static_cast<std::size_t>(T_) * L_);
  for (int i = 0; i < T_; ++i) {
    for (int l = 0; l < L_; ++l) {
      const auto idx = static_cast<std::size_t>(i * L_ + l);
      wcec_energy_[idx] = p_->vf().energy(p_->dup().wcec(i), l);
      wcec_time_[idx] = p_->vf().exec_time(p_->dup().wcec(i), l);
      rel_[idx] = p_->fault().task_reliability(p_->dup().wcec(i), l);
    }
  }
  in_bytes_.assign(static_cast<std::size_t>(T_), 0.0);
  byte_scale_ = 1.0;
  for (const auto& e : p_->dup().edges()) {
    in_bytes_[static_cast<std::size_t>(e.to)] += e.bytes;
    byte_scale_ = std::max(byte_scale_, e.bytes);
  }

  add_variables();
  add_assignment_rows();
  add_reliability_rows();
  add_placement_rows();
  add_flow_rows();
  add_schedule_rows();
  add_energy_rows();
}

void Formulation::add_variables() {
  const bool balance = (opt_.objective == Objective::kBalanceEnergy);

  // y(i,l): deadline-infeasible levels are frozen to 0 (eq. (8) presolved).
  y_.resize(static_cast<std::size_t>(T_) * L_);
  for (int i = 0; i < T_; ++i) {
    for (int l = 0; l < L_; ++l) {
      const bool feasible =
          wcec_time_[static_cast<std::size_t>(i * L_ + l)] <= p_->dup().deadline(i) + 1e-12;
      y_[static_cast<std::size_t>(i * L_ + l)] = model_.add_var(
          0.0, feasible ? 1.0 : 0.0, 0.0, true,
          "y_" + std::to_string(i) + "_" + std::to_string(l));
    }
  }
  h_.resize(static_cast<std::size_t>(M_));
  for (int d = M_; d < T_; ++d) {
    h_[static_cast<std::size_t>(d - M_)] = model_.add_bin(0.0, "h_" + std::to_string(d));
  }
  x_.resize(static_cast<std::size_t>(T_) * N_);
  for (int i = 0; i < T_; ++i) {
    for (int k = 0; k < N_; ++k) {
      x_[static_cast<std::size_t>(i * N_ + k)] =
          model_.add_bin(0.0, "x_" + std::to_string(i) + "_" + std::to_string(k));
    }
  }
  // cpath(β,γ): 0 ⇒ energy-oriented path, 1 ⇒ time-oriented path. Constraint
  // (2) "exactly one path" is structural here. Single-path mode freezes 0.
  cpath_.assign(static_cast<std::size_t>(N_) * N_, -1);
  for (int b = 0; b < N_; ++b) {
    for (int g = 0; g < N_; ++g) {
      if (b == g) continue;
      cpath_[static_cast<std::size_t>(b * N_ + g)] = model_.add_var(
          0.0, opt_.multi_path ? 1.0 : 0.0, 0.0, true,
          "c_" + std::to_string(b) + "_" + std::to_string(g));
    }
  }
  ts_.resize(static_cast<std::size_t>(T_));
  te_.resize(static_cast<std::size_t>(T_));
  tc_.assign(static_cast<std::size_t>(T_), -1);
  for (int i = 0; i < T_; ++i) {
    ts_[static_cast<std::size_t>(i)] =
        model_.add_cont(0.0, H_, 0.0, "ts_" + std::to_string(i));
    te_[static_cast<std::size_t>(i)] =
        model_.add_cont(0.0, H_, 0.0, "te_" + std::to_string(i));
    if (!p_->dup().in_edges(i).empty()) {
      tc_[static_cast<std::size_t>(i)] =
          model_.add_cont(0.0, H_, 0.0, "tc_" + std::to_string(i));
    }
  }
  // A(e,β,γ): linearized h·h·x·x placement indicators (continuous; integral
  // at integral (h, x)).
  a_.resize(static_cast<std::size_t>(E_) * N_ * N_);
  for (int e = 0; e < E_; ++e) {
    for (int b = 0; b < N_; ++b) {
      for (int g = 0; g < N_; ++g) {
        a_[static_cast<std::size_t>((e * N_ + b) * N_ + g)] = model_.add_cont(
            0.0, 1.0, 0.0,
            "A_" + std::to_string(e) + "_" + std::to_string(b) + "_" + std::to_string(g));
      }
    }
  }
  // gprod for duplicate↔duplicate edges.
  gprod_.assign(static_cast<std::size_t>(E_), -1);
  for (int e = 0; e < E_; ++e) {
    if (p_->dup().edges()[static_cast<std::size_t>(e)].gates.size() == 2) {
      gprod_[static_cast<std::size_t>(e)] =
          model_.add_cont(0.0, 1.0, 0.0, "gp_" + std::to_string(e));
    }
  }
  // Ordering binaries for unordered independent pairs.
  z_.assign(static_cast<std::size_t>(T_) * (T_ - 1) / 2, -1);
  for (int i = 0; i < T_; ++i) {
    for (int j = i + 1; j < T_; ++j) {
      const int oi = p_->dup().original_of(i);
      const int oj = p_->dup().original_of(j);
      const bool ordered =
          oi != oj && (p_->graph().reaches(oi, oj) || p_->graph().reaches(oj, oi));
      if (!ordered) {
        z_[pair_index(i, j)] =
            model_.add_bin(0.0, "z_" + std::to_string(i) + "_" + std::to_string(j));
      }
    }
  }
  // Inbound flow aggregates per (task, processor pair).
  gflow_task_base_.assign(static_cast<std::size_t>(T_), -1);
  for (int j = 0; j < T_; ++j) {
    if (p_->dup().in_edges(j).empty()) continue;
    gflow_task_base_[static_cast<std::size_t>(j)] = static_cast<int>(gflow_.size());
    const double cap = in_bytes_[static_cast<std::size_t>(j)] / byte_scale_;
    for (int b = 0; b < N_; ++b) {
      for (int g = 0; g < N_; ++g) {
        if (b == g) {
          gflow_.push_back(-1);
          qgflow_.push_back(-1);
          continue;
        }
        double obj_g = 0.0, obj_qg = 0.0;
        if (opt_.objective == Objective::kMinimizeEnergy) {
          const double e0 = byte_scale_ * p_->mesh().total_energy_per_byte(b, g, 0);
          const double e1 = byte_scale_ * p_->mesh().total_energy_per_byte(b, g, 1);
          obj_g = e0;
          obj_qg = e1 - e0;
        }
        gflow_.push_back(model_.add_cont(0.0, cap, obj_g,
                                         "G_" + std::to_string(j) + "_" + std::to_string(b) +
                                             "_" + std::to_string(g)));
        qgflow_.push_back(model_.add_cont(0.0, cap, obj_qg,
                                          "qG_" + std::to_string(j) + "_" + std::to_string(b) +
                                              "_" + std::to_string(g)));
      }
    }
  }
  // Per-processor computation energy (McCormick lower-bounded).
  ec_.resize(static_cast<std::size_t>(T_) * N_);
  for (int i = 0; i < T_; ++i) {
    double emax_i = 0.0;
    for (int l = 0; l < L_; ++l)
      emax_i = std::max(emax_i, wcec_energy_[static_cast<std::size_t>(i * L_ + l)]);
    for (int k = 0; k < N_; ++k) {
      const double obj = (opt_.objective == Objective::kMinimizeEnergy) ? 1.0 : 0.0;
      ec_[static_cast<std::size_t>(i * N_ + k)] = model_.add_cont(
          0.0, emax_i, obj, "EC_" + std::to_string(i) + "_" + std::to_string(k));
    }
  }
  if (balance) {
    // Loose but safe upper bound: every task at max energy + all traffic on
    // the worst path, all on one processor.
    double ub = 0.0;
    for (int i = 0; i < T_; ++i) {
      for (int l = 0; l < L_; ++l)
        ub = std::max(ub, wcec_energy_[static_cast<std::size_t>(i * L_ + l)]);
    }
    ub *= static_cast<double>(T_);
    double total_bytes = 0.0;
    for (const auto& e : p_->dup().edges()) total_bytes += e.bytes;
    double worst_path = 0.0;
    for (int b = 0; b < N_; ++b)
      for (int g = 0; g < N_; ++g)
        for (int rho = 0; rho < noc::Mesh::kNumPaths; ++rho)
          if (b != g)
            worst_path = std::max(worst_path, p_->mesh().total_energy_per_byte(b, g, rho));
    ub += total_bytes * worst_path;
    emax_ = model_.add_cont(0.0, ub, 1.0, "Emax");
  }

  // Branching priorities: structural decisions first (duplication shapes the
  // whole model, then levels, then placement); ordering binaries last — they
  // are usually fixed for free once placement is known.
  for (const int v : h_) model_.set_priority(v, 90);
  for (const int v : y_) model_.set_priority(v, 80);
  for (const int v : x_) model_.set_priority(v, 70);
  for (const int v : cpath_) {
    if (v >= 0) model_.set_priority(v, 50);
  }
  for (const int v : z_) {
    if (v >= 0) model_.set_priority(v, 30);
  }
}

void Formulation::add_assignment_rows() {
  // (3): Σ_l y = 1 for originals, Σ_l y = h for duplicates.
  for (int i = 0; i < T_; ++i) {
    Row row;
    for (int l = 0; l < L_; ++l) row.coef.emplace_back(y(i, l), 1.0);
    if (i < M_) {
      row.sense = Sense::EQ;
      row.rhs = 1.0;
    } else {
      row.coef.emplace_back(h(i), -1.0);
      row.sense = Sense::EQ;
      row.rhs = 0.0;
    }
    model_.add_row(std::move(row));
  }
  // (1): Σ_k x = 1 / = h.
  for (int i = 0; i < T_; ++i) {
    Row row;
    for (int k = 0; k < N_; ++k) row.coef.emplace_back(x(i, k), 1.0);
    if (i < M_) {
      row.sense = Sense::EQ;
      row.rhs = 1.0;
    } else {
      row.coef.emplace_back(h(i), -1.0);
      row.sense = Sense::EQ;
      row.rhs = 0.0;
    }
    model_.add_row(std::move(row));
  }
}

void Formulation::add_reliability_rows() {
  const double r_th = p_->r_th();
  // σ = min_{i,l} |r_il − R_th| over original tasks (Lemma 2.1's margin).
  double sigma = 1.0;
  double rmax = 0.0;
  for (int i = 0; i < M_; ++i) {
    for (int l = 0; l < L_; ++l) {
      const double r = rel_[static_cast<std::size_t>(i * L_ + l)];
      sigma = std::min(sigma, std::abs(r - r_th));
      rmax = std::max(rmax, r);
    }
  }
  sigma = std::max(sigma, 1e-12);
  rmax = std::max(rmax, r_th);
  sigma_ = sigma;
  rmax_ = rmax;

  for (int i = 0; i < M_; ++i) {
    const int d = i + M_;
    // (4a): r_i + R_th·h_d ≥ R_th   (no duplicate ⇒ r_i ≥ R_th)
    Row lo;
    for (int l = 0; l < L_; ++l)
      lo.coef.emplace_back(y(i, l), rel_[static_cast<std::size_t>(i * L_ + l)]);
    lo.coef.emplace_back(h(d), r_th);
    lo.sense = Sense::GE;
    lo.rhs = r_th;
    model_.add_row(std::move(lo));
    // (4b): r_i + rmax·h_d ≤ rmax + R_th − σ   (duplicate ⇒ r_i < R_th)
    Row hi;
    for (int l = 0; l < L_; ++l)
      hi.coef.emplace_back(y(i, l), rel_[static_cast<std::size_t>(i * L_ + l)]);
    hi.coef.emplace_back(h(d), rmax);
    hi.sense = Sense::LE;
    hi.rhs = rmax + r_th - sigma;
    model_.add_row(std::move(hi));
    // (5) as conflict cuts: forbid (l, l') whose combined reliability misses
    // R_th whenever the original level alone already misses it.
    for (int l = 0; l < L_; ++l) {
      for (int ld = 0; ld < L_; ++ld) {
        if (conflict_cut(i, l, ld)) {
          model_.add_row({{y(i, l), 1.0}, {y(d, ld), 1.0}}, Sense::LE, 1.0);
        }
      }
    }
  }
}

double Formulation::wcec_time(int i, int l) const {
  return wcec_time_[static_cast<std::size_t>(i * L_ + l)];
}

double Formulation::wcec_energy(int i, int l) const {
  return wcec_energy_[static_cast<std::size_t>(i * L_ + l)];
}

double Formulation::reliability(int i, int l) const {
  return rel_[static_cast<std::size_t>(i * L_ + l)];
}

bool Formulation::conflict_cut(int i, int l, int ld) const {
  const double r_th = p_->r_th();
  const double r_orig = rel_[static_cast<std::size_t>(i * L_ + l)];
  if (r_orig >= r_th) return false;
  const double r_dup = rel_[static_cast<std::size_t>((i + M_) * L_ + ld)];
  return reliability::FaultModel::duplicated(r_orig, r_dup) < r_th - 1e-15;
}

int Formulation::var_gflow(int j, int beta, int gamma) const {
  const int base = gflow_task_base_[static_cast<std::size_t>(j)];
  if (base < 0) return -1;
  return gflow_[static_cast<std::size_t>(base + beta * N_ + gamma)];
}

int Formulation::var_qgflow(int j, int beta, int gamma) const {
  const int base = gflow_task_base_[static_cast<std::size_t>(j)];
  if (base < 0) return -1;
  return qgflow_[static_cast<std::size_t>(base + beta * N_ + gamma)];
}

void Formulation::add_placement_rows() {
  const auto& edges = p_->dup().edges();
  auto gate_expr = [&](int e) {
    GateExpr g;
    const auto& gates = edges[static_cast<std::size_t>(e)].gates;
    if (gates.empty()) {
      g.constant = 1.0;
    } else if (gates.size() == 1) {
      g.terms.emplace_back(h(gates[0]), 1.0);
    } else {
      g.terms.emplace_back(gprod_[static_cast<std::size_t>(e)], 1.0);
    }
    return g;
  };

  for (int e = 0; e < E_; ++e) {
    const auto& edge = edges[static_cast<std::size_t>(e)];
    // McCormick product for two-gate edges.
    if (edge.gates.size() == 2) {
      const int gp = gprod_[static_cast<std::size_t>(e)];
      const int h1 = h(edge.gates[0]);
      const int h2 = h(edge.gates[1]);
      model_.add_row({{gp, 1.0}, {h1, -1.0}}, Sense::LE, 0.0);
      model_.add_row({{gp, 1.0}, {h2, -1.0}}, Sense::LE, 0.0);
      model_.add_row({{gp, 1.0}, {h1, -1.0}, {h2, -1.0}}, Sense::GE, -1.0);
    }
    const GateExpr g = gate_expr(e);
    // Σ_βγ A = gate.
    {
      Row row;
      for (int b = 0; b < N_; ++b)
        for (int ga = 0; ga < N_; ++ga) row.coef.emplace_back(a_var(e, b, ga), 1.0);
      for (const auto& [v, c] : g.terms) row.coef.emplace_back(v, -c);
      row.sense = Sense::EQ;
      row.rhs = g.constant;
      model_.add_row(std::move(row));
    }
    // Row/column caps and their tightening counterparts.
    for (int b = 0; b < N_; ++b) {
      Row cap;
      for (int ga = 0; ga < N_; ++ga) cap.coef.emplace_back(a_var(e, b, ga), 1.0);
      Row tight = cap;
      cap.coef.emplace_back(x(edge.from, b), -1.0);
      cap.sense = Sense::LE;
      cap.rhs = 0.0;
      model_.add_row(std::move(cap));
      tight.coef.emplace_back(x(edge.from, b), -1.0);
      for (const auto& [v, c] : g.terms) tight.coef.emplace_back(v, -c);
      tight.sense = Sense::GE;
      tight.rhs = g.constant - 1.0;
      model_.add_row(std::move(tight));
    }
    for (int ga = 0; ga < N_; ++ga) {
      Row cap;
      for (int b = 0; b < N_; ++b) cap.coef.emplace_back(a_var(e, b, ga), 1.0);
      Row tight = cap;
      cap.coef.emplace_back(x(edge.to, ga), -1.0);
      cap.sense = Sense::LE;
      cap.rhs = 0.0;
      model_.add_row(std::move(cap));
      tight.coef.emplace_back(x(edge.to, ga), -1.0);
      for (const auto& [v, c] : g.terms) tight.coef.emplace_back(v, -c);
      tight.sense = Sense::GE;
      tight.rhs = g.constant - 1.0;
      model_.add_row(std::move(tight));
    }
  }
}

void Formulation::add_flow_rows() {
  for (int j = 0; j < T_; ++j) {
    if (gflow_task_base_[static_cast<std::size_t>(j)] < 0) continue;
    const double cap = in_bytes_[static_cast<std::size_t>(j)] / byte_scale_;
    for (int b = 0; b < N_; ++b) {
      for (int g = 0; g < N_; ++g) {
        if (b == g) continue;
        const int gv = g_flow(j, b, g);
        const int qv = qg_flow(j, b, g);
        // G = Σ_{e into j} bytes · A(e,β,γ)
        Row def{{{gv, -1.0}}, Sense::EQ, 0.0};
        for (const int ei : p_->dup().in_edges(j)) {
          def.coef.emplace_back(a_var(ei, b, g),
                                p_->dup().edges()[static_cast<std::size_t>(ei)].bytes /
                                    byte_scale_);
        }
        model_.add_row(std::move(def));
        // qG = G · cpath (McCormick, both factors bounded).
        const int c = cpath(b, g);
        model_.add_row({{qv, 1.0}, {gv, -1.0}}, Sense::LE, 0.0);
        model_.add_row({{qv, 1.0}, {c, -cap}}, Sense::LE, 0.0);
        model_.add_row({{qv, 1.0}, {gv, -1.0}, {c, -cap}}, Sense::GE, -cap);
      }
    }
    // t_j^comm = Σ_offdiag (t0·G + Δt·qG)
    Row tc_row{{{tc_[static_cast<std::size_t>(j)], -1.0}}, Sense::EQ, 0.0};
    for (int b = 0; b < N_; ++b) {
      for (int g = 0; g < N_; ++g) {
        if (b == g) continue;
        const double t0 = byte_scale_ * p_->mesh().time_per_byte(b, g, 0);
        const double t1 = byte_scale_ * p_->mesh().time_per_byte(b, g, 1);
        // Sparsity skip — a coefficient that is exactly 0 adds no term.
        if (t0 != 0.0) tc_row.coef.emplace_back(g_flow(j, b, g), t0);  // fp-exact
        if (t1 - t0 != 0.0) tc_row.coef.emplace_back(qg_flow(j, b, g), t1 - t0);  // fp-exact
      }
    }
    model_.add_row(std::move(tc_row));
  }
}

void Formulation::add_schedule_rows() {
  // te = ts + Σ_l (C_i/f_l)·y.
  for (int i = 0; i < T_; ++i) {
    Row row{{{te_[static_cast<std::size_t>(i)], 1.0}, {ts_[static_cast<std::size_t>(i)], -1.0}},
            Sense::EQ,
            0.0};
    for (int l = 0; l < L_; ++l)
      row.coef.emplace_back(y(i, l), -wcec_time_[static_cast<std::size_t>(i * L_ + l)]);
    model_.add_row(std::move(row));
  }
  // Absent duplicates are pinned to ts = 0 (hence te = 0).
  for (int d = M_; d < T_; ++d) {
    model_.add_row({{ts_[static_cast<std::size_t>(d)], 1.0}, {h(d), -H_}}, Sense::LE, 0.0);
  }
  // (6): ts_to ≥ te_from + tc_to − H·(1 − gate) per duplicated-graph edge.
  const auto& edges = p_->dup().edges();
  for (int e = 0; e < E_; ++e) {
    const auto& edge = edges[static_cast<std::size_t>(e)];
    Row row{{{te_[static_cast<std::size_t>(edge.from)], 1.0},
             {ts_[static_cast<std::size_t>(edge.to)], -1.0}},
            Sense::LE,
            0.0};
    const int tcv = tc_[static_cast<std::size_t>(edge.to)];
    ND_ASSERT(tcv >= 0, "edge target must have a comm-time variable");
    row.coef.emplace_back(tcv, 1.0);
    if (edge.gates.empty()) {
      row.rhs = 0.0;
    } else if (edge.gates.size() == 1) {
      row.coef.emplace_back(h(edge.gates[0]), H_);
      row.rhs = H_;
    } else {
      row.coef.emplace_back(gprod_[static_cast<std::size_t>(e)], H_);
      row.rhs = H_;
    }
    model_.add_row(std::move(row));
  }
  // (7): non-overlap for unordered pairs, both orders via one binary z.
  for (int i = 0; i < T_; ++i) {
    for (int j = i + 1; j < T_; ++j) {
      const int zv = z_[pair_index(i, j)];
      if (zv < 0) continue;  // precedence already orders the pair
      for (int k = 0; k < N_; ++k) {
        // te_i ≤ ts_j + (2 − x_ik − x_jk)·H + (1 − z)·H
        model_.add_row({{te_[static_cast<std::size_t>(i)], 1.0},
                        {ts_[static_cast<std::size_t>(j)], -1.0},
                        {x(i, k), H_},
                        {x(j, k), H_},
                        {zv, H_}},
                       Sense::LE, 3.0 * H_);
        // te_j ≤ ts_i + (2 − x_ik − x_jk)·H + z·H
        model_.add_row({{te_[static_cast<std::size_t>(j)], 1.0},
                        {ts_[static_cast<std::size_t>(i)], -1.0},
                        {x(i, k), H_},
                        {x(j, k), H_},
                        {zv, -H_}},
                       Sense::LE, 2.0 * H_);
      }
    }
  }
}

void Formulation::add_energy_rows() {
  // EC_ik ≥ Σ_l E_il·y_il − Emax_i·(1 − x_ik).
  for (int i = 0; i < T_; ++i) {
    double emax_i = 0.0;
    for (int l = 0; l < L_; ++l)
      emax_i = std::max(emax_i, wcec_energy_[static_cast<std::size_t>(i * L_ + l)]);
    for (int k = 0; k < N_; ++k) {
      Row row{{{ec_[static_cast<std::size_t>(i * N_ + k)], 1.0}, {x(i, k), -emax_i}},
              Sense::GE,
              -emax_i};
      for (int l = 0; l < L_; ++l)
        row.coef.emplace_back(y(i, l), -wcec_energy_[static_cast<std::size_t>(i * L_ + l)]);
      model_.add_row(std::move(row));
    }
  }
  // Valid inequality: a task's computation energy is paid in full on the
  // processor hosting it, so Σ_k EC_ik ≥ e_i^comp. Without this the LP can
  // zero every EC via the McCormick slack (1 − x_ik) under fractional x,
  // which leaves the relaxation almost unbounded below.
  for (int i = 0; i < T_; ++i) {
    Row row;
    for (int k = 0; k < N_; ++k) row.coef.emplace_back(ec_[static_cast<std::size_t>(i * N_ + k)], 1.0);
    for (int l = 0; l < L_; ++l)
      row.coef.emplace_back(y(i, l), -wcec_energy_[static_cast<std::size_t>(i * L_ + l)]);
    row.sense = Sense::GE;
    row.rhs = 0.0;
    model_.add_row(std::move(row));
  }
  if (opt_.objective != Objective::kBalanceEnergy) return;
  // Valid inequality for the min-max objective: the host processor of task i
  // carries at least e_i^comp, so Emax ≥ Σ_l E_il·y_il for every task. This
  // couples the level choice to the bound and is the main tree-size lever.
  for (int i = 0; i < T_; ++i) {
    Row row{{{emax_, 1.0}}, Sense::GE, 0.0};
    for (int l = 0; l < L_; ++l)
      row.coef.emplace_back(y(i, l), -wcec_energy_[static_cast<std::size_t>(i * L_ + l)]);
    model_.add_row(std::move(row));
  }
  // BE epigraph: Σ_i EC_ik + comm_k ≤ Emax for every processor k.
  for (int k = 0; k < N_; ++k) {
    Row row{{{emax_, -1.0}}, Sense::LE, 0.0};
    for (int i = 0; i < T_; ++i) row.coef.emplace_back(ec_[static_cast<std::size_t>(i * N_ + k)], 1.0);
    for (int j = 0; j < T_; ++j) {
      if (gflow_task_base_[static_cast<std::size_t>(j)] < 0) continue;
      for (int b = 0; b < N_; ++b) {
        for (int g = 0; g < N_; ++g) {
          if (b == g) continue;
          const double e0 = byte_scale_ * p_->mesh().energy_per_byte(b, g, k, 0);
          const double e1 = byte_scale_ * p_->mesh().energy_per_byte(b, g, k, 1);
          // Sparsity skip — a coefficient that is exactly 0 adds no term.
          if (e0 != 0.0) row.coef.emplace_back(g_flow(j, b, g), e0);  // fp-exact
          if (e1 - e0 != 0.0) row.coef.emplace_back(qg_flow(j, b, g), e1 - e0);  // fp-exact
        }
      }
    }
    model_.add_row(std::move(row));
  }
}

deploy::DeploymentSolution Formulation::decode(const std::vector<double>& point) const {
  ND_REQUIRE(static_cast<int>(point.size()) == model_.num_vars(), "point arity mismatch");
  deploy::DeploymentSolution s = deploy::DeploymentSolution::empty(*p_);
  auto val = [&](int v) { return point[static_cast<std::size_t>(v)]; };

  for (int d = M_; d < T_; ++d)
    s.exists[static_cast<std::size_t>(d)] = val(h(d)) > 0.5 ? 1 : 0;
  for (int i = 0; i < T_; ++i) {
    if (!s.exists[static_cast<std::size_t>(i)]) continue;
    int best_l = 0, best_k = 0;
    for (int l = 1; l < L_; ++l)
      if (val(y(i, l)) > val(y(i, best_l))) best_l = l;
    for (int k = 1; k < N_; ++k)
      if (val(x(i, k)) > val(x(i, best_k))) best_k = k;
    s.level[static_cast<std::size_t>(i)] = best_l;
    s.proc[static_cast<std::size_t>(i)] = best_k;
    s.start[static_cast<std::size_t>(i)] = val(ts_[static_cast<std::size_t>(i)]);
    s.end[static_cast<std::size_t>(i)] = val(te_[static_cast<std::size_t>(i)]);
  }
  for (int b = 0; b < N_; ++b) {
    for (int g = 0; g < N_; ++g) {
      if (b == g) continue;
      const int c = cpath(b, g);
      s.path_choice[static_cast<std::size_t>(b * N_ + g)] = val(c) > 0.5 ? 1 : 0;
    }
  }
  return s;
}

std::vector<double> Formulation::encode(const deploy::DeploymentSolution& s) const {
  std::vector<double> v(static_cast<std::size_t>(model_.num_vars()), 0.0);
  auto set = [&](int var, double value) { v[static_cast<std::size_t>(var)] = value; };
  auto exists = [&](int i) { return s.exists[static_cast<std::size_t>(i)] != 0; };

  for (int d = M_; d < T_; ++d) set(h(d), exists(d) ? 1.0 : 0.0);
  for (int i = 0; i < T_; ++i) {
    if (!exists(i)) continue;
    set(y(i, s.level[static_cast<std::size_t>(i)]), 1.0);
    set(x(i, s.proc[static_cast<std::size_t>(i)]), 1.0);
    set(ts_[static_cast<std::size_t>(i)], s.start[static_cast<std::size_t>(i)]);
    set(te_[static_cast<std::size_t>(i)], s.end[static_cast<std::size_t>(i)]);
  }
  for (int b = 0; b < N_; ++b) {
    for (int g = 0; g < N_; ++g) {
      if (b != g) set(cpath(b, g), s.rho(b, g, N_) >= 1 ? 1.0 : 0.0);
    }
  }
  // Edge placements and gate products.
  const auto& edges = p_->dup().edges();
  for (int e = 0; e < E_; ++e) {
    const auto& edge = edges[static_cast<std::size_t>(e)];
    const bool active = exists(edge.from) && exists(edge.to) &&
                        std::all_of(edge.gates.begin(), edge.gates.end(),
                                    [&](int g) { return exists(g); });
    if (edge.gates.size() == 2) {
      set(gprod_[static_cast<std::size_t>(e)],
          (exists(edge.gates[0]) && exists(edge.gates[1])) ? 1.0 : 0.0);
    }
    if (active) {
      set(a_var(e, s.proc[static_cast<std::size_t>(edge.from)],
                s.proc[static_cast<std::size_t>(edge.to)]),
          1.0);
    }
  }
  // Flow aggregates, comm times.
  for (int j = 0; j < T_; ++j) {
    if (gflow_task_base_[static_cast<std::size_t>(j)] < 0) continue;
    double tc_val = 0.0;
    for (int b = 0; b < N_; ++b) {
      for (int g = 0; g < N_; ++g) {
        if (b == g) continue;
        double flow = 0.0;
        for (const int ei : p_->dup().in_edges(j)) {
          const auto& edge = edges[static_cast<std::size_t>(ei)];
          const bool active = exists(edge.from) && exists(edge.to) &&
                              std::all_of(edge.gates.begin(), edge.gates.end(),
                                          [&](int gg) { return exists(gg); });
          if (active && s.proc[static_cast<std::size_t>(edge.from)] == b &&
              s.proc[static_cast<std::size_t>(edge.to)] == g) {
            flow += edge.bytes / byte_scale_;
          }
        }
        set(g_flow(j, b, g), flow);
        const double q = (s.rho(b, g, N_) >= 1) ? flow : 0.0;
        set(qg_flow(j, b, g), q);
        tc_val += byte_scale_ * (flow * p_->mesh().time_per_byte(b, g, 0) +
                                 q * (p_->mesh().time_per_byte(b, g, 1) -
                                      p_->mesh().time_per_byte(b, g, 0)));
      }
    }
    set(tc_[static_cast<std::size_t>(j)], tc_val);
  }
  // EC and ordering binaries.
  for (int i = 0; i < T_; ++i) {
    if (!exists(i)) continue;
    set(ec_[static_cast<std::size_t>(i * N_ + s.proc[static_cast<std::size_t>(i)])],
        deploy::comp_energy(*p_, s, i));
  }
  for (int i = 0; i < T_; ++i) {
    for (int j = i + 1; j < T_; ++j) {
      const int zv = z_[pair_index(i, j)];
      if (zv < 0) continue;
      // z = 1 means i runs before j; for co-located pairs this must match
      // the schedule, for others any value is row-feasible.
      const bool i_first =
          s.end[static_cast<std::size_t>(i)] <= s.start[static_cast<std::size_t>(j)] + 1e-9;
      set(zv, i_first ? 1.0 : 0.0);
    }
  }
  if (emax_ >= 0) set(emax_, deploy::evaluate_energy(*p_, s).max_proc());
  return v;
}

bool Formulation::complete(const std::vector<double>& lp_point,
                           std::vector<double>* out) const {
  ND_REQUIRE(static_cast<int>(lp_point.size()) == model_.num_vars(), "point arity mismatch");
  constexpr double kIntTol = 1e-6;
  auto integral = [&](int var) {
    const double v = lp_point[static_cast<std::size_t>(var)];
    return std::abs(v - std::round(v)) <= kIntTol;
  };
  for (const int v : h_) {
    if (!integral(v)) return false;
  }
  for (const int v : y_) {
    if (!integral(v)) return false;
  }
  for (const int v : x_) {
    if (!integral(v)) return false;
  }
  for (const int v : cpath_) {
    if (v >= 0 && !integral(v)) return false;
  }
  deploy::DeploymentSolution s = decode(lp_point);
  // Constructive schedule with the real per-path communication times.
  std::vector<double> comm(static_cast<std::size_t>(T_), 0.0);
  for (int i = 0; i < T_; ++i) comm[static_cast<std::size_t>(i)] = deploy::comm_time_into(*p_, s, i);
  const double makespan = heuristic::reschedule(*p_, s, comm);
  if (makespan > H_ + 1e-9) return false;
  *out = encode(s);
  return true;
}

}  // namespace nd::model
