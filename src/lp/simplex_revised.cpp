// Revised simplex engine: the implementation behind the Simplex facade.
//
// Instead of maintaining the dense tableau B⁻¹A across pivots (O(m·(n+m))
// per pivot), this engine keeps the constraint matrix in the shared sparse
// CSC storage (lp/sparse.hpp) and the basis LU-factorized with product-form
// eta updates (lp/basis_lu.hpp). Each iteration touches only
//   * one FTRAN  (entering column  w = B⁻¹ a_q),
//   * one BTRAN  (pivot row via ρ = B⁻ᵀ e_r, skipped for bound flips),
//   * a sparse pivot-row scatter over the CSR view for the reduced-cost and
//     devex weight updates.
// Pricing is devex (reference weights reset per primal loop) by default,
// with Dantzig selectable via Options::pricing (branch-and-bound asks for it
// — the tree shape follows the LP vertex), and a Bland anti-cycling
// fallback. Its certificates are what the exact layer re-proves at zero
// tolerance (analysis/exact/certify_lp_exact, certify_bnb_exact).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "lp/basis_lu.hpp"
#include "lp/certificate.hpp"
#include "lp/simplex.hpp"
#include "lp/sparse.hpp"
#include "obs/obs.hpp"

namespace nd::lp {

namespace {
constexpr double kTol = 1e-7;         ///< primal/dual feasibility tolerance
constexpr int kBlandAfter = 400;      ///< consecutive degenerate pivots before Bland
constexpr int kRecheckEvery = 4096;   ///< pivots between numerical residual checks
/// Dual-loop refactorizations in a row, on factors that are already fresh,
/// before the loop refuses the column it keeps failing to pivot on.
constexpr int kFreshRetryCap = 2000;
constexpr double kPivotTol = 1e-9;
constexpr double kDegenStep = 1e-12;

bool past_deadline(const std::chrono::steady_clock::time_point& deadline, int iters) {
  if (deadline.time_since_epoch().count() == 0) return false;
  if (iters % 128 != 1) return false;  // checks on iteration 1, 129, 257, ...
  return std::chrono::steady_clock::now() > deadline;
}
}  // namespace

namespace detail {

class RevisedEngine {
 public:
  RevisedEngine(const Problem& p, Simplex::Options opt);

  SolveStatus solve();
  SolveStatus dual_resolve();
  void set_bound(int j, double lo, double hi);
  void set_deadline(std::chrono::steady_clock::time_point t) { deadline_ = t; }

  [[nodiscard]] double bound_lo(int j) const { return lo_[static_cast<std::size_t>(j)]; }
  [[nodiscard]] double bound_hi(int j) const { return hi_[static_cast<std::size_t>(j)]; }
  [[nodiscard]] double objective() const;
  [[nodiscard]] std::vector<double> solution() const;
  [[nodiscard]] double value(int j) const {
    ensure_values();
    return xval_[static_cast<std::size_t>(j)];
  }
  [[nodiscard]] double reduced_cost(int j) const { return d_[static_cast<std::size_t>(j)]; }
  [[nodiscard]] VarStatus var_status(int j) const { return stat_[static_cast<std::size_t>(j)]; }
  [[nodiscard]] int iterations() const { return total_iters_; }
  [[nodiscard]] const Simplex::Counters& counters() const { return counters_; }
  [[nodiscard]] long long memory_bytes() const {
    return a_.bytes() + at_.bytes() + lu_.bytes();
  }
  [[nodiscard]] SolveStatus last_status() const { return last_status_; }
  [[nodiscard]] std::vector<double> proof_vector() const;
  [[nodiscard]] Certificate extract_certificate() const;

 private:
  // Column layout: [0, n) structural, [n, n+m) slack, [n+m, n+2m) artificial.
  [[nodiscard]] int slack_col(int r) const { return n_ + r; }
  [[nodiscard]] int art_col(int r) const { return n_ + m_ + r; }

  void build_initial_basis();
  /// d_j = cost_j − yᵀa_j over the working columns, y = B⁻ᵀ c_B (one BTRAN).
  void compute_reduced_costs();
  /// Fresh LU of the current basis; bumps the refactorization counters.
  /// False when the basis has gone numerically singular.
  [[nodiscard]] bool refactorize();
  /// lu.factorize(a_, basis_, pivot_floor), its wall time added to
  /// counters_.factorize_ns. Every factorization of the engine goes through
  /// here.
  [[nodiscard]] bool timed_factorize(BasisLu& lu, double pivot_floor = 0.0);
  /// lu_.ftran(x) / lu_.btran(x), counted in counters_.ftrans / btrans and
  /// their wall time added to counters_.ftran_ns / btran_ns. Every FTRAN and
  /// BTRAN of the engine goes through here.
  void timed_ftran(std::vector<double>& x) const;
  void timed_btran(std::vector<double>& x) const;
  /// x_B = B⁻¹(b − N x_N): one FTRAN over the nonbasic offsets.
  void recompute_basic_values() const;
  /// Lazily repair basic values invalidated by set_bound().
  void ensure_values() const;

  /// ρ = B⁻ᵀ e_r (row-indexed) scattered through the CSR view into the
  /// pivot row α over the working columns. Artificial columns are skipped by
  /// index, which also makes the CSR view's stale artificial signs harmless.
  void compute_pivot_row(int r, std::vector<double>* rho, std::vector<double>* alpha);

  SolveStatus primal_loop();
  SolveStatus dual_loop();
  /// One cold solve attempt (phase 1 + phase 2) from the slack/artificial
  /// basis. solve() wraps it with the Bland-restart fallback.
  SolveStatus solve_impl();

  enum class PivotOutcome {
    kOk,        ///< exchange committed
    kRejected,  ///< exchanged basis near-singular with FRESH factors; rolled
                ///< back intact — caller bans q for this pricing round
    kRetry,     ///< exchange refused under a non-empty eta file; the old
                ///< basis was refactorized in place and values resynced —
                ///< caller must reprice (no ban: the refusal may have been
                ///< eta-chain noise, and the clean factors now decide)
    kFail,      ///< factors unrecoverable — caller must abandon the loop
  };
  /// Basis exchange at position r: entering q, leaver to `leave_target`.
  /// w = B⁻¹a_q (basis-position-indexed), alpha = pivot row over working
  /// columns. Factorization-first and transactional: on kRejected/kRetry the
  /// basis is unchanged; on kOk values, reduced costs, devex weights,
  /// statuses and the factors (eta update or refactorization) are all
  /// committed.
  [[nodiscard]] PivotOutcome pivot(int r, int q, double leave_target,
                                   const std::vector<double>& w,
                                   const std::vector<double>& alpha);

  /// Max relative row residual of the current full solution vector.
  [[nodiscard]] double residual() const;

  [[nodiscard]] bool is_nonbasic_eligible_primal(int j, double* dir) const;

#if ND_INVARIANTS_ENABLED
  [[nodiscard]] double phase_objective() const;
  void check_basis_consistency() const;
#endif

  Simplex::Options opt_;
  std::chrono::steady_clock::time_point deadline_{};  ///< zero: no deadline
  int n_ = 0;   // structural vars
  int m_ = 0;   // rows
  int nt_ = 0;  // total columns = n + 2m
  int nw_ = 0;  // working columns = n + m

  SparseMatrix a_;   // m x nt working matrix; artificial signs rewritten per solve
  SparseMatrix at_;  // CSR view (transpose) for pivot-row scatters; its
                     // artificial entries are stale after sign rewrites and
                     // are never read (compute_pivot_row skips cols >= nw_)
  std::vector<double> rhs_;
  std::vector<double> lo_, hi_;
  std::vector<double> cost_;       // current phase costs (size nt)
  std::vector<double> real_cost_;  // phase-2 costs
  std::vector<double> d_;          // reduced costs over working columns
  std::vector<double> devex_;      // devex reference weights over working columns
  mutable std::vector<double> xval_;  // values of ALL columns (lazy for basics)
  std::vector<int> basis_;            // basic column of each row position
  std::vector<VarStatus> stat_;
  BasisLu lu_;
  bool phase1_ = true;
  bool basis_valid_ = false;
  mutable bool values_dirty_ = false;
  int degen_run_ = 0;
  int total_iters_ = 0;
  mutable Simplex::Counters counters_;
  SolveStatus last_status_ = SolveStatus::kIterLimit;
  int infeas_row_ = -1;  ///< dual-simplex breakdown row (-1: phase-1 proof)
  bool infeas_need_increase_ = false;
  bool stalled_ = false;  ///< last dual_loop exit was a dual-degenerate stall
  bool numerical_stuck_ = false;  ///< last primal_loop exit: only banned columns left
  bool force_bland_ = false;      ///< Bland pricing from iteration 1 (restart fallback)
#if ND_INVARIANTS_ENABLED
  int bland_run_ = 0;
#endif
};

#if ND_INVARIANTS_ENABLED
double RevisedEngine::phase_objective() const {
  double v = 0.0;
  for (int c = 0; c < nt_; ++c) {
    v += cost_[static_cast<std::size_t>(c)] * xval_[static_cast<std::size_t>(c)];
  }
  return v;
}

void RevisedEngine::check_basis_consistency() const {
  std::vector<char> in_basis(static_cast<std::size_t>(nt_), 0);
  for (int r = 0; r < m_; ++r) {
    const int b = basis_[static_cast<std::size_t>(r)];
    ND_INVARIANT(b >= 0 && b < nt_, "basis column out of range");
    ND_INVARIANT(in_basis[static_cast<std::size_t>(b)] == 0,
                 "column appears in the basis twice");
    in_basis[static_cast<std::size_t>(b)] = 1;
    ND_INVARIANT(stat_[static_cast<std::size_t>(b)] == VarStatus::kBasic,
                 "basic column not marked kBasic");
  }
  for (int c = 0; c < nt_; ++c) {
    if (stat_[static_cast<std::size_t>(c)] == VarStatus::kBasic) {
      ND_INVARIANT(in_basis[static_cast<std::size_t>(c)] == 1,
                   "kBasic column missing from the basis");
    }
  }
}
#endif

RevisedEngine::RevisedEngine(const Problem& p, Simplex::Options opt) : opt_(opt) {
  n_ = p.num_vars();
  m_ = p.num_rows();
  nt_ = n_ + 2 * m_;
  nw_ = n_ + m_;
  ND_REQUIRE(n_ > 0, "LP needs at least one variable");

  a_ = SparseMatrix::from_problem_with_logicals(p);
  at_ = a_.transpose();
  rhs_.assign(static_cast<std::size_t>(m_), 0.0);
  lo_.assign(static_cast<std::size_t>(nt_), 0.0);
  hi_.assign(static_cast<std::size_t>(nt_), 0.0);
  real_cost_.assign(static_cast<std::size_t>(nt_), 0.0);

  for (int j = 0; j < n_; ++j) {
    lo_[static_cast<std::size_t>(j)] = p.lo(j);
    hi_[static_cast<std::size_t>(j)] = p.hi(j);
    real_cost_[static_cast<std::size_t>(j)] = p.obj(j);
  }
  for (int r = 0; r < m_; ++r) {
    const Row& row = p.row(r);
    rhs_[static_cast<std::size_t>(r)] = row.rhs;
    const auto sc = static_cast<std::size_t>(slack_col(r));
    switch (row.sense) {
      case Sense::LE: lo_[sc] = 0.0; hi_[sc] = kInf; break;
      case Sense::GE: lo_[sc] = -kInf; hi_[sc] = 0.0; break;
      case Sense::EQ: lo_[sc] = 0.0; hi_[sc] = 0.0; break;
    }
    // Artificial column sign is decided in build_initial_basis().
    const auto ac = static_cast<std::size_t>(art_col(r));
    lo_[ac] = 0.0;
    hi_[ac] = 0.0;  // opened to [0,inf) only when the row needs phase 1
  }
}

void RevisedEngine::build_initial_basis() {
  xval_.assign(static_cast<std::size_t>(nt_), 0.0);
  basis_.assign(static_cast<std::size_t>(m_), -1);
  stat_.assign(static_cast<std::size_t>(nt_), VarStatus::kAtLower);
  cost_.assign(static_cast<std::size_t>(nt_), 0.0);
  values_dirty_ = false;

  // Nonbasic structural variables sit at a finite bound (lower preferred).
  for (int j = 0; j < n_; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (std::isfinite(lo_[ju])) {
      stat_[ju] = VarStatus::kAtLower;
      xval_[ju] = lo_[ju];
    } else {
      stat_[ju] = VarStatus::kAtUpper;
      xval_[ju] = hi_[ju];
    }
  }

  // Row residuals of the structural point: resid = b − A_struct x.
  std::vector<double> resid = rhs_;
  for (int j = 0; j < n_; ++j) {
    const double xj = xval_[static_cast<std::size_t>(j)];
    if (xj == 0.0) continue;  // fp-exact: zero value contributes nothing
    a_.scatter_col(j, -xj, resid);
  }

  bool need_phase1 = false;
  for (int r = 0; r < m_; ++r) {
    const double res = resid[static_cast<std::size_t>(r)];
    const int sc = slack_col(r);
    const int ac = art_col(r);
    const auto scu = static_cast<std::size_t>(sc);
    const auto acu = static_cast<std::size_t>(ac);
    if (res >= lo_[scu] - kTol && res <= hi_[scu] + kTol) {
      // Slack absorbs the residual: row starts feasible.
      basis_[static_cast<std::size_t>(r)] = sc;
      stat_[scu] = VarStatus::kBasic;
      xval_[scu] = res;
      stat_[acu] = VarStatus::kAtLower;
      hi_[acu] = 0.0;  // re-close: a previous (aborted) solve may have opened it
      a_.set_single_entry_col(ac, 1.0);
    } else {
      // Park the slack at its nearest finite bound; an artificial carries
      // the remaining residual and joins the phase-1 objective. The column
      // sign makes the artificial's VALUE nonnegative (coef · |q| = q), so
      // the phase-1 objective min Σ x_art is bounded below by zero.
      double sb;
      if (!std::isfinite(lo_[scu])) {
        sb = hi_[scu];
      } else if (!std::isfinite(hi_[scu])) {
        sb = lo_[scu];
      } else {
        sb = (std::abs(res - lo_[scu]) <= std::abs(res - hi_[scu])) ? lo_[scu] : hi_[scu];
      }
      stat_[scu] = (sb == lo_[scu]) ? VarStatus::kAtLower : VarStatus::kAtUpper;
      xval_[scu] = sb;
      const double q = res - sb;
      const double coef = (q >= 0.0) ? 1.0 : -1.0;
      a_.set_single_entry_col(ac, coef);
      hi_[acu] = kInf;
      basis_[static_cast<std::size_t>(r)] = ac;
      stat_[acu] = VarStatus::kBasic;
      xval_[acu] = std::abs(q);
      cost_[acu] = 1.0;
      need_phase1 = true;
    }
  }
  phase1_ = need_phase1;
  degen_run_ = 0;

  // The initial basis is one ±1 column per row — never singular.
  const bool ok = timed_factorize(lu_, kPivotTol);
  ND_ASSERT(ok, "initial slack/artificial basis must factorize");
  counters_.refactor_fill += lu_.last_fill();
  basis_valid_ = true;
}

void RevisedEngine::compute_reduced_costs() {
  std::vector<double> y(static_cast<std::size_t>(m_));
  for (int r = 0; r < m_; ++r) {
    y[static_cast<std::size_t>(r)] = cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
  }
  timed_btran(y);
  d_.resize(static_cast<std::size_t>(nw_));
  for (int j = 0; j < nw_; ++j) {
    d_[static_cast<std::size_t>(j)] = cost_[static_cast<std::size_t>(j)] - a_.col_dot(j, y);
  }
  for (int r = 0; r < m_; ++r) {
    const int b = basis_[static_cast<std::size_t>(r)];
    if (b < nw_) d_[static_cast<std::size_t>(b)] = 0.0;
  }
}

bool RevisedEngine::timed_factorize(BasisLu& lu, double pivot_floor) {
  const std::int64_t t0 = obs::now_ns();
  const bool ok = lu.factorize(a_, basis_, pivot_floor);
  counters_.factorize_ns += obs::now_ns() - t0;
  return ok;
}

void RevisedEngine::timed_ftran(std::vector<double>& x) const {
  const std::int64_t t0 = obs::now_ns();
  lu_.ftran(x);
  counters_.ftran_ns += obs::now_ns() - t0;
  ++counters_.ftrans;
}

void RevisedEngine::timed_btran(std::vector<double>& x) const {
  const std::int64_t t0 = obs::now_ns();
  lu_.btran(x);
  counters_.btran_ns += obs::now_ns() - t0;
  ++counters_.btrans;
}

bool RevisedEngine::refactorize() {
  // Transactional: factorize into a scratch object so a refusal (numerically
  // singular standing basis) leaves the live factors — possibly an eta chain
  // the caller is still standing on — intact for the fallback path.
  BasisLu clean;
  if (!timed_factorize(clean, kPivotTol)) return false;
  lu_ = std::move(clean);
  ++counters_.refactorizations;
  counters_.refactor_fill += lu_.last_fill();
  return true;
}

void RevisedEngine::recompute_basic_values() const {
  std::vector<double> v = rhs_;
  for (int j = 0; j < nt_; ++j) {
    if (stat_[static_cast<std::size_t>(j)] == VarStatus::kBasic) continue;
    const double xj = xval_[static_cast<std::size_t>(j)];
    if (xj == 0.0) continue;  // fp-exact: zero value contributes nothing
    a_.scatter_col(j, -xj, v);
  }
  timed_ftran(v);
  for (int r = 0; r < m_; ++r) {
    xval_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])] =
        v[static_cast<std::size_t>(r)];
  }
}

void RevisedEngine::ensure_values() const {
  if (!values_dirty_) return;
  if (basis_valid_ && lu_.factorized()) recompute_basic_values();
  values_dirty_ = false;
}

double RevisedEngine::residual() const {
  std::vector<double> acc(static_cast<std::size_t>(m_));
  std::vector<double> scale(static_cast<std::size_t>(m_));
  for (int r = 0; r < m_; ++r) {
    acc[static_cast<std::size_t>(r)] = -rhs_[static_cast<std::size_t>(r)];
    scale[static_cast<std::size_t>(r)] = std::abs(rhs_[static_cast<std::size_t>(r)]);
  }
  for (int j = 0; j < nt_; ++j) {
    const double xj = xval_[static_cast<std::size_t>(j)];
    if (xj == 0.0) continue;  // fp-exact: zero value contributes nothing
    const SparseMatrix::ColView c = a_.col(j);
    for (int k = 0; k < c.len; ++k) {
      const double t = c.val[k] * xj;
      const auto ru = static_cast<std::size_t>(c.idx[k]);
      acc[ru] += t;
      scale[ru] = std::max(scale[ru], std::abs(t));
    }
  }
  double worst = 0.0;
  for (int r = 0; r < m_; ++r) {
    worst = std::max(worst, std::abs(acc[static_cast<std::size_t>(r)]) /
                                std::max(1.0, scale[static_cast<std::size_t>(r)]));
  }
  return worst;
}

void RevisedEngine::compute_pivot_row(int r, std::vector<double>* rho,
                                      std::vector<double>* alpha) {
  rho->assign(static_cast<std::size_t>(m_), 0.0);
  (*rho)[static_cast<std::size_t>(r)] = 1.0;
  timed_btran(*rho);
  alpha->assign(static_cast<std::size_t>(nw_), 0.0);
  for (int i = 0; i < m_; ++i) {
    const double ri = (*rho)[static_cast<std::size_t>(i)];
    if (ri == 0.0) continue;  // fp-exact: zero dual component scatters nothing
    const SparseMatrix::ColView row = at_.col(i);  // row i of A
    for (int k = 0; k < row.len; ++k) {
      const int c = row.idx[k];
      if (c >= nw_) continue;  // artificial tail: never priced, possibly stale
      (*alpha)[static_cast<std::size_t>(c)] += row.val[k] * ri;
    }
  }
}

RevisedEngine::PivotOutcome RevisedEngine::pivot(int r, int q, double leave_target,
                                                 const std::vector<double>& w,
                                                 const std::vector<double>& alpha) {
  const int leave = basis_[static_cast<std::size_t>(r)];
  const double aq = w[static_cast<std::size_t>(r)];
  ND_ASSERT(std::abs(aq) > kPivotTol, "pivot element too small");

  // Factorization first, so a numerically doomed exchange can be refused
  // WITHOUT corrupting the engine state. The eta update refuses pivots that
  // are negligible against ‖w‖∞ (|w[r]| can clear the ratio-test floor and
  // still be garbage); a fresh LU of the exchanged basis then goes into a
  // SCRATCH object so the live factors survive a singular exchange — on
  // kRejected nothing was touched and the caller re-prices around q.
  const bool chain_ok = lu_.update(w, r);
  if (chain_ok) ++counters_.eta_updates;
  basis_[static_cast<std::size_t>(r)] = q;
  bool resync = false;
  if (!chain_ok || lu_.needs_refactor()) {
    BasisLu fresh;
    // Hysteresis: the exchange was already CHOSEN by the ratio test (pivot
    // above kPivotTol in the FTRAN image), so the fresh LU only has to be
    // usable, not comfortable — the envelope-margin floor rejects true
    // singularity and nothing else. The strict kPivotTol floor stays on the
    // STANDING-basis refactorizations, where failure has a cheap cold-solve
    // fallback instead of a pricing dead end.
    if (timed_factorize(fresh)) {
      lu_ = std::move(fresh);
      ++counters_.refactorizations;
      counters_.refactor_fill += lu_.last_fill();
      // The eta refused w as untrustworthy, so the incremental value and
      // reduced-cost updates below ride suspect data: recompute both from
      // the fresh factors once the exchange is committed.
      resync = !chain_ok;
    } else if (!chain_ok) {
      basis_[static_cast<std::size_t>(r)] = leave;
      if (lu_.eta_count() > 0) {
        // The verdict "exchanged basis is singular" was reached through an
        // eta chain, whose accumulated amplification (up to eta-count many
        // 2^-33 terms) can push a TRUE-ZERO FTRAN component past the pivot
        // floor and make a dependent column look enterable. Rebuild the OLD
        // basis from scratch and let the caller reprice against noise-free
        // numbers instead of banning a possibly innocent column. The old
        // basis WAS the live basis, so like the fresh-exchange LU above it
        // gets the envelope-only floor: a marginal-but-real pivot must not
        // strand the engine on the noisy chain.
        BasisLu old;
        if (timed_factorize(old)) {
          lu_ = std::move(old);
          ++counters_.refactorizations;
          counters_.refactor_fill += lu_.last_fill();
          recompute_basic_values();
          compute_reduced_costs();
          return PivotOutcome::kRetry;
        }
      }
      return PivotOutcome::kRejected;
    }
    // chain_ok but over budget and the exchanged basis won't factorize
    // fresh: keep riding the (valid) eta chain; the refactorization stays
    // deferred until a later exchange yields a factorizable basis.
  }

  // Value updates along the entering direction. Row r is skipped: its basic
  // slot already names q, and the leaver lands exactly on its target bound.
  const double s = (xval_[static_cast<std::size_t>(leave)] - leave_target) / aq;
  for (int rr = 0; rr < m_; ++rr) {
    if (rr == r) continue;
    const int b = basis_[static_cast<std::size_t>(rr)];
    xval_[static_cast<std::size_t>(b)] -= w[static_cast<std::size_t>(rr)] * s;
  }
  xval_[static_cast<std::size_t>(q)] += s;
  xval_[static_cast<std::size_t>(leave)] = leave_target;

  // Reduced costs and devex weights from the pivot row. For a basic column
  // c != leave, alpha[c] = (B⁻¹a_c)_r = 0 exactly in exact arithmetic, so
  // basic reduced costs stay pinned at 0.
  const double dq = d_[static_cast<std::size_t>(q)];
  const double gq = devex_[static_cast<std::size_t>(q)];
  for (int c = 0; c < nw_; ++c) {
    const auto cu = static_cast<std::size_t>(c);
    const double ac = alpha[cu];
    if (ac == 0.0) continue;  // fp-exact: zero pivot-row entry updates nothing
    const double ratio = ac / aq;
    if (dq != 0.0) d_[cu] -= dq * ratio;  // fp-exact: zero d_q needs no update
    devex_[cu] = std::max(devex_[cu], ratio * ratio * gq);
  }
  d_[static_cast<std::size_t>(q)] = 0.0;
  if (leave < nw_) {
    devex_[static_cast<std::size_t>(leave)] = std::max(gq / (aq * aq), 1.0);
  }

  stat_[static_cast<std::size_t>(q)] = VarStatus::kBasic;
  stat_[static_cast<std::size_t>(leave)] =
      (leave_target == lo_[static_cast<std::size_t>(leave)]) ? VarStatus::kAtLower
                                                             : VarStatus::kAtUpper;
  if (leave >= nw_) {
    // An artificial that leaves the basis is discarded for good (standard
    // two-phase practice); this keeps it out of pricing forever.
    hi_[static_cast<std::size_t>(leave)] = 0.0;
    xval_[static_cast<std::size_t>(leave)] = 0.0;
  }
  if (std::abs(s) <= kDegenStep) {
    ++degen_run_;
  } else {
    degen_run_ = 0;
  }
  ++total_iters_;
  ++counters_.pivots;
  if (resync) {
    recompute_basic_values();
    compute_reduced_costs();
  }
  return PivotOutcome::kOk;
}

bool RevisedEngine::is_nonbasic_eligible_primal(int j, double* dir) const {
  const auto ju = static_cast<std::size_t>(j);
  if (stat_[ju] == VarStatus::kBasic) return false;
  if (hi_[ju] - lo_[ju] <= 0.0) return false;  // fixed
  if (stat_[ju] == VarStatus::kAtLower && d_[ju] < -kTol) {
    *dir = 1.0;
    return true;
  }
  if (stat_[ju] == VarStatus::kAtUpper && d_[ju] > kTol) {
    *dir = -1.0;
    return true;
  }
  return false;
}

SolveStatus RevisedEngine::primal_loop() {
  int iters = 0;
  const int bland_after_iters = std::max(500, 4 * m_);
  devex_.assign(static_cast<std::size_t>(nw_), 1.0);
  std::vector<double> w;
  std::vector<double> rho;
  std::vector<double> alpha;
  // Columns whose exchange was refused as numerically singular; cleared on
  // every committed pivot (a changed basis voids the verdict).
  std::vector<char> banned(static_cast<std::size_t>(nw_), 0);
#if ND_INVARIANTS_ENABLED
  // Phase objective monotonicity: in the primal simplex the current-phase
  // objective never increases (degenerate steps leave it unchanged). Large
  // violations indicate a pricing/ratio-test bug rather than drift.
  double last_obj = phase_objective();
  bland_run_ = 0;
#endif
  bool was_bland = false;
  numerical_stuck_ = false;
  while (iters++ < opt_.max_iters) {
    if (past_deadline(deadline_, iters)) {
      return SolveStatus::kIterLimit;
    }
    const bool bland =
        force_bland_ || degen_run_ > kBlandAfter || iters > bland_after_iters;
    if (bland && !was_bland) {
      ++counters_.bland_activations;
      was_bland = true;
    }
    // Pricing: devex (largest d_j²/γ_j), Dantzig (largest |d_j|, first index
    // on ties), or Bland mode (first eligible index).
    const bool devex = opt_.pricing == Pricing::kDevex;
    int q = -1;
    double dirq = 0.0;
    double best = 0.0;
    bool skipped_banned = false;
    for (int j = 0; j < nw_; ++j) {
      double dir;
      if (!is_nonbasic_eligible_primal(j, &dir)) continue;
      if (banned[static_cast<std::size_t>(j)] != 0) {
        skipped_banned = true;
        continue;
      }
      if (bland) {
        q = j;
        dirq = dir;
        break;
      }
      const double dj = d_[static_cast<std::size_t>(j)];
      const double score = devex ? dj * dj / devex_[static_cast<std::size_t>(j)]
                                 : std::abs(dj);
      if (score > best) {
        best = score;
        q = j;
        dirq = dir;
      }
    }
    // Only banned columns remain attractive: optimality cannot be claimed,
    // and no stable exchange exists — numerical failure, not an optimum.
    if (q < 0) {
      if (!skipped_banned) return SolveStatus::kOptimal;
      numerical_stuck_ = true;
      return SolveStatus::kIterLimit;
    }

    // Entering column: w = B⁻¹ a_q (the one FTRAN of the iteration).
    w.assign(static_cast<std::size_t>(m_), 0.0);
    a_.scatter_col(q, 1.0, w);
    timed_ftran(w);

    // Ratio test on w: minimum limit, with near-ties (1e-12 window) broken
    // by the largest pivot magnitude. Stability for the factorization side
    // is owned downstream: unstable exchanges are rejected by the eta floor
    // and repriced via the ban list.
    const auto qu = static_cast<std::size_t>(q);
    double tmax = hi_[qu] - lo_[qu];  // bound-flip distance (may be inf)
    int leave_row = -1;
    double leave_target = 0.0;
    double best_alpha = 0.0;
    for (int r = 0; r < m_; ++r) {
      const double a = w[static_cast<std::size_t>(r)] * dirq;
      if (std::abs(a) <= kPivotTol) continue;
      const int i = basis_[static_cast<std::size_t>(r)];
      const auto iu = static_cast<std::size_t>(i);
      double limit;
      double target;
      if (a > 0.0) {  // basic decreases
        if (!std::isfinite(lo_[iu])) continue;
        limit = (xval_[iu] - lo_[iu]) / a;
        target = lo_[iu];
      } else {  // basic increases
        if (!std::isfinite(hi_[iu])) continue;
        limit = (hi_[iu] - xval_[iu]) / (-a);
        target = hi_[iu];
      }
      limit = std::max(limit, 0.0);
      const bool better =
          (leave_row < 0 && limit < tmax) ||
          (leave_row >= 0 &&
           (limit < tmax - 1e-12 || (limit <= tmax + 1e-12 && std::abs(a) > best_alpha)));
      if (better) {
        tmax = std::min(tmax, limit);
        leave_row = r;
        leave_target = target;
        best_alpha = std::abs(a);
      }
    }

    if (!std::isfinite(tmax)) return SolveStatus::kUnbounded;

    if (leave_row < 0) {
      // Bound flip: q travels to its opposite bound. No basis change, so no
      // BTRAN and no factorization update — the cheapest iteration kind.
      const double delta = dirq * tmax;
      for (int r = 0; r < m_; ++r) {
        const int b = basis_[static_cast<std::size_t>(r)];
        xval_[static_cast<std::size_t>(b)] -= w[static_cast<std::size_t>(r)] * delta;
      }
      xval_[qu] += delta;
      stat_[qu] = (stat_[qu] == VarStatus::kAtLower) ? VarStatus::kAtUpper : VarStatus::kAtLower;
      if (tmax <= kDegenStep) {
        ++degen_run_;
      } else {
        degen_run_ = 0;
      }
      ++total_iters_;
      ++counters_.bound_flips;
    } else {
      compute_pivot_row(leave_row, &rho, &alpha);
      const PivotOutcome out = pivot(leave_row, q, leave_target, w, alpha);
      if (out == PivotOutcome::kFail) {
        return SolveStatus::kIterLimit;
      }
      if (out == PivotOutcome::kRetry) continue;  // reprice on fresh factors
      if (out == PivotOutcome::kRejected) {
        banned[static_cast<std::size_t>(q)] = 1;
        continue;
      }
      std::fill(banned.begin(), banned.end(), 0);
    }

#if ND_INVARIANTS_ENABLED
    check_basis_consistency();
    const double now_obj = phase_objective();
    ND_INVARIANT(now_obj <= last_obj + 1e-5 * (1.0 + std::abs(last_obj)),
                 "primal phase objective increased across a pivot");
    last_obj = now_obj;
    if (bland && degen_run_ > 0) {
      ++bland_run_;
      // Bland's rule guarantees no cycling; a degenerate run this long under
      // Bland pricing means the anti-cycling machinery is broken.
      ND_INVARIANT(bland_run_ <= 10 * (nt_ + m_) + 10000,
                   "suspiciously long degenerate run under Bland pivoting");
    } else {
      bland_run_ = 0;
    }
#endif

    if (total_iters_ % kRecheckEvery == 0 && residual() > 1e-6) {
      if (!refactorize()) {
        return SolveStatus::kIterLimit;
      }
      recompute_basic_values();
      compute_reduced_costs();
#if ND_INVARIANTS_ENABLED
      last_obj = phase_objective();  // refactorization may shift values slightly
#endif
    }
  }
  return SolveStatus::kIterLimit;
}

SolveStatus RevisedEngine::dual_loop() {
  int iters = 0;
  const int bland_after_iters = std::max(500, 4 * m_);
  if (static_cast<int>(devex_.size()) != nw_) {
    devex_.assign(static_cast<std::size_t>(nw_), 1.0);
  }
  std::vector<double> w;
  std::vector<double> rho;
  std::vector<double> alpha;
  // Same role as in primal_loop: refused entering columns, cleared on commit.
  std::vector<char> banned(static_cast<std::size_t>(nw_), 0);
  bool was_bland = false;
  // Consecutive pivots with |d_q| <= tol make zero dual-objective progress;
  // on a totally dual-degenerate face (every candidate ratio ~ 0) nothing
  // monotone constrains the walk and float noise can defeat even Bland's
  // rule, cycling forever. More such pivots in a row than the system has
  // rows+columns is a stall, not progress: hand the verdict to the
  // dual_resolve fallback chain (which ends in a cold phase-1 solve with a
  // real objective to decide feasibility).
  int dual_degen_run = 0;
  const int dual_degen_cap = m_ + 100;
  int fresh_retries = 0;  ///< kFreshRetryCap's count, reset by every pivot
  while (iters++ < opt_.max_iters) {
    if (past_deadline(deadline_, iters)) {
      return SolveStatus::kIterLimit;
    }
    const bool bland = degen_run_ > kBlandAfter || iters > bland_after_iters;
    if (bland && !was_bland) {
      ++counters_.bland_activations;
      was_bland = true;
    }
    // Leaving row: worst primal bound violation among basics (Bland mode:
    // first violated row, which breaks degenerate cycles).
    int r = -1;
    double worst = kTol;
    double target = 0.0;
    bool need_increase = false;
    for (int rr = 0; rr < m_; ++rr) {
      const int i = basis_[static_cast<std::size_t>(rr)];
      const auto iu = static_cast<std::size_t>(i);
      const double v = xval_[iu];
      if (v < lo_[iu] - worst) {
        worst = lo_[iu] - v;
        r = rr;
        target = lo_[iu];
        need_increase = true;
      } else if (v > hi_[iu] + worst) {
        worst = v - hi_[iu];
        r = rr;
        target = hi_[iu];
        need_increase = false;
      }
      if (bland && r >= 0) break;
    }
    if (r < 0) return SolveStatus::kOptimal;

    // Pivot row r (one BTRAN + CSR scatter), then the bounded dual ratio
    // test: minimum |d/a| with near-ties (1e-12 window) broken by the
    // largest pivot; Bland mode takes the smallest-index column with a
    // (near-)minimal ratio.
    compute_pivot_row(r, &rho, &alpha);
    int q = -1;
    double best_ratio = 0.0;
    double best_alpha = 0.0;
    bool skipped_banned = false;
    for (int j = 0; j < nw_; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      if (stat_[ju] == VarStatus::kBasic) continue;
      if (hi_[ju] - lo_[ju] <= 0.0) continue;  // fixed
      const double a = alpha[ju];
      if (std::abs(a) <= kPivotTol) continue;
      const double dir = (stat_[ju] == VarStatus::kAtLower) ? 1.0 : -1.0;
      // Entering movement changes xB_r by -a*dir*t; pick columns moving it
      // toward the violated bound.
      const bool increases = (a * dir) < 0.0;
      if (increases != need_increase) continue;
      if (banned[ju] != 0) {
        skipped_banned = true;
        continue;
      }
      const double ratio = std::abs(d_[ju] / a);
      if (bland) {
        // Bland: smallest-index column with (near-)minimal ratio.
        if (q < 0 || ratio < best_ratio - 1e-9) {
          q = j;
          best_ratio = ratio;
          best_alpha = std::abs(a);
        }
      } else if (q < 0 || ratio < best_ratio - 1e-12 ||
                 (ratio <= best_ratio + 1e-12 && std::abs(a) > best_alpha)) {
        q = j;
        best_ratio = ratio;
        best_alpha = std::abs(a);
      }
    }
    if (q < 0) {
      if (skipped_banned) {
        // The only repairing columns were refused as numerically singular
        // exchanges: this is a numerical dead end, not an infeasibility
        // proof. Let the dual_resolve fallback chain re-derive the verdict.
        return SolveStatus::kIterLimit;
      }
      // No entering column can repair row r: ρ = B⁻ᵀe_r applied to the
      // original system is a Farkas certificate; remember the row for
      // extract_certificate().
      infeas_row_ = r;
      infeas_need_increase_ = need_increase;
      return SolveStatus::kInfeasible;
    }
    w.assign(static_cast<std::size_t>(m_), 0.0);
    a_.scatter_col(q, 1.0, w);
    timed_ftran(w);
    if (std::abs(w[static_cast<std::size_t>(r)]) <= kPivotTol) {
      // The column was selected on the BTRAN pivot row (alpha[q]) but the
      // FTRAN image disagrees — the eta file has drifted. Refactorize and
      // retry the iteration against the fresh factors. When fresh factors
      // keep disagreeing, refuse the column as for a rejected pivot: the
      // retry alone ran one dual_resolve into ~100k refactorizations.
      if (lu_.eta_count() == 0 && ++fresh_retries > kFreshRetryCap) {
        banned[static_cast<std::size_t>(q)] = 1;
        fresh_retries = 0;
        continue;
      }
      if (!refactorize()) {
        return SolveStatus::kIterLimit;
      }
      recompute_basic_values();
      compute_reduced_costs();
      continue;
    }
    const PivotOutcome out = pivot(r, q, target, w, alpha);
    if (out == PivotOutcome::kFail) {
      return SolveStatus::kIterLimit;
    }
    if (out == PivotOutcome::kRetry) continue;  // reprice on fresh factors
    if (out == PivotOutcome::kRejected) {
      banned[static_cast<std::size_t>(q)] = 1;
      continue;
    }
    std::fill(banned.begin(), banned.end(), 0);
    fresh_retries = 0;
    if (std::abs(d_[static_cast<std::size_t>(q)]) <= kTol) {
      if (++dual_degen_run > dual_degen_cap) {
        stalled_ = true;
        return SolveStatus::kIterLimit;
      }
    } else {
      dual_degen_run = 0;
    }
#if ND_INVARIANTS_ENABLED
    check_basis_consistency();
#endif

    if (total_iters_ % kRecheckEvery == 0 && residual() > 1e-6) {
      if (!refactorize()) {
        return SolveStatus::kIterLimit;
      }
      recompute_basic_values();
      compute_reduced_costs();
    }
  }
  return SolveStatus::kIterLimit;
}

SolveStatus RevisedEngine::solve() {
  SolveStatus s = solve_impl();
  if (s == SolveStatus::kIterLimit && numerical_stuck_) {
    // Numerically stranded: every attractive column's exchange was refused
    // as singular at working precision. That is a property of the vertex
    // PATH (the devex walk marched onto a degenerate face whose marginal
    // basis amplifies roundoff past every decision threshold), not of the
    // problem — so restart cold under Bland's rule from iteration 1, which
    // takes a different path and carries an anti-cycling guarantee.
    force_bland_ = true;
    s = solve_impl();
    force_bland_ = false;
  }
  return s;
}

SolveStatus RevisedEngine::solve_impl() {
  ++counters_.solves;
  build_initial_basis();
  infeas_row_ = -1;
#if ND_INVARIANTS_ENABLED
  check_basis_consistency();
#endif
  if (phase1_) {
    const int phase1_start = total_iters_;
    compute_reduced_costs();
    const SolveStatus s1 = primal_loop();
    counters_.phase1_iters += total_iters_ - phase1_start;
    if (s1 == SolveStatus::kIterLimit) {
      // Still on the phase-1 objective with artificials open: this is NOT a
      // phase-2 basis, so a warm dual_resolve() from here would pivot
      // against the wrong cost vector and report a bogus "optimum".
      basis_valid_ = false;
      return last_status_ = s1;
    }
    ND_ASSERT(s1 != SolveStatus::kUnbounded, "phase-1 objective is bounded below by 0");
    double art_sum = 0.0;
    for (int r = 0; r < m_; ++r) {
      const int ac = art_col(r);
      art_sum += std::abs(xval_[static_cast<std::size_t>(ac)]);
    }
    if (art_sum > kTol * std::max(1.0, static_cast<double>(m_))) {
      // cost_ still holds the phase-1 objective: extract_certificate() reads
      // the phase-1 duals as the Farkas ray. As above, this state must not
      // seed a warm resolve.
      basis_valid_ = false;
      return last_status_ = SolveStatus::kInfeasible;
    }
  }
  // Close all artificials and switch to the real objective.
  for (int r = 0; r < m_; ++r) {
    const auto ac = static_cast<std::size_t>(art_col(r));
    hi_[ac] = 0.0;
    if (stat_[ac] != VarStatus::kBasic) xval_[ac] = 0.0;
  }
  cost_ = real_cost_;
  compute_reduced_costs();
  const int phase2_start = total_iters_;
  const SolveStatus s2 = primal_loop();
  counters_.phase2_iters += total_iters_ - phase2_start;
  return last_status_ = s2;
}

SolveStatus RevisedEngine::dual_resolve() {
  if (!basis_valid_) return solve();
  ++counters_.dual_resolves;
  infeas_row_ = -1;
  stalled_ = false;
  ensure_values();
  SolveStatus s = dual_loop();
  if (s == SolveStatus::kIterLimit) {
    // Numerical trouble: refactor once, then fall back to a cold solve. A
    // dual-degenerate stall is NOT numerical trouble — fresh factors land on
    // the same flat face — so it skips the retry and goes straight to the
    // cold solve, whose phase 1 has a real objective to walk down.
    if (!stalled_ && refactorize()) {
      recompute_basic_values();
      compute_reduced_costs();
      s = dual_loop();
    }
    if (s == SolveStatus::kIterLimit) s = solve();
  } else if (s == SolveStatus::kInfeasible) {
    // A warm infeasibility verdict rides on the drifted factorization that
    // produced it: with accumulated roundoff the entering-column test can
    // fail spuriously and declare a FEASIBLE node LP infeasible (the exact
    // audit replay caught branch-and-bound doing exactly that). Infeasibility
    // is a pruning decision, so re-derive it from scratch before reporting
    // it.
    s = solve();
  }
  if (s == SolveStatus::kOptimal) {
    // Bound changes leave reduced costs intact, so dual feasibility held and
    // a primal-feasible point is optimal. Run a short primal loop anyway to
    // clean up any tolerance-level dual violations introduced by drift. If
    // the cleanup strands numerically (only banned columns attractive), the
    // verdict is untrustworthy either way: re-derive it with a cold solve,
    // which carries its own Bland-restart fallback.
    s = primal_loop();
    if (s == SolveStatus::kIterLimit && numerical_stuck_) s = solve();
  }
  return last_status_ = s;
}

void RevisedEngine::set_bound(int j, double lo, double hi) {
  ND_REQUIRE(j >= 0 && j < n_, "set_bound: structural variables only");
  ND_REQUIRE(lo <= hi, "set_bound: inverted bounds");
  const auto ju = static_cast<std::size_t>(j);
  lo_[ju] = lo;
  hi_[ju] = hi;
  if (!basis_valid_ || stat_[ju] == VarStatus::kBasic) return;
  const double target = (stat_[ju] == VarStatus::kAtLower)
                            ? (std::isfinite(lo) ? lo : hi)
                            : (std::isfinite(hi) ? hi : lo);
  // Keep the variable exactly on a (possibly moved) bound. Basic values are
  // repaired lazily (one FTRAN in ensure_values) instead of per call: a
  // branch-and-bound driver typically adjusts several bounds before the next
  // dual_resolve(), and each eager repair would cost an FTRAN.
  if (target != xval_[ju]) {  // fp-exact: the bound genuinely moved or it did not
    xval_[ju] = target;
    values_dirty_ = true;
  }
  stat_[ju] = (target == lo) ? VarStatus::kAtLower : VarStatus::kAtUpper;
}

double RevisedEngine::objective() const {
  ensure_values();
  double v = 0.0;
  for (int j = 0; j < n_; ++j) {
    v += real_cost_[static_cast<std::size_t>(j)] * xval_[static_cast<std::size_t>(j)];
  }
  return v;
}

std::vector<double> RevisedEngine::solution() const {
  ensure_values();
  return {xval_.begin(), xval_.begin() + n_};
}

std::vector<double> RevisedEngine::proof_vector() const {
  if (last_status_ != SolveStatus::kOptimal && last_status_ != SolveStatus::kInfeasible) {
    return {};
  }
  std::vector<double> y(static_cast<std::size_t>(m_), 0.0);
  const bool breakdown = last_status_ == SolveStatus::kInfeasible && infeas_row_ >= 0;
  if (breakdown) {
    // Dual-simplex breakdown at row r: ρ = B⁻ᵀe_r is the ray, with the
    // sign chosen by which bound the basic variable violated.
    y[static_cast<std::size_t>(infeas_row_)] = 1.0;
  } else {
    // y = B⁻ᵀ c_B. After a phase-1 infeasibility exit cost_ still holds the
    // phase-1 objective, so the same BTRAN yields the Farkas ray directly.
    for (int r = 0; r < m_; ++r) {
      y[static_cast<std::size_t>(r)] =
          cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
    }
  }
  timed_btran(y);
  if (breakdown) {
    const double sign = infeas_need_increase_ ? -1.0 : 1.0;
    for (double& v : y) v *= sign;
  }
  return y;
}

Certificate RevisedEngine::extract_certificate() const {
  Certificate cert;
  cert.status = last_status_;
  if (last_status_ == SolveStatus::kOptimal) {
    cert.y = proof_vector();
    // Reduced costs recomputed against the ORIGINAL data, not the engine's
    // incrementally-updated d_ — the certificate must not inherit drift.
    cert.d.resize(static_cast<std::size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      NeumaierSum acc;
      acc.add(real_cost_[static_cast<std::size_t>(j)]);
      const SparseMatrix::ColView c = a_.col(j);
      for (int k = 0; k < c.len; ++k) {
        acc.add_product(-cert.y[static_cast<std::size_t>(c.idx[k])], c.val[k]);
      }
      cert.d[static_cast<std::size_t>(j)] = acc.value();
    }
    cert.x = solution();
    cert.obj = objective();
    cert.vstat.assign(stat_.begin(), stat_.begin() + n_);
    cert.basis = basis_;
  } else if (last_status_ == SolveStatus::kInfeasible) {
    cert.farkas = proof_vector();
  }
  return cert;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Simplex facade: a non-virtual pimpl over RevisedEngine.
// ---------------------------------------------------------------------------

Simplex::Simplex(const Problem& p) : Simplex(p, Options()) {}
Simplex::Simplex(const Problem& p, Options opt)
    : impl_(std::make_unique<detail::RevisedEngine>(p, opt)) {}
Simplex::Simplex(Simplex&&) noexcept = default;
Simplex& Simplex::operator=(Simplex&&) noexcept = default;
Simplex::~Simplex() = default;

void Simplex::set_deadline(std::chrono::steady_clock::time_point t) { impl_->set_deadline(t); }
SolveStatus Simplex::solve() { return impl_->solve(); }
SolveStatus Simplex::dual_resolve() { return impl_->dual_resolve(); }
void Simplex::set_bound(int j, double lo, double hi) { impl_->set_bound(j, lo, hi); }

double Simplex::bound_lo(int j) const { return impl_->bound_lo(j); }
double Simplex::bound_hi(int j) const { return impl_->bound_hi(j); }
double Simplex::objective() const { return impl_->objective(); }
std::vector<double> Simplex::solution() const { return impl_->solution(); }
double Simplex::value(int j) const { return impl_->value(j); }
double Simplex::reduced_cost(int j) const { return impl_->reduced_cost(j); }
VarStatus Simplex::var_status(int j) const { return impl_->var_status(j); }
int Simplex::iterations() const { return impl_->iterations(); }
const Simplex::Counters& Simplex::counters() const { return impl_->counters(); }
long long Simplex::memory_bytes() const { return impl_->memory_bytes(); }
SolveStatus Simplex::last_status() const { return impl_->last_status(); }
std::vector<double> Simplex::proof_vector() const { return impl_->proof_vector(); }
Certificate Simplex::extract_certificate() const { return impl_->extract_certificate(); }

}  // namespace nd::lp
