#include "analysis/exact/certify_lp_exact.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "analysis/exact/envelope.hpp"
#include "analysis/exact/rat_lu.hpp"
#include "obs/obs.hpp"

namespace nd::analysis {

namespace {

using lp::Sense;
using lp::VarStatus;

bool finite(double v) { return std::isfinite(v); }

/// The odd part of the lcm of the denominators in `v`: D·v_i is dyadic for
/// every i. 1 when every denominator is a power of two.
BigInt odd_common_denominator(const std::vector<Rat>& v) {
  BigInt D(1);
  for (const Rat& r : v) {
    if (r.den().is_pow2()) continue;
    const BigInt odd = r.den().shr(r.den().ctz());
    if (odd == D) continue;
    D = D * BigInt::div_exact(odd, BigInt::gcd(D, odd));
  }
  return D;
}

/// D·v as a dyadic, for D a multiple of the odd part of v's denominator.
Dyadic scaled(const Rat& v, const BigInt& D) {
  const BigInt& den = v.den();
  const std::size_t s = den.ctz();
  const auto e = -static_cast<std::int64_t>(s);
  if (D.is_unit()) return Dyadic(v.num(), e);
  if (den.is_pow2()) return Dyadic(v.num() * D, e);
  return Dyadic(v.num() * BigInt::div_exact(D, den.shr(s)), e);
}

/// D·v for a double v.
Dyadic times(double v, const BigInt& D) {
  return D.is_unit() ? Dyadic(v) : Dyadic(v) * Dyadic(D);
}

/// The value whose D-multiple `s` is.
Rat unscaled(const Dyadic& s, const BigInt& D) {
  return D.is_unit() ? s.to_rat() : s.to_rat() / Rat(D, BigInt(1));
}

/// yᵀb + Σ_j min over the box of d_j·x_j, for duals y with the signs their
/// rows demand and d = c − Aᵀy (both may carry one common scale): a lower
/// bound on every feasible objective. False when a nonzero d_j meets an
/// infinite bound, where the minimum is −∞.
bool box_bound(const lp::Problem& p, const std::vector<Dyadic>& y,
               const std::vector<Dyadic>& d, Dyadic* bound) {
  Dyadic b;
  for (std::size_t r = 0; r < y.size(); ++r) {
    if (!y[r].is_zero()) b.add_product(p.row(static_cast<int>(r)).rhs, y[r]);
  }
  for (std::size_t j = 0; j < d.size(); ++j) {
    const int sgn = d[j].sign();
    if (sgn == 0) continue;
    const double bnd = sgn > 0 ? p.lo(static_cast<int>(j)) : p.hi(static_cast<int>(j));
    if (!finite(bnd)) return false;
    b.add_product(bnd, d[j]);
  }
  *bound = std::move(b);
  return true;
}

}  // namespace

bool solve_exact_linear_system(std::vector<std::vector<Rat>> M, std::vector<Rat> rhs,
                               std::vector<Rat>* x) {
  const std::size_t k = M.size();
  x->assign(k, Rat());
  std::vector<RatLu::Entry> entries;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (!M[i][j].is_zero()) entries.push_back({i, j, std::move(M[i][j])});
    }
  }
  RatLu lu;
  if (!lu.factorize(k, entries)) return false;
  *x = lu.solve(std::move(rhs));
  return true;
}

bool exact_safe_dual_bound(const lp::Problem& p, const std::vector<double>& y,
                           Rat* bound) {
  const std::size_t n = static_cast<std::size_t>(p.num_vars());
  const std::size_t m = static_cast<std::size_t>(p.num_rows());
  if (y.size() != m) return false;

  // Sign-project the duals so yᵀ(Ax − b) ≤ 0 holds for every feasible x
  // regardless of what the caller handed us.
  std::vector<Dyadic> ys(m);
  for (std::size_t r = 0; r < m; ++r) {
    if (!finite(y[r])) return false;
    Dyadic yr{y[r]};
    const Sense s = p.row(static_cast<int>(r)).sense;
    if ((s == Sense::LE && yr.sign() > 0) || (s == Sense::GE && yr.sign() < 0)) continue;
    ys[r] = std::move(yr);
  }

  // d = c − Aᵀy, exactly: every term is a product of two doubles.
  std::vector<Dyadic> d(n);
  for (std::size_t j = 0; j < n; ++j) d[j] = Dyadic(p.obj(static_cast<int>(j)));
  for (std::size_t r = 0; r < m; ++r) {
    if (ys[r].is_zero()) continue;
    for (const auto& [j, v] : p.row(static_cast<int>(r)).coef) {
      d[static_cast<std::size_t>(j)].add_product(v, ys[r], true);
    }
  }

  Dyadic b;
  if (!box_bound(p, ys, d, &b)) return false;
  *bound = b.to_rat();
  return true;
}

bool exact_farkas_proves(const lp::Problem& p, const std::vector<double>& ray,
                         std::string* why) {
  const std::size_t n = static_cast<std::size_t>(p.num_vars());
  const std::size_t m = static_cast<std::size_t>(p.num_rows());
  auto fail = [why](std::string msg) {
    if (why != nullptr) *why = std::move(msg);
    return false;
  };
  if (ray.size() != m) return fail("ray length != row count");

  // Writing each row as aᵀx + s = b with the slack bounded by the sense, any
  // feasible x satisfies (Aᵀy)ᵀx + Σ_r y_r s_r = yᵀb. The ray proves
  // infeasibility iff the exact box-supremum of the left side is strictly
  // below yᵀb. A wrong-signed component makes the slack supremum +∞, so those
  // are projected to zero first — the check is self-contained, so it remains
  // sound for ANY vector, and float engines routinely leave sign noise at
  // roundoff scale that a tolerance would have hidden.
  std::vector<Dyadic> yr(m);
  Dyadic ytb;
  for (std::size_t r = 0; r < m; ++r) {
    if (!finite(ray[r])) return fail("non-finite ray component");
    Dyadic v{ray[r]};
    const Sense s = p.row(static_cast<int>(r)).sense;
    if ((s == Sense::LE && v.sign() > 0) || (s == Sense::GE && v.sign() < 0)) continue;
    ytb.add_product(p.row(static_cast<int>(r)).rhs, v);
    yr[r] = std::move(v);
  }

  std::vector<Dyadic> w(n);
  for (std::size_t r = 0; r < m; ++r) {
    if (yr[r].is_zero()) continue;
    for (const auto& [j, v] : p.row(static_cast<int>(r)).coef) {
      w[static_cast<std::size_t>(j)].add_product(v, yr[r]);
    }
  }

  Dyadic boxsup;
  for (std::size_t j = 0; j < n; ++j) {
    const int sgn = w[j].sign();
    if (sgn == 0) continue;
    const double bnd = sgn > 0 ? p.hi(static_cast<int>(j)) : p.lo(static_cast<int>(j));
    if (!finite(bnd)) {
      return fail("var " + std::to_string(j) + ": box supremum is +inf");
    }
    boxsup.add_product(bnd, w[j]);
  }

  if (boxsup >= ytb) {
    return fail("box supremum " + rat_str(boxsup.to_rat()) +
                " does not fall strictly below y'b " + rat_str(ytb.to_rat()));
  }
  return true;
}

ExactLpOutcome certify_lp_exact(const lp::Problem& p, const lp::Certificate& cert) {
  ExactLpOutcome out;
  Report& rep = out.report;
  const std::size_t n = static_cast<std::size_t>(p.num_vars());
  const std::size_t m = static_cast<std::size_t>(p.num_rows());
  ND_OBS_COUNT("exact.lp_checked", 1);

  if (cert.status == lp::SolveStatus::kInfeasible) {
    if (cert.farkas.size() != m) {
      rep.add(Severity::kError, codes::kLpExactShape, "farkas",
              "Farkas ray has " + std::to_string(cert.farkas.size()) + " components, expected " +
                  std::to_string(m));
      return out;
    }
    std::string why;
    out.farkas_proved = exact_farkas_proves(p, cert.farkas, &why);
    if (!out.farkas_proved) {
      rep.add(Severity::kError, codes::kLpExactFarkas, "farkas",
              "ray does not prove infeasibility exactly: " + why);
    }
    return out;
  }
  if (cert.status != lp::SolveStatus::kOptimal) {
    rep.add(Severity::kError, codes::kLpExactShape, "status",
            std::string("certificate status '") + lp::to_string(cert.status) +
                "' carries no exactly provable claim");
    return out;
  }

  // ---- shape ---------------------------------------------------------------
  bool shape = true;
  auto shape_err = [&](const std::string& subject, const std::string& msg) {
    rep.add(Severity::kError, codes::kLpExactShape, subject, msg);
    shape = false;
  };
  if (cert.x.size() != n) shape_err("x", "claimed point has wrong length");
  if (cert.y.size() != m) shape_err("y", "claimed duals have wrong length");
  if (cert.vstat.size() != n) shape_err("vstat", "variable statuses have wrong length");
  if (!cert.basis_shape_ok(n, m)) {
    shape_err("basis", "basis is not a valid partition (size, range or duplicate defect)");
  }
  if (!shape) return out;

  // ---- basis consistency ---------------------------------------------------
  const std::vector<std::size_t> J = cert.structural_basics(n);
  const std::vector<std::size_t> T = cert.tight_rows(n);
  if (J.size() != T.size()) {
    rep.add(Severity::kError, codes::kLpExactBasis, "basis",
            "structural basics (" + std::to_string(J.size()) + ") != tight rows (" +
                std::to_string(T.size()) + ")");
    return out;
  }
  std::vector<char> is_basic(n, 0);
  for (const std::size_t j : J) is_basic[j] = 1;
  bool basis_ok = true;
  for (std::size_t j = 0; j < n; ++j) {
    const bool claims_basic = cert.vstat[j] == VarStatus::kBasic;
    if (claims_basic != (is_basic[j] != 0)) {
      rep.add(Severity::kError, codes::kLpExactBasis, p.name(static_cast<int>(j)),
              "vstat disagrees with the basis vector about whether the variable is basic");
      basis_ok = false;
    }
    if (!claims_basic) {
      const double bnd = cert.vstat[j] == VarStatus::kAtLower  // fp-exact: enum compare
                             ? p.lo(static_cast<int>(j))
                             : p.hi(static_cast<int>(j));
      if (!finite(bnd)) {
        rep.add(Severity::kError, codes::kLpExactBasis, p.name(static_cast<int>(j)),
                "nonbasic variable rests at an infinite bound");
        basis_ok = false;
      }
    }
  }

  if (!basis_ok) return out;

  // ---- exact basic solution ------------------------------------------------
  // Nonbasic structurals rest on their vstat bound; the tight-row core
  // A[T,J]·x_J = b_T − A[T,N]·x_N determines the basics, and
  // A[T,J]ᵀ·y_T = c_J the duals. One sparse LU of the core serves both.
  const std::size_t k = J.size();
  std::vector<double> xN(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    if (is_basic[j]) continue;
    xN[j] = cert.vstat[j] == VarStatus::kAtLower ? p.lo(static_cast<int>(j))
                                                 : p.hi(static_cast<int>(j));
  }
  std::vector<std::size_t> col_of(n, k);
  for (std::size_t a = 0; a < k; ++a) col_of[J[a]] = a;

  std::vector<RatLu::Entry> core;
  std::vector<Rat> rhs(k);
  for (std::size_t a = 0; a < k; ++a) {
    const int r = static_cast<int>(T[a]);
    Dyadic b{p.row(r).rhs};
    for (const auto& [j, v] : p.row(r).coef) {
      const std::size_t js = static_cast<std::size_t>(j);
      if (is_basic[js]) {
        core.push_back({a, col_of[js], Rat(v)});
      } else {
        b.add_product(v, Dyadic(xN[js]), true);
      }
    }
    rhs[a] = b.to_rat();
  }

  RatLu lu;
  if (!lu.factorize(k, core)) {
    rep.add(Severity::kError, codes::kLpExactBasis, "basis",
            "basis matrix is exactly singular");
    return out;
  }
  out.basis_solved = true;
  const std::vector<Rat> xJ = lu.solve(std::move(rhs));

  out.exact_x.assign(n, Rat());
  for (std::size_t j = 0; j < n; ++j) {
    if (!is_basic[j]) out.exact_x[j] = Rat(xN[j]);
  }
  for (std::size_t a = 0; a < k; ++a) out.exact_x[J[a]] = xJ[a];

  // Dx·x is dyadic for Dx the odd part of x's common denominator, so every
  // sum over x below is a dyadic sum, compared against its bound times Dx.
  const BigInt Dx = odd_common_denominator(xJ);
  std::vector<Dyadic> xs(n);
  for (std::size_t j = 0; j < n; ++j) xs[j] = scaled(out.exact_x[j], Dx);

  const std::size_t terms = n + m;
  Dyadic xmax_s;  // Dx·max_j |x_j|
  for (std::size_t j = 0; j < n; ++j) {
    if (xs[j].abs() > xmax_s) xmax_s = xs[j].abs();
  }
  const Rat x_env = claim_envelope(terms, Rat(1) + unscaled(xmax_s, Dx));

  // ---- exact primal feasibility (zero tolerance). An honest engine can stop
  // at a marginally infeasible basis, so a violation that a point within
  // x_env of the vertex could clear (x_env itself for a bound,
  // x_env·Σ_j |a_rj| for row r) is a warning carrying the exact magnitude;
  // a larger one is an error. ------------------------------------------------
  out.primal_exact_feasible = true;
  const auto primal = [&](const std::string& subject, const Rat& by, const Rat& env,
                          const std::string& what) {
    out.primal_exact_feasible = false;
    const bool beyond = by > env;
    rep.add(beyond ? Severity::kError : Severity::kWarning, codes::kLpExactPrimal, subject,
            what + rat_str(by) +
                (beyond ? ", outside the derived envelope " + rat_str(env) : std::string()));
  };
  for (std::size_t j = 0; j < n; ++j) {
    const double lo = p.lo(static_cast<int>(j)), hi = p.hi(static_cast<int>(j));
    if (finite(lo) && xs[j] < times(lo, Dx)) {
      primal(p.name(static_cast<int>(j)), Rat(lo) - out.exact_x[j], x_env,
             "exact basic value undershoots lo by ");
    }
    if (finite(hi) && xs[j] > times(hi, Dx)) {
      primal(p.name(static_cast<int>(j)), out.exact_x[j] - Rat(hi), x_env,
             "exact basic value overshoots hi by ");
    }
  }
  for (std::size_t r = 0; r < m; ++r) {
    Dyadic excess = -times(p.row(static_cast<int>(r)).rhs, Dx);  // Dx·(aᵀx − b)
    for (const auto& [j, v] : p.row(static_cast<int>(r)).coef) {
      excess.add_product(v, xs[static_cast<std::size_t>(j)]);
    }
    const Sense s = p.row(static_cast<int>(r)).sense;
    const int sgn = excess.sign();
    const bool bad = (s == Sense::LE && sgn > 0) || (s == Sense::GE && sgn < 0) ||
                     (s == Sense::EQ && sgn != 0);
    if (bad) {
      Dyadic reach;  // Σ_j |a_rj|
      for (const auto& [j, v] : p.row(static_cast<int>(r)).coef) reach += Dyadic(std::abs(v));
      primal("row " + std::to_string(r), unscaled(excess.abs(), Dx), x_env * reach.to_rat(),
             "exact row activity violates the sense by ");
    }
  }

  // ---- exact duals ---------------------------------------------------------
  // y is zero on rows whose slack is basic; on tight rows it solves
  // A[T,J]ᵀ·y_T = c_J (the reduced cost of every basic column is zero).
  std::vector<Rat> cJ(k);
  for (std::size_t a = 0; a < k; ++a) cJ[a] = Rat(p.obj(static_cast<int>(J[a])));
  const std::vector<Rat> yT = lu.solve_transposed(std::move(cJ));
  out.exact_y.assign(m, Rat());
  for (std::size_t a = 0; a < k; ++a) out.exact_y[T[a]] = yT[a];

  // Dy·d = Dy·c − Aᵀ(Dy·y), dyadic for Dy the odd part of y's common
  // denominator; the reduced costs themselves are Dy·d / Dy.
  const BigInt Dy = odd_common_denominator(yT);
  std::vector<Dyadic> ys(m);
  for (std::size_t a = 0; a < k; ++a) ys[T[a]] = scaled(yT[a], Dy);
  std::vector<Dyadic> ds(n);
  for (std::size_t j = 0; j < n; ++j) ds[j] = times(p.obj(static_cast<int>(j)), Dy);
  for (std::size_t r = 0; r < m; ++r) {
    if (ys[r].is_zero()) continue;
    for (const auto& [j, v] : p.row(static_cast<int>(r)).coef) {
      ds[static_cast<std::size_t>(j)].add_product(v, ys[r], true);
    }
  }
  for (const std::size_t j : J) {
    if (!ds[j].is_zero()) {
      rep.add(Severity::kError, codes::kLpExactBasis, p.name(static_cast<int>(j)),
              "internal: reduced cost of a basic column is not exactly zero");
      return out;
    }
  }

  // Wrong signs are warnings carrying the exact value; whether they leave
  // the basis optimal is decided once, on the objective, below.
  out.dual_exact_feasible = true;
  std::vector<char> projected(m, 0);
  for (std::size_t r = 0; r < m; ++r) {
    const Sense s = p.row(static_cast<int>(r)).sense;
    const bool bad = (s == Sense::LE && out.exact_y[r].sign() > 0) ||
                     (s == Sense::GE && out.exact_y[r].sign() < 0);
    if (bad) {
      out.dual_exact_feasible = false;
      projected[r] = 1;
      rep.add(Severity::kWarning, codes::kLpExactDual, "row " + std::to_string(r),
              "exact basis dual has the wrong sign for the row sense: " +
                  rat_str(out.exact_y[r]));
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (is_basic[j]) continue;
    const double lo = p.lo(static_cast<int>(j)), hi = p.hi(static_cast<int>(j));
    if (finite(lo) && finite(hi) && Rat(lo) == Rat(hi)) continue;  // fixed: any sign
    const bool at_lower = cert.vstat[j] == VarStatus::kAtLower;
    const bool bad = at_lower ? ds[j].sign() < 0 : ds[j].sign() > 0;
    if (bad) {
      out.dual_exact_feasible = false;
      rep.add(Severity::kWarning, codes::kLpExactDual, p.name(static_cast<int>(j)),
              std::string("exact reduced cost has the wrong sign for a nonbasic-at-") +
                  (at_lower ? "lower" : "upper") + " variable: " + rat_str(unscaled(ds[j], Dy)));
    }
  }
  out.exactly_optimal = out.primal_exact_feasible && out.dual_exact_feasible;

  // ---- objectives ----------------------------------------------------------
  Dyadic pobj_s;  // Dx·cᵀx
  for (std::size_t j = 0; j < n; ++j) pobj_s.add_product(p.obj(static_cast<int>(j)), xs[j]);
  const Rat pobj = unscaled(pobj_s, Dx);
  out.exact_objective = pobj;

  // Strong duality holds identically for a basis solution; a mismatch means
  // the solve above is wrong, never the certificate.
  Dyadic dobj_s;  // Dy·(yᵀb + Σ_N d_j·x_j)
  for (std::size_t r = 0; r < m; ++r) {
    if (!ys[r].is_zero()) dobj_s.add_product(p.row(static_cast<int>(r)).rhs, ys[r]);
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (!is_basic[j]) dobj_s.add_product(xN[j], ds[j]);
  }
  if (unscaled(dobj_s, Dy) != pobj) {
    rep.add(Severity::kError, codes::kLpExactBasis, "duality",
            "internal: exact primal and dual objectives of the basis disagree");
    return out;
  }

  // ---- claim envelopes -----------------------------------------------------
  const Rat obj_env = claim_envelope(terms, Rat(1) + pobj.abs());
  const Rat obj_drift = (Rat(cert.obj) - pobj).abs();
  if (obj_drift > obj_env) {
    rep.add(Severity::kError, codes::kLpExactObjective, "objective",
            "claimed objective drifts " + rat_str(obj_drift) +
                " from the exact basis objective " + rat_str(pobj) +
                ", outside the derived envelope " + rat_str(obj_env));
  }

  Dyadic ymax_s;  // Dy·max_r |y_r|
  for (std::size_t r = 0; r < m; ++r) {
    if (ys[r].abs() > ymax_s) ymax_s = ys[r].abs();
  }
  const Rat y_env = claim_envelope(terms, Rat(1) + unscaled(ymax_s, Dy));
  Dyadic worst_y;  // Dy·max_r |claimed y_r − y_r|, first row on ties
  std::size_t worst_yr = m;
  for (std::size_t r = 0; r < m; ++r) {
    const Dyadic drift = (times(cert.y[r], Dy) - ys[r]).abs();
    if (drift > worst_y) {
      worst_y = drift;
      worst_yr = r;
    }
  }
  if (worst_yr != m && unscaled(worst_y, Dy) > y_env) {
    rep.add(Severity::kError, codes::kLpExactDualDrift, "row " + std::to_string(worst_yr),
            "claimed dual drifts " + rat_str(unscaled(worst_y, Dy)) +
                " from the exact basis dual, outside the derived envelope " + rat_str(y_env));
  }

  Dyadic worst_x;  // Dx·max_j |claimed x_j − x_j|, first column on ties
  std::size_t worst_xj = n;
  for (std::size_t j = 0; j < n; ++j) {
    const Dyadic drift = (times(cert.x[j], Dx) - xs[j]).abs();
    if (drift > worst_x) {
      worst_x = drift;
      worst_xj = j;
    }
  }
  if (worst_xj != n && unscaled(worst_x, Dx) > x_env) {
    rep.add(Severity::kError, codes::kLpExactPointDrift, p.name(static_cast<int>(worst_xj)),
            "claimed point drifts " + rat_str(unscaled(worst_x, Dx)) +
                " from the exact basic solution, outside the derived envelope " +
                rat_str(x_env));
  } else if (worst_xj != n) {
    rep.add(Severity::kInfo, codes::kLpExactVertex, p.name(static_cast<int>(worst_xj)),
            "claimed point drifts " + rat_str(unscaled(worst_x, Dx)) +
                " from the exact basic solution (engine residual; informational)");
  }

  // ---- the lower bound the basis proves ------------------------------------
  // The exact duals with their wrong-signed rows projected to zero, as
  // exact_safe_dual_bound projects float ones: each projected row's term is
  // added back to Dy·d. Nothing is projected for a dual-feasible basis, and
  // then the bound is its objective. The basis is optimal when that bound
  // reaches its objective, up to the objective envelope.
  for (std::size_t r = 0; r < m; ++r) {
    if (projected[r] == 0) continue;
    for (const auto& [j, v] : p.row(static_cast<int>(r)).coef) {
      ds[static_cast<std::size_t>(j)].add_product(v, ys[r]);
    }
    ys[r] = Dyadic();
  }
  Dyadic bound_s;  // Dy·bound
  out.has_proved_bound = box_bound(p, ys, ds, &bound_s);
  if (!out.has_proved_bound) {
    rep.add(Severity::kError, codes::kLpExactDual, "objective",
            "the exact basis duals prove no finite lower bound (a reduced cost meets an "
            "infinite bound): the basis is not optimal");
    return out;
  }
  out.proved_bound = unscaled(bound_s, Dy);
  out.proved_d.assign(n, Rat());
  for (std::size_t j = 0; j < n; ++j) out.proved_d[j] = unscaled(ds[j], Dy);
  if (pobj - out.proved_bound > obj_env) {
    rep.add(Severity::kError, codes::kLpExactDual, "objective",
            "the exact basis duals prove only the lower bound " + rat_str(out.proved_bound) +
                ", " + rat_str(pobj - out.proved_bound) +
                " below the basis objective and outside the derived envelope " +
                rat_str(obj_env) + ": the basis is not optimal");
  }
  return out;
}

}  // namespace nd::analysis
