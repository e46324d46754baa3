// Tests for the exact-arithmetic proof layer (analysis/exact): the rational
// type, the fraction-free linear solver, the exact LP certificate checker,
// the exact B&B audit replay (from the drivers' recorded proof vectors and
// from cold re-solves) and the static deployment verifier.
//
// The mutation tests deliberately tamper at the 1e-9..1e-12 scale — well
// inside the 1e-6 tolerances the float checkers accept — so they pass only
// if the exact path really compares with zero tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/certify_bnb.hpp"
#include "analysis/certify_lp.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/exact/certify_bnb_exact.hpp"
#include "analysis/exact/certify_lp_exact.hpp"
#include "analysis/exact/rat.hpp"
#include "analysis/exact/verify_deployment.hpp"
#include "analysis/presolve/instance_presolve.hpp"
#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/prng.hpp"
#include "deploy/evaluate.hpp"
#include "heuristic/phases.hpp"
#include "lp/certificate.hpp"
#include "milp/audit.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "model/formulation.hpp"
#include "obs/obs.hpp"
#include "test_util.hpp"

namespace {

namespace codes = nd::analysis::codes;
using nd::analysis::BigInt;
using nd::analysis::Rat;
using nd::lp::Sense;
using nd::milp::AuditLog;
using nd::milp::NodeDisp;
using nd::milp::ProofVector;

// ---------------------------------------------------------------------------
// BigInt / Rat arithmetic

TEST(ExactRat, NormalizesOnConstruction) {
  EXPECT_EQ(Rat(6, 4), Rat(3, 2));
  EXPECT_EQ(Rat(1, -2), Rat(-1, 2));     // denominator sign moves to numerator
  EXPECT_EQ(Rat(0, 7), Rat());
  EXPECT_EQ(Rat(6, 4).to_string(), "3/2");
  EXPECT_EQ(Rat(-4, 2).to_string(), "-2");
  EXPECT_THROW(Rat(1, 0), std::domain_error);
}

TEST(ExactRat, DyadicDoubleConversionIsLossless) {
  EXPECT_EQ(Rat(0.5), Rat(1, 2));
  EXPECT_EQ(Rat(-0.75), Rat(-3, 4));
  EXPECT_EQ(Rat(3.0), Rat(3));
  // 0.1 is NOT 1/10 in binary; an exact importer must preserve the
  // difference a float comparison cannot see.
  EXPECT_NE(Rat(0.1), Rat(1, 10));
  EXPECT_EQ(Rat(0.1), Rat(BigInt(std::int64_t{3602879701896397}),
                          BigInt(std::int64_t{1} << 55)));
}

TEST(ExactRat, OrdersAcrossDenominators) {
  EXPECT_LT(Rat(1, 3), Rat(2, 5));
  EXPECT_LT(Rat(-2, 3), Rat(-1, 2));
  EXPECT_GE(Rat(7, 7), Rat(1));
  EXPECT_EQ(Rat::min(Rat(1, 3), Rat(2, 5)), Rat(1, 3));
  EXPECT_EQ(Rat::max(Rat(-1), Rat(-2)), Rat(-1));
  // A gap far below double resolution still orders correctly.
  const Rat tiny = Rat(1, 1000000007) * Rat(1, 1000000007) * Rat(1, 1000000007);
  EXPECT_GT(Rat(1, 3) + tiny, Rat(1, 3));
  EXPECT_EQ((Rat(1, 3) + tiny).to_double(), Rat(1, 3).to_double());  // fp-invisible
}

TEST(ExactRat, PromotesPastSixtyFourBits) {
  // 2^200 by repeated doubling, checked against the known decimal expansion.
  BigInt b(1);
  for (int i = 0; i < 200; ++i) b = b + b;
  EXPECT_EQ(b.to_string(), "1606938044258990275541962092341162602522202993782792835301376");
  EXPECT_GT(b.num_limbs(), std::size_t{3});
  // (2^200 − 1) + 1 == 2^200 exercises the carry chain across all limbs.
  EXPECT_EQ((b - BigInt(1)) + BigInt(1), b);
  // INT64_MIN round-trips without UB.
  const BigInt m(std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(m.fits_i64());
  EXPECT_EQ(m.to_i64(), std::numeric_limits<std::int64_t>::min());
}

TEST(ExactRat, MultiLimbMultiplyDivideRoundTrip) {
  BigInt a(987654321);
  for (int i = 0; i < 4; ++i) a = a * a;  // 987654321^16: ~144 decimal digits
  const BigInt prod = a * BigInt(1000003);
  EXPECT_EQ(BigInt::div_exact(prod, BigInt(1000003)), a);
  EXPECT_THROW(BigInt::div_exact(BigInt(7), BigInt(2)), std::logic_error);
}

TEST(ExactRat, FieldIdentitiesHoldExactly) {
  const std::int64_t nums[] = {3, -7, 123456789, -987654321098765LL, 1};
  const std::int64_t dens[] = {2, 9, 1024, 999999937, 6700417};
  for (const std::int64_t an : nums) {
    for (const std::int64_t ad : dens) {
      const Rat a(an, ad), b(ad, an < 0 ? -an : an);
      EXPECT_EQ(a + b - b, a);
      EXPECT_EQ(a * b / b, a);
      EXPECT_EQ(a - a, Rat());
      EXPECT_EQ((a + a) / a, Rat(2));
    }
  }
}

// The reduction Rat performed before its dyadic fast paths: a binary gcd
// with no early exit, then exact division. A reference for the fast paths
// only.
BigInt reference_gcd(BigInt a, BigInt b) {
  a = a.abs();
  b = b.abs();
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  const std::size_t az = a.ctz(), bz = b.ctz();
  const std::size_t shift = std::min(az, bz);
  a = a.shr(az);
  b = b.shr(bz);
  while (true) {
    const int c = BigInt::cmp(a, b);
    if (c == 0) break;
    if (c < 0) std::swap(a, b);
    a = a - b;
    a = a.shr(a.ctz());
  }
  return a.shl(shift);
}

std::pair<BigInt, BigInt> reference_reduce(BigInt num, BigInt den) {
  if (num.is_zero()) return {BigInt(), BigInt(1)};
  if (den.is_negative()) {
    num = -num;
    den = -den;
  }
  const BigInt g = reference_gcd(num, den);
  if (g != BigInt(1)) {
    num = BigInt::div_exact(num, g);
    den = BigInt::div_exact(den, g);
  }
  return {num, den};
}

/// A random magnitude of 1..4 limbs (top limb nonzero), times 2^shift, with
/// a random sign.
BigInt random_bigint(nd::Prng& g, std::size_t shift) {
  BigInt v;
  const auto limbs = g.uniform_int(1, 4);
  for (std::int64_t k = 0; k < limbs; ++k) v = v.shl(64) + BigInt::from_u64(g() | 1u);
  v = v.shl(shift);
  return g.bernoulli(0.5) ? -v : v;
}

TEST(ExactRat, DyadicFastPathsMatchReferenceReduction) {
  nd::Prng g(2024);
  const BigInt one(1);
  std::vector<BigInt> nums = {BigInt(), one, -one, BigInt(6), -BigInt(12)};
  std::vector<BigInt> dens = {one, -one, BigInt(3), BigInt(12)};
  for (const std::size_t k : {std::size_t{63}, std::size_t{64}, std::size_t{127},
                              std::size_t{128}}) {
    const BigInt p = one.shl(k);  // 2^63, 2^64, 2^127, 2^128
    for (const BigInt& v : {p, -p, p * BigInt(3), p - one}) {
      nums.push_back(v);
      dens.push_back(v);
    }
  }
  for (int i = 0; i < 40; ++i) {
    const auto shift = static_cast<std::size_t>(g.uniform_int(0, 200));
    nums.push_back(random_bigint(g, shift));
    // Dyadic: a pure power of two, large or small.
    dens.push_back(one.shl(static_cast<std::size_t>(g.uniform_int(0, 200))));
    // Non-dyadic: a random odd part times a power of two.
    dens.push_back(random_bigint(g, static_cast<std::size_t>(g.uniform_int(0, 130))));
  }
  for (const BigInt& num : nums) {
    for (const BigInt& den : dens) {
      const Rat r(num, den);
      const auto [rn, rd] = reference_reduce(num, den);
      ASSERT_EQ(r.num(), rn) << num.to_string() << " / " << den.to_string();
      ASSERT_EQ(r.den(), rd) << num.to_string() << " / " << den.to_string();
      ASSERT_EQ(BigInt::gcd(num, den), reference_gcd(num, den))
          << num.to_string() << ", " << den.to_string();
    }
  }
  // Dyadic arithmetic stays fully reduced: sums and products of doubles.
  for (int i = 0; i < 200; ++i) {
    const Rat a(g.uniform(-1e6, 1e6)), b(std::ldexp(g.uniform(-1.0, 1.0), -60));
    for (const Rat& c : {a + b, a - b, a * b, a * a + b}) {
      const auto [rn, rd] = reference_reduce(c.num(), c.den());
      ASSERT_EQ(c.num(), rn);
      ASSERT_EQ(c.den(), rd);
    }
  }
}

// ---------------------------------------------------------------------------
// Fraction-free linear solver

TEST(ExactLinearSystem, SolvesSmallSystemExactly) {
  std::vector<std::vector<Rat>> M = {{Rat(2), Rat(1)}, {Rat(1), Rat(3)}};
  std::vector<Rat> rhs = {Rat(5), Rat(10)};
  std::vector<Rat> x;
  ASSERT_TRUE(nd::analysis::solve_exact_linear_system(M, rhs, &x));
  EXPECT_EQ(x[0], Rat(1));
  EXPECT_EQ(x[1], Rat(3));
}

TEST(ExactLinearSystem, SolvesIllConditionedHilbertExactly) {
  // The 6x6 Hilbert system is float-hostile (cond ~ 1e7); exactly it is just
  // another matrix. rhs = H·1 must recover exactly ones.
  const int n = 6;
  std::vector<std::vector<Rat>> M(n, std::vector<Rat>(n));
  std::vector<Rat> rhs(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      M[i][j] = Rat(1, i + j + 1);
      rhs[i] += M[i][j];
    }
  }
  std::vector<Rat> x;
  ASSERT_TRUE(nd::analysis::solve_exact_linear_system(M, rhs, &x));
  for (int i = 0; i < n; ++i) EXPECT_EQ(x[i], Rat(1)) << "component " << i;
}

TEST(ExactLinearSystem, ReportsSingularMatrix) {
  std::vector<std::vector<Rat>> M = {{Rat(1), Rat(2)}, {Rat(2), Rat(4)}};
  std::vector<Rat> rhs = {Rat(1), Rat(2)};
  std::vector<Rat> x;
  EXPECT_FALSE(nd::analysis::solve_exact_linear_system(M, rhs, &x));
}

// ---------------------------------------------------------------------------
// Exact LP certificate checking

// minimize x0 + 2 x1  s.t.  x0 + x1 >= 1,  x0 + x1 <= 3,  x in [0,1]^2.
nd::lp::Problem simple_lp() {
  nd::lp::Problem p;
  p.add_var(0.0, 1.0, 1.0, "x0");
  p.add_var(0.0, 1.0, 2.0, "x1");
  p.add_row({{0, 1.0}, {1, 1.0}}, Sense::GE, 1.0);
  p.add_row({{0, 1.0}, {1, 1.0}}, Sense::LE, 3.0);
  return p;
}

nd::lp::Certificate solved_cert(const nd::lp::Problem& p) {
  const auto res = nd::lp::solve_lp_certified(p);
  EXPECT_EQ(res.cert.status, nd::lp::SolveStatus::kOptimal);
  return res.cert;
}

TEST(ExactLp, AcceptsGenuineCertificateExactly) {
  const auto p = simple_lp();
  const auto out = nd::analysis::certify_lp_exact(p, solved_cert(p));
  EXPECT_TRUE(out.accepted()) << out.report.to_table();
  EXPECT_TRUE(out.exactly_optimal);
  EXPECT_EQ(out.exact_objective, Rat(1));       // optimum (1, 0) exactly
  ASSERT_TRUE(out.has_safe_bound);
  EXPECT_LE(out.safe_lower_bound, Rat(1));
  EXPECT_EQ(out.safe_lower_bound, Rat(1));      // exact duals: bound is tight
}

TEST(ExactLp, RejectsObjectiveForgeryBelowFloatTolerance) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  cert.obj -= 1e-9;  // invisible to the 1e-6 float checker
  EXPECT_EQ(nd::analysis::certify_lp(p, cert).num_errors(), 0);
  const auto out = nd::analysis::certify_lp_exact(p, cert);
  EXPECT_GE(out.report.count_code(codes::kLpExactObjective), 1) << out.report.to_table();
}

TEST(ExactLp, RejectsDualDriftBelowFloatTolerance) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  cert.y[0] += 1e-9;
  EXPECT_EQ(nd::analysis::certify_lp(p, cert).num_errors(), 0);
  const auto out = nd::analysis::certify_lp_exact(p, cert);
  EXPECT_GE(out.report.count_code(codes::kLpExactDualDrift), 1) << out.report.to_table();
}

TEST(ExactLp, RejectsFlippedVariableStatus) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  // Claim a nonbasic variable rests at the OPPOSITE bound: the exact basic
  // point it induces sits a whole unit away from the certified vertex, so the
  // recomputed objective cannot match the claim.
  std::size_t flipped = cert.vstat.size();
  for (std::size_t j = 0; j < cert.vstat.size(); ++j) {
    if (cert.vstat[j] == nd::lp::VarStatus::kAtLower) {
      cert.vstat[j] = nd::lp::VarStatus::kAtUpper;
      flipped = j;
      break;
    }
    if (cert.vstat[j] == nd::lp::VarStatus::kAtUpper) {
      cert.vstat[j] = nd::lp::VarStatus::kAtLower;
      flipped = j;
      break;
    }
  }
  ASSERT_LT(flipped, cert.vstat.size()) << "fixture needs a nonbasic structural";
  const auto out = nd::analysis::certify_lp_exact(p, cert);
  EXPECT_GE(out.report.count_code(codes::kLpExactObjective), 1) << out.report.to_table();
}

TEST(ExactLp, RejectsDuplicateBasisEntry) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  ASSERT_GE(cert.basis.size(), std::size_t{2});
  cert.basis[1] = cert.basis[0];
  const auto out = nd::analysis::certify_lp_exact(p, cert);
  EXPECT_GE(out.report.count_code(codes::kLpExactShape), 1) << out.report.to_table();
}

TEST(ExactLp, RejectsZeroedFarkasRay) {
  nd::lp::Problem p;
  p.add_var(0.0, 1.0, 1.0, "x0");
  p.add_row({{0, 1.0}}, Sense::GE, 2.0);  // unreachable: x0 <= 1
  auto cert = nd::lp::solve_lp_certified(p).cert;
  ASSERT_EQ(cert.status, nd::lp::SolveStatus::kInfeasible);
  EXPECT_TRUE(nd::analysis::certify_lp_exact(p, cert).farkas_proved);
  std::fill(cert.farkas.begin(), cert.farkas.end(), 0.0);
  const auto out = nd::analysis::certify_lp_exact(p, cert);
  EXPECT_FALSE(out.farkas_proved);
  EXPECT_GE(out.report.count_code(codes::kLpExactFarkas), 1) << out.report.to_table();
}

TEST(ExactLp, RejectsInfeasibilityClaimOnFeasibleProblem) {
  const auto p = simple_lp();
  nd::lp::Certificate cert;
  cert.status = nd::lp::SolveStatus::kInfeasible;
  cert.farkas = {1.0, 0.0};  // "x0 + x1 >= 1 is unreachable" — it is not
  const auto out = nd::analysis::certify_lp_exact(p, cert);
  EXPECT_FALSE(out.farkas_proved);
  EXPECT_GE(out.report.count_code(codes::kLpExactFarkas), 1) << out.report.to_table();
}

TEST(ExactLp, SafeDualBoundSurvivesWrongSignedDuals) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  // A grossly wrong-signed dual must be projected away, not poison the
  // bound: the result is weaker, never invalid.
  std::vector<double> y = cert.y;
  y[1] = 5.0;  // LE row wants y <= 0
  Rat bound;
  ASSERT_TRUE(nd::analysis::exact_safe_dual_bound(p, y, &bound));
  EXPECT_LE(bound, Rat(1));
}

// ---------------------------------------------------------------------------
// Exact B&B audit replay

// minimize -x0 - 0.9 x1  s.t.  x0 + x1 <= 7.5,  x0, x1 in [0,10] integer.
nd::milp::Model staircase_model() {
  nd::milp::Model m;
  const int x0 = m.add_int(0.0, 10.0, -1.0, "x0");
  const int x1 = m.add_int(0.0, 10.0, -0.9, "x1");
  m.add_row({{x0, 1.0}, {x1, 1.0}}, Sense::LE, 7.5);
  return m;
}

nd::milp::AuditLog solved_audit(const nd::milp::Model& m, int threads = 1,
                                bool presolve = true) {
  nd::milp::AuditLog audit;
  nd::milp::MipOptions opt;
  opt.num_threads = threads;
  opt.presolve = presolve;
  opt.audit = &audit;
  const auto res = nd::milp::solve(m, opt);
  EXPECT_EQ(res.status, nd::milp::MipStatus::kOptimal);
  return audit;
}

TEST(ExactBnb, AcceptsGenuineAudit) {
  const auto m = staircase_model();
  const auto audit = solved_audit(m);
  const auto out = nd::analysis::certify_bnb_exact(m, audit);
  EXPECT_TRUE(out.accepted()) << out.report.to_table();
  EXPECT_EQ(out.resolves_failed, 0);
}

TEST(ExactBnb, RejectsForgedPrune) {
  const auto m = staircase_model();
  const auto genuine = solved_audit(m);
  // Claim a node that actually BRANCHED was bound-pruned: its true LP bound
  // sits below the cutoff (that is why it branched), so the exact re-proof
  // must fail. The float replay trusts the recorded disposition and bound.
  std::size_t forged = genuine.nodes.size();
  for (std::size_t i = 0; i < genuine.nodes.size(); ++i) {
    if (genuine.nodes[i].parent >= 0 && genuine.nodes[i].disp == NodeDisp::kBranched) {
      forged = i;
      break;
    }
  }
  ASSERT_LT(forged, genuine.nodes.size()) << "fixture needs an interior branched node";
  // Whatever vector the forged node carries, no valid bound can clear the
  // cutoff (weak duality), so the replay must fall back to a re-solve and
  // still reject the prune.
  ASSERT_TRUE(genuine.nodes[forged].proof) << "a branched node's LP was solved";
  const ProofVector true_y = *genuine.nodes[forged].proof;
  ASSERT_FALSE(true_y.empty()) << "the staircase row binds at every branched node";
  const auto scaled = [&](double k) {
    ProofVector v = true_y;
    for (auto& e : v) e.second *= k;
    return v;
  };
  nd::Prng g(97);
  ProofVector random;
  for (int r = 0; r < m.lp().num_rows(); ++r) random.emplace_back(r, g.uniform(-10.0, 10.0));
  const std::pair<const char*, ProofVector> vectors[] = {
      {"true y", true_y}, {"1e6 y", scaled(1e6)}, {"-y", scaled(-1.0)}, {"random", random}};
  for (const auto& [what, proof] : vectors) {
    auto audit = genuine;
    audit.nodes[forged].disp = NodeDisp::kPrunedBound;
    audit.nodes[forged].proof = proof;
    const auto out = nd::analysis::certify_bnb_exact(m, audit);
    EXPECT_GE(out.report.count_code(codes::kBnbExactPrune), 1) << what << "\n"
                                                               << out.report.to_table();
    EXPECT_GE(out.resolves, 1) << what;
  }
}

TEST(ExactBnb, RejectsObjectiveTamperBelowFloatTolerance) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  audit.obj -= 1e-9;  // "found" a marginally better incumbent than the tree did
  const auto out = nd::analysis::certify_bnb_exact(m, audit);
  EXPECT_GE(out.report.count_code(codes::kBnbExactObjective), 1) << out.report.to_table();
}

TEST(ExactBnb, RejectsBestBoundAboveIncumbent) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  audit.best_bound = audit.obj + 1e-9;
  const auto out = nd::analysis::certify_bnb_exact(m, audit);
  EXPECT_GE(out.report.count_code(codes::kBnbExactObjective), 1) << out.report.to_table();
}

// ---------------------------------------------------------------------------
// Recorded proof vectors vs cold re-solves

/// Errors and warnings of a report, in report order.
std::vector<std::string> findings(const nd::analysis::Report& rep) {
  std::vector<std::string> out;
  for (const auto& d : rep.diagnostics()) {
    if (d.severity == nd::analysis::Severity::kInfo) continue;
    out.push_back(std::string(nd::analysis::to_string(d.severity)) + " " + d.code + " " +
                  d.subject + " " + d.message);
  }
  return out;
}

/// Nodes whose disposition rests on an LP: the ones the exact replay proves.
int lp_backed_nodes(const AuditLog& audit) {
  return static_cast<int>(std::count_if(audit.nodes.begin(), audit.nodes.end(), [](const auto& n) {
    return n.disp == NodeDisp::kPrunedBound || n.disp == NodeDisp::kSkippedParentBound ||
           n.disp == NodeDisp::kCompletionClosed || n.disp == NodeDisp::kPrunedInfeasible;
  }));
}

/// Replays `audit` with its recorded vectors and with every vector stripped
/// (an old log): same verdict, but only the stripped replay re-solves.
void expect_vectors_match_resolves(const nd::milp::Model& model, const AuditLog& audit,
                                   const nd::analysis::CertifyBnbExactOptions& opt,
                                   const std::string& what) {
  AuditLog stripped = audit;
  for (auto& n : stripped.nodes) n.proof.reset();
  const auto with = nd::analysis::certify_bnb_exact(model, audit, opt);
  const auto without = nd::analysis::certify_bnb_exact(model, stripped, opt);
  EXPECT_TRUE(with.accepted()) << what << "\n" << with.report.to_table();
  EXPECT_EQ(with.bounds_reproved, without.bounds_reproved) << what;
  EXPECT_EQ(with.resolves_failed, without.resolves_failed) << what;
  EXPECT_EQ(findings(with.report), findings(without.report)) << what;
  EXPECT_EQ(with.resolves, 0) << what;
  EXPECT_EQ(with.reproved_from_vectors, with.bounds_reproved) << what;
  EXPECT_EQ(without.resolves, lp_backed_nodes(audit)) << what;
  EXPECT_EQ(without.reproved_from_vectors, 0) << what;
}

void expect_golden_corpus_match(int threads) {
  int lp_backed = 0;
  for (const auto& [seed, golden] : nd::test::kGoldenMilp) {
    for (const bool presolve : {true, false}) {
      const AuditLog audit = solved_audit(nd::test::golden_milp(seed), threads, presolve);
      lp_backed += lp_backed_nodes(audit);
      expect_vectors_match_resolves(nd::test::golden_milp(seed), audit, {},
                                    "golden seed " + std::to_string(seed) + ", " +
                                        std::to_string(threads) + " thread(s), presolve " +
                                        (presolve ? "on" : "off"));
    }
  }
  EXPECT_GT(lp_backed, 0);
}

TEST(ExactBnb, RecordedVectorsMatchColdResolvesSerial) { expect_golden_corpus_match(1); }

TEST(ParallelBnb, RecordedVectorsMatchColdResolves) {
  expect_golden_corpus_match(2);
  expect_golden_corpus_match(4);
}

/// A sweep_scale() instance solved as the sweep and the benchmark solve it
/// (heuristic warm start, instance presolve, completion), with an audit,
/// then replayed with and without its recorded vectors.
void expect_sweep_instance_match(std::uint64_t seed, int threads) {
  const std::string what = "sweep seed " + std::to_string(seed) + ", " +
                           std::to_string(threads) + " thread(s)";
  nd::bench::Scale sc = nd::bench::sweep_scale();
  sc.seed = seed;
  const auto problem = nd::bench::make_instance(sc);
  const nd::model::Formulation f(*problem);
  const auto warm = nd::heuristic::solve_heuristic(*problem);
  std::vector<double> warm_point;
  nd::analysis::InstancePresolveOptions iopt;
  AuditLog audit;
  nd::milp::MipOptions mopt;
  mopt.num_threads = threads;
  mopt.audit = &audit;
  if (warm.feasible) {
    warm_point = f.encode(warm.solution);
    mopt.warm_start = &warm_point;
    iopt.warm = &warm_point;
  }
  mopt.completion = [&f](const std::vector<double>& lp_point, std::vector<double>* out) {
    return f.complete(lp_point, out);
  };
  const auto ipre = nd::analysis::instance_reductions(f, iopt);
  mopt.instance_reductions = &ipre.log;
  const auto res = nd::milp::solve(f.model(), mopt);
  ASSERT_EQ(res.status, nd::milp::MipStatus::kOptimal) << what;
  ASSERT_TRUE(audit.presolved) << what;
  EXPECT_GT(lp_backed_nodes(audit), 0) << what;
  nd::analysis::CertifyBnbExactOptions opt;
  opt.formulation = &f;
  expect_vectors_match_resolves(f.model(), audit, opt, what);
}

TEST(ExactBnb, RecordedVectorsMatchColdResolvesOnPresolvedSweepInstances) {
  for (const std::uint64_t seed : {1, 2, 3}) expect_sweep_instance_match(seed, 1);
}

TEST(ParallelBnb, RecordedVectorsMatchColdResolvesOnPresolvedSweepInstance) {
  expect_sweep_instance_match(1, 2);
  expect_sweep_instance_match(1, 4);
}

TEST(ExactBnb, RecordedVectorsSurviveJsonRoundTripBitExact) {
  AuditLog audit = solved_audit(nd::test::golden_milp(3));
  // Values a lossy number format would bend, on a node that has none.
  const std::size_t edge = audit.nodes.size() - 1;
  audit.nodes[edge].proof = ProofVector{{0, std::numeric_limits<double>::denorm_min()},
                                        {1, -std::numeric_limits<double>::max()},
                                        {2, 1.0 / 3.0},
                                        {3, -0.1},
                                        {4, std::numeric_limits<double>::infinity()}};
  const AuditLog back =
      nd::milp::audit_from_json(nd::json::parse(nd::milp::audit_to_json(audit).dump(2)));
  ASSERT_EQ(back.nodes.size(), audit.nodes.size());
  std::size_t entries = 0;
  for (std::size_t i = 0; i < audit.nodes.size(); ++i) {
    ASSERT_EQ(audit.nodes[i].proof.has_value(), back.nodes[i].proof.has_value()) << "node " << i;
    if (!audit.nodes[i].proof) continue;
    const ProofVector& a = *audit.nodes[i].proof;
    const ProofVector& b = *back.nodes[i].proof;
    ASSERT_EQ(a.size(), b.size()) << "node " << i;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].first, b[k].first) << "node " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[k].second),
                std::bit_cast<std::uint64_t>(b[k].second))
          << "node " << i << " entry " << k;
    }
    entries += a.size();
  }
  EXPECT_GT(entries, std::size_t{5});
}

/// `audit` through JSON, with node `id`'s "proof" field replaced by `proof`.
AuditLog with_json_proof(const AuditLog& audit, int id, nd::json::Value proof) {
  nd::json::Object top = nd::milp::audit_to_json(audit).as_object();
  for (auto& [key, val] : top) {
    if (key != "nodes") continue;
    nd::json::Array nodes = val.as_array();
    nd::json::Object node = nodes[static_cast<std::size_t>(id)].as_object();
    for (auto& [k, v] : node) {
      if (k == "proof") v = proof;
    }
    nodes[static_cast<std::size_t>(id)] = std::move(node);
    val = std::move(nodes);
  }
  return nd::milp::audit_from_json(nd::json::parse(nd::json::Value(std::move(top)).dump()));
}

TEST(ExactBnb, MalformedRecordedVectorsAreWarnedAndReSolved) {
  const nd::milp::Model m = nd::test::golden_milp(3);
  const AuditLog audit = solved_audit(m);
  const auto clean = nd::analysis::certify_bnb_exact(m, audit);
  ASSERT_TRUE(clean.accepted()) << clean.report.to_table();
  ASSERT_EQ(clean.resolves, 0);
  // A pruned leaf: no other node's replay reads its vector.
  int leaf = -1;
  for (const auto& n : audit.nodes) {
    if ((n.disp == NodeDisp::kPrunedBound || n.disp == NodeDisp::kPrunedInfeasible) &&
        n.proof && !n.proof->empty()) {
      leaf = n.id;
      break;
    }
  }
  ASSERT_GE(leaf, 0) << "fixture needs a pruned node with a recorded vector";
  const ProofVector& rec = *audit.nodes[static_cast<std::size_t>(leaf)].proof;
  const auto proof_json = [&](const std::function<void(nd::json::Array&, nd::json::Array&)>& edit) {
    nd::json::Array rows, vals;
    for (const auto& [r, v] : rec) {
      rows.emplace_back(r);
      vals.emplace_back(v);
    }
    edit(rows, vals);
    return nd::json::Value(nd::json::Object{{"rows", rows}, {"vals", vals}});
  };
  const std::pair<const char*, nd::json::Value> tampered[] = {
      {"row out of range", proof_json([](auto& rows, auto&) { rows[0] = 1000000; })},
      {"negative row", proof_json([](auto& rows, auto&) { rows[0] = -1; })},
      {"non-integer row", proof_json([](auto& rows, auto&) { rows[0] = 0.5; })},
      {"repeated row", proof_json([](auto& rows, auto& vals) {
         rows.push_back(rows[0]);
         vals.push_back(vals[0]);
       })},
      {"infinite value", proof_json([](auto&, auto& vals) { vals[0] = "inf"; })},
      {"negative infinite value", proof_json([](auto&, auto& vals) { vals[0] = "-inf"; })},
  };
  const std::string subject = "node" + std::to_string(leaf);
  for (const auto& [what, proof] : tampered) {
    const auto out = nd::analysis::certify_bnb_exact(m, with_json_proof(audit, leaf, proof));
    EXPECT_EQ(out.accepted(), clean.accepted()) << what << "\n" << out.report.to_table();
    EXPECT_EQ(out.bounds_reproved, clean.bounds_reproved) << what;
    EXPECT_EQ(out.report.num_errors(), clean.report.num_errors()) << what;
    EXPECT_EQ(out.resolves, 1) << what;
    EXPECT_EQ(out.report.num_warnings(), clean.report.num_warnings() + 1) << what;
    int warned = 0;
    for (const auto& d : out.report.diagnostics()) {
      if (d.code == codes::kBnbExactResolve && d.subject == subject) ++warned;
    }
    EXPECT_EQ(warned, 1) << what << "\n" << out.report.to_table();
  }
}

// ---------------------------------------------------------------------------
// Static deployment verifier

struct VerifiedFixture {
  std::unique_ptr<nd::deploy::DeploymentProblem> problem;
  nd::deploy::DeploymentSolution solution;
  double be = 0.0;
};

VerifiedFixture heuristic_fixture() {
  VerifiedFixture fx;
  fx.problem = nd::test::tiny_problem({});
  const auto h = nd::heuristic::solve_heuristic(*fx.problem);
  EXPECT_TRUE(h.feasible) << h.why;
  fx.solution = h.solution;
  fx.be = nd::deploy::evaluate_energy(*fx.problem, h.solution).max_proc();
  return fx;
}

TEST(VerifyDeployment, ProvesHeuristicDeployment) {
  const auto fx = heuristic_fixture();
  nd::analysis::VerifyDeploymentOptions opt;
  opt.claimed_be = fx.be;
  const auto out = nd::analysis::verify_deployment(*fx.problem, fx.solution, opt);
  EXPECT_TRUE(out.accepted()) << out.report.to_table();
  EXPECT_TRUE(out.schedule_proved);
  EXPECT_TRUE(out.reliability_proved);
  EXPECT_TRUE(out.energy_exact);
  EXPECT_GT(out.exact_be, Rat());
  EXPECT_LE(out.exact_be, out.exact_me);  // bottleneck <= total, exactly
}

TEST(VerifyDeployment, RejectsEnergyForgeryBelowFloatTolerance) {
  const auto fx = heuristic_fixture();
  nd::analysis::VerifyDeploymentOptions opt;
  opt.claimed_be = fx.be * (1.0 + 1e-9);
  const auto out = nd::analysis::verify_deployment(*fx.problem, fx.solution, opt);
  EXPECT_GE(out.report.count_code(codes::kVerifyEnergy), 1) << out.report.to_table();
}

TEST(VerifyDeployment, RejectsHorizonShrunkBelowExactMakespan) {
  auto fx = heuristic_fixture();
  nd::analysis::VerifyDeploymentOptions opt;
  const auto honest = nd::analysis::verify_deployment(*fx.problem, fx.solution, opt);
  ASSERT_TRUE(honest.schedule_proved);
  // One part in 1e8 below the exact makespan: far outside the derived
  // envelope (~1e-10 at this scale) yet far inside the 1e-6 float tolerance.
  fx.problem->set_horizon(honest.exact_makespan.to_double() * (1.0 - 1e-8));
  const auto out = nd::analysis::verify_deployment(*fx.problem, fx.solution, opt);
  EXPECT_FALSE(out.schedule_proved);
  EXPECT_GE(out.report.count_code(codes::kVerifyHorizon), 1) << out.report.to_table();
}

TEST(VerifyDeployment, RejectsReliabilityThresholdRaisedPastProduct) {
  const auto fx = heuristic_fixture();
  // The same instance rebuilt with R_th = 1 − 1e-12: no deployment meets it
  // (even duplicated tasks keep a larger failure mass), and the verifier must
  // prove that by interval refinement, not float guessing.
  nd::test::TinySpec tight;
  tight.r_th = 1.0 - 1e-12;
  const auto strict = nd::test::tiny_problem(tight);
  const auto out = nd::analysis::verify_deployment(*strict, fx.solution, {});
  EXPECT_FALSE(out.reliability_proved);
  EXPECT_GE(out.report.count_code(codes::kVerifyReliability), 1) << out.report.to_table();
}

TEST(VerifyDeployment, RejectsAssignmentOffMesh) {
  const auto fx = heuristic_fixture();
  auto bad = fx.solution;
  bad.proc[0] = fx.problem->mesh().num_procs() + 3;
  const auto out = nd::analysis::verify_deployment(*fx.problem, bad, {});
  EXPECT_FALSE(out.accepted());
  EXPECT_GE(out.report.count_code(codes::kVerifyAssign), 1) << out.report.to_table();
}

// ---------------------------------------------------------------------------
// Telemetry

TEST(ExactTelemetry, CountersObserveExactChecks) {
  if (!nd::obs::compiled_in()) {
    // Obs-OFF flavour: the macros compile to no-ops and stay silent.
    nd::obs::counter_add("exact.lp_checked", 1);
    SUCCEED();
    return;
  }
  ASSERT_TRUE(nd::obs::start());
  const auto p = simple_lp();
  (void)nd::analysis::certify_lp_exact(p, solved_cert(p));
  const auto fx = heuristic_fixture();
  (void)nd::analysis::verify_deployment(*fx.problem, fx.solution, {});
  const auto m = staircase_model();
  const AuditLog audit = solved_audit(m);
  (void)nd::analysis::certify_bnb_exact(m, audit);
  const auto totals = nd::obs::counter_totals();
  const auto profile = nd::obs::stop();
  // The audit's footprint counts the recorded vectors' heap bytes too.
  std::size_t audit_bytes = audit.nodes.capacity() * sizeof(nd::milp::AuditNode);
  for (const auto& n : audit.nodes) {
    if (n.proof) audit_bytes += n.proof->capacity() * sizeof(ProofVector::value_type);
  }
  EXPECT_EQ(totals.at("mem.audit.bytes"), static_cast<long long>(audit_bytes));
  EXPECT_GE(totals.count("exact.lp_checked"), std::size_t{1});
  EXPECT_GE(totals.at("exact.lp_checked"), 1);
  EXPECT_GE(totals.at("exact.bnb_bounds_reproved"), 1);
  // Every prune of a fresh audit is proved from its recorded vector.
  ASSERT_EQ(totals.count("exact.bnb_resolves"), std::size_t{1});
  EXPECT_EQ(totals.at("exact.bnb_resolves"), 0);
  EXPECT_GE(profile.values.count("exact.verify_ms"), std::size_t{1});
}

}  // namespace
