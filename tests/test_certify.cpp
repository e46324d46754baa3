// Tests for the certificate checkers — the exact LP certificate checker
// (analysis/exact/certify_lp_exact), the audit tree pass
// (analysis/certify_bnb) and the audit replay built on it
// (analysis/exact/certify_bnb_exact) — and the differential cross-check
// harness.
//
// The pattern throughout: solve a small problem for real, assert the genuine
// certificate/audit is ACCEPTED, then hand-mutate one aspect at a time and
// assert the checker rejects it with the expected diagnostic code. A checker
// that accepts everything would pass the positive tests alone; the mutation
// matrix is what proves it actually checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "analysis/certify_bnb.hpp"
#include "analysis/crosscheck.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/exact/certify_bnb_exact.hpp"
#include "analysis/exact/certify_lp_exact.hpp"
#include "common/json.hpp"
#include "lp/certificate.hpp"
#include "lp/problem.hpp"
#include "milp/audit.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"

namespace {

namespace codes = nd::analysis::codes;
using nd::analysis::Report;
using nd::lp::Sense;

// ---------------------------------------------------------------------------
// LP certificates

// minimize x0 + 2 x1  s.t.  x0 + x1 >= 1,  x0 + x1 <= 3,  x in [0,1]^2.
// Optimum x = (1, 0), obj 1; the LE row is inactive at the optimum.
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

/// The exact checker's report on `cert`.
Report certify(const nd::lp::Problem& p, const nd::lp::Certificate& cert) {
  return nd::analysis::certify_lp_exact(p, cert).report;
}

/// Errors in `rep` with diagnostic code `code`.
int errors_of(const Report& rep, const char* code) {
  int k = 0;
  for (const auto& d : rep.diagnostics()) {
    if (d.severity == nd::analysis::Severity::kError && d.code == code) ++k;
  }
  return k;
}

// simple_lp's basis with x0 at its lower bound and x1 basic on the GE row.
// Its vertex (0, 1) is feasible with objective 2, and its exact duals (2, 0)
// have the right row signs, but they leave x0 the reduced cost -1: the
// optimum 1 lies below, and these duals prove only 2 + (-1)·1 = 1.
nd::lp::Certificate suboptimal_cert() {
  nd::lp::Certificate c;
  c.status = nd::lp::SolveStatus::kOptimal;
  c.obj = 2.0;
  c.x = {0.0, 1.0};
  c.y = {2.0, 0.0};
  c.vstat = {nd::lp::VarStatus::kAtLower, nd::lp::VarStatus::kBasic};
  c.basis = {1, 3};  // x1 on row 0; row 1's slack
  return c;
}

TEST(CertifyLp, RejectsTamperedObjective) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  cert.obj += 0.25;
  const Report rep = certify(p, cert);
  EXPECT_GE(rep.count_code(codes::kLpExactObjective), 1) << rep.to_table();
}

TEST(CertifyLp, RejectsPrimalBoundViolation) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  cert.x[0] = 1.5;  // above its upper bound of 1
  const Report rep = certify(p, cert);
  EXPECT_GE(rep.count_code(codes::kLpExactPointDrift), 1) << rep.to_table();
}

TEST(CertifyLp, RejectsPrimalRowViolation) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  cert.x = {0.2, 0.2};  // violates x0 + x1 >= 1
  const Report rep = certify(p, cert);
  EXPECT_GE(rep.count_code(codes::kLpExactPointDrift), 1) << rep.to_table();
}

TEST(CertifyLp, RejectsWrongDualSign) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  // Minimization with a GE row demands y >= 0 on that row.
  cert.y[0] = -1.0;
  const Report rep = certify(p, cert);
  EXPECT_GE(rep.count_code(codes::kLpExactDualDrift), 1) << rep.to_table();
}

TEST(CertifyLp, RejectsSlacknessViolation) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  // The LE row is inactive (activity 1 < 3): a nonzero dual on it breaks
  // complementary slackness even though the sign (y <= 0 on LE) is legal.
  cert.y[1] = -0.5;
  const Report rep = certify(p, cert);
  EXPECT_GE(rep.count_code(codes::kLpExactDualDrift), 1) << rep.to_table();
}

TEST(CertifyLp, RejectsNonOptimalBasis) {
  // Claimed point, duals and objective are exactly the basis's own, so only
  // the optimality of the basis itself can reject it.
  const Report rep = certify(simple_lp(), suboptimal_cert());
  EXPECT_EQ(errors_of(rep, codes::kLpExactDual), 1) << rep.to_table();
  EXPECT_EQ(rep.num_errors(), 1) << rep.to_table();
}

TEST(CertifyLp, RejectsWrongStatusClaim) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  cert.status = nd::lp::SolveStatus::kIterLimit;
  const Report rep = certify(p, cert);
  EXPECT_GE(rep.count_code(codes::kLpExactShape), 1) << rep.to_table();
}

TEST(CertifyLp, CertificateJsonWithReducedCostsLoadsUnchanged) {
  const auto p = simple_lp();
  const auto cert = solved_cert(p);
  // Certificates were once written with their reduced costs as "d".
  nd::json::Object o = nd::lp::certificate_to_json(cert).as_object();
  o.emplace_back("d", nd::json::Array{nd::json::Value(0.0), nd::json::Value(1.0)});
  const auto old =
      nd::lp::certificate_from_json(nd::json::parse(nd::json::Value(std::move(o)).dump()));
  EXPECT_EQ(old.status, cert.status);
  EXPECT_EQ(old.obj, cert.obj);
  EXPECT_EQ(old.x, cert.x);
  EXPECT_EQ(old.y, cert.y);
  EXPECT_EQ(old.vstat, cert.vstat);
  EXPECT_EQ(old.basis, cert.basis);
  EXPECT_EQ(old.farkas, cert.farkas);
  EXPECT_EQ(nd::lp::certificate_to_json(old).dump(), nd::lp::certificate_to_json(cert).dump());
}

TEST(CertifyLp, AcceptsGenuineFarkasRay) {
  nd::lp::Problem p;
  p.add_var(0.0, 1.0, 1.0, "x0");
  p.add_row({{0, 1.0}}, Sense::GE, 2.0);  // x0 >= 2 with x0 <= 1: infeasible
  const auto res = nd::lp::solve_lp_certified(p);
  ASSERT_EQ(res.cert.status, nd::lp::SolveStatus::kInfeasible);
  ASSERT_TRUE(res.cert.has_farkas_ray());
  const Report rep = certify(p, res.cert);
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

// ---------------------------------------------------------------------------
// Branch-and-bound audit replay

// minimize -x0 - 0.9 x1  s.t.  x0 + x1 <= 7.5,  x0, x1 in [0,10] integer.
// The LP relaxation (7.5, 0) is fractional, so the solver must branch; the
// staircase of children gives the replayer a real tree (branched, integral,
// bound-pruned and infeasible nodes) while still solving in milliseconds.
nd::milp::Model staircase_model() {
  nd::milp::Model m;
  const int x0 = m.add_int(0.0, 10.0, -1.0, "x0");
  const int x1 = m.add_int(0.0, 10.0, -0.9, "x1");
  m.add_row({{x0, 1.0}, {x1, 1.0}}, Sense::LE, 7.5);
  return m;
}

nd::milp::AuditLog solved_audit(const nd::milp::Model& m) {
  nd::milp::AuditLog audit;
  nd::milp::MipOptions opt;
  opt.audit = &audit;
  const auto res = nd::milp::solve(m, opt);
  EXPECT_EQ(res.status, nd::milp::MipStatus::kOptimal);
  EXPECT_NEAR(res.obj, -7.0, 1e-6);
  return audit;
}

int find_node(const nd::milp::AuditLog& log, nd::milp::NodeDisp disp) {
  for (const auto& n : log.nodes) {
    if (n.disp == disp) return n.id;
  }
  return -1;
}

TEST(CertifyBnb, AcceptsGenuineAudit) {
  const auto m = staircase_model();
  const auto audit = solved_audit(m);
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

TEST(CertifyBnb, AuditSurvivesJsonRoundTrip) {
  const auto m = staircase_model();
  const auto audit = solved_audit(m);
  const auto round = nd::milp::audit_from_json(nd::milp::audit_to_json(audit));
  EXPECT_EQ(round.nodes.size(), audit.nodes.size());
  const Report rep = nd::analysis::certify_bnb(m, round);
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

TEST(CertifyBnb, RejectsTamperedIncumbent) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  audit.obj -= 0.5;  // claims an incumbent the tree never produced
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_GE(rep.count_code(codes::kBnbIncumbentMismatch), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsBoundAboveIncumbent) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  audit.best_bound = audit.obj + 1.0;  // a lower bound cannot exceed the optimum
  const Report rep = nd::analysis::certify_bnb_exact(m, audit).report;
  EXPECT_GE(rep.count_code(codes::kBnbExactObjective), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsBrokenTreeStructure) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  ASSERT_GE(audit.nodes.size(), 2u);
  audit.nodes[1].parent = 1;  // self-parent: ids must strictly increase
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_GE(rep.count_code(codes::kBnbStructure), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsDomainCoverGap) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  // Shrink one branch child's interval so the two children no longer cover
  // the parent domain — the classic "solver skipped part of the space" bug.
  bool mutated = false;
  for (auto& n : audit.nodes) {
    if (n.parent >= 0 && n.hi > n.lo + 0.5) {
      n.hi -= 1.0;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated) << "no shrinkable branch interval in the tree";
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_GE(rep.count_code(codes::kBnbCoverGap), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsIllegalPrune) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  const int id = find_node(audit, nd::milp::NodeDisp::kPrunedBound);
  ASSERT_GE(id, 0) << "expected at least one bound-pruned node";
  // Rewrite history: the node's recorded bound now says it was strictly
  // better than the final incumbent, so pruning it was unsound.
  audit.nodes[static_cast<std::size_t>(id)].bound = audit.obj - 10.0;
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_GE(rep.count_code(codes::kBnbPruneIllegal), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsLimitNodeUnderOptimalClaim) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  const int id = find_node(audit, nd::milp::NodeDisp::kPrunedBound);
  ASSERT_GE(id, 0);
  // An optimality claim with an unexplored leaf in the tree is unsound.
  audit.nodes[static_cast<std::size_t>(id)].disp = nd::milp::NodeDisp::kLimit;
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_GE(rep.count_code(codes::kBnbLimitNotOptimal), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsUnjustifiedRootFixing) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  // Claim variable 1 was frozen to its lower bound at the root. The root
  // duals carry no reduced-cost justification for it.
  audit.root_fixings.push_back({1, true, 0.0, 0.0});
  const Report rep = nd::analysis::certify_bnb_exact(m, audit).report;
  EXPECT_GE(rep.count_code(codes::kBnbExactFixing), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsRootFixingsOnNonOptimalRootBasis) {
  // simple_lp over binaries: the root LP optimum (1, 0) is integral, so the
  // tree is the root alone.
  nd::milp::Model m;
  const int x0 = m.add_bin(1.0, "x0");
  const int x1 = m.add_bin(2.0, "x1");
  m.add_row({{x0, 1.0}, {x1, 1.0}}, Sense::GE, 1.0);
  m.add_row({{x0, 1.0}, {x1, 1.0}}, Sense::LE, 3.0);
  nd::milp::AuditLog audit;
  nd::milp::MipOptions opt;
  opt.presolve = false;
  opt.audit = &audit;
  ASSERT_EQ(nd::milp::solve(m, opt).status, nd::milp::MipStatus::kOptimal);
  ASSERT_EQ(audit.nodes.size(), 1u);
  ASSERT_TRUE(nd::analysis::certify_bnb_exact(m, audit).accepted());
  // Root at the suboptimal basis, with x0 fixed to its upper bound under an
  // incumbent of 2: the basis's reduced cost -1 on x0 covers the slack
  // 2 - 1 to the bound its duals prove, but that basis is no LP optimum.
  audit.root_cert = suboptimal_cert();
  audit.root_bound = 2.0;
  audit.warm_accepted = true;
  audit.warm_obj = 2.0;
  audit.root_fixings.push_back({x0, false, 1.0, 1.0});
  const Report rep = nd::analysis::certify_bnb_exact(m, audit).report;
  EXPECT_EQ(errors_of(rep, codes::kLpExactDual), 1) << rep.to_table();
  EXPECT_EQ(rep.num_errors(), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsCorruptedRootCertificate) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  ASSERT_FALSE(audit.root_cert.y.empty());
  audit.root_cert.obj += 1.0;  // root certificate no longer matches anything
  const Report rep = nd::analysis::certify_bnb_exact(m, audit).report;
  EXPECT_GE(rep.count_code(codes::kLpExactObjective), 1) << rep.to_table();
}

// ---------------------------------------------------------------------------
// Presolved audits: the tree pass and the audit replay rebuild the searched
// model through one front half (analysis::searched_model), so they must reach
// the same verdicts.

// Solves `m` with presolve on and returns the audit, which must be presolved.
nd::milp::AuditLog presolved_audit(const nd::milp::Model& m) {
  nd::milp::AuditLog audit;
  nd::milp::MipOptions opt;
  opt.presolve = true;
  opt.audit = &audit;
  (void)nd::milp::solve(m, opt);
  EXPECT_TRUE(audit.presolved);
  return audit;
}

// Runs the tree pass and the audit replay on `audit`: each must report
// exactly `presolve_errors` errors, all of them bnb-presolve.
void expect_replays(const nd::milp::Model& m, const nd::milp::AuditLog& audit,
                    int presolve_errors, const char* what) {
  const Report fl = nd::analysis::certify_bnb(m, audit);
  const Report ex = nd::analysis::certify_bnb_exact(m, audit).report;
  for (const Report* rep : {&fl, &ex}) {
    const char* who = rep == &fl ? "tree pass" : "audit replay";
    int presolve = 0;
    for (const auto& d : rep->diagnostics()) {
      if (d.severity == nd::analysis::Severity::kError && d.code == codes::kBnbPresolve) ++presolve;
    }
    EXPECT_EQ(rep->num_errors(), presolve_errors) << what << ", " << who << "\n"
                                                  << rep->to_table();
    EXPECT_EQ(presolve, presolve_errors) << what << ", " << who << "\n" << rep->to_table();
  }
}

TEST(CertifyBnb, BothReplaysJudgePresolvedAuditsAlike) {
  {
    // Presolve proves infeasibility: x + y >= 3 over two binaries.
    nd::milp::Model m;
    const int x = m.add_bin(1.0, "x");
    const int y = m.add_bin(1.0, "y");
    m.add_row({{x, 1.0}, {y, 1.0}}, Sense::GE, 3.0);
    const auto audit = presolved_audit(m);
    ASSERT_EQ(audit.status, nd::milp::MipStatus::kInfeasible);
    ASSERT_TRUE(audit.nodes.empty());
    expect_replays(m, audit, 0, "infeasible, genuine");
    auto claimed = audit;
    claimed.status = nd::milp::MipStatus::kOptimal;
    expect_replays(m, claimed, 1, "infeasible, claimed optimal");
    auto shifted = audit;
    shifted.presolve_shift += 1.0;
    expect_replays(m, shifted, 1, "infeasible, tampered shift");
  }
  {
    // Presolve eliminates every variable: x + y <= 0 over two binaries.
    nd::milp::Model m;
    const int x = m.add_bin(-1.0, "x");
    const int y = m.add_bin(-1.0, "y");
    m.add_row({{x, 1.0}, {y, 1.0}}, Sense::LE, 0.0);
    const auto audit = presolved_audit(m);
    ASSERT_EQ(audit.status, nd::milp::MipStatus::kOptimal);
    ASSERT_TRUE(audit.nodes.empty());
    expect_replays(m, audit, 0, "eliminated, genuine");
    auto claimed = audit;
    claimed.obj = -1.0;
    expect_replays(m, claimed, 1, "eliminated, tampered obj");
    auto shifted = audit;
    shifted.presolve_shift += 1.0;
    expect_replays(m, shifted, 1, "eliminated, tampered shift");
  }
  {
    // A real tree on a reduced model: z <= 0 holds a binary at 0, and the
    // integers in 2x + 2y <= 7 still need branching.
    nd::milp::Model m;
    const int x = m.add_int(0.0, 10.0, -1.0, "x");
    const int y = m.add_int(0.0, 10.0, -0.9, "y");
    const int z = m.add_bin(-1.0, "z");
    m.add_row({{x, 2.0}, {y, 2.0}}, Sense::LE, 7.0);
    m.add_row({{z, 1.0}}, Sense::LE, 0.0);
    const auto audit = presolved_audit(m);
    ASSERT_EQ(audit.status, nd::milp::MipStatus::kOptimal);
    ASSERT_GT(audit.nodes.size(), 1u) << "expected a branched tree";
    ASSERT_EQ(audit.x.size(), 2u) << "expected presolve to eliminate z";
    expect_replays(m, audit, 0, "tree, genuine");
    auto shifted = audit;
    shifted.presolve_shift += 1.0;
    expect_replays(m, shifted, 1, "tree, tampered shift");
  }
}

// ---------------------------------------------------------------------------
// Differential cross-check harness

TEST(Crosscheck, SingleSeedRunsClean) {
  nd::analysis::CrosscheckOptions opt;
  opt.milp_time_limit_s = 5.0;
  opt.verbose = false;
  const auto out = nd::analysis::crosscheck_seed(1, opt);
  EXPECT_EQ(out.report.num_errors(), 0) << out.report.to_table();
}

}  // namespace
