// Tests for the proof-carrying presolve layer (analysis/presolve):
//
//  * the instance passes (dominance / twins / orbits) genuinely fire on a
//    symmetric instance, the emitted log shrinks the model, and the
//    independent re-prover accepts it, in rational arithmetic;
//  * a mutation matrix of forged reduction records, each pinned to the
//    rejection diagnostic certify_presolve must raise — a checker that
//    accepts everything passes the positive tests alone, so the forgeries
//    are what prove it actually checks;
//  * the canonical instance hash is invariant under task relabeling and
//    sensitive to payload changes;
//  * the 10-seed objective-equality regression corpus: presolve on vs off
//    must prove the same objective (to the solver's own gap budget plus the
//    exact layer's derived envelope — crosscheck raises an error diagnostic
//    otherwise) at 1, 2 and 4 solver threads, and presolve must reduce the
//    summed rows+columns across the corpus.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/crosscheck.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/presolve/certify_presolve.hpp"
#include "analysis/presolve/instance_presolve.hpp"
#include "deploy/problem.hpp"
#include "lp/presolve.hpp"
#include "milp/presolve.hpp"
#include "model/formulation.hpp"
#include "test_util.hpp"

namespace {

namespace codes = nd::analysis::codes;
using nd::analysis::CertifyPresolveOptions;
using nd::analysis::Report;
using nd::lp::Reduction;
using nd::lp::ReductionKind;
using nd::lp::ReductionLog;
using nd::lp::ReductionTag;

// ---------------------------------------------------------------------------
// A deliberately symmetric instance on which every instance pass fires:
//  * uniform 2x2 mesh (variation 0) — the dihedral grid maps are provable
//    automorphisms, so the orbit pass can pin task 0's host;
//  * constant-voltage V/F table — the fastest level is weakly better in
//    time, energy AND reliability, so every slower level is dominated;
//  * tasks 0 and 1 are exact twins (same WCEC, deadline and edge profile),
//    so the twin pass can orient their ordering binary.
// ---------------------------------------------------------------------------

std::unique_ptr<nd::deploy::DeploymentProblem> symmetric_problem(bool swap_twins = false,
                                                                 std::uint64_t wcec_a = 600000000ull) {
  nd::task::TaskGraph g;
  const std::uint64_t wcec_b = 600000000ull;
  const int a = g.add_task(swap_twins ? wcec_b : wcec_a, 1.5);
  const int b = g.add_task(swap_twins ? wcec_a : wcec_b, 1.5);
  const int c = g.add_task(400000000ull, 1.2);
  g.add_edge(a, c, 2.0e6);
  g.add_edge(b, c, 2.0e6);

  nd::noc::MeshParams mesh;
  mesh.rows = 2;
  mesh.cols = 2;
  mesh.variation = 0.0;  // uniform links: the grid symmetries become automorphisms

  // Constant voltage across strictly increasing frequencies: higher levels
  // are faster, burn less static energy and (same fault rate, shorter
  // exposure) are more reliable — textbook weak dominance.
  std::vector<nd::dvfs::VfLevel> lv = {{1.0, 1.0e9}, {1.0, 2.0e9}, {1.0, 3.0e9}};

  auto p = std::make_unique<nd::deploy::DeploymentProblem>(
      std::move(g), mesh, nd::dvfs::VfTable(std::move(lv)),
      nd::reliability::FaultParams{2e-5, 3.0}, 0.995, /*horizon=*/1.0);
  p->set_horizon(p->horizon_for_alpha(3.0));
  return p;
}

/// The genuine full log of the symmetric instance: instance fixings seeded
/// into the model passes, exactly as milp::solve runs them.
struct Presolved {
  std::unique_ptr<nd::deploy::DeploymentProblem> problem;
  std::unique_ptr<nd::model::Formulation> f;
  nd::analysis::InstancePresolveResult ipre;
  nd::milp::PresolvedModel pm;
};

Presolved presolve_symmetric() {
  Presolved out;
  out.problem = symmetric_problem();
  out.f = std::make_unique<nd::model::Formulation>(*out.problem);
  out.ipre = nd::analysis::instance_reductions(*out.f);
  out.pm = nd::milp::presolve_model(out.f->model(), &out.ipre.log);
  return out;
}

Reduction make(ReductionKind kind, ReductionTag tag, int var, double value, int aux = -1,
               int row = -1) {
  Reduction rc;
  rc.kind = kind;
  rc.tag = tag;
  rc.var = var;
  rc.value = value;
  rc.aux = aux;
  rc.row = row;
  return rc;
}

/// Certify a single-record log against the symmetric instance.
Report certify_one(const Presolved& ps, const Reduction& rc) {
  ReductionLog log;
  log.canonical_hash = ps.ipre.log.canonical_hash;
  log.reductions.push_back(rc);
  CertifyPresolveOptions opt;
  opt.formulation = ps.f.get();
  return nd::analysis::certify_presolve(ps.f->model(), log, opt);
}

// ---------------------------------------------------------------------------
// Positive direction: the passes fire and the genuine log re-proves.
// ---------------------------------------------------------------------------

TEST(InstancePresolve, PassesFireOnSymmetricInstance) {
  const Presolved ps = presolve_symmetric();
  EXPECT_GE(ps.ipre.automorphisms, 3);
  EXPECT_GE(ps.ipre.twin_fixings, 1);
  EXPECT_GE(ps.ipre.dominance_fixings, 2);
  EXPECT_GE(ps.ipre.orbit_fixings, 1);
  EXPECT_FALSE(ps.pm.map.infeasible);
  // The fixings must materialise as eliminated columns of the reduced model.
  EXPECT_GT(ps.pm.map.stats.fixings, 0);
  EXPECT_GT(ps.pm.map.stats.cols_removed, 0);
}

TEST(InstancePresolve, GenuineLogCertifiesExactly) {
  const Presolved ps = presolve_symmetric();
  ASSERT_FALSE(ps.pm.log.reductions.empty());
  CertifyPresolveOptions opt;
  opt.formulation = ps.f.get();
  const Report rep = nd::analysis::certify_presolve(ps.f->model(), ps.pm.log, opt);
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

TEST(InstancePresolve, UniformMeshHasAutomorphismsHeterogeneousDoesNot) {
  const auto sym = symmetric_problem();
  const nd::model::Formulation fs(*sym);
  EXPECT_GE(nd::analysis::mesh_automorphisms(fs).size(), 4u);  // identity + dihedral maps

  const auto het = nd::test::tiny_problem({});  // default variation: heterogeneous links
  const nd::model::Formulation fh(*het);
  EXPECT_EQ(nd::analysis::mesh_automorphisms(fh).size(), 1u);  // identity only
}

TEST(InstancePresolve, CanonicalHashInvariantUnderTwinRelabel) {
  const auto a = symmetric_problem(/*swap_twins=*/false);
  const auto b = symmetric_problem(/*swap_twins=*/true);
  const nd::model::Formulation fa(*a), fb(*b);
  EXPECT_EQ(nd::analysis::canonical_instance_hash(fa), nd::analysis::canonical_instance_hash(fb));

  const auto c = symmetric_problem(/*swap_twins=*/false, /*wcec_a=*/700000000ull);
  const nd::model::Formulation fc(*c);
  EXPECT_NE(nd::analysis::canonical_instance_hash(fa), nd::analysis::canonical_instance_hash(fc));
}

// ---------------------------------------------------------------------------
// Mutation matrix: forged records, each pinned to its rejection diagnostic.
// ---------------------------------------------------------------------------

TEST(CertifyPresolveMutations, RejectsBoundNotImpliedByRow) {
  const Presolved ps = presolve_symmetric();
  // Claim a huge lower bound on a start-time variable off row 0, which does
  // not imply anything of the sort.
  const Reduction rc = make(ReductionKind::kTightenLo, ReductionTag::kActivity,
                            ps.f->var_ts(0), 1.0e9, -1, /*row=*/0);
  const Report rep = certify_one(ps, rc);
  EXPECT_GT(rep.count_code(codes::kPresolveBadBound), 0) << rep.to_table();
}

TEST(CertifyPresolveMutations, RejectsInventedFixValue) {
  const Presolved ps = presolve_symmetric();
  // An activity fix may only formalise an already-closed box; forging one on
  // a free binary would corrupt the lift map (the eliminated column would be
  // re-materialised with a value nothing proved).
  const Reduction rc =
      make(ReductionKind::kFixVar, ReductionTag::kActivity, ps.f->var_y(0, 0), 0.0);
  const Report rep = certify_one(ps, rc);
  EXPECT_GT(rep.count_code(codes::kPresolveBadFix), 0) << rep.to_table();
}

TEST(CertifyPresolveMutations, RejectsEmptyColumnFixOnOccupiedColumn) {
  const Presolved ps = presolve_symmetric();
  // y(0,0) appears in its assignment row — it is not an empty column.
  const Reduction rc =
      make(ReductionKind::kFixVar, ReductionTag::kEmptyColumn, ps.f->var_y(0, 0), 0.0);
  const Report rep = certify_one(ps, rc);
  EXPECT_GT(rep.count_code(codes::kPresolveBadFix), 0) << rep.to_table();
}

TEST(CertifyPresolveMutations, RejectsDropOfNonRedundantRow) {
  const Presolved ps = presolve_symmetric();
  // Find an equality row (the timing definitions): never provably redundant.
  const nd::lp::Problem& lp = ps.f->model().lp();
  int eq_row = -1;
  for (int r = 0; r < lp.num_rows(); ++r) {
    if (lp.row(r).sense == nd::lp::Sense::EQ) {
      eq_row = r;
      break;
    }
  }
  ASSERT_GE(eq_row, 0);
  const Reduction rc =
      make(ReductionKind::kDropRow, ReductionTag::kActivity, -1, 0.0, -1, eq_row);
  const Report rep = certify_one(ps, rc);
  EXPECT_GT(rep.count_code(codes::kPresolveBadRowDrop), 0) << rep.to_table();
}

TEST(CertifyPresolveMutations, RejectsBogusCoefficientTightening) {
  const Presolved ps = presolve_symmetric();
  Reduction rc = make(ReductionKind::kTightenCoef, ReductionTag::kActivity,
                      ps.f->var_y(0, 0), 0.0, -1, /*row=*/0);
  rc.coef = 0.5;
  rc.rhs = 0.5;
  const Report rep = certify_one(ps, rc);
  EXPECT_GT(rep.count_code(codes::kPresolveBadCoef), 0) << rep.to_table();
}

TEST(CertifyPresolveMutations, RejectsDominanceWithSlowerWitness) {
  const Presolved ps = presolve_symmetric();
  // Reversed direction: "fix the FASTEST level, witnessed by the slowest" —
  // the witness is slower, so the swap is not dominance.
  const Reduction rc = make(ReductionKind::kFixVar, ReductionTag::kDominance,
                            ps.f->var_y(0, 2), 0.0, /*aux=*/ps.f->var_y(0, 0));
  const Report rep = certify_one(ps, rc);
  EXPECT_GT(rep.count_code(codes::kPresolveBadDominance), 0) << rep.to_table();
}

TEST(CertifyPresolveMutations, RejectsDominanceFixingToOne) {
  const Presolved ps = presolve_symmetric();
  // Dominance argues the dominated level is dispensable; it can never PIN a
  // level to 1.
  const Reduction rc = make(ReductionKind::kFixVar, ReductionTag::kDominance,
                            ps.f->var_y(0, 0), 1.0, /*aux=*/ps.f->var_y(0, 2));
  const Report rep = certify_one(ps, rc);
  EXPECT_GT(rep.count_code(codes::kPresolveBadDominance), 0) << rep.to_table();
}

TEST(CertifyPresolveMutations, RejectsTwinFixToZero) {
  const Presolved ps = presolve_symmetric();
  const int zv = ps.f->var_z(0, 1);
  ASSERT_GE(zv, 0);
  // The twin convention is "index order runs first" (z = 1); an adversary
  // flipping the orientation must be caught.
  const Reduction rc = make(ReductionKind::kFixVar, ReductionTag::kTwin, zv, 0.0);
  const Report rep = certify_one(ps, rc);
  EXPECT_GT(rep.count_code(codes::kPresolveBadTwin), 0) << rep.to_table();
}

TEST(CertifyPresolveMutations, RejectsTwinOfUnequalTasks) {
  const Presolved ps = presolve_symmetric();
  // Task 2 has a different WCEC and deadline than task 0 — not a twin. The
  // pair is precedence-ordered here, which the checker also refuses; either
  // way the record must die with the twin diagnostic.
  const int zv = ps.f->var_z(0, 2);
  const Reduction rc =
      make(ReductionKind::kFixVar, ReductionTag::kTwin, zv >= 0 ? zv : ps.f->var_y(2, 0), 1.0);
  const Report rep = certify_one(ps, rc);
  EXPECT_GT(rep.count_code(codes::kPresolveBadTwin), 0) << rep.to_table();
}

TEST(CertifyPresolveMutations, RejectsOrbitNotAnchoredOnTaskZero) {
  const Presolved ps = presolve_symmetric();
  const Reduction rc = make(ReductionKind::kFixVar, ReductionTag::kOrbit,
                            ps.f->var_x(1, 1), 0.0, /*aux=*/ps.f->var_x(1, 0));
  const Report rep = certify_one(ps, rc);
  EXPECT_GT(rep.count_code(codes::kPresolveBadOrbit), 0) << rep.to_table();
}

TEST(CertifyPresolveMutations, RejectsOrbitOnHeterogeneousMesh) {
  // A heterogeneous mesh has no automorphisms, so ANY orbit fixing is a
  // fake-symmetry forgery.
  const auto het = nd::test::tiny_problem({});
  const nd::model::Formulation fh(*het);
  ReductionLog log;
  log.reductions.push_back(make(ReductionKind::kFixVar, ReductionTag::kOrbit,
                                fh.var_x(0, 1), 0.0, /*aux=*/fh.var_x(0, 0)));
  CertifyPresolveOptions opt;
  opt.formulation = &fh;
  const Report rep = nd::analysis::certify_presolve(fh.model(), log, opt);
  EXPECT_GT(rep.count_code(codes::kPresolveBadOrbit), 0) << rep.to_table();
}

TEST(CertifyPresolveMutations, RejectsTamperedCanonicalHash) {
  const Presolved ps = presolve_symmetric();
  ReductionLog log = ps.pm.log;
  log.canonical_hash ^= 1;
  CertifyPresolveOptions opt;
  opt.formulation = ps.f.get();
  const Report rep = nd::analysis::certify_presolve(ps.f->model(), log, opt);
  EXPECT_GT(rep.count_code(codes::kPresolveHash), 0) << rep.to_table();
}

TEST(CertifyPresolveMutations, InstanceRecordsNeedTheFormulation) {
  const Presolved ps = presolve_symmetric();
  ASSERT_GT(ps.ipre.log.reductions.size(), 0u);
  const Report rep =
      nd::analysis::certify_presolve(ps.f->model(), ps.ipre.log, CertifyPresolveOptions{});
  EXPECT_GT(rep.count_code(codes::kPresolveNeedsInstance), 0) << rep.to_table();
}

TEST(CertifyPresolveMutations, RejectsMismatchedIntegerMarks) {
  const Presolved ps = presolve_symmetric();
  const std::vector<char> wrong(3, 1);  // model has far more variables
  const Report rep = nd::analysis::certify_presolve(ps.f->model().lp(), wrong, ps.pm.log,
                                                    CertifyPresolveOptions{});
  EXPECT_GT(rep.count_code(codes::kPresolveShape), 0) << rep.to_table();
}

// ---------------------------------------------------------------------------
// The 10-seed objective-equality regression corpus. crosscheck_seed runs the
// presolve-on solve AND the presolve-off control and raises
// xcheck-presolve-divergence when the two disagree beyond the solver's own
// gap budget plus the exact layer's derived envelope — so a clean report IS
// the equality statement. The corpus runs on a uniform mesh so the symmetry
// reductions provably fire, which makes the footprint assertion meaningful.
// ---------------------------------------------------------------------------

// Seeds picked so every instance is proved OPTIMAL well inside the time cap:
// capped trees are both slow and numerically marginal (degenerate uniform-mesh
// LPs can report a child bound a hair below its parent's, which the B&B
// certifier rightly flags), and the on/off equality leg only fires on proved
// solves. The subsets at 2/4 threads keep the work-sharing solver — much
// slower on symmetric instances — inside a tier-1 budget.
TEST(PresolveCorpus, ObjectiveEqualityAndReductionFootprint) {
  static constexpr std::uint64_t kCorpus[] = {36, 83, 103, 133, 173, 177, 181, 218, 220, 312};
  for (const int threads : {1, 2, 4}) {
    nd::analysis::CrosscheckOptions opt;
    opt.num_tasks = 3;
    opt.mesh_variation = 0.0;     // the presolve regression corpus (see header)
    opt.num_threads = threads;
    opt.anneal_iterations = 0;    // keep the corpus about the two MILP legs
    opt.run_simulation = false;
    const int count = threads == 1 ? 10 : threads == 2 ? 5 : 3;
    long long fixings = 0;
    int reduced = 0;
    Report all;
    for (int i = 0; i < count; ++i) {
      const nd::analysis::SeedOutcome out = nd::analysis::crosscheck_seed(kCorpus[i], opt);
      all.merge(out.report);
      EXPECT_EQ(out.milp_status, nd::milp::MipStatus::kOptimal)
          << "threads=" << threads << " seed=" << kCorpus[i];
      fixings += out.instance_fixings;
      reduced += out.presolve_stats.rows_removed + out.presolve_stats.cols_removed;
    }
    EXPECT_EQ(all.num_errors(), 0) << "threads=" << threads << "\n" << all.to_table();
    EXPECT_FALSE(all.has(codes::kXcheckPresolveDivergence)) << all.to_table();
    // Acceptance: presolve (default on) reduces summed rows+columns on the
    // corpus, and every instance seeds at least one proof-carrying fixing.
    EXPECT_EQ(fixings, count);
    EXPECT_GT(reduced, 0);
  }
}

}  // namespace
