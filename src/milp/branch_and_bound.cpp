// Branch-and-bound: one work-sharing tree search for every thread count
// (MipOptions::num_threads; one thread is its degenerate case).
//
// Architecture (full treatment in docs/parallelism.md):
//  * Worker 0 is the calling thread. Its engine solves the root LP; the root
//    certificate, the warm-start incumbent and the root reduced-cost fixings
//    are settled on it before the search starts, and it keeps that engine
//    (fixings applied) for the whole search, starting with the root node.
//    `threads - 1` pool workers join it, each with a private engine, so one
//    thread starts no thread and builds one engine.
//  * Open subtrees live in a shared best-bound heap (smallest parent LP
//    bound pops first, node id breaks ties) guarded by the queue mutex
//    together with the global node-id counter, the node count and the
//    in-flight count.
//  * Each worker explores a popped subtree DEPTH-FIRST on a local stack:
//    dive into the child nearest the fractional LP value, keep the sibling
//    locally, backtrack to the deepest sibling. While the shared queue holds
//    fewer open subtrees than there are other workers, the sibling is
//    DONATED to the queue instead.
//  * A worker's applied path is the list of bound changes its engine holds,
//    in order. Every node the dive or the local stack reaches is WARM:
//    revert the applied suffix (each variable to the bounds it had just
//    before), tighten the node's own interval, dual re-solve. A subtree
//    popped from the shared queue starts COLD: reset the engine to the root
//    bounds, apply the node's path, solve from scratch (docs/parallelism.md
//    says why). At one thread nothing is donated, so every node after the
//    root is warm and the search is the sequential depth-first search, node
//    for node.
//  * A node whose parent bound already clears the cutoff is skipped before
//    it is counted; every other node is counted, then checked against the
//    node and time limits before its LP is solved. The root LP is solved
//    before the search, so the root is always disposed.
//  * The incumbent objective is an atomic double read lock-free in the hot
//    path; improvements take the incumbent mutex, re-check, and publish
//    objective + point together. Stale reads are sound: an out-of-date
//    incumbent only weakens the cutoff, and the replayer validates prunes
//    against the FINAL (tightest) cutoff, which every weaker prune clears.
//  * Every worker appends nodes to its own AuditShard; ids are assigned
//    under the queue mutex at creation time, so merge_audit_shards()
//    restores one globally creation-ordered tree no matter which worker
//    processed what. The proved objective is identical for every thread
//    count; the tree shape is schedule-dependent, but every shape certifies.
//
// Lock order: the queue mutex and the incumbent mutex are never held at the
// same time (each critical section takes exactly one of them).
#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/invariants.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "lp/certificate.hpp"
#include "lp/simplex.hpp"
#include "milp/audit.hpp"
#include "milp/presolve.hpp"
#include "obs/obs.hpp"

namespace nd::milp {

const char* to_string(MipStatus s) {
  switch (s) {
    case MipStatus::kOptimal: return "optimal";
    case MipStatus::kFeasible: return "feasible";
    case MipStatus::kInfeasible: return "infeasible";
    case MipStatus::kUnknown: return "unknown";
  }
  return "?";
}

double MipResult::gap() const {
  if (!has_solution()) return std::numeric_limits<double>::infinity();
  const double denom = std::max(1e-12, std::abs(obj));
  return std::max(0.0, obj - best_bound) / denom;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Most fractional integer variable within the highest fractional priority
/// class, or -1 if the engine's current point is integral.
int pick_branch_var(const Model& model, const lp::Simplex& engine, double int_tol) {
  int best = -1;
  int best_prio = 0;
  double best_frac = 0.0;
  for (int j = 0; j < model.num_vars(); ++j) {
    if (!model.is_integer(j)) continue;
    const double v = engine.value(j);
    const double frac = std::abs(v - std::round(v));
    if (frac <= int_tol) continue;
    const int prio = model.priority(j);
    if (best < 0 || prio > best_prio || (prio == best_prio && frac > best_frac)) {
      best = j;
      best_prio = prio;
      best_frac = frac;
    }
  }
  return best;
}

/// The engine's proof vector for the LP it just solved (lp::Simplex::
/// proof_vector, one BTRAN) as AuditNode::proof stores it: the nonzeros in
/// ascending row order, sized exactly. Absent unless that solve ended
/// optimal or infeasible.
std::optional<ProofVector> record_proof(const lp::Simplex& engine) {
  if (engine.last_status() != lp::SolveStatus::kOptimal &&
      engine.last_status() != lp::SolveStatus::kInfeasible) {
    return std::nullopt;
  }
  const std::vector<double> y = engine.proof_vector();
  const auto nonzero = [](double v) { return v != 0.0; };  // fp-exact: sparsity
  ProofVector proof;
  proof.reserve(static_cast<std::size_t>(std::count_if(y.begin(), y.end(), nonzero)));
  for (std::size_t r = 0; r < y.size(); ++r) {
    if (nonzero(y[r])) proof.emplace_back(static_cast<int>(r), y[r]);
  }
  return proof;
}

/// obs counter a node disposition contributes to; nullptr for dispositions
/// that are bookkeeping rather than search work (unprocessed, limit-cut).
const char* disp_counter(NodeDisp d) {
  switch (d) {
    case NodeDisp::kBranched: return "bnb.branched";
    case NodeDisp::kPrunedBound: return "bnb.pruned_bound";
    case NodeDisp::kPrunedInfeasible: return "bnb.pruned_infeasible";
    case NodeDisp::kIntegral: return "bnb.integral";
    case NodeDisp::kCompletionClosed: return "bnb.completion_closed";
    case NodeDisp::kSkippedParentBound: return "bnb.skipped_parent_bound";
    default: return nullptr;
  }
}

struct BoundChange {
  int var = -1;
  double lo = 0.0, hi = 0.0;
};

/// An open subtree: the bound-change path from the root to its root node
/// (empty for the root itself). The audit entry for the node is written by
/// whichever worker processes it (or by a drain, as kUnprocessed, when a
/// limit stops the search).
struct Subproblem {
  int id = -1;
  int parent = -1;
  double parent_bound = -kInf;  ///< LP bound of the parent (the pop priority)
  std::vector<BoundChange> path;  ///< last entry is this node's own interval
};

/// Heap order: best (smallest) parent bound first; among equals the oldest
/// node, so the pop order is a pure function of the queue contents.
bool heap_later(const Subproblem& a, const Subproblem& b) {
  if (a.parent_bound != b.parent_bound) return a.parent_bound > b.parent_bound;
  return a.id > b.id;
}

/// The audit entry of `sub` as created: ids and the interval that spawned it.
AuditNode audit_stub(const Subproblem& sub) {
  AuditNode n;
  n.id = sub.id;
  n.parent = sub.parent;
  if (!sub.path.empty()) {
    n.var = sub.path.back().var;
    n.lo = sub.path.back().lo;
    n.hi = sub.path.back().hi;
  }
  return n;
}

struct SearchState {
  // --- queue mutex: open heap, id counter, in-flight count, node count,
  //     stop flag, limit bound, first worker error, LP iteration total.
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::vector<Subproblem> open;
  int next_id = 1;  ///< the root is node 0
  int in_flight = 0;
  std::int64_t nodes = 0;
  bool stop = false;
  double limit_bound = kInf;  ///< min parent bound over limit-cut nodes
  std::exception_ptr error;
  long long lp_iterations = 0;

  // --- incumbent mutex: the point; the objective doubles as the lock-free
  //     cutoff source.
  std::mutex inc_mu;
  std::atomic<double> incumbent_obj{kInf};
  std::vector<double> incumbent_x;
  bool have_incumbent = false;
};

struct SearchConfig {
  const Model* model = nullptr;
  const MipOptions* opt = nullptr;
  const Stopwatch* clock = nullptr;
  std::chrono::steady_clock::time_point deadline;
  lp::Simplex::Options lp_opt;
  std::vector<double> root_lo, root_hi;  ///< model bounds after root fixings
  bool audit = false;
  /// Donation threshold: a worker pushes a sibling to the shared queue
  /// (instead of its local stack) while the queue holds fewer open subtrees
  /// than this. Set to the number of other workers: enough to feed the idle
  /// ones, rare enough that almost every node keeps warm-re-solve cost, and
  /// zero at one thread.
  int donate_below = 0;
  /// Monotonic origin of the solve (obs::now_ns at entry): audit-node t_ns
  /// stamps are relative to it.
  std::int64_t start_ns = 0;
};

double cutoff_of(const SearchState& st, const MipOptions& opt) {
  const double inc = st.incumbent_obj.load(std::memory_order_relaxed);
  if (!std::isfinite(inc)) return kInf;
  return inc - std::max(opt.abs_gap, opt.rel_gap * std::abs(inc));
}

/// Publish a candidate point under the incumbent mutex; returns true (and
/// stamps the node's incumbent fields) iff it strictly improved the shared
/// incumbent at that moment.
bool try_promote(const SearchConfig& cfg, SearchState& st, double cand_obj,
                 std::vector<double> x, AuditNode* node) {
  (void)cfg;  // read only by the invariants below
  const std::lock_guard<std::mutex> lock(st.inc_mu);
  const double previous = st.incumbent_obj.load(std::memory_order_relaxed);
  if (st.have_incumbent && cand_obj >= previous) return false;
  // An incumbent only ever strictly improves, and every promoted point is
  // MIP-feasible (re-verified here so a corrupted promotion path cannot slip
  // by).
  ND_INVARIANT(cand_obj < previous, "incumbent objective failed to improve");
  ND_INVARIANT(cfg.model->is_mip_feasible(x, std::max(1e-5, cfg.opt->int_tol)),
               "incumbent is not MIP-feasible");
  st.incumbent_obj.store(cand_obj, std::memory_order_relaxed);
  st.incumbent_x = std::move(x);
  st.have_incumbent = true;
  node->incumbent_update = true;
  node->incumbent_obj = cand_obj;
  return true;
}

/// The bound changes a worker's engine holds, in order, and per entry the
/// bounds the variable had just before (so a suffix reverts exactly — a
/// variable branched twice on the path reverts to its mid-path interval,
/// not to the root's).
struct AppliedPath {
  std::vector<BoundChange> applied;
  std::vector<BoundChange> saved;  ///< pre-change bounds, aligned with applied
};

/// Cold move: reset the engine to the root (post-fixing) bounds and apply
/// `path` from scratch. The caller follows with a cold solve().
void apply_path(lp::Simplex& engine, const SearchConfig& cfg, AppliedPath& ap,
                const std::vector<BoundChange>& path) {
  for (const BoundChange& bc : ap.applied) {
    engine.set_bound(bc.var, cfg.root_lo[static_cast<std::size_t>(bc.var)],
                     cfg.root_hi[static_cast<std::size_t>(bc.var)]);
  }
  ap.applied.clear();
  ap.saved.clear();
  for (const BoundChange& bc : path) {
    ap.saved.push_back({bc.var, engine.bound_lo(bc.var), engine.bound_hi(bc.var)});
    engine.set_bound(bc.var, bc.lo, bc.hi);
    ap.applied.push_back(bc);
  }
}

/// Warm move to a node whose parent is on the applied path (true for every
/// node the dive or the local stack reaches): revert the applied suffix in
/// LIFO order to each entry's saved bounds, then apply the node's own
/// interval. The caller follows with dual_resolve().
void warm_goto(lp::Simplex& engine, AppliedPath& ap, const std::vector<BoundChange>& path) {
  const std::size_t prefix = path.size() - 1;
  ND_ASSERT(prefix <= ap.applied.size(),
            "local subproblem is not an ancestor-descendant of the engine state");
  while (ap.applied.size() > prefix) {
    engine.set_bound(ap.saved.back().var, ap.saved.back().lo, ap.saved.back().hi);
    ap.applied.pop_back();
    ap.saved.pop_back();
  }
  const BoundChange& bc = path.back();
  ap.saved.push_back({bc.var, engine.bound_lo(bc.var), engine.bound_hi(bc.var)});
  engine.set_bound(bc.var, bc.lo, bc.hi);
  ap.applied.push_back(bc);
}

/// One worker's telemetry, kept as plain locals during the search and
/// flushed into obs once when the worker exits (never per node).
struct WorkerTally {
  std::array<long long, static_cast<std::size_t>(NodeDisp::kLimit) + 1> disp{};
  long long nodes = 0;  ///< counted nodes (every disposition but skip)
  long long incumbent_updates = 0;
  long long subtrees = 0;
  long long donations = 0;
  long long cold_solves = 0;
  long long warm_resolves = 0;
  std::int64_t busy_ns = 0;
};

void emit_worker_tally(const WorkerTally& t, const lp::Simplex& engine, int slot,
                       std::int64_t lifetime_ns) {
  (void)t;  // every use below compiles out with NOCDEPLOY_OBS=0
  (void)slot;
  (void)lifetime_ns;
  ND_OBS_COUNT("bnb.nodes", t.nodes);
  for (std::size_t d = 0; d < t.disp.size(); ++d) {
    [[maybe_unused]] const char* c = disp_counter(static_cast<NodeDisp>(d));
    if (c != nullptr) ND_OBS_COUNT(c, t.disp[d]);
  }
  ND_OBS_COUNT("bnb.incumbent_updates", t.incumbent_updates);
  ND_OBS_COUNT("bnb.cold_solves", engine.counters().solves);
  ND_OBS_COUNT("bnb.warm_resolves", engine.counters().dual_resolves);
  ND_OBS_COUNT("bnb.par.busy_ns", t.busy_ns);
  ND_OBS_COUNT("bnb.par.idle_ns", std::max<std::int64_t>(0, lifetime_ns - t.busy_ns));
  ND_OBS_COUNT("bnb.par.w" + std::to_string(slot) + ".busy_ns", t.busy_ns);
  ND_OBS_COUNT("bnb.par.subtrees", t.subtrees);
  ND_OBS_COUNT("bnb.par.donations", t.donations);
  ND_OBS_COUNT("bnb.par.cold_solves", t.cold_solves);
  ND_OBS_COUNT("bnb.par.warm_resolves", t.warm_resolves);
  lp::emit_lp_counters(engine);
}

/// One worker. Worker 0 passes `root_status`, the status of the root LP its
/// engine solved, and explores the root first (the caller counted it in
/// flight). Then every worker pops subtrees from the shared queue until the
/// tree is exhausted or a limit stops the search, exploring each depth-first
/// on a worker-local stack.
void worker_main(const SearchConfig& cfg, SearchState& st, lp::Simplex& engine,
                 AuditShard& shard, int slot, std::optional<lp::SolveStatus> root_status) {
  const Model& model = *cfg.model;
  const MipOptions& opt = *cfg.opt;
  AppliedPath ap;
  std::vector<Subproblem> local;  ///< LIFO sibling stack of the current subtree
  WorkerTally t;
  const std::int64_t worker_start_ns = obs::now_ns();

  const auto record = [&](AuditNode& node) {
    ++t.disp[static_cast<std::size_t>(node.disp)];
    if (!cfg.audit) return;
    node.t_ns = obs::now_ns() - cfg.start_ns;
    shard.nodes.push_back(std::move(node));
  };
  // Record every entry of the local stack as created-but-unreached and fold
  // its bound into the limit bound. Takes the queue mutex itself.
  const auto drain_local = [&] {
    if (local.empty()) return;
    {
      const std::lock_guard<std::mutex> drain_lock(st.queue_mu);
      for (const Subproblem& sub : local) {
        st.limit_bound = std::min(st.limit_bound, sub.parent_bound);
      }
    }
    for (const Subproblem& sub : local) {
      AuditNode n = audit_stub(sub);
      record(n);
    }
    local.clear();
  };
  // Bring the engine to `cur`'s bounds and solve its LP, cold or warm.
  const auto solve_lp = [&](const Subproblem& cur, bool cold) {
    if (cold) {
      ++t.cold_solves;
      apply_path(engine, cfg, ap, cur.path);
      return engine.solve();
    }
    ++t.warm_resolves;
    warm_goto(engine, ap, cur.path);
    return engine.dual_resolve();
  };

  // Explore the subtree rooted at `cur` depth-first.
  const auto explore = [&](Subproblem cur, [[maybe_unused]] double queue_depth) {
    // The span closes when the local stack drains, giving each subtree one
    // trace slice on this worker's lane; busy_ns accumulates the same window.
    const obs::Span subtree_span("bnb.par.subtree", opt.telemetry, /*hist=*/true);
    const std::int64_t subtree_start_ns = obs::now_ns();
    ++t.subtrees;
    if (opt.telemetry) ND_OBS_VALUE("bnb.par.queue_depth", queue_depth);

    bool cold = true;  // the popped node itself; everything below it is warm
    while (true) {
      AuditNode node = audit_stub(cur);
      bool abandoned = false;
      bool skipped = false;
      std::int64_t node_count = 0;
      {
        const std::lock_guard<std::mutex> count_lock(st.queue_mu);
        if (st.stop) {
          // Another worker hit a limit: leave this node (and the local
          // stack) created-but-unreached and fold their bounds in.
          st.limit_bound = std::min(st.limit_bound, cur.parent_bound);
          abandoned = true;
        } else if (cur.parent_bound >= cutoff_of(st, opt)) {
          skipped = true;
        } else {
          node_count = ++st.nodes;
        }
      }
      if (abandoned) {
        record(node);
        drain_local();
        break;
      }

      bool hit_limit = false;
      bool dive = false;
      if (skipped) {
        // The parent's bound already clears the cutoff, so the subtree is
        // never solved and not counted (kSkippedParentBound replays against
        // the parent's recorded bound). The engine keeps the PREVIOUS node's
        // bounds, so the applied path stays accurate.
        node.disp = NodeDisp::kSkippedParentBound;
      } else {
        const obs::HistTimer node_timer("bnb.node_ns", opt.telemetry);
        ++t.nodes;
        lp::SolveStatus s = lp::SolveStatus::kIterLimit;
        bool limit = false;
        if (cur.path.empty()) {
          s = *root_status;  // solved before the search
          ++t.cold_solves;
        } else if (cfg.clock->seconds() > opt.time_limit_s || node_count > opt.node_limit) {
          limit = true;
        } else {
          s = solve_lp(cur, cold);
          ND_ASSERT(s != lp::SolveStatus::kUnbounded,
                    "deployment MILPs have bounded variables; unbounded node LP "
                    "indicates a model bug");
        }
        // The engine still holds this node's LP (root fixings since the root
        // solve moved bounds only): its basis gives the proof vector.
        if (cfg.audit && !limit) node.proof = record_proof(engine);
        cold = false;

        if (limit || s == lp::SolveStatus::kIterLimit) {
          node.disp = NodeDisp::kLimit;
          hit_limit = true;
        } else if (s == lp::SolveStatus::kInfeasible) {
          node.disp = NodeDisp::kPrunedInfeasible;
        } else {
          node.lp_solved = true;
          node.bound = engine.objective();
          // A child's LP bound can never beat its parent's: the child
          // feasible region is a subset of the parent's.
          ND_INVARIANT(node.bound >= cur.parent_bound - 1e-5 * (1.0 + std::abs(cur.parent_bound)),
                       "child LP bound better than its parent node's");
          bool closed = false;
          if (node.bound >= cutoff_of(st, opt)) {
            node.disp = NodeDisp::kPrunedBound;
            closed = true;
          }
          if (!closed && opt.completion) {
            // Problem-specific completion: may both improve the incumbent
            // and close this node when it matches the LP bound.
            std::vector<double> candidate;
            if (opt.completion(engine.solution(), &candidate) &&
                model.is_mip_feasible(candidate, std::max(1e-5, opt.int_tol))) {
              const double cand_obj = model.lp().objective_value(candidate);
              node.has_completion = true;
              node.completion_obj = cand_obj;
              if (try_promote(cfg, st, cand_obj, std::move(candidate), &node)) {
                ++t.incumbent_updates;
                if (opt.telemetry) ND_OBS_INSTANT("bnb.incumbent", cand_obj);
              }
              if (cand_obj <=
                  node.bound + std::max(opt.abs_gap, opt.rel_gap * std::abs(cand_obj))) {
                node.disp = NodeDisp::kCompletionClosed;  // subtree cannot beat it
                closed = true;
              }
            }
          }
          if (!closed) {
            const int bv = pick_branch_var(model, engine, opt.int_tol);
            if (bv < 0) {
              // Integral point: round and promote to incumbent.
              std::vector<double> x = engine.solution();
              for (int j = 0; j < model.num_vars(); ++j) {
                if (model.is_integer(j)) {
                  const auto ju = static_cast<std::size_t>(j);
                  x[ju] = std::round(x[ju]);
                }
              }
              if (model.is_mip_feasible(x, std::max(1e-5, opt.int_tol)) &&
                  try_promote(cfg, st, node.bound, std::move(x), &node)) {
                ++t.incumbent_updates;
                if (opt.telemetry) ND_OBS_INSTANT("bnb.incumbent", node.bound);
              }
              node.disp = NodeDisp::kIntegral;
            } else {
              const double old_lo = engine.bound_lo(bv);
              const double old_hi = engine.bound_hi(bv);
              if (old_hi - old_lo < 0.5) {
                // A fixed variable with a fractional value: the engine lost
                // primal feasibility beyond repair — stop with what we have.
                node.disp = NodeDisp::kLimit;
                hit_limit = true;
              } else {
                // Split on bv; dive into the child nearest the LP value.
                // Clamp against tolerance-level bound violations so both
                // children get non-empty domains.
                const double v = std::clamp(engine.value(bv), old_lo, old_hi);
                double fl = std::floor(v);
                fl = std::clamp(fl, old_lo, old_hi - 1.0);
                node.disp = NodeDisp::kBranched;
                node.branch_var = bv;
                Subproblem near_child, far_child;
                near_child.parent = far_child.parent = node.id;
                near_child.parent_bound = far_child.parent_bound = node.bound;
                far_child.path = cur.path;
                near_child.path = std::move(cur.path);
                if (v - fl <= 0.5) {  // dive down, keep the up child
                  near_child.path.push_back({bv, old_lo, fl});
                  far_child.path.push_back({bv, fl + 1.0, old_hi});
                } else {  // dive up, keep the down child
                  near_child.path.push_back({bv, fl + 1.0, old_hi});
                  far_child.path.push_back({bv, old_lo, fl});
                }
                if (opt.telemetry) {
                  ND_OBS_VALUE("bnb.stack_depth", static_cast<double>(near_child.path.size()));
                }
                bool donate = false;
                {
                  const std::lock_guard<std::mutex> push_lock(st.queue_mu);
                  // The dived-into child gets the smaller id, so equal
                  // bounds pop in dive order.
                  near_child.id = st.next_id++;
                  far_child.id = st.next_id++;
                  donate = static_cast<int>(st.open.size()) < cfg.donate_below;
                  if (donate) {
                    st.open.push_back(std::move(far_child));
                    std::push_heap(st.open.begin(), st.open.end(), heap_later);
                  }
                }
                if (donate) {
                  ++t.donations;
                  st.queue_cv.notify_all();
                } else {
                  local.push_back(std::move(far_child));
                }
                cur = std::move(near_child);
                dive = true;
              }
            }
          }
        }
        if (hit_limit) {
          [[maybe_unused]] const double inc = st.incumbent_obj.load(std::memory_order_relaxed);
          ND_OBS_LOG(obs::LogLevel::kWarn, "bnb-limit",
                     {"nodes", static_cast<long long>(node_count)},
                     {"seconds", cfg.clock->seconds()},
                     {"incumbent", std::isfinite(inc) ? inc : 0.0}, {"worker", slot});
        }
      }
      record(node);

      if (hit_limit) {
        {
          const std::lock_guard<std::mutex> stop_lock(st.queue_mu);
          st.stop = true;
          st.limit_bound = std::min(st.limit_bound, cur.parent_bound);
        }
        drain_local();
        st.queue_cv.notify_all();
        break;
      }
      if (dive) continue;
      if (local.empty()) break;
      // Backtrack to the deepest unexplored sibling.
      cur = std::move(local.back());
      local.pop_back();
    }
    t.busy_ns += obs::now_ns() - subtree_start_ns;
  };

  std::unique_lock<std::mutex> lock(st.queue_mu);
  std::optional<Subproblem> next;
  if (root_status) next.emplace().id = 0;
  while (true) {
    if (!next) {
      st.queue_cv.wait(lock, [&st] {
        return st.stop || !st.open.empty() || st.in_flight == 0;
      });
      if (st.stop || (st.open.empty() && st.in_flight == 0)) break;
      if (st.open.empty()) continue;
      std::pop_heap(st.open.begin(), st.open.end(), heap_later);
      next = std::move(st.open.back());
      st.open.pop_back();
      ++st.in_flight;
    }
    const auto queue_depth = static_cast<double>(st.open.size());
    lock.unlock();
    explore(std::move(*next), queue_depth);
    ND_ASSERT(local.empty(), "worker subtree ended with live local subproblems");
    next.reset();
    lock.lock();
    --st.in_flight;
    if (st.stop || (st.open.empty() && st.in_flight == 0)) st.queue_cv.notify_all();
  }
  st.lp_iterations += engine.iterations();
  lock.unlock();
  if (opt.telemetry) emit_worker_tally(t, engine, slot, obs::now_ns() - worker_start_ns);
}

}  // namespace

MipResult solve(const Model& model, const MipOptions& opt) {
  // Root presolve first (solve_presolved calls back here with presolve off
  // and the REDUCED model).
  if (opt.presolve) return detail::solve_presolved(model, opt);
  const int threads = opt.num_threads > 0 ? opt.num_threads : ThreadPool::default_threads();
  Stopwatch clock;
  const obs::Span solve_span("bnb.solve", opt.telemetry);
  MipResult res;

  AuditLog* aud = opt.audit;
  if (aud != nullptr) {
    *aud = AuditLog{};
    aud->int_tol = opt.int_tol;
    aud->abs_gap = opt.abs_gap;
    aud->rel_gap = opt.rel_gap;
  }

  SearchConfig cfg;
  cfg.model = &model;
  cfg.opt = &opt;
  cfg.clock = &clock;
  cfg.audit = aud != nullptr;
  // Node LPs re-solve in tens of pivots; a tight cap makes pathological
  // degenerate episodes fail fast into the rebuild/cold-solve fallback
  // instead of burning the node budget.
  cfg.lp_opt.max_iters = 50000;
  // Branching decisions read the node LP's VERTEX, not just its objective:
  // on a degenerate optimal face, which vertex the engine lands on decides
  // which variable is fractional and hence the whole tree shape. Dantzig
  // pricing is pinned for the trees it produces (docs/solver.md).
  cfg.lp_opt.pricing = lp::Pricing::kDantzig;
  cfg.donate_below = threads - 1;
  cfg.start_ns = obs::now_ns();
  cfg.deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(opt.time_limit_s));

  SearchState st;
  std::vector<AuditShard> shards(static_cast<std::size_t>(threads));

  // ---- Root LP on worker 0's engine.
  lp::Simplex engine(model.lp(), cfg.lp_opt);
  engine.set_deadline(cfg.deadline);

  // Seed the incumbent from the warm start if it validates.
  if (opt.warm_start != nullptr &&
      model.is_mip_feasible(*opt.warm_start, std::max(1e-6, opt.int_tol))) {
    st.incumbent_x = *opt.warm_start;
    st.incumbent_obj.store(model.lp().objective_value(*opt.warm_start));
    st.have_incumbent = true;
    if (aud != nullptr) {
      aud->warm_accepted = true;
      aud->warm_obj = st.incumbent_obj.load();
    }
  }

  const lp::SolveStatus root_status = engine.solve();
  if (aud != nullptr) aud->root_cert = engine.extract_certificate();
  ND_ASSERT(root_status != lp::SolveStatus::kUnbounded,
            "deployment MILPs have bounded variables; unbounded LP indicates a model bug");
  const double root_bound = root_status == lp::SolveStatus::kOptimal      ? engine.objective()
                            : root_status == lp::SolveStatus::kInfeasible ? kInf
                                                                          : -kInf;
  if (aud != nullptr) aud->root_bound = root_bound;

  // Root reduced-cost fixing: with an incumbent in hand, a nonbasic integer
  // variable whose reduced cost alone would push the objective past the
  // incumbent can be frozen at its bound for the whole tree.
  cfg.root_lo.resize(static_cast<std::size_t>(model.num_vars()));
  cfg.root_hi.resize(static_cast<std::size_t>(model.num_vars()));
  for (int j = 0; j < model.num_vars(); ++j) {
    cfg.root_lo[static_cast<std::size_t>(j)] = model.lp().lo(j);
    cfg.root_hi[static_cast<std::size_t>(j)] = model.lp().hi(j);
  }
  if (st.have_incumbent && root_status == lp::SolveStatus::kOptimal) {
    const double slack = st.incumbent_obj.load() - root_bound;
    for (int j = 0; j < model.num_vars(); ++j) {
      if (!model.is_integer(j)) continue;
      const double lo = engine.bound_lo(j);
      const double hi = engine.bound_hi(j);
      if (hi - lo < 0.5) continue;
      const double d = engine.reduced_cost(j);
      const auto vstat = engine.var_status(j);
      double fix = 0.0;
      bool at_lower = false;
      if (vstat == lp::VarStatus::kAtLower && d > slack + 1e-9) {
        fix = lo;
        at_lower = true;
      } else if (vstat == lp::VarStatus::kAtUpper && -d > slack + 1e-9) {
        fix = hi;
      } else {
        continue;
      }
      engine.set_bound(j, fix, fix);
      cfg.root_lo[static_cast<std::size_t>(j)] = fix;
      cfg.root_hi[static_cast<std::size_t>(j)] = fix;
      if (aud != nullptr) aud->root_fixings.push_back({j, at_lower, fix, fix});
    }
  }

  // ---- The search: worker 0 here, starting with the root; pool workers for
  // the rest, each with its own engine at the root (post-fixing) bounds.
  const auto guarded = [&st](auto&& body) {
    try {
      body();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(st.queue_mu);
      if (!st.error) st.error = std::current_exception();
      st.stop = true;
      st.queue_cv.notify_all();
    }
  };
  st.in_flight = 1;  // worker 0's root subtree
  {
    std::optional<ThreadPool> pool;
    if (threads > 1) pool.emplace(threads - 1);
    // A failed submit stops the search, so no submitted worker waits forever
    // for worker 0's root subtree.
    guarded([&] {
      for (int w = 1; w < threads; ++w) {
        AuditShard& shard = shards[static_cast<std::size_t>(w)];
        pool->submit([&cfg, &st, &shard, &guarded, &model, w] {
          guarded([&] {
            lp::Simplex worker_engine(model.lp(), cfg.lp_opt);
            worker_engine.set_deadline(cfg.deadline);
            for (int j = 0; j < model.num_vars(); ++j) {
              const auto ju = static_cast<std::size_t>(j);
              if (cfg.root_lo[ju] != model.lp().lo(j) || cfg.root_hi[ju] != model.lp().hi(j)) {
                worker_engine.set_bound(j, cfg.root_lo[ju], cfg.root_hi[ju]);
              }
            }
            worker_main(cfg, st, worker_engine, shard, w, std::nullopt);
          });
        });
      }
    });
    guarded([&] { worker_main(cfg, st, engine, shards[0], 0, root_status); });
    if (pool) pool->wait_idle();
  }
  if (st.error) std::rethrow_exception(st.error);

  // ---- Final bookkeeping (single-threaded again from here on).
  res.nodes = st.nodes;
  res.lp_iterations = static_cast<int>(st.lp_iterations);
  double open_bound = st.limit_bound;
  for (const Subproblem& sub : st.open) {
    open_bound = std::min(open_bound, sub.parent_bound);
    if (aud != nullptr) {
      AuditNode n = audit_stub(sub);
      n.disp = NodeDisp::kUnprocessed;
      n.t_ns = obs::now_ns() - cfg.start_ns;
      shards[0].nodes.push_back(std::move(n));
    }
  }
  if (st.have_incumbent) {
    res.obj = st.incumbent_obj.load();
    res.x = std::move(st.incumbent_x);
  }
  if (st.stop) {
    res.status = st.have_incumbent ? MipStatus::kFeasible : MipStatus::kUnknown;
    res.best_bound = std::min({open_bound, root_bound, st.have_incumbent ? res.obj : open_bound});
  } else {
    res.status = st.have_incumbent ? MipStatus::kOptimal : MipStatus::kInfeasible;
    res.best_bound = st.have_incumbent ? res.obj : kInf;
  }
  res.seconds = clock.seconds();
  if (aud != nullptr) {
    ND_ASSERT(merge_audit_shards(std::move(shards), aud),
              "branch-and-bound produced a non-contiguous audit id range");
    aud->status = res.status;
    aud->obj = res.obj;
    aud->best_bound = res.best_bound;
    aud->x = res.x;
    if (opt.telemetry) {
      std::size_t bytes = aud->nodes.capacity() * sizeof(AuditNode);
      for (const AuditNode& node : aud->nodes) {
        if (node.proof) bytes += node.proof->capacity() * sizeof(ProofVector::value_type);
      }
      ND_OBS_COUNT("mem.audit.bytes", static_cast<long long>(bytes));
    }
  }
  return res;
}

}  // namespace nd::milp
