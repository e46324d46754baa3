// Work-sharing parallel branch-and-bound (MipOptions::num_threads > 1).
//
// Architecture (full treatment in docs/parallelism.md):
//  * The ROOT is processed on the calling thread exactly as in the
//    sequential solver — root LP, certificate extraction, warm-start
//    validation, reduced-cost fixing — so the audit log's root section is
//    byte-for-byte the same artifact certify_bnb already replays.
//  * Open subtrees live in a shared best-bound heap (smallest parent LP
//    bound pops first, node id breaks ties) guarded by the queue mutex
//    together with the global node-id counter and the in-flight count.
//  * Each pool worker owns a private simplex engine. A popped subtree is
//    solved from scratch, then explored DEPTH-FIRST on a worker-local stack
//    exactly like the sequential solver: descend into the child nearest the
//    fractional LP value, keep the sibling locally, and on backtrack revert
//    the applied suffix (each variable to its recorded pre-branch bounds)
//    before one dual re-solve. That connected revert/tighten walk is the
//    engine access pattern the sequential solver exercises and the test
//    corpus validates, and it keeps per-node cost at warm-re-solve levels.
//    Work-sharing happens by DONATION: when the shared queue runs low, the
//    sibling is pushed there instead of onto the local stack. A donated
//    subtree is always solved cold by whoever pops it — a warm basis
//    carried across an arbitrary cross-subtree jump is numerically
//    untrustworthy (it can declare optimality at suboptimal points), so
//    every cross-worker handoff pays one cold solve and nothing else does.
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
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/invariants.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "lp/certificate.hpp"
#include "lp/simplex.hpp"
#include "milp/audit.hpp"
#include "milp/bnb_detail.hpp"
#include "obs/obs.hpp"

namespace nd::milp::detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// obs counter a node disposition contributes to; nullptr for dispositions
/// that are bookkeeping rather than search work (unprocessed, limit-cut).
/// Shared names with the sequential solver, so profiles aggregate across
/// both tree walks.
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

/// An open subtree: the bound-change path from the root to its root node.
/// The audit entry for the node is written by whichever worker processes it
/// (or by the final drain, as kUnprocessed, when a limit stops the search).
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

struct SearchState {
  // --- queue mutex: open heap, id counter, in-flight count, node count,
  //     stop flag, limit bound, first worker error, LP iteration total.
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::vector<Subproblem> open;
  int next_id = 0;
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
  /// than this. Set to the worker count: enough to feed idle workers,
  /// rare enough that almost every node keeps warm-re-solve cost.
  int donate_below = 1;
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
bool try_promote(SearchState& st, double cand_obj, std::vector<double> x, AuditNode* node) {
  const std::lock_guard<std::mutex> lock(st.inc_mu);
  if (st.have_incumbent &&
      cand_obj >= st.incumbent_obj.load(std::memory_order_relaxed)) {
    return false;
  }
  st.incumbent_obj.store(cand_obj, std::memory_order_relaxed);
  st.incumbent_x = std::move(x);
  st.have_incumbent = true;
  node->incumbent_update = true;
  node->incumbent_obj = cand_obj;
  return true;
}

/// The engine-side bookkeeping of one worker: the bound-change path
/// currently applied, and per entry the bounds the variable had just before
/// (so a suffix can be reverted exactly — a variable branched twice on the
/// path must revert to its mid-path interval, not to the root's).
struct EngineState {
  std::vector<BoundChange> applied;
  std::vector<BoundChange> saved;  ///< pre-change bounds, aligned with applied
};

/// Cross-subtree jump: reset the engine to the root (post-fixing) bounds and
/// apply `path` from scratch. The caller must follow with a cold solve() —
/// this is exactly the kind of jump the warm path cannot be trusted across.
void apply_path(lp::Simplex& engine, const SearchConfig& cfg, EngineState& es,
                const std::vector<BoundChange>& path) {
  for (const BoundChange& bc : es.applied) {
    engine.set_bound(bc.var, cfg.root_lo[static_cast<std::size_t>(bc.var)],
                     cfg.root_hi[static_cast<std::size_t>(bc.var)]);
  }
  es.applied.clear();
  es.saved.clear();
  for (const BoundChange& bc : path) {
    es.saved.push_back({bc.var, engine.bound_lo(bc.var), engine.bound_hi(bc.var)});
    engine.set_bound(bc.var, bc.lo, bc.hi);
    es.applied.push_back(bc);
  }
}

/// Warm move to a node whose path prefix is an ancestor of the currently
/// applied path (always true for local depth-first work): revert the applied
/// suffix in LIFO order to each entry's saved bounds, then apply the node's
/// own interval. This connected revert/tighten walk mirrors the sequential
/// solver's backtracking; the caller follows with dual_resolve().
void warm_goto(lp::Simplex& engine, EngineState& es, const std::vector<BoundChange>& path) {
  const std::size_t prefix = path.size() - 1;
  ND_ASSERT(prefix <= es.applied.size(),
            "local subproblem is not an ancestor-descendant of the engine state");
  while (es.applied.size() > prefix) {
    engine.set_bound(es.saved.back().var, es.saved.back().lo, es.saved.back().hi);
    es.applied.pop_back();
    es.saved.pop_back();
  }
  const BoundChange& bc = path.back();
  es.saved.push_back({bc.var, engine.bound_lo(bc.var), engine.bound_hi(bc.var)});
  engine.set_bound(bc.var, bc.lo, bc.hi);
  es.applied.push_back(bc);
}

/// One worker: pop a subtree from the shared queue, solve it cold, then run
/// the sequential solver's depth-first loop over it — dive into the near
/// child, keep the far sibling on a worker-local LIFO stack, backtrack by
/// suffix revert + dual re-solve. Siblings are donated to the shared queue
/// only while it runs low (cfg.donate_below), so almost every node keeps
/// warm-re-solve cost.
void worker_main(const SearchConfig& cfg, SearchState& st, AuditShard& shard) {
  const Model& model = *cfg.model;
  const MipOptions& opt = *cfg.opt;
  lp::Simplex engine(model.lp(), cfg.lp_opt);
  engine.set_deadline(cfg.deadline);
  for (int j = 0; j < model.num_vars(); ++j) {
    if (cfg.root_lo[static_cast<std::size_t>(j)] != model.lp().lo(j) ||
        cfg.root_hi[static_cast<std::size_t>(j)] != model.lp().hi(j)) {
      engine.set_bound(j, cfg.root_lo[static_cast<std::size_t>(j)],
                       cfg.root_hi[static_cast<std::size_t>(j)]);
    }
  }
  EngineState es;
  std::vector<Subproblem> local;  ///< LIFO sibling stack of the current session

  // Record every entry of the local stack as created-but-unreached and fold
  // its bound into the limit bound — the worker-local analogue of the final
  // open-heap drain in solve_parallel. Takes the queue mutex itself.
  const auto drain_local = [&cfg, &st, &shard, &local] {
    if (local.empty()) return;
    const std::lock_guard<std::mutex> drain_lock(st.queue_mu);
    for (const Subproblem& sub : local) {
      st.limit_bound = std::min(st.limit_bound, sub.parent_bound);
      if (cfg.audit) {
        AuditNode n;
        n.id = sub.id;
        n.parent = sub.parent;
        n.var = sub.path.back().var;
        n.lo = sub.path.back().lo;
        n.hi = sub.path.back().hi;
        n.disp = NodeDisp::kUnprocessed;
        n.t_ns = obs::now_ns() - cfg.start_ns;
        shard.nodes.push_back(n);
      }
    }
    local.clear();
  };

  // Worker-local telemetry tallies, flushed once at worker exit.
  const std::int64_t worker_start_ns = obs::now_ns();
  std::int64_t busy_ns = 0;
  long long subtree_sessions = 0;
  long long donations = 0;
  long long cold_solves = 0;
  long long warm_resolves = 0;
  long long processed_nodes = 0;

  std::unique_lock<std::mutex> lock(st.queue_mu);
  while (true) {
    st.queue_cv.wait(lock, [&st] {
      return st.stop || !st.open.empty() || st.in_flight == 0;
    });
    if (st.stop || (st.open.empty() && st.in_flight == 0)) break;
    if (st.open.empty()) continue;
    std::pop_heap(st.open.begin(), st.open.end(), heap_later);
    Subproblem cur = std::move(st.open.back());
    st.open.pop_back();
    ++st.in_flight;
    const auto queue_depth = static_cast<double>(st.open.size());
    lock.unlock();

    // The session span closes at the end of this loop iteration (after the
    // local stack drains), giving each popped subtree one trace slice on
    // this worker's lane; busy_ns accumulates the same window.
    const obs::Span session_span("bnb.par.subtree", opt.telemetry, /*hist=*/true);
    const std::int64_t session_start_ns = obs::now_ns();
    ++subtree_sessions;
    if (opt.telemetry) ND_OBS_VALUE("bnb.par.queue_depth", queue_depth);

    bool fresh = true;   // cur is a cross-subtree jump: cold-solve it
    bool working = true;
    while (working) {
      // Same distribution as the sequential solver: one sample per node, so
      // serial and parallel node-time histograms compare like-for-like.
      const obs::HistTimer node_timer("bnb.node_ns", opt.telemetry);
      working = false;
      AuditNode node;
      node.id = cur.id;
      node.parent = cur.parent;
      node.var = cur.path.back().var;
      node.lo = cur.path.back().lo;
      node.hi = cur.path.back().hi;

      bool hit_limit = false;
      bool abandoned = false;
      std::int64_t node_count = 0;
      {
        const std::lock_guard<std::mutex> count_lock(st.queue_mu);
        if (st.stop) {
          // Another worker hit a limit mid-session: leave this node (and
          // everything still on the local stack) as created-but-unreached
          // and fold their bounds into the open set's.
          node.disp = NodeDisp::kUnprocessed;
          st.limit_bound = std::min(st.limit_bound, cur.parent_bound);
          abandoned = true;
        } else {
          ++st.nodes;
          node_count = st.nodes;
        }
      }
      if (abandoned) {
        if (cfg.audit) {
          node.t_ns = obs::now_ns() - cfg.start_ns;
          shard.nodes.push_back(node);
        }
        drain_local();
        break;
      }
      ++processed_nodes;

      if (cfg.clock->seconds() > opt.time_limit_s || node_count > opt.node_limit) {
        node.disp = NodeDisp::kLimit;
        hit_limit = true;
      } else if (cur.parent_bound >= cutoff_of(st, opt)) {
        // The best-bound queue's prune: the parent's bound already clears
        // the cutoff, so the subtree is never solved (kSkippedParentBound
        // replays against the parent's recorded bound). The engine keeps
        // the PREVIOUS node's bounds — `es` stays accurate, and any later
        // local pop still sees its prefix applied.
        node.disp = NodeDisp::kSkippedParentBound;
      } else {
        lp::SolveStatus s;
        if (fresh) {
          ++cold_solves;
          apply_path(engine, cfg, es, cur.path);
          s = engine.solve();
        } else {
          ++warm_resolves;
          // The sequential walk: revert the applied suffix down to the
          // common ancestor, tighten this node's one bound, dual re-solve.
          warm_goto(engine, es, cur.path);
          s = engine.dual_resolve();
        }
        fresh = false;
        ND_ASSERT(s != lp::SolveStatus::kUnbounded,
                  "deployment MILPs have bounded variables; unbounded node LP "
                  "indicates a model bug");
        if (cfg.audit) node.proof = record_proof(engine);
        if (s == lp::SolveStatus::kIterLimit) {
          node.disp = NodeDisp::kLimit;
          hit_limit = true;
        } else if (s == lp::SolveStatus::kInfeasible) {
          node.disp = NodeDisp::kPrunedInfeasible;
        } else {
          node.lp_solved = true;
          node.bound = engine.objective();
          ND_INVARIANT(node.bound >= cur.parent_bound -
                                         1e-5 * (1.0 + std::abs(cur.parent_bound)),
                       "child LP bound better than its parent node's");
          bool closed = false;
          if (node.bound >= cutoff_of(st, opt)) {
            node.disp = NodeDisp::kPrunedBound;
            closed = true;
          }
          if (!closed && opt.completion) {
            std::vector<double> candidate;
            if (opt.completion(engine.solution(), &candidate) &&
                model.is_mip_feasible(candidate, std::max(1e-5, opt.int_tol))) {
              const double cand_obj = model.lp().objective_value(candidate);
              node.has_completion = true;
              node.completion_obj = cand_obj;
              if (try_promote(st, cand_obj, std::move(candidate), &node) &&
                  opt.telemetry) {
                ND_OBS_COUNT("bnb.incumbent_updates", 1);
                ND_OBS_INSTANT("bnb.incumbent", cand_obj);
              }
              if (cand_obj <=
                  node.bound + std::max(opt.abs_gap, opt.rel_gap * std::abs(cand_obj))) {
                node.disp = NodeDisp::kCompletionClosed;
                closed = true;
              }
            }
          }
          if (!closed) {
            const int bv = pick_branch_var(model, engine, opt.int_tol);
            if (bv < 0) {
              std::vector<double> x = engine.solution();
              for (int j = 0; j < model.num_vars(); ++j) {
                if (model.is_integer(j)) {
                  const auto ju = static_cast<std::size_t>(j);
                  x[ju] = std::round(x[ju]);
                }
              }
              if (model.is_mip_feasible(x, std::max(1e-5, opt.int_tol)) &&
                  try_promote(st, node.bound, std::move(x), &node) &&
                  opt.telemetry) {
                ND_OBS_COUNT("bnb.incumbent_updates", 1);
                ND_OBS_INSTANT("bnb.incumbent", node.bound);
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
                const double v = std::clamp(engine.value(bv), old_lo, old_hi);
                double fl = std::floor(v);
                fl = std::clamp(fl, old_lo, old_hi - 1.0);
                node.disp = NodeDisp::kBranched;
                node.branch_var = bv;
                Subproblem near_child, far_child;
                near_child.parent = far_child.parent = node.id;
                near_child.parent_bound = far_child.parent_bound = node.bound;
                near_child.path = cur.path;
                far_child.path = cur.path;
                if (v - fl <= 0.5) {  // dive down, keep the up child
                  near_child.path.push_back({bv, old_lo, fl});
                  far_child.path.push_back({bv, fl + 1.0, old_hi});
                } else {  // dive up, keep the down child
                  near_child.path.push_back({bv, fl + 1.0, old_hi});
                  far_child.path.push_back({bv, old_lo, fl});
                }
                bool donate = false;
                {
                  const std::lock_guard<std::mutex> push_lock(st.queue_mu);
                  // The dived-into child gets the smaller id, so equal
                  // bounds pop in dive order.
                  near_child.id = st.next_id++;
                  far_child.id = st.next_id++;
                  // Donate the sibling only while the shared queue runs
                  // low: idle workers get fed, everything else stays on
                  // the warm local stack.
                  donate = static_cast<int>(st.open.size()) < cfg.donate_below;
                  if (donate) {
                    st.open.push_back(std::move(far_child));
                    std::push_heap(st.open.begin(), st.open.end(), heap_later);
                  }
                }
                if (donate) {
                  ++donations;
                  st.queue_cv.notify_all();
                } else {
                  local.push_back(std::move(far_child));
                }
                cur = std::move(near_child);
                working = true;
              }
            }
          }
        }
      }

      node.t_ns = obs::now_ns() - cfg.start_ns;
      if (cfg.audit) shard.nodes.push_back(node);
      if (opt.telemetry) {
        if (const char* c = disp_counter(node.disp)) ND_OBS_COUNT(c, 1);
      }

      if (hit_limit) {
        ND_OBS_LOG(obs::LogLevel::kWarn, "bnb-par-limit",
                   {"nodes", static_cast<long long>(node_count)},
                   {"worker", ThreadPool::current_worker_index()});
        {
          const std::lock_guard<std::mutex> stop_lock(st.queue_mu);
          st.stop = true;
          st.limit_bound = std::min(st.limit_bound, cur.parent_bound);
        }
        drain_local();
        st.queue_cv.notify_all();
      } else if (!working && !local.empty()) {
        // Backtrack to the deepest unexplored sibling; warm_goto reverts
        // the applied suffix when the node is actually solved.
        cur = std::move(local.back());
        local.pop_back();
        working = true;
      }
      if (opt.verbose && node_count % 5000 == 0) {
        std::printf("[bnb-par] nodes=%lld\n", static_cast<long long>(node_count));
      }
    }
    ND_ASSERT(local.empty(), "worker session ended with live local subproblems");
    busy_ns += obs::now_ns() - session_start_ns;

    lock.lock();
    --st.in_flight;
    if (st.stop || (st.open.empty() && st.in_flight == 0)) {
      st.queue_cv.notify_all();
    }
  }
  lock.unlock();
  if (opt.telemetry) {
    const int slot = std::max(0, ThreadPool::current_worker_index());
    const std::int64_t lifetime_ns = obs::now_ns() - worker_start_ns;
    ND_OBS_COUNT("bnb.nodes", processed_nodes);
    ND_OBS_COUNT("bnb.par.busy_ns", busy_ns);
    ND_OBS_COUNT("bnb.par.idle_ns", std::max<std::int64_t>(0, lifetime_ns - busy_ns));
    ND_OBS_COUNT("bnb.par.w" + std::to_string(slot) + ".busy_ns", busy_ns);
    ND_OBS_COUNT("bnb.par.subtrees", subtree_sessions);
    ND_OBS_COUNT("bnb.par.donations", donations);
    ND_OBS_COUNT("bnb.par.cold_solves", cold_solves);
    ND_OBS_COUNT("bnb.par.warm_resolves", warm_resolves);
    lp::emit_lp_counters(engine);
  }
  lock.lock();
  st.lp_iterations += engine.iterations();
}

}  // namespace

MipResult solve_parallel(const Model& model, const MipOptions& opt, int threads) {
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
  // Same per-node pivot cap as the sequential solver: pathological degenerate
  // episodes fail fast instead of burning the budget.
  cfg.lp_opt.max_iters = 50000;
  // Dantzig pricing, as in the sequential driver: the tree shape follows
  // the LP vertex.
  cfg.lp_opt.pricing = lp::Pricing::kDantzig;
  cfg.donate_below = threads;
  cfg.start_ns = obs::now_ns();
  cfg.deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(opt.time_limit_s));

  SearchState st;
  // The main shard carries the root and, after a limit, the drained open
  // nodes; workers get one shard each.
  std::vector<AuditShard> shards(static_cast<std::size_t>(threads) + 1);
  AuditShard& main_shard = shards.back();

  // ---- Root processing on the calling thread (mirrors the sequential
  // solver so the root section of the audit log is the same artifact).
  lp::Simplex root_engine(model.lp(), cfg.lp_opt);
  root_engine.set_deadline(cfg.deadline);

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

  const lp::SolveStatus root_status = root_engine.solve();
  AuditNode root;
  root.id = 0;
  st.next_id = 1;
  if (aud != nullptr) {
    aud->root_cert = root_engine.extract_certificate();
    root.proof = record_proof(root_engine);
  }

  const auto finish = [&](MipStatus status, double best_bound) {
    res.status = status;
    res.best_bound = best_bound;
    res.seconds = clock.seconds();
    if (st.have_incumbent) {
      res.obj = st.incumbent_obj.load();
      res.x = st.incumbent_x;
    }
    if (aud != nullptr) {
      main_shard.nodes.push_back(root);
      ND_ASSERT(merge_audit_shards(shards, aud),
                "parallel B&B produced a non-contiguous audit id range");
      aud->status = res.status;
      aud->obj = res.obj;
      aud->best_bound = res.best_bound;
      aud->x = res.x;
    }
    return res;
  };

  if (root_status == lp::SolveStatus::kInfeasible) {
    res.nodes = 1;
    res.lp_iterations = root_engine.iterations();
    root.disp = NodeDisp::kPrunedInfeasible;
    root.t_ns = obs::now_ns() - cfg.start_ns;
    if (aud != nullptr) aud->root_bound = kInf;
    if (opt.telemetry) {
      ND_OBS_COUNT("bnb.nodes", 1);
      ND_OBS_COUNT("bnb.pruned_infeasible", 1);
      lp::emit_lp_counters(root_engine);
    }
    return finish(MipStatus::kInfeasible, kInf);
  }
  ND_ASSERT(root_status != lp::SolveStatus::kUnbounded,
            "deployment MILPs have bounded variables; unbounded LP indicates a model bug");

  const double root_bound =
      (root_status == lp::SolveStatus::kOptimal) ? root_engine.objective() : -kInf;
  if (aud != nullptr) aud->root_bound = root_bound;

  // Root reduced-cost fixing, recorded for the workers' baseline bounds.
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
      const double lo = root_engine.bound_lo(j);
      const double hi = root_engine.bound_hi(j);
      if (hi - lo < 0.5) continue;
      const double d = root_engine.reduced_cost(j);
      const auto vstat = root_engine.var_status(j);
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
      root_engine.set_bound(j, fix, fix);
      cfg.root_lo[static_cast<std::size_t>(j)] = fix;
      cfg.root_hi[static_cast<std::size_t>(j)] = fix;
      if (aud != nullptr) aud->root_fixings.push_back({j, at_lower, fix, fix});
    }
  }

  // ---- Root disposition (same logic as a worker node, on the root LP
  // solution; the engine's bounds already include the fixings, exactly like
  // the sequential solver's state on its first loop iteration).
  st.nodes = 1;
  bool root_limit = false;
  if (root_status == lp::SolveStatus::kIterLimit) {
    root.disp = NodeDisp::kLimit;
    root_limit = true;
  } else {
    root.lp_solved = true;
    root.bound = root_bound;
    bool closed = false;
    const double root_cutoff = cutoff_of(st, opt);
    if (root.bound >= root_cutoff) {
      root.disp = NodeDisp::kPrunedBound;
      closed = true;
    }
    if (!closed && opt.completion) {
      std::vector<double> candidate;
      if (opt.completion(root_engine.solution(), &candidate) &&
          model.is_mip_feasible(candidate, std::max(1e-5, opt.int_tol))) {
        const double cand_obj = model.lp().objective_value(candidate);
        root.has_completion = true;
        root.completion_obj = cand_obj;
        try_promote(st, cand_obj, std::move(candidate), &root);
        if (cand_obj <=
            root.bound + std::max(opt.abs_gap, opt.rel_gap * std::abs(cand_obj))) {
          root.disp = NodeDisp::kCompletionClosed;
          closed = true;
        }
      }
    }
    if (!closed) {
      const int bv = pick_branch_var(model, root_engine, opt.int_tol);
      if (bv < 0) {
        std::vector<double> x = root_engine.solution();
        for (int j = 0; j < model.num_vars(); ++j) {
          if (model.is_integer(j)) {
            const auto ju = static_cast<std::size_t>(j);
            x[ju] = std::round(x[ju]);
          }
        }
        if (model.is_mip_feasible(x, std::max(1e-5, opt.int_tol))) {
          try_promote(st, root.bound, std::move(x), &root);
        }
        root.disp = NodeDisp::kIntegral;
      } else {
        const double old_lo = root_engine.bound_lo(bv);
        const double old_hi = root_engine.bound_hi(bv);
        if (old_hi - old_lo < 0.5) {
          root.disp = NodeDisp::kLimit;
          root_limit = true;
        } else {
          const double v = std::clamp(root_engine.value(bv), old_lo, old_hi);
          double fl = std::floor(v);
          fl = std::clamp(fl, old_lo, old_hi - 1.0);
          root.disp = NodeDisp::kBranched;
          root.branch_var = bv;
          Subproblem down, up;
          down.parent = up.parent = 0;
          down.parent_bound = up.parent_bound = root.bound;
          down.path.push_back({bv, old_lo, fl});
          up.path.push_back({bv, fl + 1.0, old_hi});
          if (v - fl > 0.5) std::swap(down, up);
          down.id = st.next_id++;
          up.id = st.next_id++;
          st.open.push_back(std::move(down));
          st.open.push_back(std::move(up));
          std::make_heap(st.open.begin(), st.open.end(), heap_later);
        }
      }
    }
  }
  st.lp_iterations += root_engine.iterations();
  root.t_ns = obs::now_ns() - cfg.start_ns;
  if (opt.telemetry) {
    ND_OBS_COUNT("bnb.nodes", 1);
    ND_OBS_COUNT("bnb.par.cold_solves", 1);  // the root LP itself
    if (const char* c = disp_counter(root.disp)) ND_OBS_COUNT(c, 1);
    lp::emit_lp_counters(root_engine);
  }

  // ---- Workers.
  if (!st.open.empty()) {
    ThreadPool pool(threads);
    for (int w = 0; w < threads; ++w) {
      AuditShard& shard = shards[static_cast<std::size_t>(w)];
      pool.submit([&cfg, &st, &shard] {
        try {
          worker_main(cfg, st, shard);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(st.queue_mu);
          if (!st.error) st.error = std::current_exception();
          st.stop = true;
          st.queue_cv.notify_all();
        }
      });
    }
    pool.wait_idle();
  }
  if (st.error) std::rethrow_exception(st.error);

  // ---- Final bookkeeping (single-threaded again from here on).
  res.nodes = st.nodes;
  res.lp_iterations = static_cast<int>(st.lp_iterations);
  const bool hit_limit = root_limit || st.stop;
  double open_bound = st.limit_bound;
  for (Subproblem& sub : st.open) {
    open_bound = std::min(open_bound, sub.parent_bound);
    if (aud != nullptr) {
      AuditNode n;
      n.id = sub.id;
      n.parent = sub.parent;
      n.var = sub.path.back().var;
      n.lo = sub.path.back().lo;
      n.hi = sub.path.back().hi;
      n.disp = NodeDisp::kUnprocessed;
      n.t_ns = obs::now_ns() - cfg.start_ns;
      main_shard.nodes.push_back(n);
    }
  }
  if (hit_limit) {
    const double inc = st.have_incumbent ? st.incumbent_obj.load() : open_bound;
    return finish(st.have_incumbent ? MipStatus::kFeasible : MipStatus::kUnknown,
                  std::min({open_bound, root_bound, inc}));
  }
  return finish(st.have_incumbent ? MipStatus::kOptimal : MipStatus::kInfeasible,
                st.have_incumbent ? st.incumbent_obj.load() : kInf);
}

}  // namespace nd::milp::detail
