#include "analysis/exact/verify_deployment.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "analysis/exact/envelope.hpp"
#include "deploy/evaluate.hpp"
#include "obs/obs.hpp"

namespace nd::analysis {

namespace {

// ---------------------------------------------------------------------------
// Adaptive-precision dyadic interval arithmetic.
//
// A value is enclosed by [lo, hi]·2^-prec with BigInt endpoints. Every
// operation rounds outward, so any real number tracked through a chain of
// operations stays inside its interval; comparisons against a rational
// threshold reduce to exact integer comparisons. This is the engine behind
// the reliability enclosures: exp/atanh are summed as Taylor series with
// rigorous tail widening, and the precision is doubled until the comparison
// of interest is decided.
// ---------------------------------------------------------------------------

struct Iv {
  BigInt lo, hi;
};

class DyadicIv {
 public:
  explicit DyadicIv(std::size_t prec) : prec_(prec) {}

  [[nodiscard]] std::size_t prec() const { return prec_; }

  [[nodiscard]] Iv from_int(std::int64_t v) const {
    BigInt s = BigInt(v).shl(prec_);
    return {s, s};
  }
  [[nodiscard]] Iv from_rat(const Rat& r) const {
    BigInt q, rem;
    BigInt::divmod(r.num().shl(prec_), r.den(), q, rem);
    if (rem.is_zero()) return {q, q};
    // divmod truncates toward zero; widen to the enclosing floor/ceil pair.
    if (r.sign() < 0) return {q - BigInt(1), q};
    return {q, q + BigInt(1)};
  }

  [[nodiscard]] static Iv add(const Iv& a, const Iv& b) { return {a.lo + b.lo, a.hi + b.hi}; }
  [[nodiscard]] static Iv sub(const Iv& a, const Iv& b) { return {a.lo - b.hi, a.hi - b.lo}; }
  [[nodiscard]] static Iv neg(const Iv& a) { return {-a.hi, -a.lo}; }

  [[nodiscard]] Iv mul(const Iv& a, const Iv& b) const {
    const BigInt p1 = a.lo * b.lo, p2 = a.lo * b.hi, p3 = a.hi * b.lo, p4 = a.hi * b.hi;
    BigInt mn = p1, mx = p1;
    for (const BigInt* p : {&p2, &p3, &p4}) {
      if (*p < mn) mn = *p;
      if (*p > mx) mx = *p;
    }
    return {floor_shift(mn), ceil_shift(mx)};
  }

  /// Divide by a positive machine integer (series factorials / halvings).
  [[nodiscard]] static Iv div_pos(const Iv& a, std::int64_t k) {
    return {floor_div(a.lo, BigInt(k)), ceil_div(a.hi, BigInt(k))};
  }

  /// Multiply by an exact nonnegative integer (e.g. 10^k): no rounding.
  [[nodiscard]] static Iv mul_int(const Iv& a, const BigInt& k) {
    return {a.lo * k, a.hi * k};
  }

  [[nodiscard]] static BigInt mag(const Iv& a) {
    return BigInt::cmp_mag(a.lo, a.hi) >= 0 ? a.lo.abs() : a.hi.abs();
  }

  /// value(a) compared against rational r: -1 if surely <, +1 if surely >,
  /// 0 if the interval straddles r (undecided at this precision).
  [[nodiscard]] int cmp_rat(const Iv& a, const Rat& r) const {
    const BigInt rhs = r.num().shl(prec_);
    if (a.hi * r.den() < rhs) return -1;
    if (a.lo * r.den() > rhs) return 1;
    return 0;
  }

  /// Rigorous enclosure of exp(x) for an interval x of any sign.
  [[nodiscard]] Iv exp(Iv x) const {
    // Argument halving until |x| <= 1/2, squaring the result back up.
    const BigInt half = BigInt(1).shl(prec_ - 1);
    int halvings = 0;
    while (mag(x) > half) {
      x = div_pos(x, 2);
      ++halvings;
    }
    Iv term = from_int(1);
    Iv acc = term;
    for (std::int64_t k = 1; k <= static_cast<std::int64_t>(prec_) + 64; ++k) {
      term = div_pos(mul(term, x), k);
      acc = add(acc, term);
      if (mag(term) <= BigInt(1)) break;
    }
    // |x| <= 1/2 makes the true tail a <= 1/2-ratio geometric series below
    // the last interval term; 8 ulps generously covers it plus the rounding
    // already folded into `term`.
    acc.lo -= BigInt(8);
    acc.hi += BigInt(8);
    for (int h = 0; h < halvings; ++h) acc = mul(acc, acc);
    return acc;
  }

  /// Rigorous enclosure of atanh(1/q) for a machine integer q >= 3.
  [[nodiscard]] Iv atanh_inv(std::int64_t q) const {
    const Iv x = from_rat(Rat(1, q));
    const Iv x2 = mul(x, x);
    Iv term = x;
    Iv acc = x;
    for (std::int64_t k = 1; k <= static_cast<std::int64_t>(prec_) + 64; ++k) {
      term = mul(term, x2);
      acc = add(acc, div_pos(term, 2 * k + 1));
      if (mag(term) <= BigInt(1)) break;
    }
    // ratio 1/q^2 <= 1/9: the tail is under (9/8) of the next term.
    acc.lo -= BigInt(8);
    acc.hi += BigInt(8);
    return acc;
  }

  /// ln(10) = 6·atanh(1/3) + 2·atanh(1/9)  (3·ln2 + ln(5/4)).
  [[nodiscard]] Iv ln10() const {
    const Iv a = atanh_inv(3), b = atanh_inv(9);
    return add(mul_int(a, BigInt(6)), mul_int(b, BigInt(2)));
  }

  /// Rigorous enclosure of 10^g for rational g >= 0.
  [[nodiscard]] Iv pow10(const Rat& g) const {
    BigInt ip, rem;
    BigInt::divmod(g.num(), g.den(), ip, rem);
    BigInt ten_ip(1);
    for (BigInt i; i < ip; i += BigInt(1)) ten_ip *= BigInt(10);
    const Rat frac = g - Rat(ip, BigInt(1));
    Iv r = frac.is_zero() ? from_int(1) : exp(mul(from_rat(frac), ln10()));
    return mul_int(r, ten_ip);
  }

 private:
  [[nodiscard]] BigInt floor_shift(const BigInt& v) const { return floor_div_pow2(v, prec_); }
  [[nodiscard]] BigInt ceil_shift(const BigInt& v) const {
    return -floor_div_pow2(-v, prec_);
  }
  static BigInt floor_div_pow2(const BigInt& v, std::size_t s) {
    BigInt q = v.shr(s);
    if (v.is_negative() && q.shl(s) != v) q -= BigInt(1);
    return q;
  }
  static BigInt floor_div(const BigInt& a, const BigInt& b) {
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    if (!r.is_zero() && (a.is_negative() != b.is_negative())) q -= BigInt(1);
    return q;
  }
  static BigInt ceil_div(const BigInt& a, const BigInt& b) { return -floor_div(-a, b); }

  std::size_t prec_;
};

bool finite(double v) { return std::isfinite(v); }

std::string rat_approx(const Rat& v) { return std::to_string(v.to_double()); }

}  // namespace

VerifyDeploymentOutcome verify_deployment(const deploy::DeploymentProblem& p,
                                          const deploy::DeploymentSolution& s,
                                          const VerifyDeploymentOptions& opt) {
  const std::int64_t t0 = obs::now_ns();
  VerifyDeploymentOutcome out;
  Report& rep = out.report;

  const int M = p.num_tasks();
  const int total = p.num_total_tasks();
  const int N = p.num_procs();
  const auto ui = [](int i) { return static_cast<std::size_t>(i); };

  // ---- shape ---------------------------------------------------------------
  const auto tz = static_cast<std::size_t>(total);
  if (s.exists.size() != tz || s.level.size() != tz || s.proc.size() != tz ||
      s.start.size() != tz || s.end.size() != tz ||
      s.path_choice.size() != static_cast<std::size_t>(N) * static_cast<std::size_t>(N)) {
    rep.add(Severity::kError, codes::kVerifyShape, "solution",
            "solution arity does not match the problem (tasks or path table)");
    return out;
  }

  // ---- assignments ---------------------------------------------------------
  auto exists = [&](int i) { return s.exists[ui(i)] != 0; };
  bool assign_ok = true;
  for (int i = 0; i < M; ++i) {
    if (!exists(i)) {
      rep.add(Severity::kError, codes::kVerifyAssign, "task " + std::to_string(i),
              "original task marked absent");
      assign_ok = false;
    }
  }
  for (int i = 0; i < total; ++i) {
    if (!exists(i)) continue;
    if (s.proc[ui(i)] < 0 || s.proc[ui(i)] >= N) {
      rep.add(Severity::kError, codes::kVerifyAssign, "task " + std::to_string(i),
              "invalid processor " + std::to_string(s.proc[ui(i)]));
      assign_ok = false;
    }
    if (s.level[ui(i)] < 0 || s.level[ui(i)] >= p.num_levels()) {
      rep.add(Severity::kError, codes::kVerifyAssign, "task " + std::to_string(i),
              "invalid V/F level " + std::to_string(s.level[ui(i)]));
      assign_ok = false;
    }
  }
  if (!assign_ok) return out;  // everything below indexes by proc/level

  // ---- routing -------------------------------------------------------------
  // Used processor pairs and their chosen paths, re-walked hop by hop.
  std::vector<const task::DupEdge*> active_edges;
  for (const auto& e : p.dup().edges()) {
    if (!exists(e.from) || !exists(e.to)) continue;
    if (std::any_of(e.gates.begin(), e.gates.end(), [&](int g) { return !exists(g); }))
      continue;
    active_edges.push_back(&e);
  }
  bool routes_ok = true;
  std::map<std::pair<int, int>, int> used_pairs;  // (beta,gamma) -> rho
  for (const auto* e : active_edges) {
    const int beta = s.proc[ui(e->from)], gamma = s.proc[ui(e->to)];
    if (beta == gamma) continue;
    const int rho = s.rho(beta, gamma, N);
    if (rho < 0 || rho >= noc::Mesh::kNumPaths) {
      rep.add(Severity::kError, codes::kVerifyRoute,
              "pair (" + std::to_string(beta) + "," + std::to_string(gamma) + ")",
              "invalid path choice " + std::to_string(rho));
      routes_ok = false;
      continue;
    }
    used_pairs.emplace(std::make_pair(beta, gamma), rho);
  }
  for (const auto& [pair, rho] : used_pairs) {
    const auto& [beta, gamma] = pair;
    const auto& nodes = p.mesh().path_nodes(beta, gamma, rho);
    const std::string subject =
        "path (" + std::to_string(beta) + "," + std::to_string(gamma) + ")/" + std::to_string(rho);
    if (nodes.empty() || nodes.front() != beta || nodes.back() != gamma) {
      rep.add(Severity::kError, codes::kVerifyRoute, subject, "route endpoints do not match");
      routes_ok = false;
      continue;
    }
    Rat hop_sum;
    bool contiguous = true;
    for (std::size_t h = 0; h + 1 < nodes.size(); ++h) {
      if (!p.mesh().are_neighbours(nodes[h], nodes[h + 1])) {
        rep.add(Severity::kError, codes::kVerifyRoute, subject,
                "route hops between non-neighbour nodes " + std::to_string(nodes[h]) + " and " +
                    std::to_string(nodes[h + 1]));
        routes_ok = false;
        contiguous = false;
        break;
      }
      hop_sum += Rat(p.mesh().hop_latency_per_byte(nodes[h], nodes[h + 1]));
    }
    if (!contiguous) continue;
    const Rat table{p.mesh().time_per_byte(beta, gamma, rho)};
    const Rat env = claim_envelope(nodes.size(), Rat(1) + table.abs());
    if ((hop_sum - table).abs() > env) {
      rep.add(Severity::kError, codes::kVerifyRoute, subject,
              "per-hop latency sum " + rat_approx(hop_sum) +
                  " disagrees with the path table " + rat_approx(table));
      routes_ok = false;
    }
  }

  // ---- deadlines (exact, zero tolerance on the model data) -----------------
  std::vector<Rat> tc(tz);
  bool deadlines_ok = true;
  for (int i = 0; i < total; ++i) {
    if (!exists(i)) continue;
    const int l = s.level[ui(i)];
    tc[ui(i)] = Rat(static_cast<std::int64_t>(p.dup().wcec(i))) / Rat(p.vf().level(l).freq);
    if (tc[ui(i)] > Rat(p.dup().deadline(i))) {
      rep.add(Severity::kError, codes::kVerifyDeadline, "task " + std::to_string(i),
              "exact computation time " + rat_approx(tc[ui(i)]) + " exceeds deadline " +
                  std::to_string(p.dup().deadline(i)));
      deadlines_ok = false;
    }
  }

  // ---- earliest-start schedulability proof ---------------------------------
  // Combine the active dependency edges with the same-processor order the
  // claimed starts imply, topologically sort, and push every task as early
  // as its predecessors allow. The resulting witness schedule proves the
  // ORDER feasible; claimed float times are only used to read off the order.
  Rat zero;
  std::vector<Rat> tcomm(tz);  // exact t_i^comm: total over active in-edges
  for (const auto* e : active_edges) {
    const int beta = s.proc[ui(e->from)], gamma = s.proc[ui(e->to)];
    if (beta == gamma) continue;
    const int rho = s.rho(beta, gamma, N);
    if (rho < 0 || rho >= noc::Mesh::kNumPaths) continue;  // reported above
    tcomm[ui(e->to)] += Rat(e->bytes) * Rat(p.mesh().time_per_byte(beta, gamma, rho));
  }

  // succ edges carry whether they are dependency edges (which gate the
  // successor behind its full input communication time, per the validator's
  // constraint (6)) or same-processor order edges (plain non-overlap).
  std::vector<std::vector<std::pair<int, bool>>> succ(tz);
  std::vector<int> indegree(tz, 0);
  auto add_order_edge = [&](int a, int b, bool with_comm) {
    succ[ui(a)].emplace_back(b, with_comm);
    ++indegree[ui(b)];
  };
  for (const auto* e : active_edges) add_order_edge(e->from, e->to, true);
  std::vector<std::vector<int>> per_proc(static_cast<std::size_t>(N));
  for (int i = 0; i < total; ++i) {
    if (exists(i)) per_proc[ui(s.proc[ui(i)])].push_back(i);
  }
  for (auto& chain : per_proc) {
    std::sort(chain.begin(), chain.end(), [&](int a, int b) {
      if (s.start[ui(a)] < s.start[ui(b)]) return true;
      if (s.start[ui(b)] < s.start[ui(a)]) return false;
      return a < b;
    });
    for (std::size_t c = 0; c + 1 < chain.size(); ++c) {
      add_order_edge(chain[c], chain[c + 1], false);
    }
  }

  std::vector<int> queue;
  for (int i = 0; i < total; ++i) {
    if (exists(i) && indegree[ui(i)] == 0) queue.push_back(i);
  }
  std::vector<Rat> es_start(tz), es_end(tz);
  std::size_t visited = 0, num_active = 0;
  for (int i = 0; i < total; ++i) num_active += exists(i) ? 1u : 0u;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int i = queue[head];
    ++visited;
    es_end[ui(i)] = es_start[ui(i)] + tc[ui(i)];
    for (const auto& [j, with_comm] : succ[ui(i)]) {
      Rat ready = es_end[ui(i)];
      if (with_comm) ready += tcomm[ui(j)];
      es_start[ui(j)] = Rat::max(es_start[ui(j)], ready);
      if (--indegree[ui(j)] == 0) queue.push_back(j);
    }
  }
  bool schedule_ok = deadlines_ok;
  if (visited != num_active) {
    rep.add(Severity::kError, codes::kVerifyOrderCycle, "schedule",
            "the claimed per-processor order contradicts the dependency DAG (cycle)");
    schedule_ok = false;
  } else {
    Rat makespan;
    for (int i = 0; i < total; ++i) {
      if (exists(i)) makespan = Rat::max(makespan, es_end[ui(i)]);
    }
    out.exact_makespan = makespan;
    const Rat H{p.horizon()};
    const Rat env = claim_envelope(num_active, Rat(1) + H.abs());
    if (makespan > H + env) {
      rep.add(Severity::kError, codes::kVerifyHorizon, "schedule",
              "exact earliest-start makespan " + rat_approx(makespan) +
                  " exceeds the horizon " + rat_approx(H) + " beyond the derived envelope");
      schedule_ok = false;
    } else if (makespan > H) {
      rep.add(Severity::kWarning, codes::kVerifyHorizon, "schedule",
              "exact makespan exceeds the horizon by less than the float envelope "
              "(marginal schedule)");
    } else {
      rep.add(Severity::kInfo, codes::kVerifyExact, "schedule",
              "exact witness makespan " + rat_approx(makespan) + " <= horizon " + rat_approx(H));
    }
  }
  out.schedule_proved = schedule_ok && routes_ok;

  // ---- contention upper bound (informational) ------------------------------
  if (opt.contention && out.schedule_proved && visited == num_active) {
    // Pessimistic serialization: every transfer crossing a directed link
    // waits for every other transfer on that link. If even then the ES
    // schedule fits the horizon, the deployment is contention-robust.
    std::map<std::pair<int, int>, Rat> link_load;
    for (const auto* e : active_edges) {
      const int beta = s.proc[ui(e->from)], gamma = s.proc[ui(e->to)];
      if (beta == gamma) continue;
      const auto& nodes = p.mesh().path_nodes(beta, gamma, s.rho(beta, gamma, N));
      for (std::size_t h = 0; h + 1 < nodes.size(); ++h) {
        link_load[{nodes[h], nodes[h + 1]}] +=
            Rat(e->bytes) * Rat(p.mesh().hop_latency_per_byte(nodes[h], nodes[h + 1]));
      }
    }
    Rat worst;
    for (const auto& [link, load] : link_load) worst = Rat::max(worst, load);
    const Rat bound = out.exact_makespan + worst;
    if (bound <= Rat(p.horizon())) {
      rep.add(Severity::kInfo, codes::kVerifyContention, "noc",
              "even fully serialized link contention (+" + rat_approx(worst) +
                  ") keeps the makespan within the horizon");
    } else {
      rep.add(Severity::kWarning, codes::kVerifyContention, "noc",
              "the pessimistic link-serialization bound " + rat_approx(bound) +
                  " exceeds the horizon; the contention-free model still holds");
    }
  }

  // ---- reliability (adaptive exact enclosures) -----------------------------
  const Rat r_th{p.r_th()};
  const Rat f_max{p.vf().f_max()}, f_min{p.vf().f_min()};
  const Rat d_sens{p.fault().params().d};
  const Rat lambda0{p.fault().params().lambda0};
  auto exponent_of = [&](int i) {  // a in r = exp(-a), as (g, coeff): a = coeff·10^g
    const int l = s.level[ui(i)];
    const Rat f_l{p.vf().level(l).freq};
    Rat g;
    if (f_max > f_min) g = d_sens * (f_max - f_l) / (f_max - f_min);
    return std::make_pair(g, lambda0 * Rat(static_cast<std::int64_t>(p.dup().wcec(i))) / f_l);
  };

  bool reliability_ok = true;
  for (int i = 0; i < M; ++i) {
    const int dup_i = i + M;
    const bool has_dup = exists(dup_i);
    // Decide effective reliability vs R_th: -1 below, +1 above, 0 undecided.
    int decided = 0;
    int single_decided = 0;  // single-copy comparison, for the trigger checks
    for (std::size_t prec = 128; prec <= 2048 && decided == 0; prec *= 2) {
      const DyadicIv dy(prec);
      const auto [ga, ca] = exponent_of(i);
      const Iv ra = dy.exp(DyadicIv::neg(dy.mul(dy.from_rat(ca), dy.pow10(ga))));
      if (single_decided == 0) single_decided = dy.cmp_rat(ra, r_th);
      Iv reff = ra;
      if (has_dup) {
        const auto [gb, cb] = exponent_of(dup_i);
        const Iv rb = dy.exp(DyadicIv::neg(dy.mul(dy.from_rat(cb), dy.pow10(gb))));
        const Iv one = dy.from_int(1);
        reff = DyadicIv::sub(one, dy.mul(DyadicIv::sub(one, ra), DyadicIv::sub(one, rb)));
      }
      decided = dy.cmp_rat(reff, r_th);
    }
    const std::string subject = "task " + std::to_string(i);
    if (decided == 0) {
      rep.add(Severity::kError, codes::kVerifyReliability, subject,
              "reliability enclosure undecided against R_th at the precision cap");
      reliability_ok = false;
    } else if (decided < 0) {
      rep.add(Severity::kError, codes::kVerifyReliability, subject,
              std::string("exact proof: effective reliability") +
                  (has_dup ? " (with duplicate)" : "") + " is strictly below R_th");
      reliability_ok = false;
    }
    if (!has_dup && single_decided < 0) {
      rep.add(Severity::kError, codes::kVerifyReliability, subject,
              "exact proof: single-copy reliability below R_th with no duplicate");
      reliability_ok = false;
    }
    if (has_dup && single_decided > 0) {
      rep.add(Severity::kWarning, codes::kVerifyDupUnnecessary, subject,
              "single-copy reliability already exceeds R_th; the duplicate is unnecessary");
    }
  }
  out.reliability_proved = reliability_ok;

  // ---- energy --------------------------------------------------------------
  // The per-unit energies (V/F table, mesh shares) are the model's ground
  // truth; aggregation is exact. The claimed BE objective — a float — must
  // land inside the derived envelope of the exact value.
  std::vector<Rat> proc_energy(static_cast<std::size_t>(N));
  for (int i = 0; i < total; ++i) {
    if (!exists(i)) continue;
    proc_energy[ui(s.proc[ui(i)])] += Rat(p.vf().energy(p.dup().wcec(i), s.level[ui(i)]));
  }
  std::size_t energy_terms = tz;
  for (const auto* e : active_edges) {
    const int beta = s.proc[ui(e->from)], gamma = s.proc[ui(e->to)];
    if (beta == gamma) continue;
    const int rho = s.rho(beta, gamma, N);
    if (rho < 0 || rho >= noc::Mesh::kNumPaths) continue;
    for (const auto& [node, e_per_byte] : p.mesh().energy_shares(beta, gamma, rho)) {
      proc_energy[ui(node)] += Rat(e->bytes) * Rat(e_per_byte);
      ++energy_terms;
    }
  }
  Rat be, me;
  for (const Rat& e : proc_energy) {
    be = Rat::max(be, e);
    me += e;
  }
  out.exact_be = be;
  out.exact_me = me;
  rep.add(Severity::kInfo, codes::kVerifyExact, "energy",
          "exact BE " + rat_approx(be) + " J, exact ME " + rat_approx(me) + " J");
  if (finite(opt.claimed_be)) {
    const Rat claimed{opt.claimed_be};
    const Rat env = claim_envelope(energy_terms, Rat(1) + be.abs());
    if ((claimed - be).abs() > env) {
      rep.add(Severity::kError, codes::kVerifyEnergy, "objective",
              "claimed BE " + rat_approx(claimed) + " J differs from the exact value " +
                  rat_approx(be) + " J beyond the derived envelope");
    } else {
      out.energy_exact = true;
    }
  }

  ND_OBS_VALUE("exact.verify_ms",
               static_cast<double>(obs::now_ns() - t0) / 1.0e6);
  return out;
}

}  // namespace nd::analysis
