#include "milp/audit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace nd::milp {

const char* to_string(NodeDisp d) {
  switch (d) {
    case NodeDisp::kUnprocessed: return "unprocessed";
    case NodeDisp::kBranched: return "branched";
    case NodeDisp::kPrunedBound: return "pruned-bound";
    case NodeDisp::kPrunedInfeasible: return "pruned-infeasible";
    case NodeDisp::kIntegral: return "integral";
    case NodeDisp::kCompletionClosed: return "completion-closed";
    case NodeDisp::kSkippedParentBound: return "skipped-parent-bound";
    case NodeDisp::kLimit: return "limit";
  }
  return "?";
}

namespace {

NodeDisp disp_from_string(const std::string& s) {
  if (s == "unprocessed") return NodeDisp::kUnprocessed;
  if (s == "branched") return NodeDisp::kBranched;
  if (s == "pruned-bound") return NodeDisp::kPrunedBound;
  if (s == "pruned-infeasible") return NodeDisp::kPrunedInfeasible;
  if (s == "integral") return NodeDisp::kIntegral;
  if (s == "completion-closed") return NodeDisp::kCompletionClosed;
  if (s == "skipped-parent-bound") return NodeDisp::kSkippedParentBound;
  if (s == "limit") return NodeDisp::kLimit;
  throw std::invalid_argument("audit: unknown node disposition '" + s + "'");
}

MipStatus mip_status_from_string(const std::string& s) {
  if (s == "optimal") return MipStatus::kOptimal;
  if (s == "feasible") return MipStatus::kFeasible;
  if (s == "infeasible") return MipStatus::kInfeasible;
  if (s == "unknown") return MipStatus::kUnknown;
  throw std::invalid_argument("audit: unknown MIP status '" + s + "'");
}

/// Bounds and objectives can legitimately be ±inf (root-infeasible runs, no
/// incumbent); JSON has no inf literal, so encode those as strings.
json::Value num_to_json(double d) {
  if (std::isfinite(d)) return d;
  return d > 0.0 ? "inf" : "-inf";
}

double num_from_json(const json::Value& v) {
  if (v.is_string()) {
    if (v.as_string() == "inf") return std::numeric_limits<double>::infinity();
    if (v.as_string() == "-inf") return -std::numeric_limits<double>::infinity();
    throw std::invalid_argument("audit: bad numeric string '" + v.as_string() + "'");
  }
  return v.as_number();
}

json::Array vec_to_json(const std::vector<double>& v) {
  json::Array a;
  a.reserve(v.size());
  for (const double x : v) a.emplace_back(x);
  return a;
}

std::vector<double> vec_from_json(const json::Value& v) {
  std::vector<double> out;
  out.reserve(v.as_array().size());
  for (const auto& e : v.as_array()) out.push_back(e.as_number());
  return out;
}

json::Value node_to_json(const AuditNode& n) {
  json::Object o;
  o.emplace_back("id", n.id);
  o.emplace_back("parent", n.parent);
  o.emplace_back("var", n.var);
  o.emplace_back("lo", n.lo);
  o.emplace_back("hi", n.hi);
  o.emplace_back("lp_solved", n.lp_solved);
  o.emplace_back("bound", num_to_json(n.bound));
  o.emplace_back("disp", to_string(n.disp));
  o.emplace_back("branch_var", n.branch_var);
  o.emplace_back("has_completion", n.has_completion);
  o.emplace_back("completion_obj", num_to_json(n.completion_obj));
  o.emplace_back("incumbent_update", n.incumbent_update);
  o.emplace_back("incumbent_obj", num_to_json(n.incumbent_obj));
  o.emplace_back("t_ns", static_cast<double>(n.t_ns));
  if (n.proof) {
    json::Array rows, vals;
    rows.reserve(n.proof->size());
    vals.reserve(n.proof->size());
    for (const auto& [row, val] : *n.proof) {
      rows.emplace_back(row);
      vals.emplace_back(num_to_json(val));
    }
    json::Object proof;
    proof.emplace_back("rows", std::move(rows));
    proof.emplace_back("vals", std::move(vals));
    o.emplace_back("proof", std::move(proof));
  }
  return o;
}

/// A recorded proof row index; -1 (which the exact replay rejects as out
/// of range) for anything that is not an integer an int can hold.
int proof_row_from_json(const json::Value& v) {
  const double r = v.as_number();
  if (!(r >= 0.0 && r <= static_cast<double>(std::numeric_limits<int>::max()))) return -1;
  const int row = static_cast<int>(r);
  return static_cast<double>(row) == r ? row : -1;  // fp-exact: integrality test
}

AuditNode node_from_json(const json::Value& v) {
  AuditNode n;
  n.id = static_cast<int>(v.at("id").as_number());
  n.parent = static_cast<int>(v.at("parent").as_number());
  n.var = static_cast<int>(v.at("var").as_number());
  n.lo = v.at("lo").as_number();
  n.hi = v.at("hi").as_number();
  n.lp_solved = v.at("lp_solved").as_bool();
  n.bound = num_from_json(v.at("bound"));
  n.disp = disp_from_string(v.at("disp").as_string());
  n.branch_var = static_cast<int>(v.at("branch_var").as_number());
  n.has_completion = v.at("has_completion").as_bool();
  n.completion_obj = num_from_json(v.at("completion_obj"));
  n.incumbent_update = v.at("incumbent_update").as_bool();
  n.incumbent_obj = num_from_json(v.at("incumbent_obj"));
  // Logs written before timestamps existed have no "t_ns": treat as 0.
  const json::Value* t = v.find("t_ns");
  n.t_ns = t == nullptr ? 0 : static_cast<std::int64_t>(t->as_number());
  // Logs written before proof vectors existed have no "proof": absent.
  if (const json::Value* proof = v.find("proof")) {
    const json::Array& rows = proof->at("rows").as_array();
    const json::Array& vals = proof->at("vals").as_array();
    if (rows.size() != vals.size()) {
      throw std::invalid_argument("audit: proof rows and vals differ in length");
    }
    n.proof.emplace().reserve(rows.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
      n.proof->emplace_back(proof_row_from_json(rows[k]), num_from_json(vals[k]));
    }
  }
  return n;
}

}  // namespace

json::Value audit_to_json(const AuditLog& log) {
  json::Object o;
  if (log.presolved) {
    o.emplace_back("presolved", true);
    o.emplace_back("reductions", lp::reduction_log_to_json(log.reductions));
    o.emplace_back("presolve_shift", log.presolve_shift);
  }
  o.emplace_back("warm_accepted", log.warm_accepted);
  o.emplace_back("warm_obj", num_to_json(log.warm_obj));
  o.emplace_back("root_bound", num_to_json(log.root_bound));
  o.emplace_back("root_cert", lp::certificate_to_json(log.root_cert));
  json::Array fixings;
  fixings.reserve(log.root_fixings.size());
  for (const RootFixing& f : log.root_fixings) {
    json::Object fo;
    fo.emplace_back("var", f.var);
    fo.emplace_back("at_lower", f.at_lower);
    fo.emplace_back("lo", f.lo);
    fo.emplace_back("hi", f.hi);
    fixings.emplace_back(std::move(fo));
  }
  o.emplace_back("root_fixings", std::move(fixings));
  json::Array nodes;
  nodes.reserve(log.nodes.size());
  for (const AuditNode& n : log.nodes) nodes.emplace_back(node_to_json(n));
  o.emplace_back("nodes", std::move(nodes));
  o.emplace_back("status", to_string(log.status));
  o.emplace_back("obj", num_to_json(log.obj));
  o.emplace_back("best_bound", num_to_json(log.best_bound));
  o.emplace_back("x", vec_to_json(log.x));
  o.emplace_back("int_tol", log.int_tol);
  o.emplace_back("abs_gap", log.abs_gap);
  o.emplace_back("rel_gap", log.rel_gap);
  return o;
}

AuditLog audit_from_json(const json::Value& v) {
  AuditLog log;
  // Logs written before presolve existed have no header: not presolved.
  const json::Value* ps = v.find("presolved");
  if (ps != nullptr && ps->as_bool()) {
    log.presolved = true;
    log.reductions = lp::reduction_log_from_json(v.at("reductions"));
    log.presolve_shift = v.at("presolve_shift").as_number();
  }
  log.warm_accepted = v.at("warm_accepted").as_bool();
  log.warm_obj = num_from_json(v.at("warm_obj"));
  log.root_bound = num_from_json(v.at("root_bound"));
  log.root_cert = lp::certificate_from_json(v.at("root_cert"));
  for (const auto& e : v.at("root_fixings").as_array()) {
    RootFixing f;
    f.var = static_cast<int>(e.at("var").as_number());
    f.at_lower = e.at("at_lower").as_bool();
    f.lo = e.at("lo").as_number();
    f.hi = e.at("hi").as_number();
    log.root_fixings.push_back(f);
  }
  for (const auto& e : v.at("nodes").as_array()) log.nodes.push_back(node_from_json(e));
  log.status = mip_status_from_string(v.at("status").as_string());
  log.obj = num_from_json(v.at("obj"));
  log.best_bound = num_from_json(v.at("best_bound"));
  log.x = vec_from_json(v.at("x"));
  log.int_tol = v.at("int_tol").as_number();
  log.abs_gap = v.at("abs_gap").as_number();
  log.rel_gap = v.at("rel_gap").as_number();
  return log;
}

bool merge_audit_shards(const std::vector<AuditShard>& shards, AuditLog* log) {
  log->nodes.clear();
  std::size_t total = 0;
  for (const AuditShard& s : shards) total += s.nodes.size();
  log->nodes.reserve(total);
  for (const AuditShard& s : shards) {
    log->nodes.insert(log->nodes.end(), s.nodes.begin(), s.nodes.end());
  }
  std::sort(log->nodes.begin(), log->nodes.end(),
            [](const AuditNode& a, const AuditNode& b) { return a.id < b.id; });
  for (std::size_t i = 0; i < log->nodes.size(); ++i) {
    if (log->nodes[i].id != static_cast<int>(i)) {
      log->nodes.clear();
      return false;  // duplicate or missing id — a recording bug
    }
  }
  // Re-filter the incumbent trajectory into id order (see the header).
  double incumbent =
      log->warm_accepted ? log->warm_obj : std::numeric_limits<double>::infinity();
  for (AuditNode& n : log->nodes) {
    if (!n.incumbent_update) continue;
    if (n.incumbent_obj < incumbent) {
      incumbent = n.incumbent_obj;
    } else {
      n.incumbent_update = false;
      n.incumbent_obj = 0.0;
    }
  }
  return true;
}

std::vector<std::pair<double, double>> node_domain(const Model& model, const AuditLog& log,
                                                   int node_id) {
  const lp::Problem& lp = model.lp();
  const std::size_t n = static_cast<std::size_t>(lp.num_vars());
  std::vector<std::pair<double, double>> dom(n);
  for (std::size_t j = 0; j < n; ++j) {
    dom[j] = {lp.lo(static_cast<int>(j)), lp.hi(static_cast<int>(j))};
  }
  for (const RootFixing& f : log.root_fixings) {
    if (f.var >= 0 && static_cast<std::size_t>(f.var) < n) {
      dom[static_cast<std::size_t>(f.var)] = {f.lo, f.hi};
    }
  }
  // Nearest enclosing branch interval wins per variable, so walk child→root
  // and only take the first interval seen for each var.
  std::vector<char> seen(n, 0);
  for (int cur = node_id; cur > 0;) {
    if (cur >= static_cast<int>(log.nodes.size())) {
      throw std::invalid_argument("node_domain: node id out of range");
    }
    const AuditNode& nd = log.nodes[static_cast<std::size_t>(cur)];
    if (nd.var >= 0 && static_cast<std::size_t>(nd.var) < n &&
        !seen[static_cast<std::size_t>(nd.var)]) {
      seen[static_cast<std::size_t>(nd.var)] = 1;
      dom[static_cast<std::size_t>(nd.var)] = {nd.lo, nd.hi};
    }
    if (nd.parent >= cur) {
      throw std::invalid_argument("node_domain: parent links must decrease toward the root");
    }
    cur = nd.parent;
  }
  return dom;
}

}  // namespace nd::milp
