#include "lp/certificate.hpp"

#include <stdexcept>

namespace nd::lp {

namespace {

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

}  // namespace

bool Certificate::basis_shape_ok(std::size_t n, std::size_t m) const {
  // Columns in [n+m, n+2m) are phase-1 artificials. A degenerate solve can
  // legitimately leave an artificial basic at value zero, and the engine
  // copies its basis verbatim, so they are part of the valid range.
  if (basis.size() != m) return false;
  std::vector<char> seen(n + 2 * m, 0);
  for (const int b : basis) {
    if (b < 0 || static_cast<std::size_t>(b) >= n + 2 * m) return false;
    if (seen[static_cast<std::size_t>(b)]) return false;
    seen[static_cast<std::size_t>(b)] = 1;
  }
  return true;
}

std::vector<std::size_t> Certificate::tight_rows(std::size_t n) const {
  // A row is tight when no basic column is its slack: eliminating the unit
  // slack columns from the m-by-m basis matrix deletes exactly the rows whose
  // slack is basic, leaving the square structural core over the tight rows.
  // A basic ARTIFICIAL (column n+m+r) is the same unit column e_r with zero
  // cost, so its row leaves the core the same way; if slack r and artificial
  // r were ever both basic the basis matrix would repeat a column, and the
  // resulting |tight| > |structural basics| mismatch is caught downstream.
  const std::size_t m = basis.size();
  std::vector<char> slack_basic(m, 0);
  for (const int b : basis) {
    if (b >= 0 && static_cast<std::size_t>(b) >= n) {
      std::size_t rp = static_cast<std::size_t>(b) - n;
      if (rp >= m) rp -= m;
      if (rp < m) slack_basic[rp] = 1;
    }
  }
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < m; ++r) {
    if (!slack_basic[r]) rows.push_back(r);
  }
  return rows;
}

std::vector<std::size_t> Certificate::structural_basics(std::size_t n) const {
  std::vector<std::size_t> cols;
  for (const int b : basis) {
    if (b >= 0 && static_cast<std::size_t>(b) < n) cols.push_back(static_cast<std::size_t>(b));
  }
  return cols;
}

std::vector<std::pair<std::size_t, std::size_t>> Certificate::basic_slack_rows(
    std::size_t n) const {
  const std::size_t m = basis.size();
  std::vector<std::pair<std::size_t, std::size_t>> rows;
  for (std::size_t r = 0; r < m; ++r) {
    if (basis[r] >= 0 && static_cast<std::size_t>(basis[r]) >= n) {
      std::size_t rp = static_cast<std::size_t>(basis[r]) - n;
      if (rp >= m) rp -= m;  // basic artificial: same unit column, zero dual
      rows.emplace_back(r, rp);
    }
  }
  return rows;
}

json::Value certificate_to_json(const Certificate& cert) {
  json::Object o;
  o.emplace_back("status", to_string(cert.status));
  o.emplace_back("obj", cert.obj);
  o.emplace_back("x", vec_to_json(cert.x));
  o.emplace_back("y", vec_to_json(cert.y));
  json::Array vstat;
  vstat.reserve(cert.vstat.size());
  for (const VarStatus s : cert.vstat) vstat.emplace_back(static_cast<int>(s));
  o.emplace_back("vstat", std::move(vstat));
  json::Array basis;
  basis.reserve(cert.basis.size());
  for (const int b : cert.basis) basis.emplace_back(b);
  o.emplace_back("basis", std::move(basis));
  o.emplace_back("farkas", vec_to_json(cert.farkas));
  return o;
}

Certificate certificate_from_json(const json::Value& v) {
  Certificate cert;
  const std::string& status = v.at("status").as_string();
  if (status == "optimal") {
    cert.status = SolveStatus::kOptimal;
  } else if (status == "infeasible") {
    cert.status = SolveStatus::kInfeasible;
  } else if (status == "unbounded") {
    cert.status = SolveStatus::kUnbounded;
  } else if (status == "iteration-limit") {
    cert.status = SolveStatus::kIterLimit;
  } else {
    throw std::invalid_argument("certificate: unknown status '" + status + "'");
  }
  cert.obj = v.at("obj").as_number();
  cert.x = vec_from_json(v.at("x"));
  cert.y = vec_from_json(v.at("y"));
  for (const auto& e : v.at("vstat").as_array()) {
    const int s = static_cast<int>(e.as_number());
    if (s < 0 || s > 2) throw std::invalid_argument("certificate: bad vstat entry");
    cert.vstat.push_back(static_cast<VarStatus>(s));
  }
  for (const auto& e : v.at("basis").as_array()) {
    cert.basis.push_back(static_cast<int>(e.as_number()));
  }
  cert.farkas = vec_from_json(v.at("farkas"));
  return cert;
}

}  // namespace nd::lp
