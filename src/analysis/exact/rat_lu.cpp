#include "analysis/exact/rat_lu.hpp"

#include <algorithm>
#include <limits>

namespace nd::analysis {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// A pivot of magnitude 2^s keeps the multipliers a/p dyadic.
bool pow2_magnitude(const Rat& v) { return v.num().is_pow2() && v.den().is_pow2(); }

void erase_value(std::vector<std::size_t>& v, std::size_t x) {
  const auto it = std::find(v.begin(), v.end(), x);
  *it = v.back();
  v.pop_back();
}

}  // namespace

bool RatLu::factorize(std::size_t k, const std::vector<Entry>& entries) {
  k_ = k;
  steps_.clear();
  steps_.reserve(k);

  // The active submatrix, by rows, plus each active column's rows.
  using Row = std::vector<std::pair<std::size_t, Rat>>;
  std::vector<Row> rows(k);
  std::vector<std::vector<std::size_t>> col_rows(k);
  std::vector<std::size_t> pos(k, kNone);  // column → slot in the row at hand
  {
    std::vector<std::vector<std::pair<std::size_t, Rat>>> by_row(k);
    for (const Entry& e : entries) by_row[e.row].emplace_back(e.col, e.val);
    for (std::size_t i = 0; i < k; ++i) {
      Row& r = rows[i];
      for (auto& [j, v] : by_row[i]) {
        if (pos[j] == kNone) {
          pos[j] = r.size();
          r.emplace_back(j, std::move(v));
        } else {
          r[pos[j]].second += v;
        }
      }
      for (const auto& e : r) pos[e.first] = kNone;
      r.erase(std::remove_if(r.begin(), r.end(), [](const auto& e) { return e.second.is_zero(); }),
              r.end());
      for (const auto& e : r) col_rows[e.first].push_back(i);
    }
  }
  std::vector<char> col_done(k, 0);

  for (std::size_t p = 0; p < k; ++p) {
    // ---- Markowitz pivot: least (r−1)(c−1), then a power-of-two
    // magnitude, then the lowest column, then the lowest row.
    std::size_t pi = kNone, pj = kNone, pslot = 0, best_cost = kNone;
    bool best_pow2 = false;
    for (std::size_t j = 0; j < k; ++j) {
      if (col_done[j] != 0) continue;
      const std::size_t c = col_rows[j].size();
      if (c == 0) return false;  // an active column with no entries left
      for (const std::size_t i : col_rows[j]) {
        const std::size_t cost = (rows[i].size() - 1) * (c - 1);
        if (cost > best_cost) continue;
        std::size_t slot = 0;
        while (rows[i][slot].first != j) ++slot;
        const bool pow2 = pow2_magnitude(rows[i][slot].second);
        const bool better = cost < best_cost || (pow2 && !best_pow2) ||
                            (pow2 == best_pow2 && (j < pj || (j == pj && i < pi)));
        if (!better) continue;
        pi = i;
        pj = j;
        pslot = slot;
        best_cost = cost;
        best_pow2 = pow2;
      }
      if (best_cost == 0 && best_pow2) break;  // no later column can beat it
    }

    Step st;
    st.row = pi;
    st.col = pj;
    Row prow = std::move(rows[pi]);
    rows[pi].clear();
    st.pivot = std::move(prow[pslot].second);
    for (std::size_t s = 0; s < prow.size(); ++s) {
      if (s == pslot) continue;
      st.upper.emplace_back(prow[s].first, std::move(prow[s].second));
    }
    for (const auto& [j, v] : st.upper) erase_value(col_rows[j], pi);
    erase_value(col_rows[pj], pi);

    // ---- Eliminate column pj from every other active row.
    for (const std::size_t i : col_rows[pj]) {
      Row& r = rows[i];
      std::size_t at = 0;
      while (r[at].first != pj) ++at;
      Rat l = r[at].second / st.pivot;
      if (at + 1 != r.size()) r[at] = std::move(r.back());
      r.pop_back();
      for (std::size_t s = 0; s < r.size(); ++s) pos[r[s].first] = s;
      bool cancelled = false;
      for (const auto& [j, u] : st.upper) {
        if (pos[j] == kNone) {
          pos[j] = r.size();
          r.emplace_back(j, -(l * u));
          col_rows[j].push_back(i);
        } else {
          Rat& v = r[pos[j]].second;
          v -= l * u;
          cancelled = cancelled || v.is_zero();
        }
      }
      for (const auto& e : r) pos[e.first] = kNone;
      if (cancelled) {
        for (const auto& e : r) {
          if (e.second.is_zero()) erase_value(col_rows[e.first], i);
        }
        r.erase(std::remove_if(r.begin(), r.end(), [](const auto& e) { return e.second.is_zero(); }),
                r.end());
      }
      st.lower.emplace_back(i, std::move(l));
    }
    col_rows[pj].clear();
    col_done[pj] = 1;
    steps_.push_back(std::move(st));
  }
  return true;
}

std::vector<Rat> RatLu::solve(std::vector<Rat> b) const {
  // Forward: apply the row operations of every step to b.
  for (const Step& st : steps_) {
    const Rat& bp = b[st.row];
    if (bp.is_zero()) continue;
    for (const auto& [i, l] : st.lower) b[i] -= l * bp;
  }
  // Backward: the pivot rows form a permuted upper triangle.
  std::vector<Rat> x(k_);
  for (std::size_t p = steps_.size(); p-- > 0;) {
    const Step& st = steps_[p];
    Rat s = std::move(b[st.row]);
    for (const auto& [j, u] : st.upper) {
      if (!x[j].is_zero()) s -= u * x[j];
    }
    x[st.col] = s / st.pivot;
  }
  return x;
}

std::vector<Rat> RatLu::solve_transposed(std::vector<Rat> c) const {
  // Uᵀ·z = c: forward over the steps, scattering each solved z into the
  // columns to its right.
  std::vector<Rat> y(k_);
  for (const Step& st : steps_) {
    Rat z = c[st.col] / st.pivot;
    if (!z.is_zero()) {
      for (const auto& [j, u] : st.upper) c[j] -= u * z;
    }
    y[st.row] = std::move(z);
  }
  // y = Eᵀ·z: undo the row operations, last step first.
  for (std::size_t p = steps_.size(); p-- > 0;) {
    const Step& st = steps_[p];
    Rat& yp = y[st.row];
    for (const auto& [i, l] : st.lower) {
      if (!y[i].is_zero()) yp -= l * y[i];
    }
  }
  return y;
}

}  // namespace nd::analysis
