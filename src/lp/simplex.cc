#include "lp/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace fairhms {

namespace {

constexpr double kEps = 1e-9;

/// Dense simplex tableau with an explicit basis, over storage the caller
/// owns. Columns are [structural | slack/surplus | artificial | rhs].
class Tableau {
 public:
  Tableau(int rows, int cols, double* a, int* basis)
      : rows_(rows), cols_(cols), a_(a), basis_(basis) {}

  double& At(int r, int c) { return a_[static_cast<size_t>(r) * cols_ + c]; }
  double At(int r, int c) const {
    return a_[static_cast<size_t>(r) * cols_ + c];
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int basis(int r) const { return basis_[r]; }
  void set_basis(int r, int col) { basis_[r] = col; }

  /// Gauss-Jordan pivot on (pr, pc).
  void Pivot(int pr, int pc) {
    const double piv = At(pr, pc);
    assert(std::fabs(piv) > kEps);
    const double inv = 1.0 / piv;
    for (int c = 0; c < cols_; ++c) At(pr, c) *= inv;
    At(pr, pc) = 1.0;  // Exact.
    for (int r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      const double factor = At(r, pc);
      if (std::fabs(factor) <= kEps) {
        At(r, pc) = 0.0;
        continue;
      }
      for (int c = 0; c < cols_; ++c) At(r, c) -= factor * At(pr, c);
      At(r, pc) = 0.0;  // Exact.
    }
    basis_[pr] = pc;
  }

 private:
  int rows_;
  int cols_;
  double* a_;
  int* basis_;
};

/// One simplex phase: maximize obj over the tableau's feasible basis.
/// `obj` holds one reduced cost per non-rhs column; `allowed_cols` marks
/// columns eligible to enter. Returns the phase status.
LpStatus RunPhase(Tableau* t, double* obj, double* obj_value,
                  const char* allowed_cols, int max_iterations) {
  const int m = t->rows();
  const int ncols = t->cols() - 1;  // Excludes rhs column.
  const int rhs_col = t->cols() - 1;

  int stall_count = 0;
  double last_obj = -std::numeric_limits<double>::infinity();

  for (int iter = 0; iter < max_iterations; ++iter) {
    // Reduced costs: rc[j] = obj[j] - sum_r obj[basis_r] * a[r][j]. We keep
    // `obj` reduced in place instead (price out at pivot time), i.e. `obj`
    // always holds the current reduced-cost row and *obj_value the current
    // objective of the basic solution.
    const bool use_bland = stall_count > 2 * (m + ncols);

    int enter = -1;
    double best = kEps;
    for (int j = 0; j < ncols; ++j) {
      if (!allowed_cols[j]) continue;
      const double rc = obj[j];
      if (rc > kEps) {
        if (use_bland) { enter = j; break; }
        if (rc > best) { best = rc; enter = j; }
      }
    }
    if (enter < 0) return LpStatus::kOptimal;

    // Ratio test.
    int leave = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int r = 0; r < m; ++r) {
      const double coef = t->At(r, enter);
      if (coef > kEps) {
        const double ratio = t->At(r, rhs_col) / coef;
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps && leave >= 0 &&
             t->basis(r) < t->basis(leave))) {
          best_ratio = ratio;
          leave = r;
        }
      }
    }
    if (leave < 0) return LpStatus::kUnbounded;

    t->Pivot(leave, enter);

    // Price out the objective row against the new pivot row.
    const double factor = obj[enter];
    for (int c = 0; c < ncols; ++c) obj[c] -= factor * t->At(leave, c);
    *obj_value += factor * t->At(leave, rhs_col);
    obj[enter] = 0.0;

    if (*obj_value <= last_obj + kEps) {
      ++stall_count;
    } else {
      stall_count = 0;
      last_obj = *obj_value;
    }
  }
  return LpStatus::kIterationLimit;
}

/// Prices the objective row `obj` out against every basic column whose
/// objective coefficient is nonzero, accumulating the basic solution's
/// objective into *obj_value.
void PriceOutBasis(Tableau* t, double* obj, double* obj_value) {
  const int total = t->cols() - 1;
  for (int r = 0; r < t->rows(); ++r) {
    const int b = t->basis(r);
    if (b < total && obj[b] != 0.0) {
      const double f = obj[b];
      for (int c = 0; c < total; ++c) obj[c] -= f * t->At(r, c);
      *obj_value += f * t->At(r, total);
      obj[b] = 0.0;
    }
  }
}

/// The relation a row keeps once Solve has negated it to a nonnegative rhs.
RelOp NormalizedOp(RelOp op, double rhs) {
  if (rhs < 0) {
    if (op == RelOp::kLe) return RelOp::kGe;
    if (op == RelOp::kGe) return RelOp::kLe;
  }
  return op;
}

}  // namespace

const char* LpStatusToString(LpStatus s) {
  switch (s) {
    case LpStatus::kOptimal: return "Optimal";
    case LpStatus::kInfeasible: return "Infeasible";
    case LpStatus::kUnbounded: return "Unbounded";
    case LpStatus::kIterationLimit: return "IterationLimit";
  }
  return "Unknown";
}

LpProblem::LpProblem(int num_vars) { Reset(num_vars); }

void LpProblem::Reset(int num_vars) {
  assert(num_vars > 0);
  num_vars_ = num_vars;
  objective_.assign(static_cast<size_t>(num_vars), 0.0);
  coeffs_.clear();
  ops_.clear();
  rhs_.clear();
}

void LpProblem::SetObjective(const std::vector<double>& c) {
  assert(static_cast<int>(c.size()) == num_vars_);
  SetObjective(c.data());
}

void LpProblem::SetObjective(const double* c) {
  std::copy(c, c + num_vars_, objective_.begin());
}

void LpProblem::AddConstraint(const std::vector<double>& coeffs, RelOp op,
                              double rhs) {
  assert(static_cast<int>(coeffs.size()) == num_vars_);
  AddConstraint(coeffs.data(), op, rhs);
}

void LpProblem::AddConstraint(const double* coeffs, RelOp op, double rhs) {
  coeffs_.insert(coeffs_.end(), coeffs, coeffs + num_vars_);
  ops_.push_back(op);
  rhs_.push_back(rhs);
}

LpResult LpProblem::Solve(LpOutput output, int max_iterations) {
  const int m = num_constraints();
  const int n = num_vars_;

  // Count auxiliary columns of the rows normalized to nonnegative rhs.
  int num_slack = 0;
  int num_artificial = 0;
  for (int r = 0; r < m; ++r) {
    const RelOp op = NormalizedOp(ops_[static_cast<size_t>(r)],
                                  rhs_[static_cast<size_t>(r)]);
    if (op != RelOp::kEq) ++num_slack;
    if (op != RelOp::kLe) ++num_artificial;
  }

  const int total = n + num_slack + num_artificial;
  const int rhs_col = total;
  tableau_.assign(static_cast<size_t>(m) * static_cast<size_t>(total + 1),
                  0.0);
  basis_.assign(static_cast<size_t>(m), -1);
  Tableau t(m, total + 1, tableau_.data(), basis_.data());

  // Each row enters the tableau negated when its rhs is negative, so every
  // rhs is nonnegative.
  int slack_at = n;
  int art_at = n + num_slack;
  artificial_cols_.clear();
  for (int r = 0; r < m; ++r) {
    const double* coeffs = coeffs_.data() + static_cast<size_t>(r) * n;
    const double rhs = rhs_[static_cast<size_t>(r)];
    if (rhs < 0) {
      for (int j = 0; j < n; ++j) t.At(r, j) = -coeffs[j];
      t.At(r, rhs_col) = -rhs;
    } else {
      for (int j = 0; j < n; ++j) t.At(r, j) = coeffs[j];
      t.At(r, rhs_col) = rhs;
    }
    switch (NormalizedOp(ops_[static_cast<size_t>(r)], rhs)) {
      case RelOp::kLe:
        t.At(r, slack_at) = 1.0;
        t.set_basis(r, slack_at);
        ++slack_at;
        break;
      case RelOp::kGe:
        t.At(r, slack_at) = -1.0;  // Surplus.
        ++slack_at;
        t.At(r, art_at) = 1.0;
        t.set_basis(r, art_at);
        artificial_cols_.push_back(art_at);
        ++art_at;
        break;
      case RelOp::kEq:
        t.At(r, art_at) = 1.0;
        t.set_basis(r, art_at);
        artificial_cols_.push_back(art_at);
        ++art_at;
        break;
    }
  }

  LpResult result;

  // ---- Phase 1: drive artificials to zero (maximize -sum artificials). ----
  if (num_artificial > 0) {
    obj_row_.assign(static_cast<size_t>(total), 0.0);
    double* obj = obj_row_.data();
    for (int c : artificial_cols_) obj[c] = -1.0;
    // Price out initial basis (artificials are basic with coefficient -1).
    double obj_value = 0.0;
    PriceOutBasis(&t, obj, &obj_value);
    allowed_.assign(static_cast<size_t>(total), 1);
    const LpStatus st =
        RunPhase(&t, obj, &obj_value, allowed_.data(), max_iterations);
    if (st == LpStatus::kIterationLimit) {
      result.status = st;
      return result;
    }
    if (obj_value < -1e-7) {
      result.status = LpStatus::kInfeasible;
      return result;
    }
    // Pivot any artificial still in the basis out (degenerate rows).
    for (int r = 0; r < m; ++r) {
      const int b = t.basis(r);
      const bool is_art =
          b >= n + num_slack && b < n + num_slack + num_artificial;
      if (!is_art) continue;
      int pivot_col = -1;
      for (int c = 0; c < n + num_slack; ++c) {
        if (std::fabs(t.At(r, c)) > kEps) { pivot_col = c; break; }
      }
      if (pivot_col >= 0) t.Pivot(r, pivot_col);
      // Else the row is all-zero (redundant constraint); leave it.
    }
  }

  // ---- Phase 2: original objective, artificial columns frozen. ----
  obj_row_.assign(static_cast<size_t>(total), 0.0);
  double* obj = obj_row_.data();
  std::copy(objective_.begin(), objective_.end(), obj);
  double obj_value = 0.0;
  PriceOutBasis(&t, obj, &obj_value);
  allowed_.assign(static_cast<size_t>(total), 1);
  for (int c : artificial_cols_) allowed_[static_cast<size_t>(c)] = 0;
  const LpStatus st =
      RunPhase(&t, obj, &obj_value, allowed_.data(), max_iterations);
  result.status = st;
  if (st != LpStatus::kOptimal) return result;

  if (output == LpOutput::kPrimal) {
    result.x.assign(static_cast<size_t>(n), 0.0);
    for (int r = 0; r < m; ++r) {
      const int b = t.basis(r);
      if (b >= 0 && b < n) {
        result.x[static_cast<size_t>(b)] = t.At(r, rhs_col);
      }
    }
  }
  result.objective = obj_value;
  return result;
}

}  // namespace fairhms
