// Dense two-phase primal simplex.
//
// Solves   maximize c.x   subject to   A x {<=,>=,==} b,   x >= 0.
//
// The FairHMS workloads solve very many *small* LPs (d + 1 variables,
// |S| + 1 constraints) — max-regret witness LPs for exact MHR evaluation and
// for the RDP-Greedy / F-Greedy baselines — so the implementation favors a
// simple dense tableau with careful anti-cycling over sparse sophistication.
//
// Buffer reuse. An LpProblem owns its constraint storage (one row-major
// coefficient buffer plus op and rhs arrays) and the workspace Solve builds
// the tableau in. Reset() empties the problem but keeps every buffer's
// capacity, so a caller that solves a stream of LPs through one problem
// allocates only while the largest LP seen so far grows. Solve mutates that
// workspace: use one problem per thread, never one problem from two threads.

#ifndef FAIRHMS_LP_SIMPLEX_H_
#define FAIRHMS_LP_SIMPLEX_H_

#include <vector>

#include "common/status.h"

namespace fairhms {

/// Relation of a linear constraint row.
enum class RelOp { kLe, kGe, kEq };

/// Terminal state of a solve.
enum class LpStatus {
  kOptimal,        ///< Optimal solution found.
  kInfeasible,     ///< No feasible point exists.
  kUnbounded,      ///< Objective unbounded above on the feasible region.
  kIterationLimit, ///< Pivot budget exhausted (numerical trouble).
};

const char* LpStatusToString(LpStatus s);

/// What LpProblem::Solve reports besides status and objective.
enum class LpOutput {
  kObjective,  ///< Leave LpResult::x empty (no allocation).
  kPrimal,     ///< Also fill LpResult::x when optimal.
};

/// Result of LpProblem::Solve.
struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;       ///< Valid when status == kOptimal.
  std::vector<double> x;        ///< Primal solution (size = num_vars), when
                                ///< optimal and LpOutput::kPrimal was asked.
};

/// A linear program under construction. All variables are nonnegative;
/// model free variables as differences of two if ever needed.
class LpProblem {
 public:
  /// Creates a problem over `num_vars` nonnegative variables.
  explicit LpProblem(int num_vars);

  /// Drops the objective and every constraint and re-targets the problem at
  /// `num_vars` variables, as if freshly constructed, keeping the capacity
  /// of every buffer.
  void Reset(int num_vars);

  /// Sets the objective coefficients (size must equal num_vars).
  void SetObjective(const std::vector<double>& c);
  /// Same, from num_vars contiguous values.
  void SetObjective(const double* c);

  /// Adds the row  coeffs . x  (op)  rhs. `coeffs` size must equal num_vars.
  void AddConstraint(const std::vector<double>& coeffs, RelOp op, double rhs);
  /// Same, copying num_vars contiguous values.
  void AddConstraint(const double* coeffs, RelOp op, double rhs);

  int num_vars() const { return num_vars_; }
  int num_constraints() const { return static_cast<int>(ops_.size()); }

  /// Runs two-phase simplex. Deterministic; Bland's rule engages
  /// automatically after a stall to guarantee termination. Builds the
  /// tableau in the problem's own workspace (not thread-safe; the problem's
  /// objective and constraints are left as they were).
  LpResult Solve(LpOutput output = LpOutput::kPrimal,
                 int max_iterations = 20000);

 private:
  int num_vars_ = 0;
  std::vector<double> objective_;
  std::vector<double> coeffs_;  ///< num_constraints() x num_vars_, row-major.
  std::vector<RelOp> ops_;
  std::vector<double> rhs_;

  // Solve's workspace, rebuilt from scratch by every Solve.
  std::vector<double> tableau_;
  std::vector<int> basis_;
  std::vector<double> obj_row_;
  std::vector<char> allowed_;
  std::vector<int> artificial_cols_;
};

}  // namespace fairhms

#endif  // FAIRHMS_LP_SIMPLEX_H_
