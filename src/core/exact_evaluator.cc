#include "core/exact_evaluator.h"

#include <algorithm>
#include <cassert>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "geom/dominance.h"
#include "geom/vec.h"
#include "lp/simplex.h"

namespace fairhms {

namespace {

/// One witness LP: max regret over utilities normalized to <u, w> = 1.
struct WitnessLpResult {
  bool optimal = false;
  double objective = 0.0;      ///< Raw LP objective (unclamped).
  std::vector<double> utility;  ///< Maximizing utility (size d), if optimal.
};

/// One lane's witness-LP workspace: the problem each of the lane's witnesses
/// is solved in (Reset per witness, so after the first the LP path
/// allocates nothing) and the constraint row being assembled.
struct WitnessLane {
  explicit WitnessLane(int d)
      : lp(d + 1), row(static_cast<size_t>(d + 1), 0.0) {}
  LpProblem lp;
  std::vector<double> row;
};

/// Solves the witness LP for `w` against S in `lane`, or returns a
/// non-optimal result when the witness is skippable (member of S, weakly
/// dominated, or non-positive). `sol_block` is S packed dimension-major (the
/// weak-dominance skip runs on the SIMD kernel layer; a member of S weakly
/// dominates itself, so the membership check is subsumed). The result
/// depends on the arguments only, never on what the lane solved before, so
/// lanes may run in parallel as long as each has its own.
WitnessLpResult SolveWitnessLp(const Dataset& data, int w,
                               const std::vector<int>& solution,
                               const simd::ColumnBlock& sol_block,
                               WitnessLane* lane, bool want_utility) {
  WitnessLpResult out;
  const int d = data.dim();
  const double* pw = data.point(static_cast<size_t>(w));
  // Cheap skips: members of S and points weakly dominated by S have
  // regret 0 and can never be the (positive) maximum.
  if (simd::AnyWeaklyDominates(sol_block.cols(), solution.size(),
                               static_cast<size_t>(d), pw)) {
    return out;
  }
  if (SumCoords(pw, static_cast<size_t>(d)) <= 0.0) return out;

  // Variables: u[0..d-1], x. Maximize x.
  LpProblem& lp = lane->lp;
  double* row = lane->row.data();
  lp.Reset(d + 1);
  std::fill(row, row + d, 0.0);
  row[d] = 1.0;
  lp.SetObjective(row);

  for (int j = 0; j < d; ++j) row[j] = pw[j];
  row[d] = 0.0;
  lp.AddConstraint(row, RelOp::kEq, 1.0);  // <u, w> = 1.

  for (int s : solution) {
    const double* ps = data.point(static_cast<size_t>(s));
    for (int j = 0; j < d; ++j) row[j] = ps[j];
    row[d] = 1.0;
    lp.AddConstraint(row, RelOp::kLe, 1.0);  // <u, s> + x <= 1.
  }

  LpResult res =
      lp.Solve(want_utility ? LpOutput::kPrimal : LpOutput::kObjective);
  if (res.status != LpStatus::kOptimal) return out;
  out.optimal = true;
  out.objective = res.objective;
  if (want_utility) {
    out.utility = std::move(res.x);
    out.utility.resize(static_cast<size_t>(d));
  }
  return out;
}

}  // namespace

Envelope2D BuildEnvelope2D(const Dataset& data, const std::vector<int>& rows) {
  assert(data.dim() == 2);
  std::vector<IndexedPoint2> pts;
  pts.reserve(rows.size());
  for (int r : rows) {
    pts.push_back({data.at(static_cast<size_t>(r), 0),
                   data.at(static_cast<size_t>(r), 1), r});
  }
  return Envelope2D::Build(pts);
}

double MhrExact2D(const Dataset& data, const std::vector<int>& db_rows,
                  const std::vector<int>& solution) {
  assert(data.dim() == 2);
  if (solution.empty() || db_rows.empty()) return 0.0;
  const Envelope2D env_d = BuildEnvelope2D(data, db_rows);
  const Envelope2D env_s = BuildEnvelope2D(data, solution);
  return MinHappinessRatio2D(env_d, env_s);
}

RegretWitness MaxRegretWitnessLp(const Dataset& data,
                                 const std::vector<int>& db_rows,
                                 const std::vector<int>& solution,
                                 int threads) {
  const int d = data.dim();
  RegretWitness best;
  if (db_rows.empty()) return best;
  if (solution.empty()) {
    best.row = db_rows.front();
    best.regret = 1.0;
    best.utility.assign(static_cast<size_t>(d), 0.0);
    return best;
  }

  // Every witness LP into its own slot (objectives only — the losing
  // utilities would be discarded), then a serial first-maximum scan in
  // witness order picks the same winner the all-serial loop does, and one
  // targeted re-solve recovers its utility (the LP is deterministic, so
  // the re-solve reproduces the identical optimum).
  const simd::ColumnBlock sol_block = data.PackColumns(solution);
  std::vector<WitnessLpResult> results(db_rows.size());
  ParallelFor(threads, db_rows.size(), [&](size_t begin, size_t end) {
    WitnessLane lane(d);
    for (size_t i = begin; i < end; ++i) {
      results[i] = SolveWitnessLp(data, db_rows[i], solution, sol_block,
                                  &lane, /*want_utility=*/false);
    }
  });
  for (size_t i = 0; i < db_rows.size(); ++i) {
    if (results[i].optimal && results[i].objective > best.regret) {
      best.regret = results[i].objective;
      best.row = db_rows[i];
    }
  }
  if (best.row >= 0) {
    WitnessLane lane(d);
    best.utility = SolveWitnessLp(data, best.row, solution, sol_block, &lane,
                                  /*want_utility=*/true)
                       .utility;
  }
  best.regret = std::clamp(best.regret, 0.0, 1.0);
  return best;
}

double MhrExactLp(const Dataset& data, const std::vector<int>& db_rows,
                  const std::vector<int>& solution, int threads) {
  if (solution.empty()) return 0.0;
  return 1.0 - MaxRegretWitnessLp(data, db_rows, solution, threads).regret;
}

std::vector<double> AllWitnessRegretsLp(const Dataset& data,
                                        const std::vector<int>& witnesses,
                                        const std::vector<int>& solution,
                                        int threads) {
  std::vector<double> regrets(witnesses.size(), 0.0);
  if (solution.empty()) {
    std::fill(regrets.begin(), regrets.end(), 1.0);
    return regrets;
  }
  const simd::ColumnBlock sol_block = data.PackColumns(solution);
  ParallelFor(threads, witnesses.size(), [&](size_t begin, size_t end) {
    WitnessLane lane(data.dim());
    for (size_t i = begin; i < end; ++i) {
      const WitnessLpResult res =
          SolveWitnessLp(data, witnesses[i], solution, sol_block, &lane,
                         /*want_utility=*/false);
      if (res.optimal) regrets[i] = std::clamp(res.objective, 0.0, 1.0);
    }
  });
  return regrets;
}

}  // namespace fairhms
