// Exact minimum-happiness-ratio evaluation.
//
// * d = 2: geometric, via the lambda-space upper envelope (O((n+|S|) log n)).
// * any d: LP-based. For every potential witness w (a skyline point of the
//   database) solve
//       max x   s.t.  <u, w> = 1,  <u, s> + x <= 1  for all s in S,  u,x >= 0
//   The max over witnesses is the maximum regret ratio; mhr = 1 - mrr.
//   (One small LP per witness — the classical evaluation scheme of
//   Nanongkai et al., also the engine behind RDP-Greedy / F-Greedy.)

#ifndef FAIRHMS_CORE_EXACT_EVALUATOR_H_
#define FAIRHMS_CORE_EXACT_EVALUATOR_H_

#include <vector>

#include "data/dataset.h"
#include "geom/envelope2d.h"

namespace fairhms {

/// Builds the lambda-space upper envelope of the given rows (d = 2 only).
Envelope2D BuildEnvelope2D(const Dataset& data, const std::vector<int>& rows);

/// Exact 2D mhr of S against the database rows `db_rows` (the skyline
/// suffices). Returns 0 for an empty S.
double MhrExact2D(const Dataset& data, const std::vector<int>& db_rows,
                  const std::vector<int>& solution);

/// Result of a max-regret witness search.
struct RegretWitness {
  int row = -1;              ///< Witness with the maximum regret (-1: none).
  double regret = 0.0;       ///< Maximum regret ratio (>= 0).
  std::vector<double> utility;  ///< A utility vector attaining it.
};

/// LP-based max-regret witness over `db_rows` against solution S. S may be
/// empty (regret 1 with an arbitrary witness). Witnesses that are members
/// of S or weakly dominated by a member of S are skipped (regret 0).
///
/// The witness LPs are independent and fan out over `threads` lanes
/// (0 = DefaultThreads(), 1 = exact serial path). Each lane (one
/// ParallelFor chunk) owns one LpProblem and Resets it per witness, so
/// after its first witness a lane solves without allocating; a witness's
/// LP depends only on the witness and S, never on what its lane solved
/// before. Only the winner's re-solve asks for the primal solution. The
/// winning witness is picked by a serial first-maximum scan, so the result
/// is bit-identical for every thread count.
RegretWitness MaxRegretWitnessLp(const Dataset& data,
                                 const std::vector<int>& db_rows,
                                 const std::vector<int>& solution,
                                 int threads = 0);

/// Exact mhr via witness LPs: 1 - MaxRegretWitnessLp(...).regret.
double MhrExactLp(const Dataset& data, const std::vector<int>& db_rows,
                  const std::vector<int>& solution, int threads = 0);

/// Per-witness regrets, aligned with `witnesses`. Witnesses that are in S
/// or weakly dominated by a member of S get 0. This is the "one LP per
/// skyline item per iteration" workhorse of RDP-Greedy / F-Greedy. Each
/// lane owns a disjoint slice of the output (same threads contract as
/// MaxRegretWitnessLp).
std::vector<double> AllWitnessRegretsLp(const Dataset& data,
                                        const std::vector<int>& witnesses,
                                        const std::vector<int>& solution,
                                        int threads = 0);

}  // namespace fairhms

#endif  // FAIRHMS_CORE_EXACT_EVALUATOR_H_
