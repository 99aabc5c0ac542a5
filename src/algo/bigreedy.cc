#include "algo/bigreedy.h"

#include <algorithm>

#include "api/registry.h"
#include <cassert>
#include <cmath>

#include "common/random.h"
#include "common/stopwatch.h"
#include "core/artifact_cache.h"
#include "fairness/matroid.h"
#include "geom/vec.h"
#include "utility/utility_net.h"

namespace fairhms {

namespace {

/// Stamp of a key carried in from another tau: it never equals a
/// selection size, so the loop refreshes the key before trusting it.
constexpr int kCarriedStamp = -1;

/// Lazy keys right after the first pick `row`, computed at `tau`.
struct AfterFirstKeys {
  double tau = -1.0;
  int row = -1;
  std::vector<double> keys;

  bool Serves(int pick, double at) const { return pick == row && at <= tau; }
};

/// Round-1 lazy keys carried across the tau probes of one BiGreedyOnNet
/// call, where every probe's round 1 runs over `input.pool` under the same
/// matroid. Each gain term min(max(c, h), tau) - min(c, tau) is
/// nondecreasing in tau under IEEE rounding and the canonical sum is
/// monotone, so a bound computed at tau' >= tau is at least the computed
/// exact gain at tau over the same set: the keys need no slack. Keys are
/// stored by candidate position; -1 marks a row the pass left out.
struct CarriedKeys {
  /// Empty-set keys, from the probe with the largest tau so far.
  double initial_tau = -1.0;
  std::vector<double> initial;
  /// The evaluator's seed keys after its tau = 1 first pick, kept for any
  /// probe whose first pick is that row.
  AfterFirstKeys seed;
  /// Keys from the last after-first pass a probe ran.
  AfterFirstKeys last;

  /// Keys that bound every gain right after `pick` at `tau`, or nullptr.
  const AfterFirstKeys* After(int pick, double tau) const {
    if (last.Serves(pick, tau)) return &last;
    if (seed.Serves(pick, tau)) return &seed;
    return nullptr;
  }
};

/// Carried keys started from `eval`'s seed keys (NetEvaluator::
/// BuildSeedKeys, both at tau = 1, so they serve every probe), or empty
/// ones when some pool row has no seed.
CarriedKeys SeededKeys(const NetEvaluator& eval, const std::vector<int>& pool) {
  CarriedKeys carried;
  if (!eval.has_seed_keys()) return carried;
  std::vector<double> initial(pool.size());
  std::vector<double> after(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    initial[i] = eval.seed_key_empty(pool[i]);
    if (initial[i] < 0.0) return carried;
    after[i] = eval.seed_key_after_first(pool[i]);
  }
  carried.initial_tau = 1.0;
  carried.initial = std::move(initial);
  carried.seed = {1.0, eval.seed_first_row(), std::move(after)};
  return carried;
}

/// True when (gain, row) wins over the running best in plain greedy's
/// order: larger gain, then smaller row.
bool Beats(double gain, int row, double best_gain, int best_row) {
  return gain > best_gain ||
         (gain == best_gain && best_row >= 0 && row < best_row);
}

/// The lazy greedy's state, by candidate position: an upper bound on each
/// candidate's marginal gain (`key`), the selection size it was computed
/// at (`stamp`; fresh when it equals the current size) and whether it is
/// the exact gain there (`exact`: a cached-cell bound is not, an uncached
/// row's bound is). One per BiGreedyOnNet call, handed to every probe, so
/// only the first Greedy call of a solve allocates.
struct LazyWorkspace {
  std::vector<double> key;
  std::vector<int> stamp;
  std::vector<char> exact;
  /// Candidate positions still addable and not picked, in candidate order.
  std::vector<int> live;
  /// Positions whose keys are fresh at the current selection size.
  std::vector<int> fresh;
  std::vector<int> group_row;  ///< One candidate row per group, or -1.
  std::vector<char> open;      ///< Per group: the matroid still accepts it.
};

/// Greedy maximization of mhr_tau over `candidates` under the fairness
/// matroid: adds the best feasible candidate to `sel` and `state` until the
/// selection is maximal or no feasible candidate is left. The pick is
/// always the largest exact gain, smaller row on ties.
///
/// Lazy: every candidate keeps an upper bound on its gain (GainBound, over
/// the cell cache). A stale key is refreshed to min(key, bound); a fresh
/// bound is verified with the exact gain; only a fresh exact key is
/// selected. Every key stays at or above its row's exact gain, because
/// bounds are never below exact gains and neither rises as the set grows,
/// so a fresh exact best is the plain scan's pick and only rows near the
/// top pay an exact evaluation. Each selection step sweeps the live
/// candidates in their given order (the order CacheCandidates laid the
/// cell rows out) and refreshes a stale key only when it ranks above the
/// best fresh key seen so far (larger key, then smaller row): a key left
/// stale bounds a fresh value below that best, so after the sweep the best
/// fresh key is the largest of the fresh values. After a verification the
/// next best comes from the step's fresh keys, and the candidates are swept
/// again only when a key the sweeps left stale ranks above it. A row's
/// fresh key at a size is the minimum of its bound there and its exact
/// gains at earlier sizes, whenever it is refreshed, so the rows verified
/// and picked do not depend on which stale keys a sweep refreshed. A group
/// the matroid refuses stays refused as the set grows, so its rows leave
/// the live list at once.
/// The first pick lowers nearly every gain, so right after it every key is
/// recomputed in one pass; when the pick already holds every direction at
/// tau, no gain is left and the keys drop to 0 instead. With `carried`
/// (round 1 over the pool), a probe whose tau is at most a stored one
/// starts from the stored keys instead of either pass; keys from the
/// evaluator's seeds serve every tau. Stale keys only order the sweeps, so
/// looser stale keys change neither the picks nor which rows are verified,
/// only how many bounds are refreshed.
/// Plain (the ablation): a full scan per insertion that verifies exactly
/// only the candidates whose bound can beat its running best.
void Greedy(const std::vector<int>& candidates, const Grouping& grouping,
            double tau, bool lazy, const NetEvaluator* eval,
            TruncatedMhrState* state, FairSelection* sel, CarriedKeys* carried,
            LazyWorkspace* work, BiGreedyRunInfo* run) {
  const auto bound_is_exact = [eval](int row) {
    return eval->cached_row(row) == nullptr;
  };
  const auto bound = [&](int row) {
    ++run->bound_rows;
    return state->GainBound(row, tau);
  };
  const auto exact = [&](int row) {
    ++run->exact_gains;
    return state->MarginalGain(row, tau);
  };
  if (!lazy) {
    // Selected rows leave the scan: once every gain is 0, a selected row
    // would otherwise win the smaller-row tie-break again.
    std::vector<int> left = candidates;
    while (!sel->IsMaximal()) {
      int best_row = -1;
      double best_gain = -1.0;
      for (int row : left) {
        if (!sel->CanAdd(row)) continue;
        double gain = bound(row);
        if (!Beats(gain, row, best_gain, best_row)) continue;
        if (!bound_is_exact(row)) gain = exact(row);
        if (Beats(gain, row, best_gain, best_row)) {
          best_gain = gain;
          best_row = row;
        }
      }
      if (best_row < 0) break;
      left.erase(std::find(left.begin(), left.end(), best_row));
      sel->Add(best_row);
      state->Add(best_row);
    }
    return;
  }
  const size_t n = candidates.size();
  std::vector<double>& key = work->key;
  std::vector<int>& stamp = work->stamp;
  std::vector<char>& is_exact = work->exact;
  std::vector<int>& live = work->live;
  std::vector<int>& fresh = work->fresh;
  std::vector<int>& group_row = work->group_row;
  std::vector<char>& open = work->open;
  key.resize(n);
  stamp.resize(n);
  is_exact.resize(n);
  const auto group_of = [&grouping](int row) {
    return static_cast<size_t>(grouping.group_of[static_cast<size_t>(row)]);
  };
  // Every candidate of a group the matroid accepts is live. Acceptance
  // depends only on the group, so one row per group tells.
  group_row.assign(static_cast<size_t>(grouping.num_groups), -1);
  open.assign(static_cast<size_t>(grouping.num_groups), 0);
  live.clear();
  for (size_t i = 0; i < n; ++i) {
    const size_t g = group_of(candidates[i]);
    if (group_row[g] < 0) {
      group_row[g] = candidates[i];
      open[g] = sel->CanAdd(candidates[i]);
    }
    if (open[g]) live.push_back(static_cast<int>(i));
  }
  // Drops the picked position from the live list and, when the pick made
  // the matroid refuse a group (for good: the set only grows), that
  // group's rows with it.
  const auto drop = [&](int picked) {
    bool closed = false;
    for (size_t g = 0; g < open.size(); ++g) {
      if (open[g] && !sel->CanAdd(group_row[g])) {
        open[g] = 0;
        closed = true;
      }
    }
    if (!closed) {
      live.erase(std::find(live.begin(), live.end(), picked));
      return;
    }
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](int p) {
                                return p == picked ||
                                       !open[group_of(candidates[
                                           static_cast<size_t>(p)])];
                              }),
               live.end());
  };
  // Fresh keys for every live candidate, also written to `keep` by
  // candidate position (-1 for the rest) when given.
  const auto bound_pass = [&](std::vector<double>* keep) {
    if (keep != nullptr) keep->assign(n, -1.0);
    for (int p : live) {
      const int row = candidates[static_cast<size_t>(p)];
      key[static_cast<size_t>(p)] = bound(row);
      stamp[static_cast<size_t>(p)] = sel->size();
      is_exact[static_cast<size_t>(p)] = bound_is_exact(row);
      if (keep != nullptr) {
        (*keep)[static_cast<size_t>(p)] = key[static_cast<size_t>(p)];
      }
    }
  };
  // No row gains more than a point happy under every direction, so a
  // carried key from a much larger tau is clipped to that cap: at small
  // tau most rows reach it, and the clipped keys tie instead of each
  // waiting for a refresh. Rows the keys left out leave the live list.
  const auto load = [&](const std::vector<double>& keys, double cap) {
    size_t kept = 0;
    for (int p : live) {
      if (keys[static_cast<size_t>(p)] < 0.0) continue;
      key[static_cast<size_t>(p)] = std::min(keys[static_cast<size_t>(p)], cap);
      stamp[static_cast<size_t>(p)] = kCarriedStamp;
      live[kept++] = p;
    }
    live.resize(kept);
  };
  if (carried != nullptr && tau <= carried->initial_tau) {
    load(carried->initial, state->GainCap(tau));
  } else {
    bound_pass(carried != nullptr ? &carried->initial : nullptr);
    if (carried != nullptr) carried->initial_tau = tau;
  }
  while (!live.empty() && !sel->IsMaximal()) {
    const int size = sel->size();
    // The best fresh key (position `best`) and the best key a sweep left
    // stale, each with its row; -1 rows: none yet.
    int best = -1;
    double best_key = -1.0;
    int best_row = -1;
    double stale_key = -1.0;
    int stale_row = -1;
    fresh.clear();
    // The step's first sweep lists the keys a pass left fresh; a later one
    // starts from `best` and meets only fresh keys already listed.
    const auto sweep = [&](bool first) {
      stale_key = -1.0;
      stale_row = -1;
      for (int p : live) {
        const size_t i = static_cast<size_t>(p);
        if (stamp[i] != size) {
          // Keys are never negative, so a -1 best or stale key ranks below
          // every key; rows are read only on ties.
          const double k = key[i];
          if (k < best_key ||
              (k == best_key && candidates[i] > best_row)) {
            if (k > stale_key ||
                (k == stale_key && candidates[i] < stale_row)) {
              stale_key = k;
              stale_row = candidates[i];
            }
            continue;
          }
          key[i] = std::min(k, bound(candidates[i]));
          stamp[i] = size;
          is_exact[i] = bound_is_exact(candidates[i]);
        } else if (!first) {
          continue;
        }
        fresh.push_back(p);
        if (Beats(key[i], candidates[i], best_key, best_row)) {
          best = p;
          best_key = key[i];
          best_row = candidates[i];
        }
      }
    };
    sweep(/*first=*/true);
    while (!is_exact[static_cast<size_t>(best)]) {
      key[static_cast<size_t>(best)] = exact(best_row);
      is_exact[static_cast<size_t>(best)] = 1;
      best_key = -1.0;
      best_row = -1;
      for (int p : fresh) {
        const size_t i = static_cast<size_t>(p);
        if (Beats(key[i], candidates[i], best_key, best_row)) {
          best = p;
          best_key = key[i];
          best_row = candidates[i];
        }
      }
      if (Beats(stale_key, stale_row, best_key, best_row)) {
        sweep(/*first=*/false);
      }
    }
    const int row = best_row;
    sel->Add(row);
    state->Add(row);
    drop(best);
    if (sel->size() == 1 && !sel->IsMaximal()) {
      const double cap = state->GainCap(tau);
      if (cap == 0.0) {
        // The pick holds every direction at tau, so every gain is 0: the
        // stale keys drop to 0 without reading a row.
        for (int p : live) key[static_cast<size_t>(p)] = 0.0;
      } else if (const AfterFirstKeys* after =
                     carried != nullptr ? carried->After(row, tau) : nullptr) {
        load(after->keys, cap);
      } else {
        bound_pass(carried != nullptr ? &carried->last.keys : nullptr);
        if (carried != nullptr) {
          carried->last.tau = tau;
          carried->last.row = row;
        }
      }
    }
  }
}

/// One MRGreedy invocation (paper Algorithm 3, lines 10-22).
///
/// Returns true when the capped target was certified; `out_rows` then holds
/// the solution: the single-round set in strict mode, the multi-round union
/// otherwise. In strict mode a failing first round aborts immediately
/// (multi-round unions would be infeasible anyway). `carried` serves
/// round 1 only, the one round whose candidates are the whole pool.
bool MrGreedy(const ProblemInput& input, const NetEvaluator* eval, double tau,
              int gamma, double eps, bool strict, bool lazy,
              CarriedKeys* carried, LazyWorkspace* work, BiGreedyRunInfo* run,
              std::vector<int>* out_rows, int* rounds_used) {
  const Grouping& grouping = *input.grouping;
  const FairnessMatroid matroid(input.bounds);
  const double m = static_cast<double>(eval->net_size());
  const double target = (1.0 - eps / (2.0 * m)) * tau;

  TruncatedMhrState union_state(eval);
  std::vector<int> union_rows;
  std::vector<bool> used(input.data->size(), false);
  std::vector<int> candidates;

  const int max_rounds = strict ? 1 : gamma;
  for (int round = 1; round <= max_rounds; ++round) {
    TruncatedMhrState round_state(eval);
    FairSelection sel(&matroid, &grouping);
    candidates.clear();
    for (int row : input.pool) {
      if (!used[static_cast<size_t>(row)]) candidates.push_back(row);
    }
    Greedy(candidates, grouping, tau, lazy, eval, &round_state, &sel,
           round == 1 ? carried : nullptr, work, run);

    for (int row : sel.rows()) {
      used[static_cast<size_t>(row)] = true;
      union_rows.push_back(row);
      union_state.Add(row);
    }
    *rounds_used = round;

    if (union_state.TruncatedValue(tau) >= target) {
      *out_rows = strict ? sel.rows() : union_rows;
      return true;
    }
  }
  return false;
}

/// Fallback when no capped value certifies (degenerate nets / tiny pools):
/// a single matroid-greedy fill on the untruncated average happiness.
/// It runs over the pool like every probe's round 1, so `carried` serves it.
std::vector<int> GreedyFill(const ProblemInput& input, const NetEvaluator* eval,
                            CarriedKeys* carried, LazyWorkspace* work,
                            BiGreedyRunInfo* run) {
  const FairnessMatroid matroid(input.bounds);
  FairSelection sel(&matroid, input.grouping);
  TruncatedMhrState state(eval);
  Greedy(input.pool, *input.grouping, 1.0, /*lazy=*/true, eval, &state, &sel,
         carried, work, run);
  return sel.rows();
}

size_t DefaultNetSize(const BiGreedyOptions& opts, int k, int d) {
  if (opts.net_size > 0) return opts.net_size;
  if (opts.delta > 0.0) {
    // Lemma 4.1 requires a (delta / d(2-delta))-net for error <= delta.
    const double net_delta = opts.delta / (d * (2.0 - opts.delta));
    return UtilityNet::DeltaToSampleSize(net_delta, d);
  }
  return static_cast<size_t>(10) * static_cast<size_t>(k) *
         static_cast<size_t>(d);
}

}  // namespace

StatusOr<Solution> BiGreedyOnNet(const ProblemInput& input,
                                 const NetEvaluator* eval,
                                 const BiGreedyOptions& opts,
                                 BiGreedyRunInfo* info) {
  Stopwatch timer;
  const double m = static_cast<double>(eval->net_size());
  const int gamma =
      std::max(1, static_cast<int>(std::ceil(std::log2(2.0 * m / opts.eps))));

  // Capped-value grid tau_j = (1 - eps/2)^j down to 1/m.
  const double ratio = 1.0 - opts.eps / 2.0;
  const int grid_size = std::max(
      1, static_cast<int>(std::ceil(std::log(1.0 / m) / std::log(ratio))) + 1);
  auto tau_at = [&](int j) { return std::pow(ratio, j); };

  BiGreedyRunInfo run;
  run.net_size = eval->net_size();

  std::vector<int> best_rows;
  double best_tau = -1.0;
  int best_rounds = 0;

  CarriedKeys carried = SeededKeys(*eval, input.pool);
  LazyWorkspace work;
  auto attempt = [&](int j, std::vector<int>* rows, int* rounds) {
    ++run.mrgreedy_calls;
    return MrGreedy(input, eval, tau_at(j), gamma, opts.eps,
                    opts.strict_feasible, opts.lazy, &carried, &work, &run,
                    rows, rounds);
  };

  if (opts.tau_search == TauSearch::kBinary) {
    // Warm path: walk the grid outward from the hinted index, looking for
    // the smallest certifying index. Certification is not monotone in tau
    // (the greedy builds a different set at each tau), so the walk can stop
    // at a different index than the cold binary search below and return
    // other rows; it re-certifies its own answer (ROADMAP item 2).
    // Successive session queries move the certified index by at most a
    // step or two, so the walk typically resolves in 2-3 MRGreedy calls
    // versus ~log2(grid) cold. A hint that drifted beyond the walk budget
    // is discarded and the solve falls through to the cold search.
    bool resolved = false;
    if (opts.warm_tau_index >= 0 && grid_size > 0) {
      constexpr int kWarmWalkBudget = 4;  // Probes after the first.
      int j = std::min(opts.warm_tau_index, grid_size - 1);
      std::vector<int> rows;
      int rounds = 0;
      bool certified = attempt(j, &rows, &rounds);
      int extra = 0;
      if (certified) {
        // Walk towards larger tau (smaller index) until j - 1 fails.
        while (j > 0 && extra < kWarmWalkBudget) {
          std::vector<int> below_rows;
          int below_rounds = 0;
          ++extra;
          if (attempt(j - 1, &below_rows, &below_rounds)) {
            --j;
            rows = std::move(below_rows);
            rounds = below_rounds;
          } else {
            resolved = true;
            break;
          }
        }
        if (j == 0) resolved = true;
      } else {
        while (j + 1 < grid_size && extra < kWarmWalkBudget) {
          ++j;
          ++extra;
          if (attempt(j, &rows, &rounds)) {
            certified = true;
            resolved = true;
            break;
          }
        }
      }
      if (resolved && certified) {
        best_rows = std::move(rows);
        best_tau = tau_at(j);
        best_rounds = rounds;
        run.tau_index = j;
        run.warm_start_used = true;
      } else {
        resolved = false;
      }
    }
    if (!resolved) {
      // Cold path: binary search for the smallest grid index (largest
      // tau) that certifies.
      int lo = 0;
      int hi = grid_size - 1;
      while (lo <= hi) {
        const int mid = lo + (hi - lo) / 2;
        std::vector<int> rows;
        int rounds = 0;
        if (attempt(mid, &rows, &rounds)) {
          best_rows = std::move(rows);
          best_tau = tau_at(mid);
          best_rounds = rounds;
          run.tau_index = mid;
          hi = mid - 1;
        } else {
          lo = mid + 1;
        }
      }
      run.warm_start_used = false;
    }
  } else {
    // Paper's literal scan: try every tau descending, keep the best by net
    // mhr among certified solutions.
    double best_quality = -1.0;
    for (int j = 0; j < grid_size; ++j) {
      std::vector<int> rows;
      int rounds = 0;
      if (!attempt(j, &rows, &rounds)) continue;
      const double quality = eval->Mhr(rows);
      if (quality > best_quality) {
        best_quality = quality;
        best_rows = std::move(rows);
        best_tau = tau_at(j);
        best_rounds = rounds;
        run.tau_index = j;
      }
    }
  }

  if (best_tau < 0.0) {
    best_rows = GreedyFill(input, eval, &carried, &work, &run);
    best_tau = 0.0;
    best_rounds = 1;
  }

  if (opts.strict_feasible) {
    FAIRHMS_RETURN_IF_ERROR(PadSolution(input, &best_rows));
  }

  run.tau = best_tau;
  run.rounds_used = best_rounds;
  if (info != nullptr) *info = run;

  Solution out;
  out.rows = std::move(best_rows);
  std::sort(out.rows.begin(), out.rows.end());
  out.mhr = eval->Mhr(out.rows);
  out.elapsed_ms = timer.ElapsedMillis();
  out.algorithm = opts.strict_feasible ? "BiGreedy" : "BiGreedy(union)";
  return out;
}

StatusOr<Solution> BiGreedy(const Dataset& data, const Grouping& grouping,
                            const GroupBounds& bounds,
                            const BiGreedyOptions& opts,
                            BiGreedyRunInfo* info) {
  Stopwatch timer;
  FAIRHMS_ASSIGN_OR_RETURN(
      ProblemInput input,
      PrepareProblem(data, grouping, bounds, opts.cache));
  const size_t m = DefaultNetSize(opts, bounds.k, data.dim());
  Rng rng(opts.seed);
  const std::shared_ptr<const UtilityNet> net =
      GetOrSampleNet(opts.cache, data.dim(), m, &rng);
  const std::shared_ptr<const NetEvaluator> eval = GetOrBuildEvaluator(
      opts.cache, data, net, input.db_rows, input.pool, opts.threads);
  FAIRHMS_ASSIGN_OR_RETURN(Solution out,
                           BiGreedyOnNet(input, eval.get(), opts, info));
  out.elapsed_ms = timer.ElapsedMillis();  // Include net construction.
  return out;
}

StatusOr<Solution> BiGreedyPlus(const Dataset& data, const Grouping& grouping,
                                const GroupBounds& bounds,
                                const BiGreedyPlusOptions& opts,
                                BiGreedyRunInfo* info) {
  Stopwatch timer;
  FAIRHMS_ASSIGN_OR_RETURN(
      ProblemInput input,
      PrepareProblem(data, grouping, bounds, opts.base.cache));
  const int d = data.dim();
  const size_t cap =
      opts.max_net_size > 0
          ? opts.max_net_size
          : static_cast<size_t>(10) * static_cast<size_t>(bounds.k) *
                static_cast<size_t>(d);
  size_t m = std::max<size_t>(
      static_cast<size_t>(d) + 1,
      static_cast<size_t>(std::ceil(opts.m0_fraction * static_cast<double>(cap))));
  m = std::min(m, cap);

  Rng rng(opts.base.seed);

  // Shared evaluation net for the final argmax across rounds.
  Rng eval_rng = rng.Fork();
  const std::shared_ptr<const UtilityNet> eval_net = GetOrSampleNet(
      opts.base.cache, d, std::max<size_t>(2 * cap, 2000), &eval_rng);
  const std::shared_ptr<const NetEvaluator> final_eval =
      GetOrBuildEvaluator(opts.base.cache, data, eval_net, input.db_rows, {},
                          opts.base.threads);

  Solution best;
  double best_quality = -1.0;
  BiGreedyRunInfo best_info;
  BiGreedyRunInfo work;  // Counters summed over the rounds.
  double prev_tau = 2.0;  // Larger than any capped value.

  for (int round = 0;; ++round) {
    Rng net_rng = rng.Fork();
    const std::shared_ptr<const UtilityNet> net =
        GetOrSampleNet(opts.base.cache, d, m, &net_rng);
    const std::shared_ptr<const NetEvaluator> eval =
        GetOrBuildEvaluator(opts.base.cache, data, net, input.db_rows,
                            input.pool, opts.base.threads);
    BiGreedyRunInfo run;
    FAIRHMS_ASSIGN_OR_RETURN(
        Solution sol, BiGreedyOnNet(input, eval.get(), opts.base, &run));
    work.mrgreedy_calls += run.mrgreedy_calls;
    work.bound_rows += run.bound_rows;
    work.exact_gains += run.exact_gains;
    const double quality = final_eval->Mhr(sol.rows);
    if (quality > best_quality) {
      best_quality = quality;
      best = std::move(sol);
      best_info = run;
    }
    const bool converged = round > 0 && (prev_tau - run.tau) < opts.lambda;
    prev_tau = run.tau;
    if (converged || m >= cap) break;
    m = std::min(2 * m, cap);
  }

  best_info.mrgreedy_calls = work.mrgreedy_calls;
  best_info.bound_rows = work.bound_rows;
  best_info.exact_gains = work.exact_gains;
  if (info != nullptr) *info = best_info;
  best.mhr = best_quality;
  best.elapsed_ms = timer.ElapsedMillis();
  best.algorithm = "BiGreedy+";
  return best;
}

namespace {

BiGreedyOptions BiGreedyOptionsFromContext(const SolveContext& ctx) {
  BiGreedyOptions opts;
  opts.net_size = static_cast<size_t>(
      ctx.params->IntOr("net_size", static_cast<int64_t>(opts.net_size)));
  opts.delta = ctx.params->DoubleOr("delta", opts.delta);
  opts.eps = ctx.params->DoubleOr("eps", opts.eps);
  opts.tau_search = ctx.params->StringOr("tau_search", "binary") == "linear"
                        ? TauSearch::kLinear
                        : TauSearch::kBinary;
  opts.strict_feasible =
      ctx.params->BoolOr("strict_feasible", opts.strict_feasible);
  opts.lazy = ctx.params->BoolOr("lazy", opts.lazy);
  opts.seed = ctx.seed;
  opts.threads = ctx.threads;
  opts.cache = ctx.cache;
  opts.warm_tau_index = ctx.warm_tau_index;
  return opts;
}

/// The loop's work counters, for the session's per-solve diagnostics.
void ForwardCounters(const BiGreedyRunInfo& run, SolveRunInfo* out) {
  out->mrgreedy_calls = run.mrgreedy_calls;
  out->bound_rows = run.bound_rows;
  out->exact_gains = run.exact_gains;
}

/// Schema shared by bigreedy and bigreedy+ (the latter appends its own).
std::vector<ParamSpec> BiGreedyParamSchema() {
  return {
      {"net_size", ParamType::kInt, "direction-net size m", "auto (10*k*d)",
       1, static_cast<double>(UtilityNet::kMaxSize), false, false, {}},
      {"delta", ParamType::kDouble,
       "derive m from a delta-net rule instead (used when net_size unset)",
       "unset", 0.0, 1.0, true, true, {}},
      {"eps", ParamType::kDouble, "capped-value search granularity", "0.02",
       0.0, 1.0, true, true, {}},
      {"tau_search", ParamType::kString,
       "capped-value grid traversal", "binary", -1e308, 1e308, false, false,
       {"binary", "linear"}},
      {"strict_feasible", ParamType::kBool,
       "only accept single-round (exactly k, fair) solutions", "true", -1e308,
       1e308, false, false, {}},
      {"lazy", ParamType::kBool,
       "stale gain bounds, refreshed only when they can win", "true", -1e308,
       1e308, false, false, {}},
  };
}

const AlgorithmRegistrar bigreedy_registrar([] {
  AlgorithmInfo info;
  info.name = "bigreedy";
  info.display_name = "BiGreedy";
  info.summary =
      "bicriteria matroid-greedy over a sampled direction net (any "
      "dimension)";
  info.caps.fairness_aware = true;
  info.caps.randomized = true;
  info.caps.warm_startable = true;
  info.params = BiGreedyParamSchema();
  info.solve = [](const SolveContext& ctx) -> StatusOr<Solution> {
    BiGreedyRunInfo run;
    FAIRHMS_ASSIGN_OR_RETURN(
        Solution sol, BiGreedy(*ctx.data, *ctx.grouping, *ctx.bounds,
                               BiGreedyOptionsFromContext(ctx), &run));
    if (ctx.run_info != nullptr) {
      ctx.run_info->tau_index = run.tau_index;
      ctx.run_info->warm_start_used = run.warm_start_used;
      ForwardCounters(run, ctx.run_info);
    }
    return sol;
  };
  return info;
}());

const AlgorithmRegistrar bigreedy_plus_registrar([] {
  AlgorithmInfo info;
  info.name = "bigreedy+";
  info.display_name = "BiGreedy+";
  info.summary = "BiGreedy with adaptive net-size doubling (Sec. 4.3)";
  info.caps.fairness_aware = true;
  info.caps.randomized = true;
  info.caps.supports_lambda = true;
  info.params = BiGreedyParamSchema();
  info.params.push_back({"max_net_size", ParamType::kInt,
                         "net-size doubling ceiling M", "auto (10*k*d)", 1,
                         static_cast<double>(UtilityNet::kMaxSize), false,
                         false, {}});
  info.params.push_back({"m0_fraction", ParamType::kDouble,
                         "initial net size as a fraction of M", "0.05", 0.0,
                         1.0, true, false, {}});
  info.params.push_back({"lambda", ParamType::kDouble,
                         "stop doubling when tau improves by less than this",
                         "0.04", 0.0, 1e308, false, false, {}});
  info.solve = [](const SolveContext& ctx) -> StatusOr<Solution> {
    BiGreedyPlusOptions opts;
    opts.base = BiGreedyOptionsFromContext(ctx);
    // Net-doubling rounds each solve a different net; a tau index from a
    // previous run is meaningless across them, so BiGreedy+ always runs
    // cold (and does not declare warm_startable).
    opts.base.warm_tau_index = -1;
    opts.max_net_size = static_cast<size_t>(ctx.params->IntOr(
        "max_net_size", static_cast<int64_t>(opts.max_net_size)));
    opts.m0_fraction = ctx.params->DoubleOr("m0_fraction", opts.m0_fraction);
    opts.lambda = ctx.params->DoubleOr("lambda", opts.lambda);
    BiGreedyRunInfo run;
    FAIRHMS_ASSIGN_OR_RETURN(
        Solution sol,
        BiGreedyPlus(*ctx.data, *ctx.grouping, *ctx.bounds, opts, &run));
    if (ctx.run_info != nullptr) ForwardCounters(run, ctx.run_info);
    return sol;
  };
  return info;
}());

}  // namespace

namespace internal {
int LinkAlgoBiGreedy() { return 0; }
}  // namespace internal

}  // namespace fairhms
