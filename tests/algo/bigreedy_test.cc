#include "algo/bigreedy.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "algo/intcov.h"
#include "api/params.h"
#include "api/registry.h"
#include "common/random.h"
#include "core/artifact_cache.h"
#include "core/exact_evaluator.h"
#include "data/generators.h"
#include "fairness/matroid.h"
#include "skyline/skyline.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::MakeDataset;
using testing::MakeGrouping;

TEST(BiGreedyTest, SolutionIsFairAndSizeK) {
  Rng rng(1);
  for (int d : {2, 3, 5}) {
    const Dataset data = GenIndependent(300, d, &rng);
    const Grouping g = GroupBySumRank(data, 3);
    const GroupBounds bounds = GroupBounds::Proportional(9, g.Counts(), 0.2);
    auto sol = BiGreedy(data, g, bounds);
    ASSERT_TRUE(sol.ok()) << sol.status();
    EXPECT_EQ(sol->rows.size(), 9u) << "d=" << d;
    EXPECT_EQ(CountViolations(sol->rows, g, bounds), 0) << "d=" << d;
  }
}

TEST(BiGreedyTest, DeterministicGivenSeed) {
  Rng rng(2);
  const Dataset data = GenAntiCorrelated(400, 3, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  const GroupBounds bounds = GroupBounds::Proportional(8, g.Counts(), 0.1);
  BiGreedyOptions opts;
  opts.seed = 99;
  auto s1 = BiGreedy(data, g, bounds, opts);
  auto s2 = BiGreedy(data, g, bounds, opts);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(s1->rows, s2->rows);
}

TEST(BiGreedyTest, NearOptimalOn2DInstances) {
  // Compare against the exact IntCov optimum: BiGreedy should be within the
  // combined net + eps error budget on easy 2D instances.
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const Dataset data = GenIndependent(150, 2, &rng);
    const Grouping g = GroupBySumRank(data, 2);
    const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
    auto exact = IntCov(data, g, bounds);
    BiGreedyOptions opts;
    opts.net_size = 400;
    auto approx = BiGreedy(data, g, bounds, opts);
    ASSERT_TRUE(exact.ok() && approx.ok());
    const auto sky = ComputeSkyline(data);
    const double approx_mhr = MhrExact2D(data, sky, approx->rows);
    EXPECT_GE(approx_mhr, exact->mhr - 0.12) << "trial " << trial;
    EXPECT_LE(approx_mhr, exact->mhr + 1e-9) << "trial " << trial;
  }
}

TEST(BiGreedyTest, LinearAndBinaryTauSearchComparable) {
  Rng rng(4);
  const Dataset data = GenAntiCorrelated(200, 3, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
  BiGreedyOptions binary;
  binary.net_size = 200;
  BiGreedyOptions linear = binary;
  linear.tau_search = TauSearch::kLinear;
  BiGreedyRunInfo bi, li;
  auto sb = BiGreedy(data, g, bounds, binary, &bi);
  auto sl = BiGreedy(data, g, bounds, linear, &li);
  ASSERT_TRUE(sb.ok() && sl.ok());
  const auto sky = ComputeSkyline(data);
  const double mb = MhrExactLp(data, sky, sb->rows);
  const double ml = MhrExactLp(data, sky, sl->rows);
  EXPECT_NEAR(mb, ml, 0.05);
  // Binary search does far fewer MRGreedy calls.
  EXPECT_LT(bi.mrgreedy_calls, li.mrgreedy_calls / 4);
}

TEST(BiGreedyTest, RunInfoPopulated) {
  Rng rng(5);
  const Dataset data = GenIndependent(100, 3, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
  BiGreedyRunInfo info;
  auto sol = BiGreedy(data, g, bounds, {}, &info);
  ASSERT_TRUE(sol.ok());
  EXPECT_GT(info.tau, 0.0);
  EXPECT_LE(info.tau, 1.0);
  EXPECT_EQ(info.net_size, 10u * 6u * 3u);  // 10 * k * d default.
  EXPECT_GE(info.mrgreedy_calls, 1);
}

TEST(BiGreedyTest, NetSizeFromDelta) {
  Rng rng(6);
  const Dataset data = GenIndependent(50, 2, &rng);
  const Grouping g = SingleGroup(50);
  auto bounds = GroupBounds::Explicit(4, {0}, {4});
  ASSERT_TRUE(bounds.ok());
  BiGreedyOptions opts;
  opts.delta = 0.3;
  BiGreedyRunInfo info;
  auto sol = BiGreedy(data, g, *bounds, opts, &info);
  ASSERT_TRUE(sol.ok());
  // Lemma 4.1 net: delta' = delta / (d(2-delta)).
  const double net_delta = 0.3 / (2 * (2 - 0.3));
  EXPECT_EQ(info.net_size, UtilityNet::DeltaToSampleSize(net_delta, 2));
}

TEST(BiGreedyTest, BicriteriaUnionSatisfiesScaledBounds) {
  // Lemma 4.5 object: the union of gamma rounds with gamma-scaled bounds.
  Rng rng(7);
  const Dataset data = GenIndependent(200, 3, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
  BiGreedyOptions opts;
  opts.strict_feasible = false;
  opts.net_size = 100;
  BiGreedyRunInfo info;
  auto sol = BiGreedy(data, g, bounds, opts, &info);
  ASSERT_TRUE(sol.ok());
  const int gamma = info.rounds_used;
  EXPECT_GE(gamma, 1);
  EXPECT_LE(static_cast<int>(sol->rows.size()), gamma * bounds.k);
  const auto counts = SolutionGroupCounts(sol->rows, g);
  for (size_t c = 0; c < counts.size(); ++c) {
    EXPECT_LE(counts[c], gamma * bounds.upper[c]);
  }
}

TEST(BiGreedyTest, UnionNetMhrCertifiedByTau) {
  // When MRGreedy certifies tau, the union's net mhr is >= (1 - eps) tau
  // (Lemma 4.5 conclusion).
  Rng rng(8);
  const Dataset data = GenAntiCorrelated(150, 3, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
  BiGreedyOptions opts;
  opts.strict_feasible = false;
  opts.net_size = 150;
  opts.seed = 5;
  BiGreedyRunInfo info;
  auto sol = BiGreedy(data, g, bounds, opts, &info);
  ASSERT_TRUE(sol.ok());
  if (info.tau > 0.0) {
    // Re-evaluate on the same net.
    Rng net_rng(opts.seed);
    const UtilityNet net = UtilityNet::SampleRandom(3, 150, &net_rng);
    const auto sky = ComputeSkyline(data);
    const NetEvaluator eval(&data, &net, sky);
    EXPECT_GE(eval.Mhr(sol->rows), (1.0 - opts.eps) * info.tau - 1e-9);
  }
}

TEST(BiGreedyPlusTest, FeasibleAndComparableToBiGreedy) {
  Rng rng(9);
  const Dataset data = GenAntiCorrelated(500, 4, &rng);
  const Grouping g = GroupBySumRank(data, 3);
  const GroupBounds bounds = GroupBounds::Proportional(8, g.Counts(), 0.2);
  auto big = BiGreedy(data, g, bounds);
  auto plus = BiGreedyPlus(data, g, bounds);
  ASSERT_TRUE(big.ok() && plus.ok());
  EXPECT_EQ(plus->rows.size(), 8u);
  EXPECT_EQ(CountViolations(plus->rows, g, bounds), 0);
  const auto sky = ComputeSkyline(data);
  const double m_big = MhrExactLp(data, sky, big->rows);
  const double m_plus = MhrExactLp(data, sky, plus->rows);
  // Paper: BiGreedy+ close to BiGreedy, small loss allowed.
  EXPECT_GE(m_plus, m_big - 0.1);
}

TEST(BiGreedyPlusTest, StopsAtMaxNetSize) {
  Rng rng(10);
  const Dataset data = GenIndependent(100, 3, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
  BiGreedyPlusOptions opts;
  opts.max_net_size = 64;
  opts.lambda = -1.0;  // Never converge early: must stop at the cap.
  BiGreedyRunInfo info;
  auto sol = BiGreedyPlus(data, g, bounds, opts, &info);
  ASSERT_TRUE(sol.ok());
  EXPECT_LE(info.net_size, 64u);
  EXPECT_EQ(sol->algorithm, "BiGreedy+");
}

TEST(BiGreedyTest, LazyAndPlainGreedyEquivalent) {
  // Lazy evaluation is an exact accelerator of plain greedy (submodularity
  // makes stale upper bounds sound); the selections must match.
  Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    const Dataset data = GenAntiCorrelated(150, 3, &rng);
    const Grouping g = GroupBySumRank(data, 2);
    const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
    BiGreedyOptions lazy_opts;
    lazy_opts.seed = 7 + static_cast<uint64_t>(trial);
    lazy_opts.net_size = 120;
    BiGreedyOptions plain_opts = lazy_opts;
    plain_opts.lazy = false;
    auto lazy_sol = BiGreedy(data, g, bounds, lazy_opts);
    auto plain_sol = BiGreedy(data, g, bounds, plain_opts);
    ASSERT_TRUE(lazy_sol.ok() && plain_sol.ok());
    EXPECT_EQ(lazy_sol->rows, plain_sol->rows) << "trial " << trial;
  }
}

TEST(BiGreedyTest, BoundLoopMatchesPlainScanAcrossModes) {
  // The lazy loop ranks candidates by cached-cell bounds, verifies only the
  // best exactly, recomputes every key in one pass after the first pick and
  // carries round-1 keys down the tau grid; the plain scan verifies every
  // candidate whose bound can beat its running best. Both must pick exactly
  // what a scan over exact gains picks, in every search and feasibility
  // mode, from every warm hint, and when rows leave the live list at the
  // first pick (every group capped at 1).
  struct Case {
    Dataset data;
    Grouping grouping;
    GroupBounds bounds;
    uint64_t seed;
    std::string name;
  };
  std::vector<Case> cases;
  Rng rng(23);
  for (int d : {3, 4, 6}) {
    for (int trial = 0; trial < 2; ++trial) {
      Dataset data = GenAntiCorrelated(160, d, &rng);
      Grouping g = GroupBySumRank(data, 3);
      const GroupBounds prop = GroupBounds::Proportional(7, g.Counts(), 0.2);
      auto ones = GroupBounds::Explicit(3, {1, 1, 1}, {1, 1, 1});
      ASSERT_TRUE(ones.ok()) << ones.status();
      const std::string name =
          "d=" + std::to_string(d) + " trial=" + std::to_string(trial);
      const uint64_t seed = 40 + static_cast<uint64_t>(trial);
      cases.push_back({data, g, prop, seed, name});
      cases.push_back({data, g, *ones, seed, name + " upper=1"});
    }
  }
  {
    // A pool large enough for the passes and carried keys to matter.
    Dataset data = GenAntiCorrelated(2000, 6, &rng);
    Grouping g = GroupBySumRank(data, 3);
    const GroupBounds prop = GroupBounds::Proportional(7, g.Counts(), 0.2);
    cases.push_back({std::move(data), std::move(g), prop, 40, "n=2000 d=6"});
  }

  for (const Case& inst : cases) {
    auto input = PrepareProblem(inst.data, inst.grouping, inst.bounds);
    ASSERT_TRUE(input.ok()) << input.status();
    const int64_t pool = static_cast<int64_t>(input->pool.size());
    for (bool strict : {true, false}) {
      for (TauSearch search : {TauSearch::kBinary, TauSearch::kLinear}) {
        BiGreedyOptions lazy_opts;
        lazy_opts.seed = inst.seed;
        lazy_opts.net_size = 150;
        lazy_opts.eps = 0.1;
        lazy_opts.strict_feasible = strict;
        lazy_opts.tau_search = search;
        SCOPED_TRACE(::testing::Message()
                     << inst.name << " strict=" << strict
                     << " linear=" << (search == TauSearch::kLinear));
        std::vector<int> hints = {-1};
        int cold_index = -1;
        std::vector<int> cold_rows;
        for (size_t h = 0; h < hints.size(); ++h) {
          lazy_opts.warm_tau_index = hints[h];
          SCOPED_TRACE(::testing::Message() << "hint=" << hints[h]);
          BiGreedyOptions plain_opts = lazy_opts;
          plain_opts.lazy = false;
          BiGreedyRunInfo lazy_info, plain_info;
          auto lazy_sol =
              BiGreedy(inst.data, inst.grouping, inst.bounds, lazy_opts,
                       &lazy_info);
          auto plain_sol =
              BiGreedy(inst.data, inst.grouping, inst.bounds, plain_opts,
                       &plain_info);
          ASSERT_TRUE(lazy_sol.ok() && plain_sol.ok());
          EXPECT_EQ(lazy_sol->rows, plain_sol->rows);
          EXPECT_EQ(lazy_sol->mhr, plain_sol->mhr);
          EXPECT_EQ(lazy_info.tau_index, plain_info.tau_index);
          EXPECT_EQ(lazy_info.mrgreedy_calls, plain_info.mrgreedy_calls);
          EXPECT_EQ(lazy_info.warm_start_used, plain_info.warm_start_used);
          if (inst.name == "n=2000 d=6" && strict && hints[h] < 0) {
            // Bound-tightness guard: 2^-15 cells give exactly 49 (binary)
            // and 693 (linear) exact gains here. Fresh keys are the
            // canonical bounds, so looser stale keys (the evaluator's
            // tau = 1 seeds) must not move these counts; a coarser cell
            // format would trade reads for exact evaluations.
            const bool binary = search == TauSearch::kBinary;
            EXPECT_EQ(lazy_info.exact_gains, binary ? 49 : 693);
            // Bound reads: 24716 (binary) and 34398 (linear) before the
            // seeds and dead-quad skipping; 13029 and 30129 with them and
            // a heap-ordered loop; 13743 and 31336 with the candidate-order
            // sweeps, which refresh a few more stale keys.
            EXPECT_LT(lazy_info.bound_rows, binary ? 24716 : 34398);
          }
          if (search == TauSearch::kLinear && strict) {
            // Carried keys spare later probes the full passes.
            EXPECT_LT(lazy_info.bound_rows, lazy_info.mrgreedy_calls * pool);
          }
          if (hints[h] < 0) {
            cold_index = lazy_info.tau_index;
            cold_rows = lazy_sol->rows;
            if (search == TauSearch::kBinary && cold_index >= 0) {
              // Warm hints at the certified index, one below, two above.
              hints.push_back(cold_index);
              if (cold_index > 0) hints.push_back(cold_index - 1);
              hints.push_back(cold_index + 2);
            }
          } else {
            // An accepted or discarded hint lands on the cold answer.
            EXPECT_EQ(lazy_info.tau_index, cold_index);
            EXPECT_EQ(lazy_sol->rows, cold_rows);
          }
        }
      }
    }
  }
}

TEST(BiGreedyTest, SeededEvaluatorMatchesUnseeded) {
  // An evaluator from GetOrBuildEvaluator carries seed keys (tau = 1
  // bounds on the empty set and after plain greedy's first pick); one
  // built by hand with CacheCandidates alone does not. The seeds only
  // loosen stale keys, so both give the same rows, mhr, certified
  // index and exact evaluations, cold and from every warm hint, in both
  // feasibility modes; the seeds spare bound reads.
  Rng rng(31);
  const Dataset data = GenAntiCorrelated(1500, 5, &rng);
  const Grouping g = GroupBySumRank(data, 3);
  for (int k : {6, 11}) {
    const GroupBounds bounds = GroupBounds::Proportional(k, g.Counts(), 0.2);
    auto input = PrepareProblem(data, g, bounds);
    ASSERT_TRUE(input.ok()) << input.status();
    Rng net_rng(17);
    auto net = std::make_shared<const UtilityNet>(
        UtilityNet::SampleRandom(5, 300, &net_rng));
    const std::shared_ptr<const NetEvaluator> seeded = GetOrBuildEvaluator(
        nullptr, data, net, input->db_rows, input->pool, 1);
    NetEvaluator unseeded(&data, net.get(), input->db_rows, 1);
    unseeded.CacheCandidates(input->pool);
    ASSERT_TRUE(seeded->has_seed_keys());
    ASSERT_FALSE(unseeded.has_seed_keys());
    for (bool strict : {true, false}) {
      BiGreedyOptions opts;
      opts.eps = 0.05;
      opts.strict_feasible = strict;
      std::vector<int> hints = {-1};
      for (size_t h = 0; h < hints.size(); ++h) {
        opts.warm_tau_index = hints[h];
        SCOPED_TRACE(::testing::Message() << "k=" << k << " strict=" << strict
                                          << " hint=" << hints[h]);
        BiGreedyRunInfo with, without;
        auto a = BiGreedyOnNet(*input, seeded.get(), opts, &with);
        auto b = BiGreedyOnNet(*input, &unseeded, opts, &without);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(a->rows, b->rows);
        EXPECT_EQ(a->mhr, b->mhr);
        EXPECT_EQ(with.tau_index, without.tau_index);
        EXPECT_EQ(with.warm_start_used, without.warm_start_used);
        EXPECT_EQ(with.mrgreedy_calls, without.mrgreedy_calls);
        EXPECT_EQ(with.exact_gains, without.exact_gains);
        EXPECT_LT(with.bound_rows, without.bound_rows);
        if (hints[h] < 0 && with.tau_index >= 0) {
          hints.push_back(with.tau_index);
          if (with.tau_index > 0) hints.push_back(with.tau_index - 1);
          hints.push_back(with.tau_index + 2);
        }
      }
    }
  }
}

TEST(BiGreedyTest, LazyLoopPathsKeepTheirVerificationCounts) {
  // One instance per path of the lazy loop: a group whose upper bound is 1
  // (it closes at its first pick), lower-bound reservation (a group closes
  // while its upper bound is still open), an evaluator without a candidate
  // cache (every bound is the exact gain), a 3-direction net (the first
  // pick holds every direction, so no gain is left right after it), union
  // mode (rounds after the first run without carried keys) and the linear
  // tau search (every probe after the first starts from carried keys).
  // Rows, certified index, MRGreedy calls and exact evaluations were
  // measured with the heap-ordered loop this one replaced; only bound
  // reads may differ.
  Rng rng(47);
  const Dataset data = GenAntiCorrelated(1200, 5, &rng);
  const Grouping g = GroupBySumRank(data, 3);
  const GroupBounds prop = GroupBounds::Proportional(6, g.Counts(), 0.2);
  auto upper_one = GroupBounds::Explicit(6, {0, 0, 0}, {1, 4, 4});
  auto reserve = GroupBounds::Explicit(6, {2, 2, 2}, {4, 4, 4});
  ASSERT_TRUE(upper_one.ok() && reserve.ok());
  struct Pin {
    std::string name;
    GroupBounds bounds;
    size_t net_size;
    bool cached;
    bool strict;
    TauSearch search;
    std::vector<int> rows;
    int tau_index;
    int mrgreedy_calls;
    int64_t exact_gains;
  };
  const std::vector<Pin> pins = {
      {"upper=1", *upper_one, 200, true, true, TauSearch::kBinary,
       {6, 88, 114, 707, 716, 862}, 4, 7, 42},
      {"reserve", *reserve, 200, true, true, TauSearch::kBinary,
       {3, 194, 251, 349, 862, 961}, 5, 7, 42},
      {"uncached", prop, 200, false, true, TauSearch::kBinary,
       {6, 114, 549, 716, 862, 908}, 4, 7, 0},
      {"m=3", prop, 3, true, true, TauSearch::kBinary,
       {0, 2, 338, 862, 1020, 1179}, 0, 4, 24},
      {"union", prop, 200, true, false, TauSearch::kBinary,
       {24,   74,   80,   99,   114,  117,  168,  173,  190,  196,  236,
        246,  251,  273,  314,  322,  338,  341,  429,  434,  454,  462,
        482,  505,  520,  544,  545,  562,  563,  613,  632,  633,  651,
        677,  704,  707,  716,  739,  746,  750,  754,  829,  844,  845,
        856,  862,  866,  868,  907,  908,  946,  971,  993,  996,  1020,
        1029, 1030, 1031, 1053, 1060, 1063, 1068, 1131, 1168, 1179, 1185},
       1, 7, 193},
      {"linear", prop, 200, true, true, TauSearch::kLinear,
       {6, 114, 549, 716, 862, 908}, 4, 105, 630},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    auto input = PrepareProblem(data, g, pin.bounds);
    ASSERT_TRUE(input.ok()) << input.status();
    Rng net_rng(17);
    auto net = std::make_shared<const UtilityNet>(
        UtilityNet::SampleRandom(5, pin.net_size, &net_rng));
    std::shared_ptr<const NetEvaluator> eval;
    if (pin.cached) {
      eval = GetOrBuildEvaluator(nullptr, data, net, input->db_rows,
                                 input->pool, 1);
      ASSERT_TRUE(eval->has_seed_keys());
    } else {
      eval = std::make_shared<const NetEvaluator>(&data, net.get(),
                                                  input->db_rows, 1);
      ASSERT_EQ(eval->cached_row(input->pool[0]), nullptr);
    }
    BiGreedyOptions opts;
    opts.eps = 0.1;
    opts.strict_feasible = pin.strict;
    opts.tau_search = pin.search;
    BiGreedyRunInfo info;
    auto sol = BiGreedyOnNet(*input, eval.get(), opts, &info);
    ASSERT_TRUE(sol.ok()) << sol.status();
    EXPECT_EQ(sol->rows, pin.rows);
    EXPECT_EQ(info.tau_index, pin.tau_index);
    EXPECT_EQ(info.mrgreedy_calls, pin.mrgreedy_calls);
    EXPECT_EQ(info.exact_gains, pin.exact_gains);
    if (!pin.strict) {
      EXPECT_GE(info.rounds_used, 2);
    }
    opts.lazy = false;
    auto plain = BiGreedyOnNet(*input, eval.get(), opts, nullptr);
    ASSERT_TRUE(plain.ok()) << plain.status();
    EXPECT_EQ(plain->rows, pin.rows);
  }
}

TEST(BiGreedyTest, RegistryForwardsLoopCounters) {
  // The registered solves report the loop's work through SolveRunInfo:
  // bigreedy its own run, bigreedy+ the sum over its doubling rounds.
  Rng rng(37);
  const Dataset data = GenAntiCorrelated(400, 4, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
  const AlgoParams params;
  SolveRunInfo run_info;
  SolveContext ctx;
  ctx.data = &data;
  ctx.grouping = &g;
  ctx.bounds = &bounds;
  ctx.seed = 11;
  ctx.threads = 1;
  ctx.params = &params;
  ctx.run_info = &run_info;

  BiGreedyOptions opts;
  opts.seed = 11;
  opts.threads = 1;
  BiGreedyRunInfo want;
  ASSERT_TRUE(BiGreedy(data, g, bounds, opts, &want).ok());
  ASSERT_TRUE(AlgorithmRegistry::Instance().Find("bigreedy")->solve(ctx).ok());
  EXPECT_EQ(run_info.mrgreedy_calls, want.mrgreedy_calls);
  EXPECT_EQ(run_info.bound_rows, want.bound_rows);
  EXPECT_EQ(run_info.exact_gains, want.exact_gains);
  EXPECT_GT(run_info.bound_rows, 0);

  BiGreedyPlusOptions plus_opts;
  plus_opts.base = opts;
  BiGreedyRunInfo plus_want;
  ASSERT_TRUE(BiGreedyPlus(data, g, bounds, plus_opts, &plus_want).ok());
  run_info = SolveRunInfo();
  ASSERT_TRUE(
      AlgorithmRegistry::Instance().Find("bigreedy+")->solve(ctx).ok());
  EXPECT_EQ(run_info.mrgreedy_calls, plus_want.mrgreedy_calls);
  EXPECT_EQ(run_info.bound_rows, plus_want.bound_rows);
  EXPECT_EQ(run_info.exact_gains, plus_want.exact_gains);
  // Several doubling rounds, each with its own tau search.
  EXPECT_GT(run_info.mrgreedy_calls, want.mrgreedy_calls);
}

TEST(BiGreedyTest, CachedBoundsNeverDecideASelection) {
  // Two axis directions and denominators of 1, so happiness is the
  // coordinate itself. Row 0's cells hold 0.5 exactly (their bound is
  // exact); row 1's first coordinate sits just above 0.5 and rounds up a
  // whole cell step (2^-15), its second just below 0.5 and rounds to 0.5.
  // Row 1 has the larger bound but the smaller exact gain, so a loop that
  // selected on bounds would pick it; greedy over exact gains picks row 0.
  const double above = 0.5 + std::ldexp(1.0, -40);
  const double below = 0.5 - std::ldexp(1.0, -39);
  const Dataset data = MakeDataset({{0.5, 0.5}, {above, below}, {1.0, 1.0}});
  const Grouping g = SingleGroup(3);
  auto bounds = GroupBounds::Explicit(1, {0}, {1});
  ASSERT_TRUE(bounds.ok());
  auto input = PrepareProblem(data, g, *bounds);
  ASSERT_TRUE(input.ok()) << input.status();
  // Row 2 dominates both; only rows 0 and 1 are candidates, and all three
  // define the denominators.
  input->pool = {0, 1};
  input->pool_by_group = {{0, 1}};
  input->db_rows = {0, 1, 2};
  const UtilityNet net = UtilityNet::Grid2D(2);
  NetEvaluator eval(&data, &net, input->db_rows);
  eval.CacheCandidates(input->pool);

  // eps = 0.3 puts a grid value, 0.85^4, just above 0.5: the largest that
  // certifies, and one where the inversion holds.
  const double tau = std::pow(0.85, 4);
  const TruncatedMhrState empty(&eval);
  ASSERT_GT(empty.GainBound(1, tau), empty.GainBound(0, tau));
  ASSERT_LT(empty.MarginalGain(1, tau), empty.MarginalGain(0, tau));

  for (bool lazy : {true, false}) {
    BiGreedyOptions opts;
    opts.eps = 0.3;
    opts.lazy = lazy;
    BiGreedyRunInfo info;
    auto sol = BiGreedyOnNet(*input, &eval, opts, &info);
    ASSERT_TRUE(sol.ok()) << sol.status();
    EXPECT_EQ(info.tau, tau) << "lazy=" << lazy;
    EXPECT_EQ(sol->rows, (std::vector<int>{0})) << "lazy=" << lazy;
  }
}

TEST(BiGreedyTest, GreedyFillFallbackPicksExactGreedy) {
  // Group 1's only point towers over every direction with a z component,
  // and the bounds forbid picking it, so no capped value certifies and
  // BiGreedy falls back to GreedyFill. Its bound-then-verify loop must
  // pick what a plain scan over exact, untruncated gains picks.
  const Dataset data = MakeDataset({{1.0, 0.2, 0.001},
                                    {0.3, 1.0, 0.002},
                                    {0.7, 0.7, 0.0015},
                                    {0.9, 0.5, 0.0005},
                                    {0.5, 0.9, 0.001},
                                    {0.0, 0.0, 1000.0}});
  const Grouping g = MakeGrouping({0, 0, 0, 0, 0, 1}, 2);
  auto bounds = GroupBounds::Explicit(2, {2, 0}, {2, 0});
  ASSERT_TRUE(bounds.ok());
  auto input = PrepareProblem(data, g, *bounds);
  ASSERT_TRUE(input.ok()) << input.status();
  Rng rng(3);
  const UtilityNet net = UtilityNet::SampleRandom(3, 40, &rng);
  NetEvaluator eval(&data, &net, input->db_rows);
  eval.CacheCandidates(input->pool);
  ASSERT_NE(eval.cached_row(input->pool.front()), nullptr);

  // Reference: plain matroid greedy on exact gains at tau = 1.
  const FairnessMatroid matroid(input->bounds);
  FairSelection sel(&matroid, &g);
  TruncatedMhrState state(&eval);
  while (!sel.IsMaximal()) {
    int best_row = -1;
    double best_gain = -1.0;
    for (int row : input->pool) {
      if (!sel.CanAdd(row)) continue;
      const double gain = state.MarginalGain(row, 1.0);
      if (gain > best_gain || (gain == best_gain && row < best_row)) {
        best_gain = gain;
        best_row = row;
      }
    }
    ASSERT_GE(best_row, 0);
    sel.Add(best_row);
    state.Add(best_row);
  }
  std::vector<int> want = sel.rows();
  std::sort(want.begin(), want.end());

  for (bool strict : {true, false}) {
    for (bool lazy : {true, false}) {
      BiGreedyOptions opts;
      opts.strict_feasible = strict;
      opts.lazy = lazy;
      BiGreedyRunInfo info;
      auto sol = BiGreedyOnNet(*input, &eval, opts, &info);
      ASSERT_TRUE(sol.ok()) << sol.status();
      EXPECT_EQ(info.tau_index, -1) << "strict=" << strict;
      EXPECT_EQ(sol->rows, want) << "strict=" << strict << " lazy=" << lazy;
    }
  }
}

TEST(BiGreedyTest, SingleGroupEqualsVanillaHms) {
  // C = 1 with l = 0, h = k reduces FairHMS to HMS; result must be size k.
  Rng rng(11);
  const Dataset data = GenAntiCorrelated(300, 3, &rng);
  const Grouping g = SingleGroup(300);
  auto bounds = GroupBounds::Explicit(10, {0}, {10});
  ASSERT_TRUE(bounds.ok());
  auto sol = BiGreedy(data, g, *bounds);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->rows.size(), 10u);
}

TEST(BiGreedyTest, TinyPoolStillFeasible) {
  // Pool smaller than the dataset: exactly one choice per group.
  const Dataset data = MakeDataset({{1, 0}, {0, 1}});
  const Grouping g = MakeGrouping({0, 1}, 2);
  auto bounds = GroupBounds::Explicit(2, {1, 1}, {1, 1});
  ASSERT_TRUE(bounds.ok());
  auto sol = BiGreedy(data, g, *bounds);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->rows, (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace fairhms
