// Planner test suite: differential correctness of kAuto against the
// brute-force oracle (any thread budget, sketch on or off — the planner
// may only ever be wrong about speed), the guaranteed properties of the
// selectivity estimator (finite, non-negative, monotone in each
// threshold), the online-feedback EWMA (convergence, candidate-ratio
// learning, plan-switch detection), precondition-respecting plan
// enumeration, Explain output, and thread-safety of the shared feedback
// map (this test runs under TSan in scripts/check_all.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/stpsjoin.h"
#include "datagen/dataset_stats.h"
#include "planner/cost_model.h"
#include "planner/feedback.h"
#include "planner/planner.h"
#include "planner/planner_stats.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;
using testing_util::SameResults;

// Fuzzed database family: uniform-ish, hotspot-heavy, and collision-heavy
// (tiny vocabulary, stacked locations) instances.
ObjectDatabase FuzzDb(uint64_t seed, int family) {
  RandomDbSpec spec;
  spec.seed = seed;
  switch (family % 3) {
    case 0:  // mostly uniform
      spec.num_users = 25;
      spec.hotspot_probability = 0.2;
      spec.vocabulary = 40;
      break;
    case 1:  // hotspot-heavy
      spec.num_users = 30;
      spec.num_hotspots = 3;
      spec.hotspot_sigma = 0.01;
      spec.hotspot_probability = 0.95;
      break;
    default:  // collision-heavy: tiny vocabulary, near-stacked points
      spec.num_users = 20;
      spec.vocabulary = 6;
      spec.num_hotspots = 2;
      spec.hotspot_sigma = 0.002;
      spec.hotspot_probability = 0.9;
      break;
  }
  return BuildRandomDatabase(spec);
}

class PlannerDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { PlannerFeedback::Global().Reset(); }
};

TEST_P(PlannerDifferentialTest, AutoJoinMatchesBruteForce) {
  Rng rng(GetParam());
  for (int family = 0; family < 3; ++family) {
    const ObjectDatabase db = FuzzDb(rng.Next(), family);
    for (int round = 0; round < 3; ++round) {
      STPSQuery query;
      query.eps_loc = rng.Uniform(0.01, 0.3);
      query.eps_doc = rng.Uniform(0.1, 0.9);
      query.eps_u = rng.Uniform(0.05, 0.8);
      const auto expected = BruteForceSTPSJoin(db, query);
      for (const bool sketch : {false, true}) {
        query.sketch.enabled = sketch;
        for (const int threads : {1, 2, 8}) {
          query.parallel = ParallelOptions{threads, 0};
          JoinOptions options;
          options.algorithm = JoinAlgorithm::kAuto;
          JoinStats stats;
          const auto got = RunSTPSJoin(db, query, options, &stats);
          ASSERT_TRUE(SameResults(got, expected, /*tolerance=*/0.0))
              << "family=" << family << " threads=" << threads
              << " sketch=" << sketch << " eps_loc=" << query.eps_loc
              << " eps_doc=" << query.eps_doc << " eps_u=" << query.eps_u;
          // The chosen plan's counters still satisfy the accounting
          // invariant, whatever shape ran.
          EXPECT_EQ(stats.pairs_candidate,
                    stats.pairs_pruned_count + stats.pairs_verified);
          EXPECT_EQ(stats.matches_found, expected.size());
        }
      }
      query.sketch = SketchOptions{};
      query.parallel = ParallelOptions{};
    }
  }
}

TEST_P(PlannerDifferentialTest, AutoTopKMatchesBruteForce) {
  Rng rng(GetParam() + 777);
  for (int family = 0; family < 3; ++family) {
    const ObjectDatabase db = FuzzDb(rng.Next(), family);
    TopKQuery query;
    query.eps_loc = rng.Uniform(0.01, 0.3);
    query.eps_doc = rng.Uniform(0.1, 0.9);
    query.k = 1 + rng.NextBelow(20);
    const auto expected = BruteForceTopK(db, query);
    for (const bool sketch : {false, true}) {
      query.sketch.enabled = sketch;
      for (const int threads : {1, 2, 8}) {
        query.parallel = ParallelOptions{threads, 0};
        const auto got =
            RunTopKSTPSJoin(db, query, TopKAlgorithm::kAuto);
        ASSERT_TRUE(SameResults(got, expected, /*tolerance=*/0.0))
            << "family=" << family << " threads=" << threads
            << " sketch=" << sketch << " k=" << query.k;
      }
    }
  }
}

// kAuto never plans a sketch shape, but a query that asks for sketches
// gets them on the planned algorithm: sketch candidates flow, and the
// results are those of the sketch-off run.
TEST(PlannerSketchTest, AutoHonoursTheSketchKnob) {
  PlannerFeedback::Global().Reset();
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  for (const int threads : {1, 2}) {
    STPSQuery query{0.1, 0.3, 0.2};
    query.parallel = ParallelOptions{threads, 0};
    JoinOptions options;
    options.algorithm = JoinAlgorithm::kAuto;
    JoinStats plain_stats;
    const auto plain = RunSTPSJoin(db, query, options, &plain_stats);
    query.sketch.enabled = true;
    JoinStats sketch_stats;
    const auto sketched = RunSTPSJoin(db, query, options, &sketch_stats);
    EXPECT_FALSE(plain.empty());
    EXPECT_EQ(plain_stats.sketch_candidate_pairs, 0u);
    EXPECT_GT(sketch_stats.sketch_candidate_pairs, 0u) << threads;
    EXPECT_TRUE(SameResults(plain, sketched, 0.0)) << threads;

    TopKQuery topk{0.1, 0.3, 5};
    topk.parallel = ParallelOptions{threads, 0};
    JoinStats topk_plain_stats;
    const auto plain_topk =
        RunTopKSTPSJoin(db, topk, TopKAlgorithm::kAuto, &topk_plain_stats);
    topk.sketch.enabled = true;
    JoinStats topk_sketch_stats;
    const auto sketched_topk =
        RunTopKSTPSJoin(db, topk, TopKAlgorithm::kAuto, &topk_sketch_stats);
    EXPECT_EQ(topk_plain_stats.sketch_candidate_pairs, 0u);
    EXPECT_GT(topk_sketch_stats.sketch_candidate_pairs, 0u) << threads;
    EXPECT_TRUE(SameResults(plain_topk, sketched_topk, 0.0)) << threads;
  }
}

// The plan's shape names what runs: with the sketch knob on, the shape
// the planner reports (and the CLI prints) carries the sketch exactly
// when SketchRuns says RunSTPSJoin uses sketch candidates, and a run
// reports sketch candidates exactly then.
TEST(PlannerSketchTest, PlannedShapeNamesTheSketchRun) {
  PlannerFeedback::Global().Reset();
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  JoinOptions options;
  options.algorithm = JoinAlgorithm::kAuto;
  // eps_u = 0 makes the sketch unsound, so it never runs there.
  for (const double eps_u : {0.2, 0.0}) {
    STPSQuery query{0.1, 0.3, eps_u};
    EXPECT_FALSE(PlanSTPSJoin(db, query, options).shape.sketch);
    query.sketch.enabled = true;
    const PhysicalPlan plan = PlanSTPSJoin(db, query, options);
    EXPECT_EQ(plan.shape.sketch, SketchRuns(query, plan.shape.join));
    EXPECT_EQ(plan.shape.sketch, eps_u > 0.0);
    EXPECT_EQ(PlanShapeName(plan.shape),
              std::string(plan.shape.sketch ? "sketch+" : "") +
                  std::string(JoinAlgorithmName(plan.shape.join)));
    JoinStats stats;
    RunSTPSJoin(db, query, options, &stats);
    EXPECT_EQ(stats.sketch_candidate_pairs > 0, plan.shape.sketch);
  }
  TopKQuery topk{0.1, 0.3, 5};
  EXPECT_FALSE(PlanTopKSTPSJoin(db, topk).shape.sketch);
  topk.sketch.enabled = true;
  const PhysicalPlan plan = PlanTopKSTPSJoin(db, topk);
  EXPECT_TRUE(plan.shape.sketch);
  EXPECT_EQ(PlanShapeName(plan.shape),
            "sketch+" + std::string(TopKAlgorithmName(
                            plan.shape.topk_algorithm)));
  JoinStats stats;
  RunTopKSTPSJoin(db, topk, TopKAlgorithm::kAuto, &stats);
  EXPECT_GT(stats.sketch_candidate_pairs, 0u);
  PlannerFeedback::Global().Reset();
}

// Even with the feedback map poisoned to prefer each shape in turn, kAuto
// stays exact — the planner can choose badly, never wrongly.
TEST(PlannerSteeringTest, PoisonedFeedbackNeverChangesResults) {
  const ObjectDatabase db = FuzzDb(42, 1);
  STPSQuery query{0.08, 0.3, 0.2};
  const auto expected = BruteForceSTPSJoin(db, query);
  const PlanEstimate estimate = EstimateJoinStages(
      db.planner_stats(), query.eps_loc, query.eps_doc, query.eps_u);
  JoinStats fake;
  fake.pairs_candidate = 123;
  for (const JoinAlgorithm fast :
       {JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJF,
        JoinAlgorithm::kSPPJD, JoinAlgorithm::kBruteForce}) {
    PlannerFeedback::Global().Reset();
    // Make `fast` look instantaneous and everything else glacial.
    for (const JoinAlgorithm algorithm :
         {JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJF,
          JoinAlgorithm::kSPPJD, JoinAlgorithm::kBruteForce}) {
      PlanShape shape;
      shape.join = algorithm;
      const double cost =
          EstimateShapeCost(db.planner_stats(), shape, estimate);
      for (int i = 0; i < 8; ++i) {
        PlannerFeedback::Global().Record(shape, estimate, cost, fake,
                                         algorithm == fast ? 1e-3 : 1e5);
      }
    }
    const PhysicalPlan plan = PlanSTPSJoin(db, query);
    JoinOptions options;
    options.algorithm = JoinAlgorithm::kAuto;
    ASSERT_TRUE(SameResults(RunSTPSJoin(db, query, options), expected,
                            /*tolerance=*/0.0))
        << "steered toward " << JoinAlgorithmName(fast)
        << ", planner chose " << PlanShapeName(plan.shape);
  }
  PlannerFeedback::Global().Reset();
}

// ---------------------------------------------------------------------------
// Selectivity estimator properties.

TEST(EstimatorPropertyTest, FiniteNonNegativeEverywhere) {
  Rng rng(7);
  for (int family = 0; family < 3; ++family) {
    const ObjectDatabase db = FuzzDb(rng.Next(), family);
    const PlannerStats& stats = db.planner_stats();
    for (const double eps_loc : {0.0, 1e-9, 0.01, 0.1, 0.5, 1.0, 10.0}) {
      for (const double eps_doc : {0.0, 0.1, 0.5, 1.0}) {
        for (const double eps_u : {0.0, 0.3, 1.0}) {
          const PlanEstimate est =
              EstimateJoinStages(stats, eps_loc, eps_doc, eps_u);
          for (const double v :
               {est.cells_visited, est.colocated_object_pairs,
                est.candidate_pairs, est.text_survivors, est.verified_pairs,
                est.verify_cost_per_pair}) {
            EXPECT_TRUE(std::isfinite(v));
            EXPECT_GE(v, 0.0);
          }
          // The funnel only narrows.
          EXPECT_LE(est.text_survivors, est.candidate_pairs + 1e-9);
          EXPECT_LE(est.verified_pairs, est.text_survivors + 1e-9);
          // Cost of every shape is finite and non-negative too.
          for (const JoinAlgorithm algorithm :
               {JoinAlgorithm::kBruteForce, JoinAlgorithm::kSPPJC,
                JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJF,
                JoinAlgorithm::kSPPJD}) {
            for (const int threads : {1, 4}) {
              PlanShape shape;
              shape.join = algorithm;
              shape.threads = threads;
              const double cost = EstimateShapeCost(stats, shape, est);
              EXPECT_TRUE(std::isfinite(cost));
              EXPECT_GE(cost, 0.0);
            }
          }
        }
      }
    }
  }
}

TEST(EstimatorPropertyTest, MonotoneInEachThreshold) {
  Rng rng(11);
  for (int family = 0; family < 3; ++family) {
    const ObjectDatabase db = FuzzDb(rng.Next(), family);
    const PlannerStats& stats = db.planner_stats();
    const std::vector<double> locs = {0.001, 0.005, 0.02,
                                      0.08,  0.3,   1.2};
    // Nondecreasing in eps_loc (a wider radius can only add candidates).
    for (size_t i = 0; i + 1 < locs.size(); ++i) {
      const PlanEstimate lo = EstimateJoinStages(stats, locs[i], 0.3, 0.2);
      const PlanEstimate hi =
          EstimateJoinStages(stats, locs[i + 1], 0.3, 0.2);
      EXPECT_LE(lo.candidate_pairs, hi.candidate_pairs + 1e-9)
          << "family=" << family << " eps_loc " << locs[i] << " -> "
          << locs[i + 1];
      EXPECT_LE(lo.verified_pairs, hi.verified_pairs + 1e-9);
    }
    // Nonincreasing in eps_doc and eps_u (tighter filters kill pairs).
    const std::vector<double> fracs = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
    for (size_t i = 0; i + 1 < fracs.size(); ++i) {
      const PlanEstimate lo =
          EstimateJoinStages(stats, 0.05, fracs[i], 0.2);
      const PlanEstimate hi =
          EstimateJoinStages(stats, 0.05, fracs[i + 1], 0.2);
      EXPECT_GE(lo.text_survivors, hi.text_survivors - 1e-9);
      EXPECT_GE(lo.verified_pairs, hi.verified_pairs - 1e-9);
      const PlanEstimate lo_u =
          EstimateJoinStages(stats, 0.05, 0.3, fracs[i]);
      const PlanEstimate hi_u =
          EstimateJoinStages(stats, 0.05, 0.3, fracs[i + 1]);
      EXPECT_GE(lo_u.verified_pairs, hi_u.verified_pairs - 1e-9);
    }
  }
}

TEST(PlannerStatsTest, OccupancyLadderIsMonotone) {
  const ObjectDatabase db = FuzzDb(5, 1);
  const PlannerStats& stats = db.planner_stats();
  const uint64_t n = stats.dataset.num_objects;
  // Level 0 is one cell holding everything.
  EXPECT_EQ(stats.occupancy[0].occupied_cells, 1u);
  EXPECT_EQ(stats.occupancy[0].sum_sq_counts, n * n);
  EXPECT_EQ(stats.occupancy[0].max_cell_count, n);
  for (int level = 1; level < PlannerStats::kLevels; ++level) {
    // Refining can only split cells: more occupied cells, smaller sum of
    // squares, smaller densest cell.
    EXPECT_GE(stats.occupancy[level].occupied_cells,
              stats.occupancy[level - 1].occupied_cells);
    EXPECT_LE(stats.occupancy[level].sum_sq_counts,
              stats.occupancy[level - 1].sum_sq_counts);
    EXPECT_LE(stats.occupancy[level].max_cell_count,
              stats.occupancy[level - 1].max_cell_count);
    // Per-level accounting: cells cannot outnumber objects, and the sum
    // of squares is at least n (all singletons).
    EXPECT_LE(stats.occupancy[level].occupied_cells, n);
    EXPECT_GE(stats.occupancy[level].sum_sq_counts, n);
  }
}

TEST(PlannerStatsTest, DatasetStatsAreCachedAtBuild) {
  const ObjectDatabase db = FuzzDb(3, 0);
  ASSERT_TRUE(db.has_planner_stats());
  // The cached copy is byte-identical with a fresh scan, and
  // ComputeDatasetStats returns it.
  EXPECT_EQ(ComputeDatasetStats(db), ComputeDatasetStatsUncached(db));
  EXPECT_EQ(ComputeDatasetStats(db), db.planner_stats().dataset);
  EXPECT_EQ(db.planner_stats().dataset.num_objects, db.num_objects());
  EXPECT_EQ(db.planner_stats().dataset.num_users, db.num_users());
}

// ---------------------------------------------------------------------------
// Online feedback.

TEST(FeedbackTest, PredictionConvergesToObservedRate) {
  PlannerFeedback feedback;
  PlanShape shape;
  shape.join = JoinAlgorithm::kSPPJF;
  PlanEstimate estimate;
  estimate.candidate_pairs = 100.0;
  JoinStats stats;
  stats.pairs_candidate = 100;
  const double units = 1e6;
  const double true_ms = 5.0;  // 5e-6 ms/unit
  for (int i = 0; i < 40; ++i) {
    feedback.Record(shape, estimate, units, stats, true_ms);
  }
  const double predicted = feedback.PredictMillis(shape, units);
  EXPECT_NEAR(predicted, true_ms, 0.05 * true_ms);
  // An unobserved shape still predicts from the calibration default.
  PlanShape other;
  other.join = JoinAlgorithm::kSPPJC;
  EXPECT_GT(feedback.PredictMillis(other, units), 0.0);
}

TEST(FeedbackTest, CandidateCorrectionTracksMeasuredRatio) {
  PlannerFeedback feedback;
  PlanShape shape;
  shape.join = JoinAlgorithm::kSPPJB;
  PlanEstimate estimate;
  estimate.candidate_pairs = 100.0;
  JoinStats stats;
  stats.pairs_candidate = 400;  // model under-estimates 4x
  for (int i = 0; i < 40; ++i) {
    feedback.Record(shape, estimate, 1e5, stats, 1.0);
  }
  EXPECT_NEAR(feedback.CandidateCorrection(shape), 4.0, 0.2);
  // The correction feeds back into the cost: a corrected candidate-driven
  // shape gets more expensive.
  const ObjectDatabase db = FuzzDb(8, 2);
  const PlanEstimate est = EstimateJoinStages(db.planner_stats(), 0.05,
                                              0.3, 0.2);
  EXPECT_GT(EstimateShapeCost(db.planner_stats(), shape, est, 4.0),
            EstimateShapeCost(db.planner_stats(), shape, est, 1.0));
}

TEST(FeedbackTest, NoteChosenPlanDetectsSwitches) {
  PlannerFeedback feedback;
  PlanShape a;
  a.join = JoinAlgorithm::kSPPJF;
  PlanShape b;
  b.join = JoinAlgorithm::kSPPJC;
  EXPECT_FALSE(feedback.NoteChosenPlan(1, a));  // first sighting
  EXPECT_FALSE(feedback.NoteChosenPlan(1, a));  // stable
  EXPECT_TRUE(feedback.NoteChosenPlan(1, b));   // switch
  EXPECT_FALSE(feedback.NoteChosenPlan(1, b));
  EXPECT_FALSE(feedback.NoteChosenPlan(2, a));  // other query, first
  feedback.Reset();
  EXPECT_FALSE(feedback.NoteChosenPlan(1, b));  // forgotten
}

TEST(FeedbackTest, RejectsDegenerateObservations) {
  PlannerFeedback feedback;
  PlanShape shape;
  PlanEstimate estimate;
  JoinStats stats;
  feedback.Record(shape, estimate, 1e5, stats,
                  std::numeric_limits<double>::quiet_NaN());
  feedback.Record(shape, estimate, 1e5, stats, -1.0);
  feedback.Record(shape, estimate,
                  std::numeric_limits<double>::infinity(), stats, 1.0);
  EXPECT_EQ(feedback.total_records(), 0u);
}

// A converging workload: after the warm-up run, repeating the same query
// must stop switching plans.
TEST(FeedbackTest, RepeatedAutoRunsStopSwitching) {
  PlannerFeedback::Global().Reset();
  const ObjectDatabase db = FuzzDb(21, 1);
  STPSQuery query{0.06, 0.4, 0.25};
  JoinOptions options;
  options.algorithm = JoinAlgorithm::kAuto;
  uint64_t switches_after_first = 0;
  for (int run = 0; run < 6; ++run) {
    JoinStats stats;
    RunSTPSJoin(db, query, options, &stats);
    if (run >= 2) switches_after_first += stats.planner_plan_switches;
    EXPECT_GT(stats.planner_estimated_candidates, 0u);
  }
  // The EWMA sees consistent timings for the winning shape, so at most
  // the first re-plan may move; afterwards the choice must be stable.
  EXPECT_LE(switches_after_first, 1u);
  PlannerFeedback::Global().Reset();
}

// ---------------------------------------------------------------------------
// Plan enumeration respects algorithm preconditions.

TEST(PlannerPreconditionTest, InfeasibleShapesNeverEnumerated) {
  const ObjectDatabase db = FuzzDb(13, 0);
  // eps_doc = 0: the filter-based pair (F, D) and sketches are unsound.
  {
    STPSQuery query{0.1, 0.0, 0.3};
    const PhysicalPlan plan = PlanSTPSJoin(db, query);
    for (const PlanCandidate& c : plan.considered) {
      EXPECT_NE(c.shape.join, JoinAlgorithm::kSPPJF);
      EXPECT_NE(c.shape.join, JoinAlgorithm::kSPPJD);
      EXPECT_FALSE(c.shape.sketch);
    }
    JoinOptions options;
    options.algorithm = JoinAlgorithm::kAuto;
    EXPECT_TRUE(SameResults(RunSTPSJoin(db, query, options),
                            BruteForceSTPSJoin(db, query)));
  }
  // eps_loc = 0: no grid; only brute force is feasible.
  {
    STPSQuery query{0.0, 0.5, 0.3};
    const PhysicalPlan plan = PlanSTPSJoin(db, query);
    for (const PlanCandidate& c : plan.considered) {
      if (!c.shape.sketch) {
        EXPECT_EQ(c.shape.join, JoinAlgorithm::kBruteForce);
      }
    }
    JoinOptions options;
    options.algorithm = JoinAlgorithm::kAuto;
    EXPECT_TRUE(SameResults(RunSTPSJoin(db, query, options),
                            BruteForceSTPSJoin(db, query)));
  }
  // Thread budget is a ceiling: no enumerated shape exceeds it. Sketch
  // shapes are never enumerated, even where sketches are sound (their
  // index is built per query): only an explicit algorithm runs them.
  {
    STPSQuery query{0.1, 0.4, 0.3};
    query.parallel.num_threads = 3;
    const PhysicalPlan plan = PlanSTPSJoin(db, query);
    for (const PlanCandidate& c : plan.considered) {
      EXPECT_GE(c.shape.threads, 1);
      EXPECT_LE(c.shape.threads, 3);
      EXPECT_FALSE(c.shape.sketch);
    }
    TopKQuery topk{0.1, 0.4, 5};
    topk.parallel.num_threads = 3;
    for (const PlanCandidate& c : PlanTopKSTPSJoin(db, topk).considered) {
      EXPECT_FALSE(c.shape.sketch);
    }
  }
  // Empty database: the fallback plan is brute force and still runs.
  {
    DatabaseBuilder builder;
    const ObjectDatabase empty = std::move(builder).Build();
    STPSQuery query{0.1, 0.4, 0.3};
    const PhysicalPlan plan = PlanSTPSJoin(empty, query);
    EXPECT_EQ(plan.shape.join, JoinAlgorithm::kBruteForce);
    JoinOptions options;
    options.algorithm = JoinAlgorithm::kAuto;
    EXPECT_TRUE(RunSTPSJoin(empty, query, options).empty());
  }
  // Top-k with eps_doc = 0: index variants and sketches are out.
  {
    TopKQuery query{0.1, 0.0, 5};
    const PhysicalPlan plan = PlanTopKSTPSJoin(db, query);
    EXPECT_EQ(plan.shape.topk_algorithm, TopKAlgorithm::kBruteForce);
    EXPECT_TRUE(SameResults(
        RunTopKSTPSJoin(db, query, TopKAlgorithm::kAuto),
        BruteForceTopK(db, query)));
  }
}

TEST(PlannerExplainTest, RendersPlanAndCounterTable) {
  PlannerFeedback::Global().Reset();
  const ObjectDatabase db = FuzzDb(17, 1);
  STPSQuery query{0.08, 0.3, 0.2};
  const PhysicalPlan plan = PlanSTPSJoin(db, query);
  EXPECT_FALSE(plan.considered.empty());
  EXPECT_GT(plan.cost_units, 0.0);
  EXPECT_GT(plan.predicted_ms, 0.0);
  // The candidate table is sorted cheapest-first and the chosen shape is
  // its head.
  for (size_t i = 0; i + 1 < plan.considered.size(); ++i) {
    EXPECT_LE(plan.considered[i].predicted_ms,
              plan.considered[i + 1].predicted_ms);
  }
  EXPECT_TRUE(plan.shape == plan.considered.front().shape);

  const std::string without = ExplainPlan(plan);
  EXPECT_NE(without.find("plan:"), std::string::npos);
  EXPECT_NE(without.find(PlanShapeName(plan.shape)), std::string::npos);
  EXPECT_NE(without.find("[chosen]"), std::string::npos);
  EXPECT_EQ(without.find("estimated vs actual"), std::string::npos);

  JoinOptions options;
  options.algorithm = JoinAlgorithm::kAuto;
  JoinStats stats;
  RunSTPSJoin(db, query, options, &stats);
  const std::string with = ExplainPlan(plan, &stats);
  EXPECT_NE(with.find("estimated vs actual"), std::string::npos);
  EXPECT_NE(with.find("candidate_pairs"), std::string::npos);
  EXPECT_NE(with.find("matches_found"), std::string::npos);
  PlannerFeedback::Global().Reset();
}

// ---------------------------------------------------------------------------
// Thread-safety: the feedback map is the only shared mutable state in the
// planner stack. Hammer it from concurrent kAuto joins, explicit joins,
// and direct feedback calls; run under TSan via scripts/check_all.sh.

TEST(PlannerConcurrencyTest, SharedFeedbackSurvivesParallelUse) {
  PlannerFeedback::Global().Reset();
  const ObjectDatabase db = FuzzDb(29, 2);
  STPSQuery query{0.05, 0.3, 0.2};
  const auto expected = BruteForceSTPSJoin(db, query);
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < 8; ++i) {
        JoinOptions options;
        options.algorithm =
            (w % 2 == 0) ? JoinAlgorithm::kAuto : JoinAlgorithm::kSPPJF;
        JoinStats stats;
        const auto got = RunSTPSJoin(db, query, options, &stats);
        if (!SameResults(got, expected, /*tolerance=*/0.0)) {
          failed = true;
        }
      }
    });
  }
  // Two more threads poking the feedback API directly.
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&] {
      PlanShape shape;
      shape.join = JoinAlgorithm::kSPPJC;
      PlanEstimate estimate;
      estimate.candidate_pairs = 10.0;
      JoinStats stats;
      stats.pairs_candidate = 12;
      for (int i = 0; i < 64; ++i) {
        PlannerFeedback::Global().Record(shape, estimate, 1e4, stats, 0.5);
        PlannerFeedback::Global().PredictMillis(shape, 1e4);
        PlannerFeedback::Global().CandidateCorrection(shape);
        PlannerFeedback::Global().NoteChosenPlan(99, shape);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(PlannerFeedback::Global().total_records(), 0u);
  PlannerFeedback::Global().Reset();
}

// Regression: a zero (or non-finite) candidate estimate must not enter
// the actual/estimated EWMA. Before the guard, Record() divided by
// max(1.0, 0.0) and pushed a fabricated ratio of up to 64x into the
// learned correction, poisoning every later query of the same shape.
TEST(PlannerFeedbackTest, ZeroEstimateDoesNotPoisonCandidateRatio) {
  PlannerFeedback::Global().Reset();
  PlanShape shape;
  shape.join = JoinAlgorithm::kSPPJB;
  JoinStats stats;
  stats.pairs_candidate = 5000;  // huge "actual" against a zero estimate

  PlanEstimate zero;
  zero.candidate_pairs = 0.0;
  PlannerFeedback::Global().Record(shape, zero, 1e4, stats, 0.5);
  EXPECT_DOUBLE_EQ(PlannerFeedback::Global().CandidateCorrection(shape), 1.0);

  PlanEstimate bogus;
  bogus.candidate_pairs = std::nan("");
  PlannerFeedback::Global().Record(shape, bogus, 1e4, stats, 0.5);
  EXPECT_DOUBLE_EQ(PlannerFeedback::Global().CandidateCorrection(shape), 1.0);

  // Timing feedback from those runs still lands, and predictions stay
  // finite and non-negative.
  EXPECT_GT(PlannerFeedback::Global().total_records(), 0u);
  const double predicted = PlannerFeedback::Global().PredictMillis(shape, 1e4);
  EXPECT_TRUE(std::isfinite(predicted));
  EXPECT_GE(predicted, 0.0);

  // A later real estimate learns the ratio normally.
  PlanEstimate real;
  real.candidate_pairs = 1000.0;
  PlannerFeedback::Global().Record(shape, real, 1e4, stats, 0.5);
  EXPECT_GT(PlannerFeedback::Global().CandidateCorrection(shape), 1.0);
  PlannerFeedback::Global().Reset();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerDifferentialTest,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace stps
