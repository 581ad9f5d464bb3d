// Performance smoke test: the paper's headline claims asserted as
// regression tests over JoinStats work counters instead of wall-clock.
// Counter budgets are exactly reproducible — same database, same
// counters, on any machine at any load — so the test cannot flake under
// scheduler noise, while a regression that disables a filter still moves
// the counters by an order of magnitude and fails the budget.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/join_stats.h"
#include "core/sppj_b.h"
#include "core/sppj_c.h"
#include "core/sppj_d.h"
#include "core/sppj_f.h"
#include "core/stpsjoin.h"
#include "core/topk.h"
#include "datagen/generator.h"
#include "datagen/presets.h"

namespace stps {
namespace {

TEST(PerfSmokeTest, SPPJFBeatsBaselineOnTwitterLike) {
  // Headline claim: filter-and-refine S-PPJ-F does far fewer exact pair
  // verifications than the S-PPJ-C baseline, which verifies every
  // spatially close candidate. The measured gap is ~10-30x; the budget
  // demands only 2x.
  const ObjectDatabase db = GenerateDataset(
      PresetSpec(DatasetKind::kTwitterLike, 150, 1));
  const STPSQuery query = DefaultQuery(DatasetKind::kTwitterLike);

  JoinStats baseline_stats;
  const auto baseline = SPPJC(db, query, &baseline_stats);

  JoinStats filtered_stats;
  const auto filtered = SPPJF(db, query, &filtered_stats);

  ASSERT_EQ(baseline.size(), filtered.size());
  EXPECT_GT(filtered_stats.pairs_pruned_count, 0u);
  EXPECT_LT(filtered_stats.pairs_verified * 2, baseline_stats.pairs_verified)
      << "S-PPJ-F (" << filtered_stats.pairs_verified
      << " verifications) no longer clearly beats S-PPJ-C ("
      << baseline_stats.pairs_verified << " verifications)";
}

TEST(PerfSmokeTest, SigmaBarFilterActuallyPrunes) {
  // The A1 ablation as a regression guard: disabling the sigma_bar bound
  // must cost at least 1.5x more exact verifications on a
  // pruning-friendly workload.
  const ObjectDatabase db = GenerateDataset(
      PresetSpec(DatasetKind::kTwitterLike, 150, 2));
  const STPSQuery query = DefaultQuery(DatasetKind::kTwitterLike);

  JoinStats with_stats;
  SPPJFAblation(db, query, /*use_sigma_bound=*/true,
                /*use_refine_bound=*/true, &with_stats);

  JoinStats without_stats;
  SPPJFAblation(db, query, /*use_sigma_bound=*/false,
                /*use_refine_bound=*/true, &without_stats);

  EXPECT_GT(with_stats.pairs_pruned_count, 0u);
  EXPECT_EQ(without_stats.pairs_pruned_count, 0u)
      << "ablation left the sigma_bar bound enabled";
  EXPECT_LE(with_stats.pairs_verified * 3, without_stats.pairs_verified * 2)
      << "sigma_bar bound stopped pruning: " << with_stats.pairs_verified
      << " verifications with vs " << without_stats.pairs_verified
      << " without";
}

TEST(PerfSmokeTest, SketchCandidatesUndercutVerifyEverythingBaseline) {
  // The sketch layer's reason to exist: on a sparse many-users workload
  // its band-index candidate set — every one of which is exactly
  // verified — must stay well below the S-PPJ-C baseline's verification
  // count while producing the same matches. (On dense city-extent
  // corpora nearly every pair is a true candidate; there the sketch has
  // nothing to skip, which is why this budget uses the sparse preset.)
  const ObjectDatabase db = GenerateDataset(
      PresetSpec(DatasetKind::kCheckinSparse, 400, 3));
  STPSQuery query = DefaultQuery(DatasetKind::kCheckinSparse);

  JoinStats baseline_stats;
  const auto baseline = SPPJC(db, query, &baseline_stats);

  query.sketch.enabled = true;
  JoinStats sketch_stats;
  const auto sketched = RunSTPSJoin(db, query, {}, &sketch_stats);

  ASSERT_EQ(baseline.size(), sketched.size());
  EXPECT_EQ(sketch_stats.sketch_candidate_pairs, sketch_stats.pairs_verified);
  EXPECT_LT(sketch_stats.pairs_verified * 2, baseline_stats.pairs_verified)
      << "sketch candidates (" << sketch_stats.pairs_verified
      << ") no longer undercut S-PPJ-C (" << baseline_stats.pairs_verified
      << ")";
}

// Golden work counters: the exact JoinStats of every partition-based
// driver on one fixed seeded preset. The relative budgets above would
// not notice a refactor that quietly changes how much work a driver does
// (a filter that surfaces more candidates, a walk that joins a cell pair
// twice, a bound that stops later); these values pin the work pair for
// pair. They are the same on any machine and at any load. A change that
// is meant to alter a driver's work re-records them: the failure message
// prints the new initializer.
std::string Initializer(const JoinStats& s) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu}",
      static_cast<unsigned long long>(s.cells_visited),
      static_cast<unsigned long long>(s.pairs_pruned_spatial),
      static_cast<unsigned long long>(s.pairs_pruned_textual),
      static_cast<unsigned long long>(s.pairs_candidate),
      static_cast<unsigned long long>(s.pairs_pruned_count),
      static_cast<unsigned long long>(s.pairs_verified),
      static_cast<unsigned long long>(s.refine_early_stops),
      static_cast<unsigned long long>(s.signature_rejections),
      static_cast<unsigned long long>(s.batch_distance_calls),
      static_cast<unsigned long long>(s.batch_lanes_filled),
      static_cast<unsigned long long>(s.matches_found));
  return buf;
}

void ExpectGolden(const char* driver, const JoinStats& actual,
                  const JoinStats& expected) {
  EXPECT_EQ(actual, expected) << driver << " did different work: got "
                              << Initializer(actual) << ", golden "
                              << Initializer(expected);
}

TEST(PerfSmokeTest, GoldenWorkCountersOfThePartitionDrivers) {
  const ObjectDatabase db = GenerateDataset(
      PresetSpec(DatasetKind::kGeoTextLike, 200, 5));
  const STPSQuery query = DefaultQuery(DatasetKind::kGeoTextLike);
  // k = 3 is small enough that the Lemma 2 prefilter of -P fires here.
  const TopKQuery topk{query.eps_loc, query.eps_doc, 3};
  JoinStats stats;

  stats = {};
  SPPJC(db, query, &stats);
  ExpectGolden("S-PPJ-C", stats,
               {632282, 0, 0, 19900, 0, 19900, 0, 2443, 6594, 6947, 7});

  stats = {};
  SPPJB(db, query, &stats);
  ExpectGolden("S-PPJ-B", stats,
               {456300, 0, 0, 19900, 0, 19900, 19891, 1576, 4279, 4481, 7});

  stats = {};
  SPPJF(db, query, &stats);
  ExpectGolden("S-PPJ-F", stats,
               {28776, 15860, 2988, 1052, 1045, 7, 0, 0, 99, 99, 7});

  stats = {};
  SPPJFAblation(db, query, /*use_sigma_bound=*/false,
                /*use_refine_bound=*/false, &stats);
  ExpectGolden("S-PPJ-F without bounds", stats,
               {75139, 15860, 2988, 1052, 0, 1052, 0, 635, 2422, 2614, 7});

  const struct {
    const char* name;
    PartitioningScheme scheme;
    int fanout;
    JoinStats expected;
  } leaf_runs[] = {
      {"S-PPJ-D R-tree 16", PartitioningScheme::kRTree, 16,
       {4770, 11192, 6616, 2092, 1927, 165, 158, 9, 1973, 8384, 7}},
      {"S-PPJ-D R-tree 128", PartitioningScheme::kRTree, 128,
       {14085, 5642, 9881, 4377, 2180, 2197, 2190, 236, 33278, 219010, 7}},
      {"S-PPJ-D quadtree 16", PartitioningScheme::kQuadTree, 16,
       {4482, 13603, 4493, 1804, 1762, 42, 35, 3, 335, 1474, 7}},
      {"S-PPJ-D quadtree 128", PartitioningScheme::kQuadTree, 128,
       {4734, 11132, 6268, 2500, 1882, 618, 611, 53, 7634, 59432, 7}},
  };
  for (const auto& run : leaf_runs) {
    SPPJDOptions options;
    options.fanout = run.fanout;
    options.partitioning = run.scheme;
    stats = {};
    SPPJD(db, query, options, &stats);
    ExpectGolden(run.name, stats, run.expected);
  }

  stats = {};
  TopKSPPJD(db, topk, /*fanout=*/128, &stats);
  ExpectGolden("TOPK-S-PPJ-D", stats,
               {4488, 0, 0, 4377, 3694, 683, 617, 25, 7585, 44403, 7});

  const struct {
    const char* name;
    TopKVariant variant;
    JoinStats expected;
  } topk_runs[] = {
      {"TOPK-S-PPJ-F", TopKVariant::kF,
       {28791, 0, 0, 1052, 1037, 15, 2, 0, 74, 74, 7}},
      {"TOPK-S-PPJ-S", TopKVariant::kS,
       {32195, 0, 0, 1052, 987, 65, 28, 144, 399, 505, 37}},
      {"TOPK-S-PPJ-P", TopKVariant::kP,
       {9165, 0, 0, 94, 79, 15, 2, 0, 74, 74, 7}},
  };
  for (const auto& run : topk_runs) {
    stats = {};
    TopKSTPSJoin(db, topk, run.variant, &stats);
    ExpectGolden(run.name, stats, run.expected);
  }
}

}  // namespace
}  // namespace stps
