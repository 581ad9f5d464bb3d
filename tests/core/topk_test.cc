#include "core/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/stpsjoin.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;
using testing_util::SameResults;

struct TopKParam {
  double eps_loc;
  double eps_doc;
  size_t k;
  uint64_t seed;
};

class TopKAlgorithmsTest : public ::testing::TestWithParam<TopKParam> {
 protected:
  ObjectDatabase MakeDb() const {
    RandomDbSpec spec;
    spec.seed = GetParam().seed;
    return BuildRandomDatabase(spec);
  }
  TopKQuery MakeQuery() const {
    const TopKParam p = GetParam();
    return {p.eps_loc, p.eps_doc, p.k};
  }
};

TEST_P(TopKAlgorithmsTest, VariantFMatchesBruteForce) {
  const ObjectDatabase db = MakeDb();
  const TopKQuery query = MakeQuery();
  EXPECT_TRUE(SameResults(TopKSTPSJoin(db, query, TopKVariant::kF),
                          BruteForceTopK(db, query)));
}

TEST_P(TopKAlgorithmsTest, VariantSMatchesBruteForce) {
  const ObjectDatabase db = MakeDb();
  const TopKQuery query = MakeQuery();
  EXPECT_TRUE(SameResults(TopKSTPSJoin(db, query, TopKVariant::kS),
                          BruteForceTopK(db, query)));
}

TEST_P(TopKAlgorithmsTest, VariantPMatchesBruteForce) {
  const ObjectDatabase db = MakeDb();
  const TopKQuery query = MakeQuery();
  EXPECT_TRUE(SameResults(TopKSTPSJoin(db, query, TopKVariant::kP),
                          BruteForceTopK(db, query)));
}


TEST_P(TopKAlgorithmsTest, VariantDMatchesBruteForce) {
  const ObjectDatabase db = MakeDb();
  const TopKQuery query = MakeQuery();
  const auto expected = BruteForceTopK(db, query);
  for (const int fanout : {8, 32, 128}) {
    EXPECT_TRUE(SameResults(TopKSPPJD(db, query, fanout), expected))
        << "fanout=" << fanout;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopKAlgorithmsTest,
    ::testing::Values(TopKParam{0.1, 0.3, 1, 1}, TopKParam{0.1, 0.3, 5, 2},
                      TopKParam{0.1, 0.3, 10, 3},
                      TopKParam{0.05, 0.5, 25, 4},
                      TopKParam{0.2, 0.25, 50, 5},
                      TopKParam{0.05, 0.4, 200, 6},  // k > #positive pairs
                      TopKParam{0.15, 0.6, 8, 7}));

TEST(TopKTest, ResultsAreSortedBestFirst) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const TopKQuery query{0.1, 0.3, 20};
  for (const auto variant :
       {TopKVariant::kF, TopKVariant::kS, TopKVariant::kP}) {
    const auto result = TopKSTPSJoin(db, query, variant);
    for (size_t i = 1; i < result.size(); ++i) {
      EXPECT_TRUE(TopKBetter(result[i - 1], result[i]));
    }
  }
}

TEST(TopKTest, KOneFindsTheGlobalBestPair) {
  RandomDbSpec spec;
  spec.seed = 99;
  const ObjectDatabase db = BuildRandomDatabase(spec);
  const TopKQuery query{0.1, 0.3, 1};
  const auto expected = BruteForceTopK(db, query);
  ASSERT_EQ(expected.size(), 1u);
  EXPECT_TRUE(SameResults(TopKSTPSJoin(db, query, TopKVariant::kF), expected));
  EXPECT_TRUE(SameResults(TopKSTPSJoin(db, query, TopKVariant::kP), expected));
}

TEST(TopKTest, UmbrellaDispatch) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const TopKQuery query{0.1, 0.3, 7};
  const auto expected = BruteForceTopK(db, query);
  for (const auto algorithm :
       {TopKAlgorithm::kBruteForce, TopKAlgorithm::kF, TopKAlgorithm::kS,
        TopKAlgorithm::kP}) {
    EXPECT_TRUE(SameResults(RunTopKSTPSJoin(db, query, algorithm), expected))
        << TopKAlgorithmName(algorithm);
  }
}

// Regression for the tie-at-the-cut bug: with more than k pairs sharing
// the k-th score, every variant (sequential and parallel at any thread
// count) must resolve the tie identically — by the TopKBetter total order
// (score descending, then ascending ids) — instead of depending on which
// candidate reached the queue first, or on a float sigma-bar prune that
// killed score-exactly-equals-threshold candidates one ULP at a time.
TEST(TopKTest, TiedScoresStraddlingTheCutAreDeterministic) {
  DatabaseBuilder builder;
  const std::vector<std::string> shared_a = {"alpha", "beta"};
  const std::vector<std::string> shared_b = {"gamma", "delta"};
  // Group A: 4 single-object users at the same location with identical
  // docs. Every within-group pair scores sigma = 1 (6 pairs).
  for (int i = 0; i < 4; ++i) {
    builder.AddObject("a" + std::to_string(i), Point{0.0, 0.0},
                      std::span<const std::string>(shared_a));
  }
  // Group B: 6 two-object users. The first object matches across the
  // group (duplicate location, identical doc); the second never matches
  // anything (far away, unique token). Every within-group pair scores
  // sigma = 2/4 = 1/2 (15 pairs) — a 15-way tie.
  for (int i = 0; i < 6; ++i) {
    const std::string user = "b" + std::to_string(i);
    builder.AddObject(user, Point{10.0, 10.0},
                      std::span<const std::string>(shared_b));
    const std::vector<std::string> unique = {"only" + std::to_string(i)};
    builder.AddObject(user,
                      Point{20.0 + 5.0 * static_cast<double>(i), -30.0},
                      std::span<const std::string>(unique));
  }
  const ObjectDatabase db = std::move(builder).Build();
  // k = 10 cuts through the tied band: 6 pairs at 1.0 plus the first 4 of
  // the 15 pairs at 0.5.
  const TopKQuery query{0.1, 0.5, 10};
  const auto expected = BruteForceTopK(db, query);
  ASSERT_EQ(expected.size(), 10u);
  EXPECT_DOUBLE_EQ(expected[5].score, 1.0);
  EXPECT_DOUBLE_EQ(expected[6].score, 0.5);
  EXPECT_DOUBLE_EQ(expected[9].score, 0.5);
  for (const auto variant :
       {TopKVariant::kF, TopKVariant::kS, TopKVariant::kP}) {
    EXPECT_TRUE(SameResults(TopKSTPSJoin(db, query, variant), expected));
    for (const int threads : {1, 2, 4, 8}) {
      const ParallelOptions parallel{threads, 0};
      EXPECT_TRUE(SameResults(
          TopKSTPSJoin(db, query, variant, nullptr, parallel), expected))
          << "threads=" << threads;
    }
  }
  for (const int fanout : {8, 128}) {
    EXPECT_TRUE(SameResults(TopKSPPJD(db, query, fanout), expected))
        << "fanout=" << fanout;
  }
  // k = 8 also lands inside the tie; k = 25 clears it (6 + 15 = 21 pairs
  // with sigma > 0 in total).
  for (const size_t k : {8u, 25u}) {
    const TopKQuery q{0.1, 0.5, k};
    const auto want = BruteForceTopK(db, q);
    EXPECT_EQ(want.size(), std::min<size_t>(k, 21));
    for (const auto variant :
         {TopKVariant::kF, TopKVariant::kS, TopKVariant::kP}) {
      EXPECT_TRUE(SameResults(TopKSTPSJoin(db, q, variant), want));
      const ParallelOptions parallel{4, 0};
      EXPECT_TRUE(SameResults(TopKSTPSJoin(db, q, variant, nullptr, parallel),
                              want));
    }
  }
}

// Regression for ties at the k-th score on generated data: the rounded
// tail score fl(m / T) can sit above the exact ratio m / T (1/10 does), so
// a prune against the tail's double dropped pairs whose exact score equals
// the tail's before Offer could break the tie on the ids. GeoTextLike at
// 200 users over a seed and threshold grid; every variant, sequential and
// at 2 threads, must equal brute force bit for bit.
TEST(TopKTest, TiesWithTheKthScoreSurviveOnGeneratedData) {
  const double eps_locs[] = {0.0005, 0.001, 0.002};
  const double eps_docs[] = {0.3, 0.5};
  const size_t ks[] = {10, 100};
  const TopKVariant variants[] = {TopKVariant::kF, TopKVariant::kS,
                                  TopKVariant::kP};
  size_t cases = 0;
  std::vector<std::string> mismatches;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const ObjectDatabase db =
        GenerateDataset(PresetSpec(DatasetKind::kGeoTextLike, 200, seed));
    for (const double eps_loc : eps_locs) {
      for (const double eps_doc : eps_docs) {
        // The top-k is a prefix of the TopKBetter order, so one brute-force
        // run at the largest k answers every k.
        const auto best = BruteForceTopK(db, {eps_loc, eps_doc, ks[1]});
        for (const size_t k : ks) {
          const TopKQuery query{eps_loc, eps_doc, k};
          const std::vector<ScoredUserPair> expected(
              best.begin(), best.begin() + std::min(k, best.size()));
          for (const TopKVariant variant : variants) {
            const std::string where =
                "seed=" + std::to_string(seed) +
                " eps_loc=" + std::to_string(eps_loc) +
                " eps_doc=" + std::to_string(eps_doc) +
                " k=" + std::to_string(k) +
                " variant=" + std::to_string(static_cast<int>(variant));
            ++cases;
            if (!SameResults(TopKSTPSJoin(db, query, variant), expected,
                             /*tolerance=*/0.0)) {
              mismatches.push_back(where + " sequential");
            }
            if (!SameResults(TopKSTPSJoin(db, query, variant, nullptr,
                                          ParallelOptions{2, 0}),
                             expected, /*tolerance=*/0.0)) {
              mismatches.push_back(where + " threads=2");
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 40u * 3 * 2 * 2 * 3);
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " mismatches, first: " << mismatches.front();
}

TEST(TopKTest, ScoresNeverExceedThoseOfSmallerK) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const auto top5 = TopKSTPSJoin(db, {0.1, 0.3, 5}, TopKVariant::kP);
  const auto top10 = TopKSTPSJoin(db, {0.1, 0.3, 10}, TopKVariant::kP);
  ASSERT_LE(top5.size(), top10.size());
  for (size_t i = 0; i < top5.size(); ++i) {
    EXPECT_EQ(top5[i].a, top10[i].a);
    EXPECT_EQ(top5[i].b, top10[i].b);
  }
}

}  // namespace
}  // namespace stps
