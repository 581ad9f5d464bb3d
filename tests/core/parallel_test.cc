// Determinism suite for the join executor: every algorithm must produce
// bit-identical results (tolerance 0) on the pool at 1, 2, and 8 threads
// to its default one-worker run, with identical JoinStats counters, on
// seeded random datasets.

#include <gtest/gtest.h>

#include "core/sppj_b.h"
#include "core/sppj_c.h"
#include "core/sppj_d.h"
#include "core/sppj_f.h"
#include "core/stpsjoin.h"
#include "core/topk.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;
using testing_util::SameResults;

class ParallelJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelJoinTest, SPPJFMatchesSequentialBitIdentical) {
  const ParallelOptions parallel{GetParam(), 0};
  for (const uint64_t seed : {1u, 2u, 3u}) {
    RandomDbSpec spec;
    spec.seed = seed;
    const ObjectDatabase db = BuildRandomDatabase(spec);
    const STPSQuery query{0.1, 0.3, 0.25};
    JoinStats seq_stats, par_stats;
    const auto expected = SPPJF(db, query, &seq_stats);
    const auto actual = SPPJF(db, query, &par_stats, parallel);
    EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
        << "threads=" << parallel.num_threads << " seed=" << seed;
    EXPECT_EQ(par_stats, seq_stats)
        << "threads=" << parallel.num_threads << " seed=" << seed;
  }
}

TEST_P(ParallelJoinTest, SPPJBMatchesSequentialBitIdentical) {
  const ParallelOptions parallel{GetParam(), 0};
  for (const uint64_t seed : {1u, 2u}) {
    RandomDbSpec spec;
    spec.seed = seed;
    spec.num_users = 20;
    const ObjectDatabase db = BuildRandomDatabase(spec);
    const STPSQuery query{0.1, 0.3, 0.25};
    JoinStats seq_stats, par_stats;
    const auto expected = SPPJB(db, query, &seq_stats);
    const auto actual = SPPJB(db, query, &par_stats, parallel);
    EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
        << "threads=" << parallel.num_threads << " seed=" << seed;
    EXPECT_EQ(par_stats, seq_stats);
  }
}

TEST_P(ParallelJoinTest, SPPJCMatchesSequentialBitIdentical) {
  const ParallelOptions parallel{GetParam(), 0};
  for (const uint64_t seed : {1u, 2u}) {
    RandomDbSpec spec;
    spec.seed = seed;
    spec.num_users = 20;
    const ObjectDatabase db = BuildRandomDatabase(spec);
    const STPSQuery query{0.1, 0.3, 0.25};
    JoinStats seq_stats, par_stats;
    const auto expected = SPPJC(db, query, &seq_stats);
    const auto actual = SPPJC(db, query, &par_stats, parallel);
    EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
        << "threads=" << parallel.num_threads << " seed=" << seed;
    EXPECT_EQ(par_stats, seq_stats);
  }
}

TEST_P(ParallelJoinTest, SPPJDMatchesSequentialBitIdentical) {
  const ParallelOptions parallel{GetParam(), 0};
  for (const uint64_t seed : {1u, 2u}) {
    RandomDbSpec spec;
    spec.seed = seed;
    const ObjectDatabase db = BuildRandomDatabase(spec);
    const STPSQuery query{0.1, 0.3, 0.25};
    for (const PartitioningScheme scheme :
         {PartitioningScheme::kRTree, PartitioningScheme::kQuadTree}) {
      SPPJDOptions options;
      options.fanout = 16;
      options.partitioning = scheme;
      JoinStats seq_stats, par_stats;
      const auto expected = SPPJD(db, query, options, &seq_stats);
      const auto actual = SPPJD(db, query, options, &par_stats, parallel);
      EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
          << "threads=" << parallel.num_threads << " seed=" << seed;
      EXPECT_EQ(par_stats, seq_stats);
    }
  }
}

TEST_P(ParallelJoinTest, TopKMatchesSequentialBitIdentical) {
  const ParallelOptions parallel{GetParam(), 0};
  for (const uint64_t seed : {1u, 2u}) {
    RandomDbSpec spec;
    spec.seed = seed;
    const ObjectDatabase db = BuildRandomDatabase(spec);
    for (const size_t k : {size_t{1}, size_t{5}, size_t{40}}) {
      TopKQuery query;
      query.eps_loc = 0.1;
      query.eps_doc = 0.3;
      query.k = k;
      for (const TopKVariant variant :
           {TopKVariant::kF, TopKVariant::kS, TopKVariant::kP}) {
        const auto expected = TopKSTPSJoin(db, query, variant);
        const auto actual =
            TopKSTPSJoin(db, query, variant, nullptr, parallel);
        EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
            << "threads=" << parallel.num_threads << " seed=" << seed
            << " k=" << k << " variant=" << static_cast<int>(variant);
      }
    }
  }
}

TEST_P(ParallelJoinTest, DeterministicAcrossRuns) {
  const ParallelOptions parallel{GetParam(), 0};
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const STPSQuery query{0.08, 0.4, 0.2};
  const auto first = SPPJF(db, query, nullptr, parallel);
  const auto second = SPPJF(db, query, nullptr, parallel);
  EXPECT_TRUE(SameResults(first, second, /*tolerance=*/0.0));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelJoinTest,
                         ::testing::Values(1, 2, 8));

TEST(ParallelJoinTest, EmptyDatabase) {
  DatabaseBuilder builder;
  const ObjectDatabase db = std::move(builder).Build();
  EXPECT_TRUE(
      SPPJF(db, {0.1, 0.3, 0.3}, nullptr, ParallelOptions{4, 0}).empty());
}

TEST(ParallelJoinTest, MoreThreadsThanUsers) {
  RandomDbSpec spec;
  spec.num_users = 3;
  const ObjectDatabase db = BuildRandomDatabase(spec);
  const STPSQuery query{0.2, 0.2, 0.1};
  EXPECT_TRUE(SameResults(SPPJF(db, query, nullptr, ParallelOptions{16, 0}),
                          SPPJF(db, query)));
}

TEST(ParallelJoinTest, QueryParallelOptionsRouteThroughRunSTPSJoin) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  STPSQuery query{0.1, 0.3, 0.25};
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJF,
        JoinAlgorithm::kSPPJD}) {
    JoinOptions options;
    options.algorithm = algorithm;
    const auto expected = RunSTPSJoin(db, query, options);
    // The second input sets both thread knobs to 0, which must clamp to
    // one worker.
    for (const int threads : {8, 0}) {
      query.parallel = ParallelOptions{threads, threads > 0 ? 2u : 0u};
      if (threads == 0) options.threads = 0;
      const auto actual = RunSTPSJoin(db, query, options);
      query.parallel = ParallelOptions{};
      EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
          << JoinAlgorithmName(algorithm) << " threads=" << threads;
    }
  }
}

TEST(ParallelJoinTest, QueryParallelOptionsRouteThroughRunTopK) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  TopKQuery query;
  query.eps_loc = 0.1;
  query.eps_doc = 0.3;
  query.k = 10;
  for (const TopKAlgorithm algorithm :
       {TopKAlgorithm::kF, TopKAlgorithm::kS, TopKAlgorithm::kP}) {
    const auto expected = RunTopKSTPSJoin(db, query, algorithm);
    query.parallel = ParallelOptions{8, 1};
    const auto actual = RunTopKSTPSJoin(db, query, algorithm);
    query.parallel = ParallelOptions{};
    EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
        << TopKAlgorithmName(algorithm);
  }
}

// Regression for the candidate-cell dedup in the S-PPJ-F filter: the
// probing user's cells are processed in ascending order, but a
// candidate's supporting cells (their_cells) arrive interleaved across
// that outer loop, so a last-element check alone leaves duplicates and
// would inflate the sigma_bar count bound. Layout (eps_loc = 0.1, so
// cells are 0.1 wide): the candidate sits in cells (0,0) and (2,0); the
// prober's cell (1,0) pulls both in, then its cell (0,1) pulls (0,0) in
// again -> their_cells sequence (0,0), (2,0), (0,0).
TEST(ParallelJoinTest, InterleavedCandidateCellsAreDeduplicated) {
  DatabaseBuilder builder;
  const auto add = [&builder](const char* user, double x, double y,
                              std::vector<std::string> kws) {
    builder.AddObject(user, Point{x, y}, std::span<const std::string>(kws));
  };
  add("a", 0.05, 0.05, {"t1"});
  add("a", 0.25, 0.05, {"t1"});
  add("b", 0.15, 0.05, {"t1"});
  add("b", 0.05, 0.15, {"t1"});
  const ObjectDatabase db = std::move(builder).Build();
  const STPSQuery query{0.1, 0.5, 0.3};

  const auto expected = BruteForceSTPSJoin(db, query);
  JoinStats seq_stats;
  const auto sequential = SPPJF(db, query, &seq_stats);
  EXPECT_TRUE(SameResults(sequential, expected));
  EXPECT_EQ(seq_stats.pairs_candidate,
            seq_stats.pairs_pruned_count + seq_stats.pairs_verified);
  for (const int threads : {1, 2, 8}) {
    JoinStats par_stats;
    const auto parallel =
        SPPJF(db, query, &par_stats, ParallelOptions{threads, 1});
    EXPECT_TRUE(SameResults(parallel, sequential, /*tolerance=*/0.0));
    // Identical counters imply both sides saw the same deduplicated
    // supporting-cell sets (a missed dedup shifts pairs_pruned_count).
    EXPECT_EQ(par_stats, seq_stats) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace stps
