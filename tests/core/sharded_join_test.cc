// Sharded execution on the join executor: shard planning invariants, and
// bit-identical results + stats against the unsharded pool at every shard
// count (the contract behind `--shards N`).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/join_executor.h"
#include "core/sppj_f.h"
#include "core/stpsjoin.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::BuildFigure1Database;
using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;

STPSQuery DefaultQuery() {
  STPSQuery query;
  query.eps_loc = 0.1;
  query.eps_doc = 0.3;
  query.eps_u = 0.2;
  return query;
}

TEST(PlanUserShardsTest, RangesPartitionAllUsers) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  for (const int shards : {1, 2, 3, 8, 64, 1000}) {
    const std::vector<ShardRange> ranges = PlanUserShards(db, shards);
    ASSERT_FALSE(ranges.empty());
    EXPECT_LE(ranges.size(), static_cast<size_t>(shards));
    EXPECT_EQ(ranges.front().begin, 0u);
    EXPECT_EQ(ranges.back().end, db.num_users());
    for (size_t i = 0; i < ranges.size(); ++i) {
      EXPECT_LT(ranges[i].begin, ranges[i].end) << "empty shard " << i;
      if (i > 0) EXPECT_EQ(ranges[i].begin, ranges[i - 1].end);
    }
  }
}

TEST(PlanUserShardsTest, MoreShardsThanUsersDegradesGracefully) {
  const ObjectDatabase db = BuildFigure1Database();  // 3 users
  const std::vector<ShardRange> ranges = PlanUserShards(db, 8);
  EXPECT_EQ(ranges.size(), db.num_users());  // one user per shard, no empties
  EXPECT_EQ(ranges.front().begin, 0u);
  EXPECT_EQ(ranges.back().end, db.num_users());
}

TEST(PlanUserShardsTest, EmptyDatabaseYieldsNoShards)  {
  DatabaseBuilder builder;
  const ObjectDatabase db = std::move(builder).Build();
  EXPECT_TRUE(PlanUserShards(db, 4).empty());
}

TEST(ShardedJoinTest, BitIdenticalToUnshardedAtEveryShardCount) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const STPSQuery query = DefaultQuery();
  JoinStats reference_stats;
  const std::vector<ScoredUserPair> reference =
      SPPJF(db, query, &reference_stats, ParallelOptions{2, 0});
  for (const int shards : {1, 2, 8}) {
    JoinStats stats;
    const std::vector<ScoredUserPair> sharded =
        SPPJF(db, query, &stats, JoinPartition::Sharded(shards));
    ASSERT_EQ(sharded.size(), reference.size()) << "shards=" << shards;
    for (size_t i = 0; i < sharded.size(); ++i) {
      EXPECT_EQ(sharded[i].a, reference[i].a) << "shards=" << shards;
      EXPECT_EQ(sharded[i].b, reference[i].b) << "shards=" << shards;
      EXPECT_EQ(sharded[i].score, reference[i].score) << "shards=" << shards;
    }
    EXPECT_TRUE(stats == reference_stats)
        << "shards=" << shards << "\n"
        << FormatJoinStats(stats) << "\n"
        << FormatJoinStats(reference_stats);
  }
}

TEST(ShardedJoinTest, SkewedUserSizesStayIdentical) {
  // One giant user plus many small ones: the cut heuristic must not
  // change results, only balance.
  DatabaseBuilder builder;
  std::vector<std::string> kws;
  for (int i = 0; i < 200; ++i) {
    kws = {"kw" + std::to_string(i % 7)};
    builder.AddObject("whale", Point{0.01 * (i % 10), 0.01 * (i / 10)},
                      std::span<const std::string>(kws));
  }
  for (int u = 0; u < 20; ++u) {
    kws = {"kw" + std::to_string(u % 7)};
    builder.AddObject("minnow" + std::to_string(u),
                      Point{0.01 * (u % 10), 0.01 * (u / 10)},
                      std::span<const std::string>(kws));
  }
  const ObjectDatabase db = std::move(builder).Build();
  STPSQuery query = DefaultQuery();
  query.eps_u = 0.05;
  const std::vector<ScoredUserPair> reference =
      SPPJF(db, query, nullptr, ParallelOptions{2, 0});
  for (const int shards : {2, 8}) {
    const std::vector<ScoredUserPair> sharded =
        SPPJF(db, query, nullptr, JoinPartition::Sharded(shards));
    ASSERT_EQ(sharded.size(), reference.size());
    for (size_t i = 0; i < sharded.size(); ++i) {
      EXPECT_EQ(sharded[i].a, reference[i].a);
      EXPECT_EQ(sharded[i].b, reference[i].b);
      EXPECT_EQ(sharded[i].score, reference[i].score);
    }
  }
}

TEST(ShardedJoinTest, EmptyDatabaseReturnsNothing) {
  DatabaseBuilder builder;
  const ObjectDatabase db = std::move(builder).Build();
  JoinStats stats;
  EXPECT_TRUE(
      SPPJF(db, DefaultQuery(), &stats, JoinPartition::Sharded(4)).empty());
  EXPECT_EQ(stats.pairs_candidate, 0u);
}

TEST(ShardedJoinTest, RoutedThroughRunSTPSJoin) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const STPSQuery query = DefaultQuery();
  // Every non-brute algorithm shards and keeps its own results and stats.
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJF,
        JoinAlgorithm::kSPPJD}) {
    JoinOptions unsharded;
    unsharded.algorithm = algorithm;
    JoinStats reference_stats;
    const auto reference = RunSTPSJoin(db, query, unsharded, &reference_stats);
    for (const int shards : {1, 2, 8}) {
      JoinOptions options;
      options.algorithm = algorithm;
      options.shards = shards;
      JoinStats stats;
      const auto sharded = RunSTPSJoin(db, query, options, &stats);
      ASSERT_EQ(sharded.size(), reference.size());
      for (size_t i = 0; i < sharded.size(); ++i) {
        EXPECT_EQ(sharded[i].a, reference[i].a);
        EXPECT_EQ(sharded[i].b, reference[i].b);
        EXPECT_EQ(sharded[i].score, reference[i].score);
      }
      EXPECT_TRUE(stats == reference_stats)
          << JoinAlgorithmName(algorithm) << " shards=" << shards << "\n"
          << FormatJoinStats(stats) << "\n"
          << FormatJoinStats(reference_stats);
    }
  }
}

}  // namespace
}  // namespace stps
