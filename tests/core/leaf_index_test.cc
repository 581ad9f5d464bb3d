#include <algorithm>
#include <map>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/ppjb.h"
#include "core/sppj_d.h"
#include "core/sppj_f.h"
#include "core/topk.h"
#include "core/user_grid.h"
#include "test_util.h"
#include "text/token_set.h"

namespace stps {
namespace {

using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;

// Ascending |Du|, ties by id: the processing order of TopKSPPJD (and of
// TOPK-S-PPJ-F / -P).
std::vector<UserId> AscendingSizeOrder(const ObjectDatabase& db) {
  std::vector<UserId> order(db.num_users());
  std::iota(order.begin(), order.end(), UserId{0});
  std::stable_sort(order.begin(), order.end(), [&db](UserId a, UserId b) {
    return db.UserObjectCount(a) < db.UserObjectCount(b);
  });
  return order;
}

class LeafIndexTest : public ::testing::TestWithParam<int> {};

TEST_P(LeafIndexTest, UserLeavesPartitionTheUserObjects) {
  const int fanout = GetParam();
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const LeafPartitionIndex index(db, 0.05, fanout);
  EXPECT_GT(index.num_leaves(), 0u);
  for (UserId u = 0; u < db.num_users(); ++u) {
    size_t total = 0;
    int64_t prev = -1;
    for (const UserPartition& leaf : index.UserLeaves(u)) {
      EXPECT_GT(leaf.id, prev);
      prev = leaf.id;
      EXPECT_LT(static_cast<size_t>(leaf.id), index.num_leaves());
      EXPECT_FALSE(leaf.objects.empty());
      for (const ObjectRef& ref : leaf.objects) {
        EXPECT_EQ(ref.object->user, u);
        EXPECT_EQ(db.LocalIndex(*ref.object), ref.local);
      }
      total += leaf.objects.size();
    }
    EXPECT_EQ(total, db.UserObjectCount(u));
  }
}

TEST_P(LeafIndexTest, TokenUsersAreSortedAndComplete) {
  // The shared spatio-textual index built over leaf partitions, in id
  // order (S-PPJ-D) and in ascending-size order (TopKSPPJD): every list
  // ascends by rank and holds each user with that token in that leaf.
  const int fanout = GetParam();
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const LeafPartitionIndex leaves(db, 0.05, fanout);
  std::vector<UserId> identity(db.num_users());
  std::iota(identity.begin(), identity.end(), UserId{0});
  const std::vector<UserId> by_size = AscendingSizeOrder(db);
  ASSERT_NE(by_size, identity);
  for (const std::vector<UserId>& order : {identity, by_size}) {
    const SpatioTextualGridIndex index(leaves.layouts(), order);
    const auto expect_ascending = [&index](std::span<const UserId> users) {
      for (size_t i = 1; i < users.size(); ++i) {
        EXPECT_LT(index.Rank(users[i - 1]), index.Rank(users[i]));
      }
    };
    for (UserId u = 0; u < db.num_users(); ++u) {
      for (const UserPartition& leaf : leaves.UserLeaves(u)) {
        const std::span<const UserId> leaf_users = index.CellUsers(leaf.id);
        expect_ascending(leaf_users);
        EXPECT_NE(std::find(leaf_users.begin(), leaf_users.end(), u),
                  leaf_users.end());
        for (const TokenId t :
             DistinctTokens(std::span<const ObjectRef>(leaf.objects))) {
          const std::span<const UserId> users = index.TokenUsers(leaf.id, t);
          ASSERT_FALSE(users.empty());
          expect_ascending(users);
          EXPECT_NE(std::find(users.begin(), users.end(), u), users.end());
        }
      }
    }
  }
}

TEST_P(LeafIndexTest, AdjacencyCoversEveryCloseObjectPair) {
  const int fanout = GetParam();
  const double eps_loc = 0.06;
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const LeafPartitionIndex index(db, eps_loc, fanout);
  // Locate each object's leaf.
  std::vector<uint32_t> leaf_of(db.num_objects(), 0);
  for (UserId u = 0; u < db.num_users(); ++u) {
    for (const UserPartition& leaf : index.UserLeaves(u)) {
      for (const ObjectRef& ref : leaf.objects) {
        leaf_of[ref.object->id] = static_cast<uint32_t>(leaf.id);
      }
    }
  }
  // Every spatially-close object pair must live in adjacent leaves, and
  // both objects must lie inside the intersection of the extended MBRs
  // (the region PPJ-D restricts its joins to).
  for (ObjectId a = 0; a < db.num_objects(); ++a) {
    for (ObjectId b = a + 1; b < db.num_objects(); ++b) {
      const STObject& oa = db.object(a);
      const STObject& ob = db.object(b);
      if (!WithinDistance(oa.loc, ob.loc, eps_loc)) continue;
      const uint32_t la = leaf_of[a], lb = leaf_of[b];
      const auto& relevant = index.RelevantLeaves(la);
      ASSERT_TRUE(std::binary_search(relevant.begin(), relevant.end(), lb))
          << "close objects in non-adjacent leaves";
      const Rect box =
          index.ExtendedMbr(la).Intersection(index.ExtendedMbr(lb));
      EXPECT_TRUE(box.Contains(oa.loc));
      EXPECT_TRUE(box.Contains(ob.loc));
    }
  }
}

TEST_P(LeafIndexTest, LeafWalkEqualsExactSigma) {
  // PPJ-D: the merged partition walk over the leaf neighbourhood.
  const int fanout = GetParam();
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const MatchThresholds t{0.06, 0.3};
  const LeafPartitionIndex index(db, t.eps_loc, fanout);
  for (UserId a = 0; a < 15 && a < db.num_users(); ++a) {
    for (UserId b = a + 1; b < 15 && b < db.num_users(); ++b) {
      const double expected =
          ExactSigma(db.UserObjects(a), db.UserObjects(b), t);
      const size_t matched =
          ExactSigmaMatched(db.UserObjects(a), db.UserObjects(b), t);
      const size_t total = db.UserObjectCount(a) + db.UserObjectCount(b);
      const double unbounded =
          PPJCPair(index.UserLeaves(a), db.UserObjectCount(a),
                   index.UserLeaves(b), db.UserObjectCount(b),
                   index.neighborhood(), t, /*eps_u=*/0.0);
      ASSERT_DOUBLE_EQ(unbounded, expected);
      // Bounded: exact when the pair truly meets eps_u, pruned to 0
      // otherwise. The decision is the exact counting predicate — a
      // rounded-quotient oracle (expected >= eps_u) would be wrong when
      // matched/total rounds up across the threshold (e.g. sigma = 1/5
      // rounds to a double above 0.2, yet 1/5 < the double 0.2).
      for (const double eps_u : {0.2, 0.5}) {
        const double bounded =
            PPJCPair(index.UserLeaves(a), db.UserObjectCount(a),
                     index.UserLeaves(b), db.UserObjectCount(b),
                     index.neighborhood(), t, eps_u);
        if (SigmaAtLeast(matched, total, eps_u)) {
          ASSERT_DOUBLE_EQ(bounded, expected);
        } else {
          ASSERT_EQ(bounded, 0.0);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, LeafIndexTest,
                         ::testing::Values(4, 16, 64, 200));

// The partition inputs every SpatioTextualGridIndexTest case runs on:
// the cells of an eps_loc grid and the leaves of an R-tree.
class PartitionInputs {
 public:
  explicit PartitionInputs(const ObjectDatabase& db)
      : grid_(db, 0.05), leaves_(db, 0.05, /*fanout=*/16) {}

  std::vector<std::pair<const char*, std::span<const UserLayout>>> All()
      const {
    return {{"grid cells", grid_.layouts()},
            {"R-tree leaves", leaves_.layouts()}};
  }

 private:
  UserGrid grid_;
  LeafPartitionIndex leaves_;
};

TEST(SpatioTextualGridIndexTest, TokenProbesFindIndexedUsers) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const PartitionInputs inputs(db);
  for (const auto& [name, layouts] : inputs.All()) {
    SCOPED_TRACE(name);
    // Index the first half of the users.
    const UserId half = static_cast<UserId>(db.num_users() / 2);
    std::vector<UserId> order(half);
    std::iota(order.begin(), order.end(), UserId{0});
    const SpatioTextualGridIndex index(layouts, order);
    // Every indexed (partition, token, user) is findable; none of the
    // unindexed users appear anywhere.
    for (UserId u = 0; u < db.num_users(); ++u) {
      EXPECT_EQ(index.Rank(u),
                u < half ? u : SpatioTextualGridIndex::kUnranked);
      for (const UserPartition& cell : layouts[u]) {
        EXPECT_TRUE(index.CellOccupied(cell.id) || u >= half);
        const std::span<const UserId> cell_users = index.CellUsers(cell.id);
        EXPECT_EQ(std::find(cell_users.begin(), cell_users.end(), u) !=
                      cell_users.end(),
                  u < half);
        const TokenVector tokens =
            DistinctTokens(std::span<const ObjectRef>(cell.objects));
        for (const TokenId t : tokens) {
          const std::span<const UserId> users = index.TokenUsers(cell.id, t);
          if (u < half) {
            ASSERT_FALSE(users.empty());
            EXPECT_NE(std::find(users.begin(), users.end(), u), users.end());
          } else {
            EXPECT_EQ(std::find(users.begin(), users.end(), u), users.end());
          }
        }
      }
    }
    // A missing partition, or a missing token in an occupied one, is
    // empty.
    EXPECT_TRUE(index.TokenUsers(/*id=*/-1234567, /*t=*/0).empty());
    EXPECT_TRUE(index.CellUsers(/*id=*/-1234567).empty());
    EXPECT_FALSE(index.CellOccupied(/*id=*/-1234567));
    const int64_t occupied = layouts[0].cells.front().id;
    EXPECT_TRUE(index.CellOccupied(occupied));
    EXPECT_TRUE(index.TokenUsers(occupied, /*t=*/1u << 30).empty());
  }
}

TEST(SpatioTextualGridIndexTest, ListsAscendInANonIdentityOrder) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const PartitionInputs inputs(db);
  // A non-identity processing order: odd ids descending, then even ids
  // ascending.
  std::vector<UserId> order;
  for (UserId u = static_cast<UserId>(db.num_users()); u-- > 0;) {
    if (u % 2 == 1) order.push_back(u);
  }
  for (UserId u = 0; u < db.num_users(); u += 2) order.push_back(u);
  for (const auto& [name, layouts] : inputs.All()) {
    SCOPED_TRACE(name);
    const SpatioTextualGridIndex index(layouts, order);
    for (uint32_t r = 0; r < order.size(); ++r) {
      EXPECT_EQ(index.Rank(order[r]), r);
    }
    const auto expect_ascending = [&index](std::span<const UserId> users) {
      for (size_t i = 1; i < users.size(); ++i) {
        EXPECT_LT(index.Rank(users[i - 1]), index.Rank(users[i]));
      }
    };
    for (UserId u = 0; u < db.num_users(); ++u) {
      for (const UserPartition& cell : layouts[u]) {
        expect_ascending(index.CellUsers(cell.id));
        for (const TokenId t :
             DistinctTokens(std::span<const ObjectRef>(cell.objects))) {
          const std::span<const UserId> users = index.TokenUsers(cell.id, t);
          expect_ascending(users);
          EXPECT_NE(std::find(users.begin(), users.end(), u), users.end());
        }
      }
    }
  }
}

TEST(SpatioTextualGridIndexTest, CellUsersHoldOneEntryPerUserCell) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const PartitionInputs inputs(db);
  for (const auto& [name, layouts] : inputs.All()) {
    SCOPED_TRACE(name);
    const SpatioTextualGridIndex index(layouts);
    // Expected: partition -> the users occupying it, ascending by id
    // (== rank).
    std::map<int64_t, std::vector<UserId>> expected;
    for (UserId u = 0; u < db.num_users(); ++u) {
      for (const UserPartition& cell : layouts[u]) {
        expected[cell.id].push_back(u);
      }
    }
    ASSERT_FALSE(expected.empty());
    for (const auto& [cell, users] : expected) {
      const std::span<const UserId> got = index.CellUsers(cell);
      EXPECT_EQ(std::vector<UserId>(got.begin(), got.end()), users)
          << "partition " << cell;
    }
  }
}

TEST(SpatioTextualGridIndexTest, EmptyInputsBuildAnEmptyIndex) {
  // The grid needs at least one object, so an empty database has no grid:
  // every driver returns before building one.
  const ObjectDatabase empty = DatabaseBuilder().Build();
  EXPECT_TRUE(SPPJF(empty, STPSQuery{0.05, 0.3, 0.3}).empty());
  EXPECT_TRUE(SPPJD(empty, STPSQuery{0.05, 0.3, 0.3}).empty());
  EXPECT_TRUE(
      TopKSTPSJoin(empty, TopKQuery{0.05, 0.3, 5}, TopKVariant::kF).empty());
  EXPECT_TRUE(TopKSPPJD(empty, TopKQuery{0.05, 0.3, 5}).empty());
  // Over real partitions, an empty processing order indexes nothing.
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const PartitionInputs inputs(db);
  for (const auto& [name, layouts] : inputs.All()) {
    SCOPED_TRACE(name);
    const SpatioTextualGridIndex index(layouts, std::span<const UserId>());
    EXPECT_EQ(index.num_users(), db.num_users());
    for (UserId u = 0; u < db.num_users(); ++u) {
      EXPECT_EQ(index.Rank(u), SpatioTextualGridIndex::kUnranked);
      for (const UserPartition& cell : layouts[u]) {
        EXPECT_FALSE(index.CellOccupied(cell.id));
        for (const ObjectRef& ref : cell.objects) {
          for (const TokenId t : ref.object->doc) {
            EXPECT_TRUE(index.TokenUsers(cell.id, t).empty());
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace stps
