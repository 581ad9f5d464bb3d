#include "core/ppjb.h"

#include <gtest/gtest.h>

#include "core/similarity.h"
#include "core/user_grid.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;

struct KernelParam {
  double eps_loc;
  double eps_doc;
  uint64_t seed;
};

class PairKernelTest : public ::testing::TestWithParam<KernelParam> {};

TEST_P(PairKernelTest, PPJCPairEqualsExactSigma) {
  const KernelParam p = GetParam();
  RandomDbSpec spec;
  spec.seed = p.seed;
  const ObjectDatabase db = BuildRandomDatabase(spec);
  const UserGrid grid(db, p.eps_loc);
  const MatchThresholds t{p.eps_loc, p.eps_doc};
  for (UserId a = 0; a < db.num_users(); ++a) {
    for (UserId b = a + 1; b < db.num_users(); ++b) {
      const double expected =
          ExactSigma(db.UserObjects(a), db.UserObjects(b), t);
      const double actual =
          PPJCPair(grid.UserCells(a), db.UserObjectCount(a),
                   grid.UserCells(b), db.UserObjectCount(b),
                   GridNeighborhood{grid.geometry()}, t);
      ASSERT_DOUBLE_EQ(actual, expected) << "pair " << a << "," << b;
    }
  }
}

TEST_P(PairKernelTest, PPJBPairUnboundedEqualsExactSigma) {
  const KernelParam p = GetParam();
  RandomDbSpec spec;
  spec.seed = p.seed + 100;
  const ObjectDatabase db = BuildRandomDatabase(spec);
  const UserGrid grid(db, p.eps_loc);
  const MatchThresholds t{p.eps_loc, p.eps_doc};
  for (UserId a = 0; a < db.num_users(); ++a) {
    for (UserId b = a + 1; b < db.num_users(); ++b) {
      const double expected =
          ExactSigma(db.UserObjects(a), db.UserObjects(b), t);
      const double actual =
          PPJBPair(grid.UserCells(a), db.UserObjectCount(a),
                   grid.UserCells(b), db.UserObjectCount(b),
                   grid.geometry(), t, /*eps_u=*/0.0);
      ASSERT_DOUBLE_EQ(actual, expected) << "pair " << a << "," << b;
    }
  }
}

TEST_P(PairKernelTest, PPJBPairBoundedIsExactAboveThreshold) {
  const KernelParam p = GetParam();
  RandomDbSpec spec;
  spec.seed = p.seed + 200;
  const ObjectDatabase db = BuildRandomDatabase(spec);
  const UserGrid grid(db, p.eps_loc);
  const MatchThresholds t{p.eps_loc, p.eps_doc};
  for (const double eps_u : {0.1, 0.3, 0.5, 0.8}) {
    for (UserId a = 0; a < db.num_users(); ++a) {
      for (UserId b = a + 1; b < db.num_users(); ++b) {
        const double expected =
            ExactSigma(db.UserObjects(a), db.UserObjects(b), t);
        const double actual =
            PPJBPair(grid.UserCells(a), db.UserObjectCount(a),
                     grid.UserCells(b), db.UserObjectCount(b),
                     grid.geometry(), t, eps_u);
        if (expected >= eps_u) {
          // Early termination must never fire on a qualifying pair.
          ASSERT_DOUBLE_EQ(actual, expected)
              << "pair " << a << "," << b << " eps_u=" << eps_u;
        } else {
          // Below threshold anything < eps_u is acceptable (0 = pruned).
          ASSERT_LT(actual, eps_u)
              << "pair " << a << "," << b << " eps_u=" << eps_u;
        }
      }
    }
  }
}

TEST_P(PairKernelTest, PairSigmaEqualsExactSigma) {
  const KernelParam p = GetParam();
  RandomDbSpec spec;
  spec.seed = p.seed + 300;
  spec.num_users = 12;
  const ObjectDatabase db = BuildRandomDatabase(spec);
  const MatchThresholds t{p.eps_loc, p.eps_doc};
  for (UserId a = 0; a < db.num_users(); ++a) {
    for (UserId b = a + 1; b < db.num_users(); ++b) {
      ASSERT_DOUBLE_EQ(
          PairSigma(db.UserObjects(a), db.UserObjects(b), t),
          ExactSigma(db.UserObjects(a), db.UserObjects(b), t));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PairKernelTest,
    ::testing::Values(KernelParam{0.05, 0.3, 1}, KernelParam{0.1, 0.3, 2},
                      KernelParam{0.15, 0.5, 3}, KernelParam{0.02, 0.2, 4},
                      KernelParam{0.4, 0.4, 5}, KernelParam{0.08, 0.8, 6}));

TEST(UserGridTest, CellListsArePartitionOfUserObjects) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const UserGrid grid(db, 0.07);
  for (UserId u = 0; u < db.num_users(); ++u) {
    size_t total = 0;
    int64_t prev = -1;
    for (const UserPartition& cell : grid.UserCells(u)) {
      EXPECT_GT(cell.id, prev);  // strictly ascending cell ids
      prev = cell.id;
      EXPECT_FALSE(cell.objects.empty());
      for (const ObjectRef& ref : cell.objects) {
        EXPECT_EQ(grid.geometry().CellOf(ref.object->loc), cell.id);
        EXPECT_EQ(ref.object->user, u);
        EXPECT_EQ(db.LocalIndex(*ref.object), ref.local);
      }
      total += cell.objects.size();
    }
    EXPECT_EQ(total, db.UserObjectCount(u));
  }
}

TEST(UserGridHelpersTest, FindAndCount) {
  static const ObjectRef refs[] = {{nullptr, 0}, {nullptr, 1}};
  UserPartitionList list;
  list.push_back({3, {}});
  list.push_back({7, refs});
  EXPECT_EQ(FindPartition(list, 3), &list[0]);
  EXPECT_EQ(FindPartition(list, 7), &list[1]);
  EXPECT_EQ(FindPartition(list, 5), nullptr);
  EXPECT_EQ(PartitionObjectCount(list, 7), 2u);
  EXPECT_EQ(PartitionObjectCount(list, 99), 0u);
}

TEST(UserGridHelpersTest, MergePartitionLists) {
  UserPartitionList a, b;
  a.push_back({1, {}});
  a.push_back({5, {}});
  b.push_back({5, {}});
  b.push_back({9, {}});
  const auto merged = MergePartitionLists(a, b);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].id, 1);
  EXPECT_NE(merged[0].u, nullptr);
  EXPECT_EQ(merged[0].v, nullptr);
  EXPECT_EQ(merged[1].id, 5);
  EXPECT_NE(merged[1].u, nullptr);
  EXPECT_NE(merged[1].v, nullptr);
  EXPECT_EQ(merged[2].id, 9);
  EXPECT_EQ(merged[2].u, nullptr);
  EXPECT_NE(merged[2].v, nullptr);
}

}  // namespace
}  // namespace stps
