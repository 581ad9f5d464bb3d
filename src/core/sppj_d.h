// S-PPJ-D (Section 4.1.4): filter-and-refine STPSJoin over a data-driven
// partitioning — the leaves of an R-tree — instead of the eps_loc grid.
//
// A spatio-textual index is built over the leaves: per leaf, the per-user
// object lists Dl_u and an inverted list token -> users; the intersections
// of the eps_loc-extended leaf MBRs are precomputed with a spatial join.
// Refinement runs PPJ-D (Algorithm 3), which joins only objects inside the
// intersection of the two extended MBRs and applies the same Lemma 1
// early-termination bound as PPJ-B.

#ifndef STPS_CORE_SPPJ_D_H_
#define STPS_CORE_SPPJ_D_H_

#include <span>
#include <vector>

#include "core/database.h"
#include "core/join_executor.h"
#include "core/join_stats.h"
#include "core/similarity.h"
#include "core/user_grid.h"
#include "spatial/rtree.h"

namespace stps {

/// Which data-driven partitioning S-PPJ-D runs on. The paper uses R-tree
/// leaves; the quadtree alternative follows Rao et al. (BigSpatial 2014),
/// which the paper cites.
enum class PartitioningScheme {
  kRTree,
  kQuadTree,
};

/// Tuning for the partitioning (the paper's Figure 6 parameter: R-tree
/// fanout, or quadtree leaf capacity).
struct SPPJDOptions {
  int fanout = 128;
  PartitioningScheme partitioning = PartitioningScheme::kRTree;
};

/// A materialised space partitioning: per partition, a tight MBR and the
/// member object ids. Produced by the factory functions below; any
/// partitioning with complete, disjoint membership works.
struct SpatialPartitioning {
  std::vector<Rect> mbrs;
  std::vector<std::vector<ObjectId>> members;
};

/// Partitions = leaves of an STR-bulk-loaded R-tree with node capacity
/// `fanout`.
SpatialPartitioning RTreePartitioning(const ObjectDatabase& db, int fanout);

/// Partitions = non-empty leaves of a PR quadtree with the given leaf
/// capacity.
SpatialPartitioning QuadTreePartitioning(const ObjectDatabase& db,
                                         int leaf_capacity);

/// The leaf-level spatio-textual index S-PPJ-D operates on. Exposed so
/// tests and benchmarks can reuse a built index across queries with the
/// same eps_loc/fanout.
class LeafPartitionIndex {
 public:
  /// Convenience: builds over RTreePartitioning(db, fanout).
  LeafPartitionIndex(const ObjectDatabase& db, double eps_loc, int fanout);

  /// Builds the per-partition per-user lists, the per-partition inverted
  /// token lists, and the extended-MBR adjacency over an arbitrary
  /// partitioning.
  LeafPartitionIndex(const ObjectDatabase& db, double eps_loc,
                     const SpatialPartitioning& partitioning);

  STPS_DISALLOW_COPY_AND_ASSIGN(LeafPartitionIndex);

  size_t num_leaves() const { return leaf_mbrs_.size(); }

  /// Lu: the leaves (by ordinal) holding objects of user u, ascending,
  /// with the CSR object/coordinate arrays behind them.
  const UserLayout& UserLeaves(UserId u) const {
    STPS_DCHECK(u < per_user_.size());
    return per_user_[u];
  }

  /// Ordinals of leaves whose extended MBR intersects `leaf`'s extended
  /// MBR (including `leaf` itself), ascending.
  const std::vector<uint32_t>& RelevantLeaves(uint32_t leaf) const {
    STPS_DCHECK(leaf < adjacency_.size());
    return adjacency_[leaf];
  }

  /// The eps_loc-extended MBR of a leaf.
  const Rect& ExtendedMbr(uint32_t leaf) const {
    STPS_DCHECK(leaf < extended_mbrs_.size());
    return extended_mbrs_[leaf];
  }

  /// Users (ascending) having an object with token `t` in `leaf`;
  /// nullptr when none.
  const std::vector<UserId>* TokenUsers(uint32_t leaf, TokenId t) const;

  /// Users (ascending) having any object in `leaf`. Used by the JoinStats
  /// spatial/textual filter breakdown.
  const std::vector<UserId>& LeafUsers(uint32_t leaf) const {
    STPS_DCHECK(leaf < leaf_users_.size());
    return leaf_users_[leaf];
  }

 private:
  std::vector<Rect> leaf_mbrs_;
  std::vector<Rect> extended_mbrs_;
  std::vector<std::vector<uint32_t>> adjacency_;
  std::vector<UserLayout> per_user_;
  std::vector<std::vector<UserId>> leaf_users_;
  std::vector<std::unordered_map<TokenId, std::vector<UserId>>> token_users_;
};

/// PPJ-D (Algorithm 3): sigma for a user pair over the leaf partitioning,
/// with early termination at eps_u (exact whenever sigma >= eps_u; the
/// Lemma 1 stop uses the integer SigmaUnmatchedBudget of
/// common/predicates.h). Leaf-vs-leaf joins run through the batched SoA
/// mark kernel (PPJCrossMarkBatch). `stats` (optional) accrues
/// cells_visited and refine_early_stops plus the batch kernel counters.
/// `matched_out` (optional) receives sigma's integer numerator (0 when
/// pruned) for exact SigmaAtLeast decisions.
double PPJDPair(const UserLayout& lu, size_t nu, const UserLayout& lv,
                size_t nv, const LeafPartitionIndex& index,
                const MatchThresholds& t, double eps_u,
                JoinStats* stats = nullptr, size_t* matched_out = nullptr);

/// The S-PPJ-D filter: probes the distinct tokens of every leaf of `lu`
/// (user u's leaves) against the inverted lists of its relevant leaves,
/// and records in `*candidates` every user ranked before u found there,
/// with its supporting leaves (my_cells / their_cells may hold duplicates
/// until SortUnique). `rank` maps user id -> processing rank; empty means
/// id order, where the ascending lists let the scan stop at u.
/// `candidates` must have had BeginRound called. Accrues cells_visited
/// into `*stats` when non-null. Shared by S-PPJ-D and TopKSPPJD.
void CollectEarlierLeafCandidates(
    const LeafPartitionIndex& index, const UserLayout& lu, UserId u,
    std::span<const uint32_t> rank,
    UserCandidateTable<CandidateCells>* candidates, JoinStats* stats);

/// Evaluates the STPSJoin query with S-PPJ-D. Same output contract as
/// SPPJC. Preconditions: eps_doc > 0, eps_u > 0 (see S-PPJ-F). The leaf
/// index is built once (it is not incremental); candidates are restricted
/// to earlier users, so every `partition` gives the same result.
std::vector<ScoredUserPair> SPPJD(const ObjectDatabase& db,
                                  const STPSQuery& query,
                                  const SPPJDOptions& options = {},
                                  JoinStats* stats = nullptr,
                                  const JoinPartition& partition = {});

}  // namespace stps

#endif  // STPS_CORE_SPPJ_D_H_
