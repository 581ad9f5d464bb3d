// S-PPJ-D (Section 4.1.4): S-PPJ-F's filter-and-refine pass over a
// data-driven partitioning — the leaves of an R-tree — instead of the
// eps_loc grid.
//
// LeafPartitionIndex holds what the leaves add: per user, the leaf
// layout Lu (the objects Dl_u of each leaf), and the leaf neighbourhood —
// the intersections of the eps_loc-extended leaf MBRs, precomputed with a
// spatial join. Everything else is shared with S-PPJ-F (core/sppj_f.h):
// the spatio-textual index over the leaf layouts, the filter, and the
// per-user pass. Refinement runs PPJ-D (Algorithm 3), the merged
// partition walk of PPJCPair (core/ppjb.h) over the leaf neighbourhood
// with the Lemma 1 early-termination bound.

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

/// The leaf partitioning S-PPJ-D operates on: per-user leaf layouts and
/// the extended-MBR adjacency. Exposed so tests and benchmarks can reuse
/// a built index across queries with the same eps_loc/fanout.
class LeafPartitionIndex {
 public:
  /// Convenience: builds over RTreePartitioning(db, fanout).
  LeafPartitionIndex(const ObjectDatabase& db, double eps_loc, int fanout);

  /// Builds the per-user leaf layouts and the extended-MBR adjacency over
  /// an arbitrary partitioning. Within a leaf, a user's objects keep the
  /// partitioning's member order.
  LeafPartitionIndex(const ObjectDatabase& db, double eps_loc,
                     const SpatialPartitioning& partitioning);

  STPS_DISALLOW_COPY_AND_ASSIGN(LeafPartitionIndex);

  size_t num_leaves() const { return extended_mbrs_.size(); }

  /// Lu: the leaves (by ordinal) holding objects of user u, ascending,
  /// with the CSR object/coordinate arrays behind them.
  const UserLayout& UserLeaves(UserId u) const {
    STPS_DCHECK(u < per_user_.size());
    return per_user_[u];
  }

  /// Every user's leaf layout, by user id.
  std::span<const UserLayout> layouts() const { return per_user_; }

  /// Ordinals of leaves whose extended MBR intersects `leaf`'s extended
  /// MBR (including `leaf` itself), ascending.
  std::span<const int64_t> RelevantLeaves(int64_t leaf) const {
    return neighborhood()(leaf, nullptr);
  }

  /// RelevantLeaves as the neighbourhood the shared passes take.
  LeafNeighborhood neighborhood() const { return {adjacency_}; }

  /// The eps_loc-extended MBR of a leaf.
  const Rect& ExtendedMbr(int64_t leaf) const {
    STPS_DCHECK(leaf >= 0 &&
                static_cast<size_t>(leaf) < extended_mbrs_.size());
    return extended_mbrs_[static_cast<size_t>(leaf)];
  }

 private:
  std::vector<Rect> extended_mbrs_;
  std::vector<std::vector<int64_t>> adjacency_;
  std::vector<UserLayout> per_user_;
};

/// Evaluates the STPSJoin query with S-PPJ-D. Same output contract as
/// SPPJC. Preconditions: eps_doc > 0, eps_u > 0 (see S-PPJ-F). The leaf
/// partitioning and its spatio-textual index are built once per query;
/// candidates are restricted to earlier users, so every `partition` gives
/// the same result.
std::vector<ScoredUserPair> SPPJD(const ObjectDatabase& db,
                                  const STPSQuery& query,
                                  const SPPJDOptions& options = {},
                                  JoinStats* stats = nullptr,
                                  const JoinPartition& partition = {});

}  // namespace stps

#endif  // STPS_CORE_SPPJ_D_H_
