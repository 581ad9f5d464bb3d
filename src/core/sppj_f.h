// S-PPJ-F (Algorithm 2): filter-and-refine STPSJoin over the
// spatio-textual grid index. For each user u, candidate users are those
// processed before u that share a token with u in the same or an adjacent
// cell; the sigma_bar upper bound prunes candidates, and survivors are
// refined with the PPJ-B pair kernel. This is the paper's best-performing
// algorithm.
//
// The index is built once per query over all users in ascending id order
// (core/user_grid.h), and each user's pass scans the inverted lists only
// up to its own rank — exactly the users the paper's incremental index
// would hold at that point. The per-user pass (SPPJFProcessUser) is
// written over any partitioning: S-PPJ-D (core/sppj_d.h) runs the same
// pass over R-tree or quadtree leaves with the PPJ-D kernel. The join
// executor (core/join_executor.h) runs it on one worker, a pool or user
// shards, with bit-identical results and JoinStats.

#ifndef STPS_CORE_SPPJ_F_H_
#define STPS_CORE_SPPJ_F_H_

#include <algorithm>
#include <span>
#include <vector>

#include "common/predicates.h"
#include "core/database.h"
#include "core/join_executor.h"
#include "core/join_stats.h"
#include "core/similarity.h"
#include "core/user_grid.h"

namespace stps {

/// Evaluates the STPSJoin query with S-PPJ-F. Same output contract as
/// SPPJC. Preconditions: eps_doc > 0, eps_u > 0.
std::vector<ScoredUserPair> SPPJF(const ObjectDatabase& db,
                                  const STPSQuery& query,
                                  JoinStats* stats = nullptr,
                                  const JoinPartition& partition = {});

/// Ablation variant used by the benchmarks: disables the sigma_bar
/// candidate bound (`use_sigma_bound` = false) and/or the PPJ-B early
/// termination in refinement (`use_refine_bound` = false) to isolate the
/// contribution of each pruning ingredient.
std::vector<ScoredUserPair> SPPJFAblation(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          bool use_sigma_bound,
                                          bool use_refine_bound,
                                          JoinStats* stats = nullptr,
                                          const JoinPartition& partition = {});

/// One user's filter/refine pass over any partitioning. `layouts` are
/// every user's partition lists (by id), `index` the spatio-textual index
/// over them and `neighborhood` their neighbourhood (GridNeighborhood or
/// LeafNeighborhood, core/user_grid.h). Candidates are the users ranked
/// before u in `index` that share a token with u in a neighbouring
/// partition, so each pair is evaluated exactly once no matter how users
/// are distributed over workers. Survivors of the sigma_bar count bound
/// (skipped when !use_sigma_bound) are refined with
/// `kernel(cu, nu, cv, nv, eps_u, stats, &matched)`, which gets
/// query.eps_u, or 0 when !use_refine_bound. Appends u's result pairs to
/// `*out` (unsorted across users) and accrues `*stats` when non-null.
template <typename Neighborhood, typename Kernel>
void SPPJFProcessUser(const ObjectDatabase& db,
                      std::span<const UserLayout> layouts,
                      const SpatioTextualGridIndex& index,
                      const Neighborhood& neighborhood, const Kernel& kernel,
                      const STPSQuery& query, UserId u,
                      std::vector<ScoredUserPair>* out, JoinStats* stats,
                      bool use_sigma_bound, bool use_refine_bound) {
  const UserLayout& cu = layouts[u];
  const size_t nu = db.UserObjectCount(u);
  const uint32_t rank_u = index.Rank(u);
  // Per-thread epoch-stamped accumulator (user_grid.h): starting a user
  // costs O(1), no map rehash or per-call allocation, and the refine order
  // is ascending by id.
  thread_local UserCandidateTable<CandidateCells> candidates;
  candidates.BeginRound(db.num_users());
  CollectEarlierCandidates(neighborhood, index, cu, rank_u, &candidates,
                           stats);
  if (stats != nullptr) {
    // Where did the earlier users go? Co-located users without a shared
    // token were pruned textually, the rest spatially.
    const size_t colocated =
        CountColocatedEarlierUsers(neighborhood, index, cu, rank_u);
    stats->pairs_candidate += candidates.size();
    stats->pairs_pruned_textual += colocated - candidates.size();
    stats->pairs_pruned_spatial += rank_u - colocated;
  }

  // Refine each surviving candidate (ascending by id).
  for (const UserId candidate : candidates.SortedTouched()) {
    CandidateCells& cells = candidates[candidate];
    const UserLayout& cv = layouts[candidate];
    const size_t nv = db.UserObjectCount(candidate);
    if (use_sigma_bound) {
      // The sigma_bar bound's integer numerator: the object count over
      // the supporting partitions of the pair. Exact counting predicates
      // throughout (common/predicates.h), so every driver resolves a
      // pair whose sigma equals eps_u identically.
      SortUnique(&cells.my_cells);
      SortUnique(&cells.their_cells);
      size_t m = 0;
      for (const int64_t c : cells.my_cells) {
        m += PartitionObjectCount(cu, c);
      }
      for (const int64_t c : cells.their_cells) {
        m += PartitionObjectCount(cv, c);
      }
      if (!SigmaAtLeast(m, nu + nv, query.eps_u)) {
        if (stats != nullptr) ++stats->pairs_pruned_count;
        continue;
      }
    }
    if (stats != nullptr) ++stats->pairs_verified;
    size_t matched = 0;
    const double sigma =
        kernel(cu, nu, cv, nv, use_refine_bound ? query.eps_u : 0.0, stats,
               &matched);
    if (SigmaAtLeast(matched, nu + nv, query.eps_u)) {
      out->push_back({std::min(u, candidate), std::max(u, candidate),
                      sigma});
      if (stats != nullptr) ++stats->matches_found;
    }
  }
}

/// The whole S-PPJ-F join over any partitioning: indexes every user in id
/// order and runs SPPJFProcessUser for each on the join executor.
template <typename Neighborhood, typename Kernel>
std::vector<ScoredUserPair> SPPJFJoin(const ObjectDatabase& db,
                                      std::span<const UserLayout> layouts,
                                      const Neighborhood& neighborhood,
                                      const Kernel& kernel,
                                      const STPSQuery& query,
                                      JoinStats* stats,
                                      const JoinPartition& partition,
                                      bool use_sigma_bound = true,
                                      bool use_refine_bound = true) {
  const SpatioTextualGridIndex index(layouts);
  return ExecuteJoin(
      db, partition,
      [&](UserId u, std::vector<ScoredUserPair>* out, JoinStats* ws) {
        SPPJFProcessUser(db, layouts, index, neighborhood, kernel, query, u,
                         out, ws, use_sigma_bound, use_refine_bound);
      },
      stats);
}

}  // namespace stps

#endif  // STPS_CORE_SPPJ_F_H_
