#include "core/sppj_f.h"

#include <algorithm>

#include "common/predicates.h"
#include "core/parallel_util.h"
#include "core/ppjb.h"
#include "core/user_grid.h"

namespace stps {

void SPPJFProcessUser(const ObjectDatabase& db, const UserGrid& grid,
                      const SpatioTextualGridIndex& index,
                      const STPSQuery& query, UserId u,
                      std::vector<ScoredUserPair>* out, JoinStats* stats,
                      bool use_sigma_bound, bool use_refine_bound) {
  const MatchThresholds t = query.match_thresholds();
  const UserLayout& cu = grid.UserCells(u);
  const size_t nu = db.UserObjectCount(u);
  const uint32_t rank_u = index.Rank(u);
  // Per-thread epoch-stamped accumulator (user_grid.h): starting a user
  // costs O(1), no map rehash or per-call allocation, and the refine order
  // is ascending by id.
  thread_local UserCandidateTable<CandidateCells> candidates;
  candidates.BeginRound(db.num_users());
  CollectEarlierCandidates(grid.geometry(), index, cu, rank_u, &candidates,
                           stats);
  if (stats != nullptr) {
    // Where did the earlier users go? Co-located users without a shared
    // token were pruned textually, the rest spatially.
    const size_t colocated =
        CountColocatedEarlierUsers(grid.geometry(), index, cu, u);
    stats->pairs_candidate += candidates.size();
    stats->pairs_pruned_textual += colocated - candidates.size();
    stats->pairs_pruned_spatial += rank_u - colocated;
  }

  // Refine each surviving candidate (ascending by id).
  for (const UserId candidate : candidates.SortedTouched()) {
    CandidateCells& cells = candidates[candidate];
    const UserLayout& cv = grid.UserCells(candidate);
    const size_t nv = db.UserObjectCount(candidate);
    SortUnique(&cells.my_cells);
    SortUnique(&cells.their_cells);
    if (use_sigma_bound) {
      // The sigma_bar bound's integer numerator: the object count over
      // the supporting cells of the pair. Exact counting predicates
      // throughout (common/predicates.h), so every driver resolves a
      // pair whose sigma equals eps_u identically.
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
        PPJBPair(cu, nu, cv, nv, grid.geometry(), t,
                 use_refine_bound ? query.eps_u : 0.0, stats, &matched);
    if (SigmaAtLeast(matched, nu + nv, query.eps_u)) {
      out->push_back({std::min(u, candidate), std::max(u, candidate),
                      sigma});
      if (stats != nullptr) ++stats->matches_found;
    }
  }
}

std::vector<ScoredUserPair> SPPJFAblation(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          bool use_sigma_bound,
                                          bool use_refine_bound,
                                          JoinStats* stats) {
  // The token-probing filter only sees pairs with at least one textually
  // overlapping object pair; it is complete exactly when a result pair
  // must contain a match (eps_u > 0) and a match must share a token
  // (eps_doc > 0).
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.eps_u > 0.0);
  std::vector<ScoredUserPair> result;
  if (db.num_objects() == 0) return result;
  const UserGrid grid(db, query.eps_loc);
  const SpatioTextualGridIndex index(grid);
  for (UserId u = 0; u < db.num_users(); ++u) {
    SPPJFProcessUser(db, grid, index, query, u, &result, stats,
                     use_sigma_bound, use_refine_bound);
  }
  std::sort(result.begin(), result.end(), PairIdLess);
  return result;
}

std::vector<ScoredUserPair> SPPJF(const ObjectDatabase& db,
                                  const STPSQuery& query, JoinStats* stats) {
  return SPPJFAblation(db, query, /*use_sigma_bound=*/true,
                       /*use_refine_bound=*/true, stats);
}

}  // namespace stps
