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
// would hold at that point. The per-user pass (SPPJFProcessUser) is the
// one S-PPJ-F pipeline: the sequential driver, the pool-parallel driver
// (core/sppj_f_parallel.h) and the sharded driver (core/sharded_join.h)
// all run it, which is what makes their results and JoinStats
// bit-identical.

#ifndef STPS_CORE_SPPJ_F_H_
#define STPS_CORE_SPPJ_F_H_

#include <vector>

#include "core/database.h"
#include "core/join_stats.h"
#include "core/similarity.h"

namespace stps {

class UserGrid;                // core/user_grid.h
class SpatioTextualGridIndex;  // core/user_grid.h

/// Evaluates the STPSJoin query with S-PPJ-F. Same output contract as
/// SPPJC.
std::vector<ScoredUserPair> SPPJF(const ObjectDatabase& db,
                                  const STPSQuery& query,
                                  JoinStats* stats = nullptr);

/// Ablation variant used by the benchmarks: disables the sigma_bar
/// candidate bound (`use_sigma_bound` = false) and/or the PPJ-B early
/// termination in refinement (`use_refine_bound` = false) to isolate the
/// contribution of each pruning ingredient.
std::vector<ScoredUserPair> SPPJFAblation(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          bool use_sigma_bound,
                                          bool use_refine_bound,
                                          JoinStats* stats = nullptr);

/// One user's filter/refine pass: candidates are restricted to users
/// ranked before u in `index`, so each pair is evaluated exactly once no
/// matter how users are distributed over workers. Appends u's result
/// pairs to `*out` (unsorted across users) and accrues `*stats` when
/// non-null. The ablation flags are as in SPPJFAblation.
void SPPJFProcessUser(const ObjectDatabase& db, const UserGrid& grid,
                      const SpatioTextualGridIndex& index,
                      const STPSQuery& query, UserId u,
                      std::vector<ScoredUserPair>* out, JoinStats* stats,
                      bool use_sigma_bound = true,
                      bool use_refine_bound = true);

}  // namespace stps

#endif  // STPS_CORE_SPPJ_F_H_
