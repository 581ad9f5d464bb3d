// Top-k STPSJoin algorithms (Section 4.2).
//
//  * TOPK-S-PPJ-F (Algorithm 4): S-PPJ-F with a bounded result queue;
//    users in ascending |Du| order; the user-similarity threshold is the
//    current k-th best score.
//  * TOPK-S-PPJ-S: the same machinery, but users ordered by the grid
//    popularity heuristic s_u = sum over objects of the containing cell's
//    score s_c = |users with objects in c or adjacent cells| (descending).
//  * TOPK-S-PPJ-P: ascending-size order plus the per-user prefilter of
//    Lemma 2 (sigma_bar_u), estimated from the spatio-textual grid index.
//
// All variants return the same deterministic result: the top-k pairs with
// sigma > 0 under the TopKBetter total order (score desc, then ids).

#ifndef STPS_CORE_TOPK_H_
#define STPS_CORE_TOPK_H_

#include <vector>

#include "common/thread_pool.h"
#include "core/database.h"
#include "core/join_stats.h"
#include "core/similarity.h"

namespace stps {

/// Which top-k evaluation strategy to run.
enum class TopKVariant {
  kF,  // TOPK-S-PPJ-F: ascending object-set size
  kS,  // TOPK-S-PPJ-S: popularity-ordered
  kP,  // TOPK-S-PPJ-P: ascending size + Lemma 2 prefilter
};

/// Evaluates the top-k STPSJoin query. Precondition: eps_doc > 0.
/// Result is sorted best-first and has at most k entries (fewer when
/// fewer than k pairs have sigma > 0). The spatio-textual index is built
/// once over all users in processing-rank order and the per-rank passes
/// run on the join executor (core/join_executor.h), one ResultQueue per
/// worker; the result is identical at any `parallel.num_threads` because
/// the top-k under the TopKBetter total order is unique.
std::vector<ScoredUserPair> TopKSTPSJoin(const ObjectDatabase& db,
                                         const TopKQuery& query,
                                         TopKVariant variant,
                                         JoinStats* stats = nullptr,
                                         const ParallelOptions& parallel = {});

/// The R-tree-partitioned top-k variant the paper mentions but omits
/// pseudocode for (Section 4.2.1: "the same principle can be
/// straightforwardly applied to S-PPJ-D"): TOPK-S-PPJ-F's per-user pass
/// (ascending-size order, queue threshold) over the leaf partitioning of
/// S-PPJ-D, refined with PPJ-D.
std::vector<ScoredUserPair> TopKSPPJD(const ObjectDatabase& db,
                                      const TopKQuery& query,
                                      int fanout = 128,
                                      JoinStats* stats = nullptr,
                                      const ParallelOptions& parallel = {});

}  // namespace stps

#endif  // STPS_CORE_TOPK_H_
