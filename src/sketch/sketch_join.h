// Join drivers over sketch-generated candidates: each call builds a
// UserSketchIndex over `db` with the default SketchParams, the pairs come
// from its GenerateCandidates (a provable superset of every result pair
// — see sketch/sketch.h), and every candidate is settled by
// the exact PPJ-B kernel, so results are bit-identical to brute force at
// any thread count. Both drivers run on the join executor
// (core/join_executor.h). RunSTPSJoin / RunTopKSTPSJoin dispatch here when
// query.sketch.enabled (core/stpsjoin.cc); the per-algorithm headers stay
// sketch-free.

#ifndef STPS_SKETCH_SKETCH_JOIN_H_
#define STPS_SKETCH_SKETCH_JOIN_H_

#include <vector>

#include "common/thread_pool.h"
#include "core/join_stats.h"
#include "core/similarity.h"

namespace stps {

/// Threshold join over sketch candidates. Preconditions: eps_doc > 0 and
/// eps_u > 0 (the same contract as the filter-based algorithms — with
/// eps_doc == 0, empty-doc objects can match without a common token and
/// the band index would not be a sound filter). Results sorted by (a, b)
/// with exact scores, identical at any `parallel.num_threads`.
std::vector<ScoredUserPair> SketchSTPSJoin(const ObjectDatabase& db,
                                           const STPSQuery& query,
                                           const ParallelOptions& parallel,
                                           JoinStats* stats = nullptr);

/// Top-k join over sketch candidates, verified in the heavy-hitters-first
/// priority order so the result queue's threshold rises early and the
/// PPJ-B Lemma 1 budget prunes the tail. Precondition: eps_doc > 0.
/// Results best-first under TopKBetter, identical at any thread count.
std::vector<ScoredUserPair> SketchTopKSTPSJoin(
    const ObjectDatabase& db, const TopKQuery& query,
    const ParallelOptions& parallel, JoinStats* stats = nullptr);

}  // namespace stps

#endif  // STPS_SKETCH_SKETCH_JOIN_H_
