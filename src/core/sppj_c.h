// S-PPJ-C (Algorithm 1): the baseline STPSJoin evaluation. Every user
// pair is joined with the non-self PPJ-C grid traversal and the exact
// sigma is compared against eps_u.

#ifndef STPS_CORE_SPPJ_C_H_
#define STPS_CORE_SPPJ_C_H_

#include <vector>

#include "core/database.h"
#include "core/join_executor.h"
#include "core/join_stats.h"
#include "core/similarity.h"

namespace stps {

/// Evaluates the STPSJoin query with the S-PPJ-C baseline.
/// Result pairs (a < b) are sorted by (a, b) and carry exact sigma,
/// bit-identical (with the same JoinStats) under every `partition` — one
/// worker, a pool of any size, or user shards (core/join_executor.h).
std::vector<ScoredUserPair> SPPJC(const ObjectDatabase& db,
                                  const STPSQuery& query,
                                  JoinStats* stats = nullptr,
                                  const JoinPartition& partition = {});

}  // namespace stps

#endif  // STPS_CORE_SPPJ_C_H_
