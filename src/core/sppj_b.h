// S-PPJ-B (Section 4.1.2): like S-PPJ-C, but each pair is evaluated with
// the PPJ-B traversal, whose Lemma 1 bound terminates a pair as soon as
// enough unmatched objects prove sigma < eps_u. Defined next to S-PPJ-C
// in sppj_c.cc: the two share one per-user pass and differ only in the
// pair kernel.

#ifndef STPS_CORE_SPPJ_B_H_
#define STPS_CORE_SPPJ_B_H_

#include <vector>

#include "core/database.h"
#include "core/join_executor.h"
#include "core/join_stats.h"
#include "core/similarity.h"

namespace stps {

/// Evaluates the STPSJoin query with S-PPJ-B. Same output contract as
/// SPPJC.
std::vector<ScoredUserPair> SPPJB(const ObjectDatabase& db,
                                  const STPSQuery& query,
                                  JoinStats* stats = nullptr,
                                  const JoinPartition& partition = {});

}  // namespace stps

#endif  // STPS_CORE_SPPJ_B_H_
