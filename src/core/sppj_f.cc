#include "core/sppj_f.h"

#include "core/ppjb.h"

namespace stps {

std::vector<ScoredUserPair> SPPJFAblation(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          bool use_sigma_bound,
                                          bool use_refine_bound,
                                          JoinStats* stats,
                                          const JoinPartition& partition) {
  // The token-probing filter only sees pairs with at least one textually
  // overlapping object pair; it is complete exactly when a result pair
  // must contain a match (eps_u > 0) and a match must share a token
  // (eps_doc > 0).
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.eps_u > 0.0);
  if (db.num_objects() == 0) return {};
  const UserGrid grid(db, query.eps_loc);
  const MatchThresholds t = query.match_thresholds();
  const auto ppjb = [&](const UserLayout& cu, size_t nu, const UserLayout& cv,
                        size_t nv, double eps_u, JoinStats* ws,
                        size_t* matched) {
    return PPJBPair(cu, nu, cv, nv, grid.geometry(), t, eps_u, ws, matched);
  };
  return SPPJFJoin(db, grid.layouts(), GridNeighborhood{grid.geometry()},
                   ppjb, query, stats, partition, use_sigma_bound,
                   use_refine_bound);
}

std::vector<ScoredUserPair> SPPJF(const ObjectDatabase& db,
                                  const STPSQuery& query, JoinStats* stats,
                                  const JoinPartition& partition) {
  return SPPJFAblation(db, query, /*use_sigma_bound=*/true,
                       /*use_refine_bound=*/true, stats, partition);
}

}  // namespace stps
