#include "core/sppj_c.h"

#include "common/predicates.h"
#include "core/ppjb.h"
#include "core/sppj_b.h"
#include "core/user_grid.h"

namespace stps {

namespace {

// S-PPJ-C and S-PPJ-B: the filterless joins, which differ only in the
// pair kernel (PPJ-C, or PPJ-B with its Lemma 1 early termination at
// eps_u). "selectedUsers" of Algorithm 1 is the prefix of already-seen
// users: each probing user u1 is joined against every previous u2.
std::vector<ScoredUserPair> JoinEveryPair(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          bool use_ppjb, JoinStats* stats,
                                          const JoinPartition& partition) {
  if (db.num_objects() == 0) return {};
  const UserGrid grid(db, query.eps_loc);
  const GridNeighborhood neighborhood{grid.geometry()};
  const MatchThresholds t = query.match_thresholds();
  const auto pass = [&](UserId u1, std::vector<ScoredUserPair>* out,
                        JoinStats* ws) {
    const UserLayout& cu = grid.UserCells(u1);
    const size_t nu = db.UserObjectCount(u1);
    for (UserId u2 = 0; u2 < u1; ++u2) {
      if (ws != nullptr) {
        ++ws->pairs_candidate;
        ++ws->pairs_verified;
      }
      const UserLayout& cv = grid.UserCells(u2);
      const size_t nv = db.UserObjectCount(u2);
      size_t matched = 0;
      const double sigma =
          use_ppjb ? PPJBPair(cu, nu, cv, nv, grid.geometry(), t,
                              query.eps_u, ws, &matched)
                   : PPJCPair(cu, nu, cv, nv, neighborhood, t,
                              /*eps_u=*/0.0, ws, &matched);
      // Membership is the exact counting predicate (common/predicates.h);
      // the double sigma is only the reported score.
      if (SigmaAtLeast(matched, nu + nv, query.eps_u)) {
        out->push_back({u2, u1, sigma});
        if (ws != nullptr) ++ws->matches_found;
      }
    }
  };
  return ExecuteJoin(db, partition, pass, stats);
}

}  // namespace

std::vector<ScoredUserPair> SPPJC(const ObjectDatabase& db,
                                  const STPSQuery& query, JoinStats* stats,
                                  const JoinPartition& partition) {
  return JoinEveryPair(db, query, /*use_ppjb=*/false, stats, partition);
}

std::vector<ScoredUserPair> SPPJB(const ObjectDatabase& db,
                                  const STPSQuery& query, JoinStats* stats,
                                  const JoinPartition& partition) {
  return JoinEveryPair(db, query, /*use_ppjb=*/true, stats, partition);
}

}  // namespace stps
