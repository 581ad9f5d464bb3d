#include "sketch/sketch_join.h"

#include <cstdint>

#include "common/predicates.h"
#include "core/database.h"
#include "core/join_executor.h"
#include "core/ppjb.h"
#include "core/result_queue.h"
#include "core/user_grid.h"
#include "sketch/sketch.h"

namespace stps {

std::vector<ScoredUserPair> SketchSTPSJoin(const ObjectDatabase& db,
                                           const STPSQuery& query,
                                           const ParallelOptions& parallel,
                                           JoinStats* stats) {
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.eps_u > 0.0);
  if (db.num_objects() == 0) return {};

  const SketchCandidates cand =
      UserSketchIndex(db, SketchParams{})
          .GenerateCandidates(query.eps_loc, query.sketch);
  if (stats != nullptr) {
    stats->sketch_candidate_pairs += cand.pairs.size();
    stats->sketch_rejections += cand.rejections;
    stats->pairs_candidate += cand.pairs.size();
  }
  if (cand.pairs.empty()) return {};

  const UserGrid grid(db, query.eps_loc);
  const MatchThresholds t = query.match_thresholds();
  // The candidates are sorted by (a, b): user a's pairs are the run
  // [first[a], first[a + 1]), verified by a's pass on the join executor.
  std::vector<size_t> first(db.num_users() + 1, 0);
  for (const auto& [a, b] : cand.pairs) ++first[a + 1];
  for (size_t u = 0; u < db.num_users(); ++u) first[u + 1] += first[u];
  return ExecuteJoin(
      db, parallel,
      [&](UserId a, std::vector<ScoredUserPair>* out, JoinStats* ws) {
        const UserLayout& cu = grid.UserCells(a);
        const size_t na = db.UserObjectCount(a);
        for (size_t i = first[a]; i < first[a + 1]; ++i) {
          const UserId b = cand.pairs[i].second;
          const size_t nb = db.UserObjectCount(b);
          if (ws != nullptr) ++ws->pairs_verified;
          size_t matched = 0;
          const double sigma =
              PPJBPair(cu, na, grid.UserCells(b), nb, grid.geometry(), t,
                       query.eps_u, ws, &matched);
          // Membership on the exact count, exactly as the brute-force
          // reference: a pruned kernel leaves a partial count that can
          // only fail the (monotone) predicate, and a passing count
          // implies the kernel ran to completion, so `sigma` is the
          // exact score.
          if (!SigmaAtLeast(matched, na + nb, query.eps_u)) continue;
          if (ws != nullptr) ++ws->matches_found;
          out->push_back({a, b, sigma});
        }
      },
      stats);
}

namespace {

// Settles one candidate against a queue: verify at the queue's current
// threshold (the PPJ-B Lemma 1 budget is exactly consistent with
// SigmaAtLeast, so a pair that can still tie the tail score is never
// pruned — same contract as core/topk.cc's RefineCandidates) and offer
// any sigma > 0 discovery.
void VerifyIntoQueue(const ObjectDatabase& db, const UserGrid& grid,
                     const MatchThresholds& t,
                     const std::pair<UserId, UserId>& pair,
                     ResultQueue* queue, JoinStats* stats) {
  const auto [a, b] = pair;
  const UserLayout& cu = grid.UserCells(a);
  const UserLayout& cv = grid.UserCells(b);
  const size_t na = db.UserObjectCount(a);
  const size_t nb = db.UserObjectCount(b);
  const double eps_u = queue->Threshold();
  if (stats != nullptr) ++stats->pairs_verified;
  const double sigma =
      PPJBPair(cu, na, cv, nb, grid.geometry(), t, eps_u, stats);
  if (sigma <= 0.0) return;
  if (stats != nullptr) ++stats->matches_found;
  queue->Offer({a, b, sigma});
}

}  // namespace

std::vector<ScoredUserPair> SketchTopKSTPSJoin(
    const ObjectDatabase& db, const TopKQuery& query,
    const ParallelOptions& parallel, JoinStats* stats) {
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.k > 0);
  if (db.num_objects() == 0) return {};

  const SketchCandidates cand =
      UserSketchIndex(db, SketchParams{})
          .GenerateCandidates(query.eps_loc, query.sketch);
  if (stats != nullptr) {
    stats->sketch_candidate_pairs += cand.pairs.size();
    stats->sketch_rejections += cand.rejections;
    stats->pairs_candidate += cand.pairs.size();
  }
  if (cand.pairs.empty()) return {};

  const UserGrid grid(db, query.eps_loc);
  const MatchThresholds t = query.match_thresholds();
  // Heavy-hitters-first: the count-min-ranked pairs fill each worker's
  // queue with high-overlap pairs early, so Threshold() rises after ~k
  // pairs and the Lemma 1 budget early-terminates most of the tail.
  return ExecuteTopK(
      cand.priority.size(), query.k, parallel,
      [&](uint32_t r, ResultQueue* queue, JoinStats* ws) {
        VerifyIntoQueue(db, grid, t, cand.pairs[cand.priority[r]], queue, ws);
      },
      stats);
}

}  // namespace stps
