#include "core/topk.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/predicates.h"
#include "core/join_executor.h"
#include "core/ppjb.h"
#include "core/result_queue.h"
#include "core/sppj_d.h"
#include "core/user_grid.h"

namespace stps {

namespace {

// Ascending |Du| (ties: ascending id) — the order of TOPK-S-PPJ-F / -P.
std::vector<UserId> OrderBySize(const ObjectDatabase& db) {
  std::vector<UserId> order(db.num_users());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&db](UserId a, UserId b) {
    if (db.UserObjectCount(a) != db.UserObjectCount(b)) {
      return db.UserObjectCount(a) < db.UserObjectCount(b);
    }
    return a < b;
  });
  return order;
}

// TOPK-S-PPJ-S ordering: descending popularity score
// s_u = sum over o in Du of s_cell(o), with
// s_c = |users having objects in c or an adjacent cell|.
std::vector<UserId> OrderByPopularity(const UserGrid& grid) {
  // Occupancy: the whole-cell user lists of an index over all users.
  const SpatioTextualGridIndex occupancy(grid.layouts());
  const size_t n = grid.num_users();
  std::vector<CellId> cells;
  for (UserId u = 0; u < n; ++u) {
    for (const UserPartition& cell : grid.UserCells(u)) {
      cells.push_back(cell.id);
    }
  }
  SortUnique(&cells);
  // Cell scores, aligned with `cells`. Integer throughout: the scores are
  // user counts, and integer sums cannot depend on the visit order.
  std::vector<uint64_t> cell_score(cells.size());
  std::vector<CellId> neighbors;
  UserStampSet distinct;
  for (size_t i = 0; i < cells.size(); ++i) {
    neighbors.clear();
    grid.geometry().AppendNeighborhood(cells[i], /*include_self=*/true,
                                       &neighbors);
    distinct.BeginRound(n);
    for (const CellId other : neighbors) {
      for (const UserId v : occupancy.CellUsers(other)) distinct.Insert(v);
    }
    cell_score[i] = distinct.size();
  }
  // User scores: every object contributes its cell's score.
  std::vector<uint64_t> user_score(n, 0);
  for (UserId u = 0; u < n; ++u) {
    for (const UserPartition& cell : grid.UserCells(u)) {
      const size_t i = static_cast<size_t>(
          std::lower_bound(cells.begin(), cells.end(), cell.id) -
          cells.begin());
      user_score[u] += cell_score[i] * cell.objects.size();
    }
  }
  std::vector<UserId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&user_score](UserId a, UserId b) {
    if (user_score[a] != user_score[b]) return user_score[a] > user_score[b];
    return a < b;
  });
  return order;
}

// TOPK-S-PPJ-P prefilter: the number of objects of u that have a token
// appearing, for a user ranked before u, in their own or a neighbouring
// partition — an overestimate of |M(Du, D_{U'})|. The index lists ascend
// by rank, so checking a list's front entry suffices.
template <typename Neighborhood>
size_t EstimateMatchableObjects(const UserLayout& cu,
                                const Neighborhood& neighborhood,
                                const SpatioTextualGridIndex& index,
                                uint32_t rank_u) {
  const auto has_earlier = [&index, rank_u](std::span<const UserId> users) {
    return !users.empty() && index.Rank(users.front()) < rank_u;
  };
  size_t count = 0;
  // Hoisted per-thread scratch (runs once per probing user in the -P
  // variant, on every executor worker).
  thread_local std::vector<int64_t> scratch;
  thread_local std::vector<int64_t> occupied;
  for (const UserPartition& part : cu) {
    // Drop neighbours with no objects of earlier users at all.
    occupied.clear();
    for (const int64_t n : neighborhood(part.id, &scratch)) {
      if (has_earlier(index.CellUsers(n))) occupied.push_back(n);
    }
    if (occupied.empty()) continue;
    for (const ObjectRef& ref : part.objects) {
      bool matchable = false;
      for (const TokenId t : ref.object->doc) {
        for (const int64_t n : occupied) {
          if (has_earlier(index.TokenUsers(n, t))) {
            matchable = true;
            break;
          }
        }
        if (matchable) break;
      }
      if (matchable) ++count;
    }
  }
  return count;
}

// One user's top-k pass over any partitioning: user order[r] against
// `queue`. The Lemma 2 prefilter (when `lemma2`, i.e. -P), then the
// shared filter over the users ranked before it, then refinement: the
// sigma_bar count bound once the queue is full (exact SigmaAtLeast, so a
// candidate that can still *tie* the tail score survives and Offer
// settles it on the id order), then `kernel` with the queue threshold as
// eps_u — whose integer Lemma 1 budget likewise never prunes a pair
// landing exactly on the threshold. Any nonzero kernel return is exact,
// so offered pairs carry exact scores. The join executor runs it against
// a worker's local queue (the only queue on one worker).
template <typename Neighborhood, typename Kernel>
void TopKProcessUser(const ObjectDatabase& db,
                     std::span<const UserLayout> layouts,
                     const SpatioTextualGridIndex& index,
                     const Neighborhood& neighborhood, const Kernel& kernel,
                     bool lemma2, std::span<const UserId> order, uint32_t r,
                     ResultQueue* queue, JoinStats* stats) {
  const UserId u = order[r];
  const UserLayout& cu = layouts[u];
  const size_t nu = db.UserObjectCount(u);

  // TOPK-S-PPJ-P: Lemma 2 prefilter. Valid because every earlier user u'
  // has |Du'| <= |Du| under the ascending-size order, so the largest
  // earlier size is the previous user's. A worker's local queue holds k
  // real pairs, so anything below its threshold is outside the global
  // top-k too.
  if (lemma2 && r > 0 && queue->full()) {
    const size_t max_prev_size = db.UserObjectCount(order[r - 1]);
    if (max_prev_size > 0) {
      const size_t matchable =
          EstimateMatchableObjects(cu, neighborhood, index, r);
      // Exact counting form of sigma_bar_u < Threshold() — ties survive.
      if (!SigmaAtLeast(matchable + max_prev_size, nu + max_prev_size,
                        queue->Threshold())) {
        return;
      }
    }
  }

  thread_local UserCandidateTable<CandidateCells> candidates;
  candidates.BeginRound(db.num_users());
  CollectEarlierCandidates(neighborhood, index, cu, r, &candidates, stats);
  if (stats != nullptr) stats->pairs_candidate += candidates.size();
  for (const UserId candidate : candidates.SortedTouched()) {
    CandidateCells& cells = candidates[candidate];
    const UserLayout& cv = layouts[candidate];
    const size_t nv = db.UserObjectCount(candidate);
    const double eps_u = queue->Threshold();
    if (queue->full()) {
      SortUnique(&cells.my_cells);
      SortUnique(&cells.their_cells);
      size_t m = 0;
      for (const int64_t c : cells.my_cells) {
        m += PartitionObjectCount(cu, c);
      }
      for (const int64_t c : cells.their_cells) {
        m += PartitionObjectCount(cv, c);
      }
      // Prune only when sigma_bar is exactly below the threshold: the
      // rounded quotient m / (nu + nv) could dip one ULP under eps_u for
      // a pair whose bound equals it, dropping a legitimate tie.
      if (!SigmaAtLeast(m, nu + nv, eps_u)) {
        if (stats != nullptr) ++stats->pairs_pruned_count;
        continue;
      }
    }
    if (stats != nullptr) ++stats->pairs_verified;
    const double sigma = kernel(cu, nu, cv, nv, eps_u, stats, nullptr);
    if (sigma <= 0.0) continue;
    if (stats != nullptr) ++stats->matches_found;
    queue->Offer({std::min(u, candidate), std::max(u, candidate), sigma});
  }
}

// A top-k join over any partitioning: indexes the users in `order` and
// runs TopKProcessUser for every rank on the top-k executor.
template <typename Neighborhood, typename Kernel>
std::vector<ScoredUserPair> TopKJoin(const ObjectDatabase& db,
                                     const TopKQuery& query,
                                     std::span<const UserLayout> layouts,
                                     const Neighborhood& neighborhood,
                                     const Kernel& kernel, bool lemma2,
                                     std::span<const UserId> order,
                                     JoinStats* stats,
                                     const ParallelOptions& parallel) {
  const SpatioTextualGridIndex index(layouts, order);
  return ExecuteTopK(
      order.size(), query.k, parallel,
      [&](uint32_t r, ResultQueue* queue, JoinStats* ws) {
        TopKProcessUser(db, layouts, index, neighborhood, kernel, lemma2,
                        order, r, queue, ws);
      },
      stats);
}

}  // namespace

std::vector<ScoredUserPair> TopKSTPSJoin(const ObjectDatabase& db,
                                         const TopKQuery& query,
                                         TopKVariant variant,
                                         JoinStats* stats,
                                         const ParallelOptions& parallel) {
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.k > 0);
  if (db.num_objects() == 0) return {};

  const UserGrid grid(db, query.eps_loc);
  const MatchThresholds t = query.match_thresholds();
  const std::vector<UserId> order = variant == TopKVariant::kS
                                        ? OrderByPopularity(grid)
                                        : OrderBySize(db);
  const auto ppjb = [&](const UserLayout& cu, size_t nu, const UserLayout& cv,
                        size_t nv, double eps_u, JoinStats* ws,
                        size_t* matched) {
    return PPJBPair(cu, nu, cv, nv, grid.geometry(), t, eps_u, ws, matched);
  };
  return TopKJoin(db, query, grid.layouts(), GridNeighborhood{grid.geometry()},
                  ppjb, variant == TopKVariant::kP, order, stats, parallel);
}

std::vector<ScoredUserPair> TopKSPPJD(const ObjectDatabase& db,
                                      const TopKQuery& query, int fanout,
                                      JoinStats* stats,
                                      const ParallelOptions& parallel) {
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.k > 0);
  if (db.num_objects() == 0) return {};

  const LeafPartitionIndex leaves(db, query.eps_loc, fanout);
  const LeafNeighborhood neighborhood = leaves.neighborhood();
  const MatchThresholds t = query.match_thresholds();
  const auto ppjd = [&](const UserLayout& lu, size_t nu, const UserLayout& lv,
                        size_t nv, double eps_u, JoinStats* ws,
                        size_t* matched) {
    return PPJCPair(lu, nu, lv, nv, neighborhood, t, eps_u, ws, matched);
  };
  return TopKJoin(db, query, leaves.layouts(), neighborhood, ppjd,
                  /*lemma2=*/false, OrderBySize(db), stats, parallel);
}

}  // namespace stps
