#include "core/sppj_f_parallel.h"

#include "core/parallel_util.h"
#include "core/sppj_f.h"
#include "core/user_grid.h"

namespace stps {

std::vector<ScoredUserPair> SPPJFParallel(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          const ParallelOptions& parallel,
                                          JoinStats* stats) {
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.eps_u > 0.0);
  STPS_CHECK(parallel.num_threads >= 1);
  if (db.num_objects() == 0) return {};

  const UserGrid grid(db, query.eps_loc);
  const SpatioTextualGridIndex index(grid);

  ThreadPool pool(parallel.num_threads);
  const size_t slots = static_cast<size_t>(pool.num_threads());
  std::vector<std::vector<ScoredUserPair>> per_worker(slots);
  std::vector<JoinStats> worker_stats(slots);
  pool.ParallelForEach(
      0, db.num_users(), parallel.grain, [&](size_t u, int worker) {
        SPPJFProcessUser(db, grid, index, query, static_cast<UserId>(u),
                         &per_worker[static_cast<size_t>(worker)],
                         stats != nullptr
                             ? &worker_stats[static_cast<size_t>(worker)]
                             : nullptr);
      });
  MergeWorkerStats(stats, worker_stats);
  return MergeSortedPairs(&per_worker);
}

std::vector<ScoredUserPair> SPPJFParallel(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          int num_threads) {
  return SPPJFParallel(db, query, ParallelOptions{num_threads, 0});
}

}  // namespace stps
