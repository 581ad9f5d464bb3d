// The one join executor. Every STPSJoin and top-k algorithm is a per-user
// filter-and-verify pass over the probing users (Algorithms 1-4); the
// executor runs that pass on the work-stealing ThreadPool — the only pool
// outside common/ — and merges the per-worker results and JoinStats. A
// sequential run is the one-worker pool: ThreadPool(1) spawns no thread
// and runs the chunks inline in ascending order. Sharding is a partition
// policy: PlanUserShards ranges, one per worker.
//
// Why results AND JoinStats are bit-identical at every thread and shard
// count: a pass only evaluates pairs whose partner comes earlier in the
// processing order, so every pair belongs to exactly one probing user and
// hence to one worker. Threshold results are sorted into the canonical
// (a, b) order (unique keys). Top-k workers keep local ResultQueues — a
// local queue holds k real pairs, so whatever its threshold prunes is
// outside the global top-k — merged via Offer under the TopKBetter total
// order. JoinStats are sums of the same per-user integer increments.

#ifndef STPS_CORE_JOIN_EXECUTOR_H_
#define STPS_CORE_JOIN_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "core/database.h"
#include "core/join_stats.h"
#include "core/result_queue.h"
#include "core/similarity.h"

namespace stps {

/// One shard's contiguous user-id range [begin, end).
struct ShardRange {
  UserId begin = 0;
  UserId end = 0;
};

/// Splits the users into at most `shards` contiguous ranges, balanced by
/// cumulative object count (a proxy for per-user join cost). Ranges
/// cover [0, num_users) exactly; fewer ranges are returned when there
/// are not enough users. Precondition: shards >= 1.
std::vector<ShardRange> PlanUserShards(const ObjectDatabase& db, int shards);

/// How ExecuteJoin spreads the probing users over workers. Implicitly
/// built from ParallelOptions: chunks of `parallel.grain` users on
/// max(1, parallel.num_threads) workers.
struct JoinPartition {
  JoinPartition(const ParallelOptions& parallel = {})  // NOLINT: implicit
      : parallel(parallel) {}

  /// PlanUserShards(db, shards) ranges, one worker each
  /// (JoinOptions::shards). With `prefetch`, the scan is first advised to
  /// the kernel: POSIX_MADV_SEQUENTIAL over the SoA mirrors and token
  /// arena, POSIX_MADV_WILLNEED over each shard's ranges
  /// (JoinOptions::prefetch; advisory only). Precondition: shards >= 1.
  static JoinPartition Sharded(int shards, bool prefetch = false);

  ParallelOptions parallel;
  int shards = 0;  // 0: chunks on the pool; >= 1: user ranges
  bool prefetch = false;
};

/// One probing user's threshold-join pass: appends u's result pairs to
/// `*out` and accrues `*stats` when non-null (each worker has its own).
using JoinPass = std::function<void(UserId u, std::vector<ScoredUserPair>* out,
                                    JoinStats* stats)>;

/// Runs `pass` over every user of `db`; returns the pairs in (a, b)
/// order and merges the counters into `*stats` (when non-null).
std::vector<ScoredUserPair> ExecuteJoin(const ObjectDatabase& db,
                                        const JoinPartition& partition,
                                        const JoinPass& pass,
                                        JoinStats* stats);

/// One processing rank's top-k pass: settles rank r against `queue`
/// (one ResultQueue per worker) and accrues `*stats` when non-null.
using TopKPass =
    std::function<void(uint32_t r, ResultQueue* queue, JoinStats* stats)>;

/// Runs `pass` over the ranks [0, num_ranks) with one k-bounded queue per
/// worker; returns the merged top k best-first under TopKBetter and
/// merges the counters into `*stats` (when non-null).
std::vector<ScoredUserPair> ExecuteTopK(size_t num_ranks, size_t k,
                                        const ParallelOptions& parallel,
                                        const TopKPass& pass,
                                        JoinStats* stats);

}  // namespace stps

#endif  // STPS_CORE_JOIN_EXECUTOR_H_
