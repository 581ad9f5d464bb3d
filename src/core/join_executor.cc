#include "core/join_executor.h"

#include <algorithm>

#include "common/macros.h"
#include "common/prefetch.h"

namespace stps {

namespace {

// Advises the kernel about one shard's working set: the contiguous
// object-slot run [first, last) of its user range, mirrored across the
// AoS headers, SoA columns, and the CSR token arena. All five ranges are
// contiguous because the physical layout groups users (and their tokens)
// into runs — the property the sharded scan was built around.
void AdviseShard(const ObjectDatabase& db, const ShardRange& range) {
  if (range.begin >= range.end) return;
  const size_t first = db.UserObjects(range.begin).data() - db.AllObjects().data();
  const std::span<const STObject> last_user = db.UserObjects(range.end - 1);
  const size_t last = (last_user.data() + last_user.size()) - db.AllObjects().data();
  const size_t count = last - first;
  if (count == 0) return;
  AdviseSpan(db.AllObjects().subspan(first, count), PrefetchMode::kWillNeed);
  AdviseSpan(db.xs().subspan(first, count), PrefetchMode::kWillNeed);
  AdviseSpan(db.ys().subspan(first, count), PrefetchMode::kWillNeed);
  AdviseSpan(db.users().subspan(first, count), PrefetchMode::kWillNeed);
  AdviseSpan(db.sigs().subspan(first, count), PrefetchMode::kWillNeed);
  const std::span<const TokenId> first_tokens =
      db.ObjectTokens(static_cast<ObjectId>(first));
  const std::span<const TokenId> last_tokens =
      db.ObjectTokens(static_cast<ObjectId>(last - 1));
  AdviseMemory(first_tokens.data(),
               static_cast<size_t>((last_tokens.data() + last_tokens.size() -
                                    first_tokens.data())) *
                   sizeof(TokenId),
               PrefetchMode::kWillNeed);
}

// The per-user passes walk the SoA mirrors and token arena front to back:
// mark them sequential so the kernel reads ahead and reclaims behind the
// scan, then ask for each shard's ranges up front.
void AdviseShardedScan(const ObjectDatabase& db,
                       const std::vector<ShardRange>& ranges) {
  AdviseSpan(db.xs(), PrefetchMode::kSequential);
  AdviseSpan(db.ys(), PrefetchMode::kSequential);
  AdviseSpan(db.users(), PrefetchMode::kSequential);
  AdviseSpan(db.sigs(), PrefetchMode::kSequential);
  AdviseMemory(db.ObjectTokens(0).data(),
               db.total_tokens() * sizeof(TokenId),
               PrefetchMode::kSequential);
  for (const ShardRange& range : ranges) AdviseShard(db, range);
}

// Runs body(begin, end, worker, worker_stats) over chunks of [0, n) on a
// pool of `workers`. Each worker gets its own JoinStats (nullptr when
// `stats` is), merged into `*stats` once every chunk has run.
void RunOnPool(
    int workers, size_t n, size_t grain, JoinStats* stats,
    const std::function<void(size_t, size_t, int, JoinStats*)>& body) {
  std::vector<JoinStats> worker_stats(static_cast<size_t>(workers));
  ThreadPool pool(workers);
  pool.ParallelFor(0, n, grain, [&](size_t lo, size_t hi, int worker) {
    body(lo, hi, worker,
         stats != nullptr ? &worker_stats[static_cast<size_t>(worker)]
                          : nullptr);
  });
  if (stats == nullptr) return;
  for (const JoinStats& ws : worker_stats) stats->Merge(ws);
}

}  // namespace

std::vector<ShardRange> PlanUserShards(const ObjectDatabase& db,
                                       int shards) {
  STPS_CHECK(shards >= 1);
  const size_t num_users = db.num_users();
  std::vector<ShardRange> ranges;
  if (num_users == 0) return ranges;
  const uint64_t total = db.num_objects();
  // Cut after the user whose cumulative object count crosses the next
  // equal-share boundary; every shard gets at least one user.
  uint64_t seen = 0;
  UserId begin = 0;
  for (UserId u = 0; u < num_users; ++u) {
    seen += db.UserObjectCount(u);
    const size_t k = ranges.size();
    const uint64_t boundary =
        total * (k + 1) / static_cast<uint64_t>(shards);
    const size_t remaining_shards = static_cast<size_t>(shards) - k;
    const size_t remaining_users = num_users - u - 1;
    if ((seen >= boundary && k + 1 < static_cast<size_t>(shards)) ||
        remaining_users < remaining_shards - 1) {
      ranges.push_back({begin, u + 1});
      begin = u + 1;
    }
  }
  if (begin < num_users) {
    ranges.push_back({begin, static_cast<UserId>(num_users)});
  }
  return ranges;
}

JoinPartition JoinPartition::Sharded(int shards, bool prefetch) {
  STPS_CHECK(shards >= 1);
  JoinPartition partition;
  partition.shards = shards;
  partition.prefetch = prefetch;
  return partition;
}

std::vector<ScoredUserPair> ExecuteJoin(const ObjectDatabase& db,
                                        const JoinPartition& partition,
                                        const JoinPass& pass,
                                        JoinStats* stats) {
  // Work units: single users in chunks of `grain`, or whole shard ranges,
  // one per worker.
  std::vector<ShardRange> ranges;
  int workers = std::max(1, partition.parallel.num_threads);
  size_t units = db.num_users();
  size_t grain = partition.parallel.grain;
  if (partition.shards > 0) {
    ranges = PlanUserShards(db, partition.shards);
    if (partition.prefetch) AdviseShardedScan(db, ranges);
    workers = std::max(1, static_cast<int>(ranges.size()));
    units = ranges.size();
    grain = 1;
  }
  std::vector<std::vector<ScoredUserPair>> per_worker(
      static_cast<size_t>(workers));
  RunOnPool(workers, units, grain, stats,
            [&](size_t lo, size_t hi, int worker, JoinStats* ws) {
              for (size_t i = lo; i < hi; ++i) {
                const ShardRange range =
                    ranges.empty() ? ShardRange{static_cast<UserId>(i),
                                                static_cast<UserId>(i + 1)}
                                   : ranges[i];
                for (UserId u = range.begin; u < range.end; ++u) {
                  pass(u, &per_worker[static_cast<size_t>(worker)], ws);
                }
              }
            });
  std::vector<ScoredUserPair> result;
  for (const auto& partial : per_worker) {
    result.insert(result.end(), partial.begin(), partial.end());
  }
  std::sort(result.begin(), result.end(),
            [](const ScoredUserPair& x, const ScoredUserPair& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  return result;
}

std::vector<ScoredUserPair> ExecuteTopK(size_t num_ranks, size_t k,
                                        const ParallelOptions& parallel,
                                        const TopKPass& pass,
                                        JoinStats* stats) {
  std::vector<ResultQueue> queues(
      static_cast<size_t>(std::max(1, parallel.num_threads)), ResultQueue(k));
  RunOnPool(static_cast<int>(queues.size()), num_ranks, parallel.grain, stats,
            [&](size_t lo, size_t hi, int worker, JoinStats* ws) {
              for (size_t r = lo; r < hi; ++r) {
                pass(static_cast<uint32_t>(r),
                     &queues[static_cast<size_t>(worker)], ws);
              }
            });
  ResultQueue merged(k);
  for (const ResultQueue& local : queues) {
    for (const ScoredUserPair& pair : local.TakeSorted()) merged.Offer(pair);
  }
  return merged.TakeSorted();
}

}  // namespace stps
