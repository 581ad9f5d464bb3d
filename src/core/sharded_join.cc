#include "core/sharded_join.h"

#include <thread>

#include "common/macros.h"
#include "common/prefetch.h"
#include "core/parallel_util.h"
#include "core/sppj_f.h"
#include "core/user_grid.h"

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

std::vector<ScoredUserPair> ShardedSTPSJoin(const ObjectDatabase& db,
                                            const STPSQuery& query,
                                            int shards, JoinStats* stats,
                                            bool prefetch) {
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.eps_u > 0.0);
  STPS_CHECK(shards >= 1);
  if (db.num_objects() == 0) return {};

  if (prefetch) {
    // The per-user pipeline (index build + shard passes) walks the SoA
    // mirrors and token arena front to back: mark them sequential so the
    // kernel reads ahead and reclaims behind the scan.
    AdviseSpan(db.xs(), PrefetchMode::kSequential);
    AdviseSpan(db.ys(), PrefetchMode::kSequential);
    AdviseSpan(db.users(), PrefetchMode::kSequential);
    AdviseSpan(db.sigs(), PrefetchMode::kSequential);
    AdviseMemory(db.ObjectTokens(0).data(),
                 db.total_tokens() * sizeof(TokenId),
                 PrefetchMode::kSequential);
  }

  // Shared read-only state, built once (same as SPPJFParallel).
  const UserGrid grid(db, query.eps_loc);
  const SpatioTextualGridIndex index(grid);

  const std::vector<ShardRange> ranges = PlanUserShards(db, shards);
  if (prefetch) {
    for (const ShardRange& range : ranges) AdviseShard(db, range);
  }
  std::vector<std::vector<ScoredUserPair>> per_shard(ranges.size());
  std::vector<JoinStats> shard_stats(ranges.size());
  const auto run_shard = [&](size_t s) {
    for (UserId u = ranges[s].begin; u < ranges[s].end; ++u) {
      SPPJFProcessUser(db, grid, index, query, u, &per_shard[s],
                       stats != nullptr ? &shard_stats[s] : nullptr);
    }
  };
  if (ranges.size() == 1) {
    run_shard(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(ranges.size());
    for (size_t s = 0; s < ranges.size(); ++s) {
      threads.emplace_back(run_shard, s);
    }
    for (auto& t : threads) t.join();
  }
  MergeWorkerStats(stats, shard_stats);
  return MergeSortedPairs(&per_shard);
}

}  // namespace stps
