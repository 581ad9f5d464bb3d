// Umbrella entry points: run any STPSJoin / top-k STPSJoin algorithm by
// name. This is the recommended public API for applications; the
// per-algorithm headers remain available for benchmarking.

#ifndef STPS_CORE_STPSJOIN_H_
#define STPS_CORE_STPSJOIN_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/database.h"
#include "core/join_stats.h"
#include "core/similarity.h"
#include "core/topk.h"

namespace stps {

/// STPSJoin evaluation strategies (Section 4.1 + brute force). kAuto
/// defers the choice to the cost-model planner (planner/planner.h):
/// the plan decides the concrete algorithm and sequential-vs-pooled
/// execution within the caller's thread budget (it never picks sketch
/// candidate generation itself; query.sketch.enabled still applies).
/// All strategies are exact, so kAuto returns bit-identical results to
/// every explicit choice — only the work differs.
enum class JoinAlgorithm {
  kBruteForce,
  kSPPJC,
  kSPPJB,
  kSPPJF,
  kSPPJD,
  kAuto,
};

/// Top-k evaluation strategies (Section 4.2 + brute force). kAuto routes
/// through the planner, as above.
enum class TopKAlgorithm {
  kBruteForce,
  kF,
  kS,
  kP,
  kAuto,
};

/// Options for RunSTPSJoin.
struct JoinOptions {
  JoinAlgorithm algorithm = JoinAlgorithm::kSPPJF;
  /// R-tree node capacity; only used by S-PPJ-D.
  int rtree_fanout = 128;
  /// Worker threads; kept for backward compatibility with the old
  /// S-PPJ-F-only parallelism. The effective thread count is
  /// max(threads, query.parallel.num_threads), clamped to at least 1: the
  /// join executor (core/join_executor.h) runs every grid- or leaf-based
  /// algorithm on that many pool workers (brute force always runs
  /// sequentially).
  int threads = 1;
  /// When > 1 (and no sketch candidate generation runs), every non-brute
  /// algorithm runs sharded: the executor partitions the users into
  /// `shards` contiguous PlanUserShards ranges, one worker per shard,
  /// merged deterministically, in place of the `threads` pool. Results
  /// and JoinStats are bit-identical to shards == 1; planner feedback is
  /// skipped. Meant for mmap'd snapshots whose working set exceeds RAM —
  /// shards page mostly disjoint arena ranges.
  int shards = 1;
  /// Advise the kernel about the sharded scan's access pattern before it
  /// starts (common/prefetch.h): POSIX_MADV_SEQUENTIAL over the SoA
  /// mirrors and token arena for the linear per-user pipeline pass, plus
  /// POSIX_MADV_WILLNEED on each shard's object/SoA/arena ranges so page-
  /// ins batch instead of faulting one at a time. Purely advisory — never
  /// changes results — and a no-op off POSIX or on non-mapped databases.
  bool prefetch = false;
};

/// Evaluates Q = <eps_loc, eps_doc, eps_u>: all user pairs with
/// sigma >= eps_u. Results are sorted by (a, b) and carry exact scores —
/// bit-identical at any thread count. Preconditions for the filter-based
/// algorithms (F, D): eps_doc > 0 and eps_u > 0. `stats` (optional)
/// receives the per-stage filter counters of the run.
///
/// When query.sketch.enabled (and eps_loc > 0, eps_doc > 0, eps_u > 0),
/// candidate pairs come from a per-user sketch index built for this call
/// instead of the chosen algorithm's filter stage and are settled by the
/// exact PPJ-B kernel: same results, same order, same scores — only the
/// work differs (see sketch/sketch.h; JoinStats::sketch_* report the
/// candidate flow). Brute force ignores the knob; kAuto honours it on
/// the algorithm its plan picks.
///
/// Every run — explicit algorithms included — feeds its measured
/// JoinStats and wall-clock back into PlannerFeedback, so kAuto's cost
/// coefficients converge onto this machine's observed per-shape speeds.
std::vector<ScoredUserPair> RunSTPSJoin(const ObjectDatabase& db,
                                        const STPSQuery& query,
                                        const JoinOptions& options = {},
                                        JoinStats* stats = nullptr);

/// Evaluates the top-k query; results best-first under TopKBetter.
/// Precondition for the index-based variants: eps_doc > 0. The
/// index-based variants run on query.parallel.num_threads executor
/// workers (identical results at any thread count). When
/// query.sketch.enabled, every index-based variant verifies the
/// candidates of a per-call sketch index in count-min heavy-hitters
/// order instead — bit-identical results, work reported via
/// JoinStats::sketch_*. kAuto honours the knob, as for RunSTPSJoin.
std::vector<ScoredUserPair> RunTopKSTPSJoin(
    const ObjectDatabase& db, const TopKQuery& query,
    TopKAlgorithm algorithm = TopKAlgorithm::kP, JoinStats* stats = nullptr);

/// Whether RunSTPSJoin answers `query` under the concrete (non-auto)
/// `algorithm` from sketch candidates: query.sketch.enabled, a non-brute
/// algorithm, and eps_loc, eps_doc, eps_u > 0 (the band index is a sound
/// filter only when a match implies a common token and eps_u is a real
/// threshold, and its verification walks the eps_loc grid). The one
/// place this rule lives: RunSTPSJoin, the planner's reported shape and
/// the CLI all ask it. Under kAuto the planned algorithm is the one
/// asked about.
bool SketchRuns(const STPSQuery& query, JoinAlgorithm algorithm);

/// The top-k counterpart: query.sketch.enabled and a non-brute variant.
bool SketchRuns(const TopKQuery& query, TopKAlgorithm algorithm);

/// Single-user probe ("find users similar to u"): every user v != u with
/// sigma(Du, Dv) >= eps_u under the query's match thresholds, scored
/// exactly and sorted best-first under the TopKBetter total order (pairs
/// carry a < b like the join results). The exact per-pair kernel is the
/// same ExactSigmaMatched/SigmaAtLeast discipline as the joins, so a
/// probe result is exactly the u-rows of RunSTPSJoin's output.
std::vector<ScoredUserPair> FindSimilarUsers(const ObjectDatabase& db,
                                             UserId u,
                                             const STPSQuery& query);

/// Checks a query against the preconditions of the algorithm that would
/// run it, so front ends (the server, the CLI) answer a hostile query with
/// an error instead of tripping a driver's STPS_CHECK. Every algorithm
/// needs eps_loc >= 0 and eps_doc, eps_u in [0, 1] (top-k: k > 0). The
/// filter-based algorithms (S-PPJ-B/C/F/D; top-k F/S/P) need eps_doc > 0
/// and, for threshold joins, eps_u > 0; the grid algorithms (S-PPJ-B/C/F;
/// top-k F/S/P) also need eps_loc > 0. kAuto and brute force accept every
/// in-range query. Returns InvalidArgument naming the violated rule.
Status ValidateQuery(const STPSQuery& query, JoinAlgorithm algorithm);
Status ValidateQuery(const TopKQuery& query, TopKAlgorithm algorithm);

/// Display names ("S-PPJ-F", "TOPK-S-PPJ-P", ...) for reports.
std::string_view JoinAlgorithmName(JoinAlgorithm algorithm);
std::string_view TopKAlgorithmName(TopKAlgorithm algorithm);

}  // namespace stps

#endif  // STPS_CORE_STPSJOIN_H_
