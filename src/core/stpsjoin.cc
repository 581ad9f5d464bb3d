#include "core/stpsjoin.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/join_executor.h"
#include "core/sppj_b.h"
#include "core/sppj_c.h"
#include "core/sppj_d.h"
#include "core/sppj_f.h"
#include "planner/feedback.h"
#include "planner/planner.h"
#include "sketch/sketch_join.h"

namespace stps {

namespace {

uint64_t RoundCount(double v) {
  if (!std::isfinite(v) || v <= 0.0) return 0;
  return static_cast<uint64_t>(std::llround(v));
}

uint64_t AllPairs(const ObjectDatabase& db) {
  const uint64_t users = db.num_users();
  return users < 2 ? 0 : users * (users - 1) / 2;
}

/// Executes a concrete (non-auto) join shape on the join executor.
/// Factored out so the umbrella can time the execution and feed the
/// planner.
std::vector<ScoredUserPair> DispatchJoin(const ObjectDatabase& db,
                                         const STPSQuery& query,
                                         const JoinOptions& options,
                                         const JoinPartition& partition,
                                         bool use_sketch, JoinStats* stats) {
  if (use_sketch) return SketchSTPSJoin(db, query, partition.parallel, stats);
  switch (options.algorithm) {
    case JoinAlgorithm::kBruteForce: {
      std::vector<ScoredUserPair> result = BruteForceSTPSJoin(db, query);
      if (stats != nullptr) {
        // Brute force considers and verifies every user pair; account for
        // it so kAuto-resolved runs keep the counter invariants.
        stats->pairs_candidate += AllPairs(db);
        stats->pairs_verified += AllPairs(db);
        stats->matches_found += result.size();
      }
      return result;
    }
    case JoinAlgorithm::kSPPJC:
      return SPPJC(db, query, stats, partition);
    case JoinAlgorithm::kSPPJB:
      return SPPJB(db, query, stats, partition);
    case JoinAlgorithm::kSPPJF:
      return SPPJF(db, query, stats, partition);
    case JoinAlgorithm::kSPPJD:
      return SPPJD(db, query, SPPJDOptions{options.rtree_fanout}, stats,
                   partition);
    case JoinAlgorithm::kAuto:
      break;  // resolved by RunSTPSJoin before dispatch
  }
  STPS_CHECK(false);
  return {};
}

/// Executes a concrete (non-auto) top-k shape.
std::vector<ScoredUserPair> DispatchTopK(const ObjectDatabase& db,
                                         const TopKQuery& query,
                                         TopKAlgorithm algorithm,
                                         bool use_sketch, JoinStats* stats) {
  if (use_sketch) return SketchTopKSTPSJoin(db, query, query.parallel, stats);
  switch (algorithm) {
    case TopKAlgorithm::kBruteForce: {
      std::vector<ScoredUserPair> result = BruteForceTopK(db, query);
      if (stats != nullptr) {
        stats->pairs_candidate += AllPairs(db);
        stats->pairs_verified += AllPairs(db);
        stats->matches_found += result.size();
      }
      return result;
    }
    case TopKAlgorithm::kF:
      return TopKSTPSJoin(db, query, TopKVariant::kF, stats, query.parallel);
    case TopKAlgorithm::kS:
      return TopKSTPSJoin(db, query, TopKVariant::kS, stats, query.parallel);
    case TopKAlgorithm::kP:
      return TopKSTPSJoin(db, query, TopKVariant::kP, stats, query.parallel);
    case TopKAlgorithm::kAuto:
      break;  // resolved by RunTopKSTPSJoin before dispatch
  }
  STPS_CHECK(false);
  return {};
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::vector<ScoredUserPair> RunSTPSJoin(const ObjectDatabase& db,
                                        const STPSQuery& query,
                                        const JoinOptions& options,
                                        JoinStats* stats) {
  if (options.algorithm == JoinAlgorithm::kAuto) {
    const PhysicalPlan plan = PlanSTPSJoin(db, query, options);
    // The plan picks the algorithm and threads; query.sketch.enabled
    // carries through (the planner never prices sketch shapes, but its
    // shape reports whether the sketch runs on the planned algorithm).
    STPSQuery resolved = query;
    resolved.parallel.num_threads = plan.shape.threads;
    resolved.parallel.grain = plan.grain;
    JoinOptions ropts = options;
    ropts.algorithm = plan.shape.join;
    ropts.threads = plan.shape.threads;
    ropts.rtree_fanout = plan.rtree_fanout;
    // The recursive call times the run and records the feedback; here we
    // only track whether the choice moved since the last identical query.
    std::vector<ScoredUserPair> result =
        RunSTPSJoin(db, resolved, ropts, stats);
    const bool switched = PlannerFeedback::Global().NoteChosenPlan(
        plan.query_signature, plan.shape);
    if (stats != nullptr) {
      stats->planner_estimated_candidates =
          RoundCount(plan.estimate.candidate_pairs);
      stats->planner_plan_switches = switched ? 1 : 0;
    }
    return result;
  }

  // Either knob may request parallelism; take the stronger one.
  const int threads = std::max(options.threads, query.parallel.num_threads);
  // Sketch-generated candidates replace the per-algorithm filter stage
  // (verification is the shared PPJ-B kernel, so results stay
  // bit-identical); where SketchRuns says the sketch is unsound or
  // unusable, the requested algorithm runs unchanged.
  const bool use_sketch = SketchRuns(query, options.algorithm);
  // Sharding is a partition policy of the join executor: every non-brute
  // algorithm runs its own per-user pass over PlanUserShards ranges, one
  // worker each — built for paging over mmap'd snapshots. Results and
  // JoinStats are bit-identical to the unsharded run.
  const bool sharded = options.shards > 1 && !use_sketch &&
                       options.algorithm != JoinAlgorithm::kBruteForce;
  const JoinPartition partition =
      sharded ? JoinPartition::Sharded(options.shards, options.prefetch)
              : JoinPartition(ParallelOptions{threads, query.parallel.grain});

  // Time the run and fold the measurement into the planner's feedback —
  // for explicit choices too, so benchmark sweeps over the static
  // variants calibrate kAuto as a side effect. Sharded runs skip the
  // feedback: shard timings would poison the per-shape cost coefficients.
  const bool record = db.has_planner_stats();
  PlanShape shape;
  shape.topk = false;
  shape.join = options.algorithm;
  shape.sketch = use_sketch;
  shape.threads = threads > 1 ? threads : 1;
  PlanEstimate estimate;
  double cost_units = 0.0;
  if (record) {
    estimate = EstimateJoinStages(db.planner_stats(), query.eps_loc,
                                  query.eps_doc, query.eps_u);
    cost_units = EstimateShapeCost(db.planner_stats(), shape, estimate);
  }
  JoinStats local;
  JoinStats* sink = stats != nullptr ? stats : &local;
  const auto start = std::chrono::steady_clock::now();
  std::vector<ScoredUserPair> result =
      DispatchJoin(db, query, options, partition, use_sketch, sink);
  if (record) {
    if (!sharded) {
      PlannerFeedback::Global().Record(shape, estimate, cost_units, *sink,
                                       ElapsedMs(start));
    }
    if (stats != nullptr) {
      stats->planner_estimated_candidates =
          RoundCount(estimate.candidate_pairs);
    }
  }
  return result;
}

std::vector<ScoredUserPair> RunTopKSTPSJoin(const ObjectDatabase& db,
                                            const TopKQuery& query,
                                            TopKAlgorithm algorithm,
                                            JoinStats* stats) {
  if (algorithm == TopKAlgorithm::kAuto) {
    const PhysicalPlan plan = PlanTopKSTPSJoin(db, query);
    TopKQuery resolved = query;  // query.sketch.enabled carries through
    resolved.parallel.num_threads = plan.shape.threads;
    resolved.parallel.grain = plan.grain;
    std::vector<ScoredUserPair> result =
        RunTopKSTPSJoin(db, resolved, plan.shape.topk_algorithm, stats);
    const bool switched = PlannerFeedback::Global().NoteChosenPlan(
        plan.query_signature, plan.shape);
    if (stats != nullptr) {
      stats->planner_estimated_candidates =
          RoundCount(plan.estimate.candidate_pairs);
      stats->planner_plan_switches = switched ? 1 : 0;
    }
    return result;
  }

  // Sketch candidates with the heavy-hitters verification order stand in
  // for every index-based variant (kF/kS/kP differ only in traversal
  // order, which sketches supersede; brute force stays brute force).
  const bool use_sketch = SketchRuns(query, algorithm);

  const bool record = db.has_planner_stats();
  PlanShape shape;
  shape.topk = true;
  shape.topk_algorithm = algorithm;
  shape.sketch = use_sketch;
  shape.threads = query.parallel.num_threads > 1 ? query.parallel.num_threads
                                                 : 1;
  PlanEstimate estimate;
  double cost_units = 0.0;
  if (record) {
    // Top-k discovers its similarity threshold at run time; estimate
    // with open textual/count thresholds, matching PlanTopKSTPSJoin.
    estimate = EstimateJoinStages(db.planner_stats(), query.eps_loc,
                                  query.eps_doc, 0.0);
    cost_units = EstimateShapeCost(db.planner_stats(), shape, estimate);
  }
  JoinStats local;
  JoinStats* sink = stats != nullptr ? stats : &local;
  const auto start = std::chrono::steady_clock::now();
  std::vector<ScoredUserPair> result =
      DispatchTopK(db, query, algorithm, use_sketch, sink);
  if (record) {
    PlannerFeedback::Global().Record(shape, estimate, cost_units, *sink,
                                     ElapsedMs(start));
    if (stats != nullptr) {
      stats->planner_estimated_candidates =
          RoundCount(estimate.candidate_pairs);
    }
  }
  return result;
}

bool SketchRuns(const STPSQuery& query, JoinAlgorithm algorithm) {
  STPS_DCHECK(algorithm != JoinAlgorithm::kAuto);
  return query.sketch.enabled && algorithm != JoinAlgorithm::kBruteForce &&
         query.eps_loc > 0.0 && query.eps_doc > 0.0 && query.eps_u > 0.0;
}

bool SketchRuns(const TopKQuery& query, TopKAlgorithm algorithm) {
  STPS_DCHECK(algorithm != TopKAlgorithm::kAuto);
  return query.sketch.enabled && algorithm != TopKAlgorithm::kBruteForce;
}

std::vector<ScoredUserPair> FindSimilarUsers(const ObjectDatabase& db,
                                             UserId u,
                                             const STPSQuery& query) {
  std::vector<ScoredUserPair> result;
  if (u >= db.num_users()) return result;
  const MatchThresholds t = query.match_thresholds();
  const std::span<const STObject> du = db.UserObjects(u);
  for (UserId v = 0; v < db.num_users(); ++v) {
    if (v == u) continue;
    const std::span<const STObject> dv = db.UserObjects(v);
    const size_t total = du.size() + dv.size();
    if (total == 0) continue;
    const size_t matched = ExactSigmaMatched(du, dv, t);
    if (SigmaAtLeast(matched, total, query.eps_u)) {
      result.push_back({std::min(u, v), std::max(u, v),
                        static_cast<double>(matched) /
                            static_cast<double>(total)});
    }
  }
  std::sort(result.begin(), result.end(), TopKBetter);
  return result;
}

Status ValidateQuery(const STPSQuery& query, JoinAlgorithm algorithm) {
  // Negated comparisons so NaN thresholds fail too.
  if (!(query.eps_loc >= 0.0) || !(query.eps_doc >= 0.0) ||
      !(query.eps_doc <= 1.0) || !(query.eps_u >= 0.0) ||
      !(query.eps_u <= 1.0)) {
    return Status::InvalidArgument("thresholds out of range");
  }
  if (algorithm == JoinAlgorithm::kAuto ||
      algorithm == JoinAlgorithm::kBruteForce) {
    return Status::OK();
  }
  if (query.eps_doc <= 0.0 || query.eps_u <= 0.0) {
    return Status::InvalidArgument(
        "this algorithm requires eps_doc > 0 and eps_u > 0");
  }
  if (algorithm != JoinAlgorithm::kSPPJD && query.eps_loc <= 0.0) {
    return Status::InvalidArgument("this algorithm requires eps_loc > 0");
  }
  return Status::OK();
}

Status ValidateQuery(const TopKQuery& query, TopKAlgorithm algorithm) {
  if (!(query.eps_loc >= 0.0) || !(query.eps_doc >= 0.0) ||
      !(query.eps_doc <= 1.0)) {
    return Status::InvalidArgument("thresholds out of range");
  }
  if (query.k == 0) return Status::InvalidArgument("k must be > 0");
  if (algorithm == TopKAlgorithm::kAuto ||
      algorithm == TopKAlgorithm::kBruteForce) {
    return Status::OK();
  }
  if (query.eps_doc <= 0.0) {
    return Status::InvalidArgument("this variant requires eps_doc > 0");
  }
  if (query.eps_loc <= 0.0) {
    return Status::InvalidArgument("this variant requires eps_loc > 0");
  }
  return Status::OK();
}

std::string_view JoinAlgorithmName(JoinAlgorithm algorithm) {
  switch (algorithm) {
    case JoinAlgorithm::kBruteForce:
      return "BruteForce";
    case JoinAlgorithm::kSPPJC:
      return "S-PPJ-C";
    case JoinAlgorithm::kSPPJB:
      return "S-PPJ-B";
    case JoinAlgorithm::kSPPJF:
      return "S-PPJ-F";
    case JoinAlgorithm::kSPPJD:
      return "S-PPJ-D";
    case JoinAlgorithm::kAuto:
      return "Auto";
  }
  return "unknown";
}

std::string_view TopKAlgorithmName(TopKAlgorithm algorithm) {
  switch (algorithm) {
    case TopKAlgorithm::kBruteForce:
      return "TOPK-BruteForce";
    case TopKAlgorithm::kF:
      return "TOPK-S-PPJ-F";
    case TopKAlgorithm::kS:
      return "TOPK-S-PPJ-S";
    case TopKAlgorithm::kP:
      return "TOPK-S-PPJ-P";
    case TopKAlgorithm::kAuto:
      return "TOPK-Auto";
  }
  return "unknown";
}

}  // namespace stps
