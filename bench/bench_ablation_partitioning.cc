// Ablation A5: S-PPJ-D under different data partitionings — STR R-tree
// leaves (the paper's choice) vs. PR-quadtree leaves (the alternative
// studied by Rao et al., which the paper cites) — against the S-PPJ-F
// grid as the reference. Shows how much of S-PPJ-D's gap to S-PPJ-F is
// the partitioning's mismatch with eps_loc vs. the scheme itself.
//
// All three joins are exact, so every S-PPJ-D result must equal S-PPJ-F's
// pair for pair, scores included; the driver exits 1 when one does not.
// The exit report lists each backend's accumulated JoinStats next to
// S-PPJ-F's.
//
// Usage: bench_ablation_partitioning [num_users]

#include "bench_util.h"
#include "core/sppj_d.h"

namespace {

bool SameResult(const std::vector<stps::ScoredUserPair>& x,
                const std::vector<stps::ScoredUserPair>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].a != y[i].a || x[i].b != y[i].b || x[i].score != y[i].score) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stps;
  using namespace stps::bench;
  const size_t num_users = ArgSize(argc, argv, 1, 400);

  std::printf("Ablation A5: S-PPJ-D partitioning backends (ms, %zu users, "
              "capacity 128)\n\n",
              num_users);
  std::printf("%-14s %12s %12s %12s %8s\n", "", "R-tree", "quadtree",
              "S-PPJ-F", "|R|");
  bool all_match = true;
  for (const DatasetKind kind : AllKinds()) {
    const ObjectDatabase& db = GetDataset(kind, num_users);
    const STPSQuery query = DefaultQuery(kind);

    const auto run_d = [&](PartitioningScheme scheme, const char* label,
                           std::vector<ScoredUserPair>* result) {
      SPPJDOptions options;
      options.partitioning = scheme;
      JoinStats stats;
      Timer timer;
      *result = SPPJD(db, query, options, &stats);
      const double ms = timer.ElapsedMillis();
      RecordJoinStats(label, stats);
      return ms;
    };
    std::vector<ScoredUserPair> rtree_result;
    const double rtree_ms =
        run_d(PartitioningScheme::kRTree, "S-PPJ-D/R-tree", &rtree_result);
    std::vector<ScoredUserPair> quad_result;
    const double quad_ms =
        run_d(PartitioningScheme::kQuadTree, "S-PPJ-D/quad", &quad_result);

    JoinOptions options;
    options.algorithm = JoinAlgorithm::kSPPJF;
    JoinStats f_stats;
    Timer f_timer;
    const std::vector<ScoredUserPair> f_result =
        RunSTPSJoin(db, query, options, &f_stats);
    const double f_ms = f_timer.ElapsedMillis();
    RecordJoinStats(JoinAlgorithmName(JoinAlgorithm::kSPPJF), f_stats);

    std::printf("%-14s %12.1f %12.1f %12.1f %8zu\n", DatasetKindName(kind),
                rtree_ms, quad_ms, f_ms, f_result.size());
    for (const auto& [name, result] :
         {std::pair{"R-tree", &rtree_result},
          std::pair{"quadtree", &quad_result}}) {
      if (!SameResult(*result, f_result)) {
        std::fprintf(stderr,
                     "MISMATCH: %s S-PPJ-D on %s gave %zu pairs, S-PPJ-F "
                     "%zu (or different pairs/scores)\n",
                     name, DatasetKindName(kind), result->size(),
                     f_result.size());
        all_match = false;
      }
    }
  }
  std::printf("\nexpected: both data-driven partitionings trail the "
              "eps_loc-matched grid of S-PPJ-F; their relative order "
              "depends on data skew (quadtree splits adapt to density, "
              "R-tree leaves balance cardinality).\n");
  return all_match ? 0 : 1;
}
