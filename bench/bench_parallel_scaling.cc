// Ablation A4: shared-memory scaling of the join executor (a step toward
// the paper's future-work distributed processing).
//
// Part 1 times S-PPJ-F on the work-stealing ThreadPool on every dataset
// preset. Part 2 reports pool scaling for every algorithm on the executor
// (S-PPJ-B/C/D/F and TOPK-S-PPJ-F); on a multi-core host the speedup
// should track the thread count until the per-user work runs out. The
// per-stage filter counters print at exit via the bench_util stats
// registry.
//
// Usage: bench_parallel_scaling [num_users]

#include <algorithm>
#include <thread>

#include "bench_util.h"
#include "core/sppj_b.h"
#include "core/sppj_c.h"
#include "core/sppj_d.h"
#include "core/sppj_f.h"
#include "core/topk.h"

int main(int argc, char** argv) {
  using namespace stps;
  using namespace stps::bench;
  const size_t num_users = ArgSize(argc, argv, 1, 400);
  const int thread_counts[] = {1, 2, 4, 8};
  constexpr int kRepeats = 3;

  std::printf("Ablation A4: parallel join scaling (%zu users; host has "
              "%u hardware threads)\n\n",
              num_users, std::thread::hardware_concurrency());

  std::printf("Pool S-PPJ-F (ms, best of %d)\n", kRepeats);
  std::printf("%-14s %10s %10s %10s %10s %8s\n", "", "1 thread", "2", "4",
              "8", "|R|");
  for (const DatasetKind kind : AllKinds()) {
    const ObjectDatabase& db = GetDataset(kind, num_users);
    const STPSQuery query = DefaultQuery(kind);
    // Warm caches so the first timed configuration isn't penalised.
    SPPJF(db, query, /*stats=*/nullptr, ParallelOptions{1, 0});
    size_t pool_size = 0;
    double pool_ms[4];
    // Keep the best repeat — the host is shared, so single measurements
    // are noisy.
    for (double& ms : pool_ms) ms = 1e300;
    for (int rep = 0; rep < kRepeats; ++rep) {
      for (int i = 0; i < 4; ++i) {
        Timer pool_timer;
        pool_size = SPPJF(db, query, /*stats=*/nullptr,
                          ParallelOptions{thread_counts[i], 0})
                        .size();
        pool_ms[i] = std::min(pool_ms[i], pool_timer.ElapsedMillis());
      }
    }
    std::printf("%-14s", DatasetKindName(kind));
    for (const double ms : pool_ms) std::printf(" %10.1f", ms);
    std::printf(" %8zu\n", pool_size);
  }

  std::printf("\nPool scaling per algorithm (ms; GeoText-like preset)\n");
  std::printf("%-14s %10s %10s %10s %10s %8s\n", "", "1 thread", "2", "4",
              "8", "|R|");
  const ObjectDatabase& db = GetDataset(DatasetKind::kGeoTextLike, num_users);
  const STPSQuery query = DefaultQuery(DatasetKind::kGeoTextLike);
  const auto time_variant = [&](const char* name, auto&& run) {
    std::printf("%-14s", name);
    size_t result_size = 0;
    for (const int threads : thread_counts) {
      JoinStats stats;
      Timer timer;
      const auto result = run(ParallelOptions{threads, 0}, &stats);
      result_size = result.size();
      std::printf(" %10.1f", timer.ElapsedMillis());
      RecordJoinStats(name, stats);
    }
    std::printf(" %8zu\n", result_size);
  };
  time_variant("S-PPJ-B", [&](const ParallelOptions& p, JoinStats* s) {
    return SPPJB(db, query, s, p);
  });
  time_variant("S-PPJ-C", [&](const ParallelOptions& p, JoinStats* s) {
    return SPPJC(db, query, s, p);
  });
  time_variant("S-PPJ-D", [&](const ParallelOptions& p, JoinStats* s) {
    return SPPJD(db, query, SPPJDOptions{}, s, p);
  });
  time_variant("S-PPJ-F", [&](const ParallelOptions& p, JoinStats* s) {
    return SPPJF(db, query, s, p);
  });
  const TopKQuery topk_query{query.eps_loc, query.eps_doc, 100};
  time_variant("TOPK-S-PPJ-F", [&](const ParallelOptions& p, JoinStats* s) {
    return TopKSTPSJoin(db, topk_query, TopKVariant::kF, s, p);
  });
  return 0;
}
