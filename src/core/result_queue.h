// Bounded best-k container under the TopKBetter total order, shared by
// every top-k pass (core/topk.cc and the sketch-candidate driver in
// sketch/sketch_join.cc) and the join executor's merge.
//
// Tie semantics at the threshold: a candidate whose score exactly equals
// the tail's enters iff it beats the tail on the id order (TopKBetter is a
// total order, so Offer is deterministic and independent of arrival
// order). Every pruning stage upstream must therefore keep candidates
// whose score can still *tie* the tail's. Two things guarantee it. The
// prunes go through the exact counting predicates of common/predicates.h,
// never through a rounded quotient. And Threshold() is not the tail's
// score itself but a bound no greater than the exact ratio of any pair
// whose rounded score equals it: the tail score fl(m / T) may round *up*
// (1/10 does), and pruning an exact m' / T' = m / T against it would drop
// a tie before Offer could break it on the ids. One worker and many
// (per-worker queues merged via Offer at the end, core/join_executor.h)
// then resolve boundary ties identically.

#ifndef STPS_CORE_RESULT_QUEUE_H_
#define STPS_CORE_RESULT_QUEUE_H_

#include <set>
#include <vector>

#include "common/predicates.h"
#include "core/similarity.h"

namespace stps {

struct TopKBetterCmp {
  bool operator()(const ScoredUserPair& x, const ScoredUserPair& y) const {
    return TopKBetter(x, y);
  }
};

class ResultQueue {
 public:
  explicit ResultQueue(size_t k) : k_(k) {}

  bool full() const { return pairs_.size() >= k_; }

  /// The prune threshold of a candidate (0 until full): a pair whose
  /// exact sigma is below it cannot enter. One ULP under the tail score
  /// (ThresholdFromScore), so it never exceeds the exact ratio of a pair
  /// that ties the tail.
  double Threshold() const {
    return full() ? ThresholdFromScore(Tail().score) : 0.0;
  }

  /// Offers a pair; keeps only the best k.
  void Offer(const ScoredUserPair& pair) {
    if (full() && !TopKBetter(pair, Tail())) return;
    pairs_.insert(pair);
    if (pairs_.size() > k_) pairs_.erase(std::prev(pairs_.end()));
  }

  std::vector<ScoredUserPair> TakeSorted() const {
    return std::vector<ScoredUserPair>(pairs_.begin(), pairs_.end());
  }

 private:
  const ScoredUserPair& Tail() const { return *pairs_.rbegin(); }

  size_t k_;
  std::set<ScoredUserPair, TopKBetterCmp> pairs_;
};

}  // namespace stps

#endif  // STPS_CORE_RESULT_QUEUE_H_
