// Pair-level kernels: given the cell (or leaf) lists of two users, compute
// the point-set similarity sigma(Du, Dv).
//
//  * PPJCPair — the merged partition walk: the non-self PPJ-C traversal
//    (Section 4.1.1) over grid cells, and PPJ-D (Algorithm 3) over leaves.
//    Partitions in ascending id order, each joined with its own and
//    higher-id neighbours of the other user. With eps_u > 0 it adds PPJ-D's
//    Lemma 1 stop: once a partition is walked, every pair involving the
//    walked partitions has been joined, so their unmatched objects stay
//    unmatched. PPJ-C passes eps_u = 0 and is always exact.
//  * PPJBPair — the PPJ-B traversal (Section 4.1.2, Figure 2b): rows
//    bottom-up; odd rows join all neighbours but East, even rows only West
//    (and self); at the end of every odd row (or across an empty-row gap)
//    the integer Lemma 1 budget (SigmaUnmatchedBudget, exactly consistent
//    with SigmaAtLeast — see common/predicates.h) enables early
//    termination. Returns the exact sigma when sigma >= eps_u and 0 when
//    the pair was pruned.
//
// Every kernel optionally reports sigma's integer numerator through
// `matched_out`; threshold decisions must use SigmaAtLeast on that count,
// not the rounded double quotient.

#ifndef STPS_CORE_PPJB_H_
#define STPS_CORE_PPJB_H_

#include <span>

#include "core/join_stats.h"
#include "core/user_grid.h"
#include "spatial/grid.h"
#include "stjoin/object.h"

namespace stps {

/// Sigma via the merged partition walk over `neighborhood`
/// (GridNeighborhood: PPJ-C; LeafNeighborhood: PPJ-D). `cu` / `cv` are
/// the users' CSR partition layouts; `nu` / `nv` = |Du| / |Dv|.
/// Partition-vs-partition joins run through the batched SoA mark kernel
/// (PPJCrossMarkBatch). With eps_u <= 0 the result is always exact;
/// otherwise it is exact whenever sigma >= eps_u and 0 once the integer
/// Lemma 1 budget (SigmaUnmatchedBudget) proves sigma < eps_u. `stats`
/// (optional) accrues cells_visited for the merged traversal,
/// refine_early_stops, and the batch kernel counters. Defined for
/// GridNeighborhood and LeafNeighborhood.
template <typename Neighborhood>
double PPJCPair(const UserLayout& cu, size_t nu, const UserLayout& cv,
                size_t nv, const Neighborhood& neighborhood,
                const MatchThresholds& t, double eps_u = 0.0,
                JoinStats* stats = nullptr, size_t* matched_out = nullptr);

/// Sigma via the PPJ-B traversal with early termination at threshold
/// eps_u. Returns the exact sigma whenever sigma >= eps_u; returns 0 as
/// soon as the unmatched-object bound proves sigma < eps_u. With
/// eps_u <= 0 it is always exact. `stats` (optional) accrues
/// cells_visited and refine_early_stops plus the batch kernel counters.
double PPJBPair(const UserLayout& cu, size_t nu, const UserLayout& cv,
                size_t nv, const GridGeometry& grid,
                const MatchThresholds& t, double eps_u,
                JoinStats* stats = nullptr, size_t* matched_out = nullptr);

/// Convenience: exact sigma for two raw object sets, building the
/// per-pair cell lists on the fly (used by the threshold auto-tuner to
/// re-verify surviving pairs under tightened thresholds).
double PairSigma(std::span<const STObject> du, std::span<const STObject> dv,
                 const MatchThresholds& t, size_t* matched_out = nullptr);

}  // namespace stps

#endif  // STPS_CORE_PPJB_H_
