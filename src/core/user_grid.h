// Per-user spatial partitioning structures shared by the S-PPJ-* family.
//
// UserGrid materialises, for a query's eps_loc grid, the per-user cell
// lists Cu (sorted by cell id) with the objects Du_c of each cell; the
// PPJ-C / PPJ-B pair kernels merge two such lists. The same structure
// doubles as the per-leaf partition lists of S-PPJ-D (ids are leaf
// ordinals instead of grid cell ids).
//
// Storage is CSR: a UserLayout owns one flat, cell-grouped array of
// object refs plus SoA coordinate mirrors, and each UserPartition is just
// a contiguous range into it. Because the database slots are Z-ordered,
// a cell's objects are (mostly) adjacent in the source arrays too, and
// the batched eps_loc kernels (spatial/batch.h) stream a whole cell block
// per probe instead of chasing one STObject pointer per candidate.
//
// SpatioTextualGridIndex is the spatio-textual grid index of S-PPJ-F and
// TOPK-S-PPJ-* (Figure 3): per occupied cell, an inverted list token ->
// users having an object with that token in the cell. The paper fills it
// incrementally, user by user; here it is built once per query, over all
// users, in the query's processing order. Every list ascends in that
// order, so a probing user sees exactly the users the incremental index
// would hold by scanning a list until the first entry of its own rank.
// Built once and read-only afterwards, it is shared by the sequential and
// parallel drivers alike.

#ifndef STPS_CORE_USER_GRID_H_
#define STPS_CORE_USER_GRID_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/join_stats.h"
#include "spatial/grid.h"
#include "stjoin/ppj.h"

namespace stps {

/// The objects of one user inside one spatial partition (grid cell or
/// R-tree leaf). `id` is the partition id; `objects` is a view into the
/// owning UserLayout's CSR ref array starting at offset `begin` (the same
/// offset addresses the layout's xs/ys coordinate blocks). Refs carry
/// user-local indices for matched-flag bookkeeping.
struct UserPartition {
  int64_t id = 0;
  std::span<const ObjectRef> objects;
  uint32_t begin = 0;
};

/// Sorted list of partitions occupied by one user (the paper's Cu / Lu).
using UserPartitionList = std::vector<UserPartition>;

/// Cell-grouped CSR layout of one user's objects: `refs` (and the aligned
/// coordinate mirrors `xs`/`ys`) hold the objects partition by partition
/// in ascending partition-id order; `cells` delimits the ranges.
/// Move-only: the partition spans point into `refs`' heap buffer, which a
/// move preserves and a copy would not.
struct UserLayout {
  UserPartitionList cells;
  std::vector<ObjectRef> refs;
  std::vector<double> xs;
  std::vector<double> ys;

  UserLayout() = default;
  UserLayout(const UserLayout&) = delete;
  UserLayout& operator=(const UserLayout&) = delete;
  UserLayout(UserLayout&&) = default;
  UserLayout& operator=(UserLayout&&) = default;

  /// Range-for iterates the partitions, as with a bare UserPartitionList.
  UserPartitionList::const_iterator begin() const { return cells.begin(); }
  UserPartitionList::const_iterator end() const { return cells.end(); }
  bool empty() const { return cells.empty(); }
};

/// Builds a UserLayout from (partition id, ref) pairs that are already
/// sorted ascending by id (order within a partition is preserved). The
/// coordinate mirrors are filled from the refs' STObjects.
UserLayout MakeUserLayout(
    std::span<const std::pair<int64_t, ObjectRef>> keyed);

/// The coordinate block of a possibly-absent partition in its layout:
/// empty for nullptr. This is what the batch kernels consume.
inline CellBlock BlockOf(const UserLayout& layout, const UserPartition* p) {
  if (p == nullptr) return CellBlock{};
  return CellBlock{p->objects, layout.xs.data() + p->begin,
                   layout.ys.data() + p->begin};
}

/// Builds the per-user cell lists for a grid with cell extent eps_loc.
class UserGrid {
 public:
  /// Precondition: db has at least one object, eps_loc > 0.
  UserGrid(const ObjectDatabase& db, double eps_loc);

  const GridGeometry& geometry() const { return geometry_; }

  /// Cu: the cells occupied by user u, ascending by cell id, with the
  /// CSR object/coordinate arrays behind them.
  const UserLayout& UserCells(UserId u) const {
    STPS_DCHECK(u < per_user_.size());
    return per_user_[u];
  }

  size_t num_users() const { return per_user_.size(); }

 private:
  GridGeometry geometry_;
  std::vector<UserLayout> per_user_;
};

/// Returns |Du_p| for partition `id` in a sorted UserPartitionList, or 0
/// when the user does not occupy it.
size_t PartitionObjectCount(const UserPartitionList& list, int64_t id);

/// Finds the partition with the given id; nullptr when absent.
const UserPartition* FindPartition(const UserPartitionList& list, int64_t id);

/// UserLayout conveniences for the same lookups.
inline const UserPartition* FindPartition(const UserLayout& layout,
                                          int64_t id) {
  return FindPartition(layout.cells, id);
}
inline size_t PartitionObjectCount(const UserLayout& layout, int64_t id) {
  return PartitionObjectCount(layout.cells, id);
}

/// The distinct tokens appearing in `objects` (ascending).
TokenVector DistinctTokens(std::span<const ObjectRef> objects);

/// Scratch-reusing variant: clears *out and fills it with the distinct
/// tokens of `objects` (ascending). Hot loops pass a hoisted buffer to
/// avoid one allocation per partition.
void DistinctTokens(std::span<const ObjectRef> objects, TokenVector* out);

/// Sorts `*v` ascending and drops duplicates. The single authoritative
/// dedup for candidate cell/leaf bookkeeping: the filter loops only
/// perform an opportunistic back() check to limit growth, so supporting
/// cell lists MUST pass through here before being counted into the
/// sigma_bar bound (interleaved cell visits leave interior duplicates).
template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// One element of the merged traversal over two users' partition lists.
struct MergedPartition {
  int64_t id = 0;
  const UserPartition* u = nullptr;  // nullptr when the user is absent
  const UserPartition* v = nullptr;
};

/// Merges two sorted partition lists into the ascending sequence of
/// distinct ids with per-side pointers.
std::vector<MergedPartition> MergePartitionLists(const UserPartitionList& cu,
                                                 const UserPartitionList& cv);

/// Scratch-reusing variant: clears *out and fills it with the merged
/// traversal. Hot loops pass a hoisted buffer to avoid one allocation per
/// user pair.
void MergePartitionLists(const UserPartitionList& cu,
                         const UserPartitionList& cv,
                         std::vector<MergedPartition>* out);

inline void MergePartitionLists(const UserLayout& cu, const UserLayout& cv,
                                std::vector<MergedPartition>* out) {
  MergePartitionLists(cu.cells, cv.cells, out);
}

/// The objects of a possibly-absent partition (empty span for nullptr).
inline std::span<const ObjectRef> PartitionObjects(const UserPartition* p) {
  return p == nullptr ? std::span<const ObjectRef>() : p->objects;
}

/// The cells of u whose objects may match a candidate (my_cells) and the
/// candidate's own supporting cells (their_cells) — the inputs of the
/// sigma_bar count bound. Shared by the S-PPJ-F/-D filters and the top-k
/// drivers (partition ids are cell ids or leaf ordinals alike).
struct CandidateCells {
  std::vector<int64_t> my_cells;
  std::vector<int64_t> their_cells;

  void Clear() {
    my_cells.clear();
    their_cells.clear();
  }
};

/// Epoch-stamped set of user ids: Insert is an array index plus a stamp
/// compare, and starting a new round (an empty set) is O(1) — no rehash
/// and no clear of the stamp array.
class UserStampSet {
 public:
  /// Starts a new, empty round for a universe of `num_users` users.
  void BeginRound(size_t num_users) {
    if (stamp_.size() < num_users) stamp_.resize(num_users, 0);
    touched_.clear();
    if (++round_ == 0) {  // stamp wraparound: invalidate everything
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      round_ = 1;
    }
  }

  /// Adds `u`; true when it was not yet in the set this round.
  bool Insert(UserId u) {
    STPS_DCHECK(u < stamp_.size());
    if (stamp_[u] == round_) return false;
    stamp_[u] = round_;
    touched_.push_back(u);
    return true;
  }

  /// Number of users inserted this round.
  size_t size() const { return touched_.size(); }

  /// The users inserted this round, sorted ascending (in place).
  std::span<const UserId> SortedTouched() {
    std::sort(touched_.begin(), touched_.end());
    return touched_;
  }

 private:
  uint32_t round_ = 0;
  std::vector<uint32_t> stamp_;
  std::vector<UserId> touched_;
};

/// Dense epoch-stamped per-user candidate accumulator, replacing the
/// unordered_map<UserId, V> tables of the filter loops: operator[] is an
/// array index plus a stamp compare, and starting a new probing user is
/// O(1) — no rehash, no per-round clear of the value slots (a slot is
/// lazily Clear()ed the first time its stamp misses the current round).
/// SortedTouched() yields this round's candidates ascending by id, making
/// the refine order deterministic (the maps iterated in hash order).
template <typename V>
class UserCandidateTable {
 public:
  /// Starts a new round for a universe of `num_users` users.
  void BeginRound(size_t num_users) {
    if (values_.size() < num_users) values_.resize(num_users);
    users_.BeginRound(num_users);
  }

  /// The value slot of user `u`, cleared on first touch this round.
  V& operator[](UserId u) {
    if (users_.Insert(u)) values_[u].Clear();
    return values_[u];
  }

  /// Number of users touched this round.
  size_t size() const { return users_.size(); }

  /// The users touched this round, sorted ascending (in place).
  std::span<const UserId> SortedTouched() { return users_.SortedTouched(); }

 private:
  UserStampSet users_;
  std::vector<V> values_;
};

/// The spatio-textual grid index of S-PPJ-F / TOPK-S-PPJ-*, built once
/// from a UserGrid over the users of a processing order. Storage is flat:
/// one sort of (cell, token, rank) rows fills a single UserId array, and
/// one open-addressed (cell, token) -> range table points into it. The
/// whole-cell user lists live in the same table under a reserved token.
/// Every list ascends in processing order (rank), so a driver that probes
/// for users processed before u stops each scan at the first entry with
/// Rank >= Rank(u). Immutable after construction; safe to share across
/// threads.
class SpatioTextualGridIndex {
 public:
  /// Rank of a user that is not in the processing order.
  static constexpr uint32_t kUnranked = std::numeric_limits<uint32_t>::max();

  /// Indexes every (cell, token) of every user in `order`, which lists
  /// distinct users; a user's rank is its position in `order`.
  SpatioTextualGridIndex(const UserGrid& grid, std::span<const UserId> order);

  /// Indexes all users of `grid` in ascending id order (rank == id).
  explicit SpatioTextualGridIndex(const UserGrid& grid);

  /// The indexed users (ascending by rank) having an object with token
  /// `t` in cell `cell`; empty when none.
  std::span<const UserId> TokenUsers(CellId cell, TokenId t) const {
    STPS_DCHECK(t != kCellToken);
    return Find(cell, t);
  }

  /// The indexed users (ascending by rank, one entry each) having any
  /// object in `cell`; empty when none.
  std::span<const UserId> CellUsers(CellId cell) const {
    return Find(cell, kCellToken);
  }

  /// True when cell `cell` holds any indexed object.
  bool CellOccupied(CellId cell) const { return !CellUsers(cell).empty(); }

  /// The processing rank of `u`; kUnranked when u is not indexed.
  uint32_t Rank(UserId u) const {
    STPS_DCHECK(u < rank_.size());
    return rank_[u];
  }

  /// Size of the user-id universe (the grid's user count).
  size_t num_users() const { return rank_.size(); }

 private:
  // The reserved token keying the whole-cell user lists.
  static constexpr TokenId kCellToken = std::numeric_limits<TokenId>::max();

  // One open-addressed slot; count == 0 marks an empty slot.
  struct Slot {
    CellId cell = 0;
    TokenId token = 0;
    uint32_t count = 0;
    uint32_t begin = 0;
  };

  static size_t Hash(CellId cell, TokenId t) {
    uint64_t h = static_cast<uint64_t>(cell) * 0x9E3779B97F4A7C15ull + t;
    h ^= h >> 31;
    h *= 0xBF58476D1CE4E5B9ull;
    return static_cast<size_t>(h ^ (h >> 29));
  }

  std::span<const UserId> Find(CellId cell, TokenId t) const {
    if (slots_.empty()) return {};
    for (size_t i = Hash(cell, t) & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.count == 0) return {};
      if (slot.cell == cell && slot.token == t) {
        return {users_.data() + slot.begin, slot.count};
      }
    }
  }

  std::vector<uint32_t> rank_;  // by user id
  std::vector<UserId> users_;   // every list, back to back
  std::vector<Slot> slots_;     // power-of-two size, <= half full
  size_t mask_ = 0;
};

/// The S-PPJ-F filter: probes the distinct tokens of every cell of `cu`
/// against the inverted lists of the cell and its neighbours, and records
/// in `*candidates` every user ranked before `rank_u` found there, with
/// its supporting cells (my_cells / their_cells may hold duplicates until
/// SortUnique). `candidates` must have had BeginRound called. Accrues
/// cells_visited into `*stats` when non-null. Shared by the S-PPJ-F and
/// top-k drivers.
void CollectEarlierCandidates(const GridGeometry& geometry,
                              const SpatioTextualGridIndex& index,
                              const UserLayout& cu, uint32_t rank_u,
                              UserCandidateTable<CandidateCells>* candidates,
                              JoinStats* stats);

/// Number of distinct indexed users ranked before u having an object in
/// `cu`'s cells or their neighbourhood — the users that pass the spatial
/// part of the S-PPJ-F filter for user u. Only used for the JoinStats
/// spatial/textual breakdown.
size_t CountColocatedEarlierUsers(const GridGeometry& geometry,
                                  const SpatioTextualGridIndex& index,
                                  const UserLayout& cu, UserId u);

}  // namespace stps

#endif  // STPS_CORE_USER_GRID_H_
