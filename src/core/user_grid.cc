#include "core/user_grid.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "text/token_set.h"

namespace stps {

UserLayout MakeUserLayout(
    std::span<const std::pair<int64_t, ObjectRef>> keyed) {
  UserLayout layout;
  const size_t n = keyed.size();
  layout.refs.reserve(n);
  layout.xs.reserve(n);
  layout.ys.reserve(n);
  for (const auto& [id, ref] : keyed) {
    if (layout.cells.empty() || layout.cells.back().id != id) {
      layout.cells.push_back(UserPartition{
          id, {}, static_cast<uint32_t>(layout.refs.size())});
    }
    layout.refs.push_back(ref);
    layout.xs.push_back(ref.object->loc.x);
    layout.ys.push_back(ref.object->loc.y);
  }
  // Fix up the partition spans only now that refs has its final buffer.
  for (size_t c = 0; c < layout.cells.size(); ++c) {
    UserPartition& p = layout.cells[c];
    const uint32_t end = c + 1 < layout.cells.size()
                             ? layout.cells[c + 1].begin
                             : static_cast<uint32_t>(layout.refs.size());
    p.objects = std::span<const ObjectRef>(layout.refs.data() + p.begin,
                                           end - p.begin);
  }
  return layout;
}

UserGrid::UserGrid(const ObjectDatabase& db, double eps_loc)
    : geometry_(db.bounds(), eps_loc) {
  per_user_.resize(db.num_users());
  std::vector<std::pair<CellId, uint32_t>> scratch;  // (cell, local index)
  std::vector<std::pair<int64_t, ObjectRef>> keyed;
  for (UserId u = 0; u < db.num_users(); ++u) {
    const std::span<const STObject> objects = db.UserObjects(u);
    scratch.clear();
    scratch.reserve(objects.size());
    for (uint32_t i = 0; i < objects.size(); ++i) {
      scratch.emplace_back(geometry_.CellOf(objects[i].loc), i);
    }
    // The Z-ordered slots arrive nearly cell-sorted already; the sort key
    // keeps (cell, local) so a cell's objects stay in slot order.
    std::sort(scratch.begin(), scratch.end());
    keyed.clear();
    keyed.reserve(scratch.size());
    for (const auto& [cell, local] : scratch) {
      keyed.emplace_back(cell, ObjectRef{&objects[local], local});
    }
    per_user_[u] = MakeUserLayout(keyed);
  }
}

const UserPartition* FindPartition(const UserPartitionList& list,
                                   int64_t id) {
  const auto it = std::lower_bound(
      list.begin(), list.end(), id,
      [](const UserPartition& p, int64_t v) { return p.id < v; });
  if (it == list.end() || it->id != id) return nullptr;
  return &*it;
}

size_t PartitionObjectCount(const UserPartitionList& list, int64_t id) {
  const UserPartition* p = FindPartition(list, id);
  return p == nullptr ? 0 : p->objects.size();
}

void MergePartitionLists(const UserPartitionList& cu,
                         const UserPartitionList& cv,
                         std::vector<MergedPartition>* out) {
  out->clear();
  out->reserve(cu.size() + cv.size());
  size_t i = 0, j = 0;
  while (i < cu.size() || j < cv.size()) {
    if (j >= cv.size() || (i < cu.size() && cu[i].id < cv[j].id)) {
      out->push_back({cu[i].id, &cu[i], nullptr});
      ++i;
    } else if (i >= cu.size() || cv[j].id < cu[i].id) {
      out->push_back({cv[j].id, nullptr, &cv[j]});
      ++j;
    } else {
      out->push_back({cu[i].id, &cu[i], &cv[j]});
      ++i;
      ++j;
    }
  }
}

std::vector<MergedPartition> MergePartitionLists(
    const UserPartitionList& cu, const UserPartitionList& cv) {
  std::vector<MergedPartition> merged;
  MergePartitionLists(cu, cv, &merged);
  return merged;
}

void DistinctTokens(std::span<const ObjectRef> objects, TokenVector* out) {
  out->clear();
  for (const ObjectRef& ref : objects) {
    out->insert(out->end(), ref.object->doc.begin(), ref.object->doc.end());
  }
  NormalizeTokenSet(out);
}

TokenVector DistinctTokens(std::span<const ObjectRef> objects) {
  TokenVector tokens;
  DistinctTokens(objects, &tokens);
  return tokens;
}

SpatioTextualGridIndex::SpatioTextualGridIndex(const UserGrid& grid,
                                               std::span<const UserId> order)
    : rank_(grid.num_users(), kUnranked) {
  // One row per (user, cell, distinct token) plus one whole-cell row per
  // (user, cell), emitted in rank order.
  struct Row {
    CellId cell;
    TokenId token;
    uint32_t rank;
  };
  std::vector<Row> rows;
  TokenVector tokens;
  for (uint32_t r = 0; r < order.size(); ++r) {
    const UserId u = order[r];
    STPS_CHECK(u < rank_.size() && rank_[u] == kUnranked);
    rank_[u] = r;
    for (const UserPartition& cell : grid.UserCells(u)) {
      rows.push_back({cell.id, kCellToken, r});
      DistinctTokens(cell.objects, &tokens);
      STPS_DCHECK(tokens.empty() || tokens.back() != kCellToken);
      for (const TokenId t : tokens) rows.push_back({cell.id, t, r});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.cell != b.cell) return a.cell < b.cell;
    if (a.token != b.token) return a.token < b.token;
    return a.rank < b.rank;
  });
  STPS_CHECK(rows.size() < kUnranked);

  const auto same_key = [](const Row& a, const Row& b) {
    return a.cell == b.cell && a.token == b.token;
  };
  size_t keys = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || !same_key(rows[i - 1], rows[i])) ++keys;
  }
  if (keys == 0) return;
  slots_.resize(std::bit_ceil(2 * keys));
  mask_ = slots_.size() - 1;
  users_.reserve(rows.size());
  for (size_t i = 0; i < rows.size();) {
    const uint32_t begin = static_cast<uint32_t>(users_.size());
    size_t j = i;
    for (; j < rows.size() && same_key(rows[i], rows[j]); ++j) {
      users_.push_back(order[rows[j].rank]);
    }
    size_t s = Hash(rows[i].cell, rows[i].token) & mask_;
    while (slots_[s].count != 0) s = (s + 1) & mask_;
    slots_[s] = Slot{rows[i].cell, rows[i].token,
                     static_cast<uint32_t>(j - i), begin};
    i = j;
  }
}

namespace {

std::vector<UserId> IdentityOrder(size_t num_users) {
  std::vector<UserId> order(num_users);
  std::iota(order.begin(), order.end(), UserId{0});
  return order;
}

}  // namespace

SpatioTextualGridIndex::SpatioTextualGridIndex(const UserGrid& grid)
    : SpatioTextualGridIndex(grid, IdentityOrder(grid.num_users())) {}

void CollectEarlierCandidates(const GridGeometry& geometry,
                              const SpatioTextualGridIndex& index,
                              const UserLayout& cu, uint32_t rank_u,
                              UserCandidateTable<CandidateCells>* candidates,
                              JoinStats* stats) {
  // Hoisted per-thread scratch: this runs once per probing user.
  thread_local std::vector<CellId> neighbors;
  thread_local TokenVector tokens;
  for (const UserPartition& cell : cu) {
    DistinctTokens(cell.objects, &tokens);
    neighbors.clear();
    geometry.AppendNeighborhood(cell.id, /*include_self=*/true, &neighbors);
    for (const CellId other : neighbors) {
      if (stats != nullptr) ++stats->cells_visited;
      for (const TokenId token : tokens) {
        for (const UserId candidate : index.TokenUsers(other, token)) {
          if (index.Rank(candidate) >= rank_u) break;  // lists ascend
          CandidateCells& cc = (*candidates)[candidate];
          // Cells of u arrive in ascending order, so the back() check
          // fully deduplicates my_cells; their_cells interleaves across
          // the outer cell loop, so there it only limits growth.
          if (cc.my_cells.empty() || cc.my_cells.back() != cell.id) {
            cc.my_cells.push_back(cell.id);
          }
          if (cc.their_cells.empty() || cc.their_cells.back() != other) {
            cc.their_cells.push_back(other);
          }
        }
      }
    }
  }
}

size_t CountColocatedEarlierUsers(const GridGeometry& geometry,
                                  const SpatioTextualGridIndex& index,
                                  const UserLayout& cu, UserId u) {
  // Hoisted per-thread scratch: this runs once per probing user in every
  // S-PPJ-F driver that collects JoinStats.
  thread_local UserStampSet colocated;
  thread_local std::vector<CellId> neighbors;
  colocated.BeginRound(index.num_users());
  const uint32_t rank_u = index.Rank(u);
  for (const UserPartition& cell : cu) {
    neighbors.clear();
    geometry.AppendNeighborhood(cell.id, /*include_self=*/true, &neighbors);
    for (const CellId other : neighbors) {
      for (const UserId candidate : index.CellUsers(other)) {
        if (index.Rank(candidate) >= rank_u) break;  // lists ascend by rank
        colocated.Insert(candidate);
      }
    }
  }
  return colocated.size();
}

}  // namespace stps
