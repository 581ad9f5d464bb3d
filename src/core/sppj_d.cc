#include "core/sppj_d.h"

#include <algorithm>
#include <utility>

#include "core/ppjb.h"
#include "core/sppj_f.h"
#include "spatial/quadtree.h"
#include "spatial/spatial_join.h"

namespace stps {

SpatialPartitioning RTreePartitioning(const ObjectDatabase& db,
                                      int fanout) {
  std::vector<RTree::Entry> entries;
  entries.reserve(db.num_objects());
  for (const STObject& o : db.AllObjects()) {
    entries.push_back(RTree::Entry{o.loc, o.id});
  }
  const RTree tree = RTree::BulkLoad(std::move(entries), fanout);
  SpatialPartitioning out;
  for (const RTree::LeafRef& leaf : tree.CollectLeaves()) {
    out.mbrs.push_back(leaf.mbr);
    std::vector<ObjectId> members;
    members.reserve(leaf.entries.size());
    for (const RTree::Entry& entry : leaf.entries) {
      members.push_back(entry.value);
    }
    out.members.push_back(std::move(members));
  }
  return out;
}

SpatialPartitioning QuadTreePartitioning(const ObjectDatabase& db,
                                         int leaf_capacity) {
  std::vector<QuadTree::Entry> entries;
  entries.reserve(db.num_objects());
  for (const STObject& o : db.AllObjects()) {
    entries.push_back(QuadTree::Entry{o.loc, o.id});
  }
  const QuadTree tree = QuadTree::Build(std::move(entries), leaf_capacity);
  SpatialPartitioning out;
  for (const QuadTree::LeafRef& leaf : tree.CollectLeaves()) {
    out.mbrs.push_back(leaf.mbr);
    std::vector<ObjectId> members;
    members.reserve(leaf.entries.size());
    for (const QuadTree::Entry& entry : leaf.entries) {
      members.push_back(entry.value);
    }
    out.members.push_back(std::move(members));
  }
  return out;
}

LeafPartitionIndex::LeafPartitionIndex(const ObjectDatabase& db,
                                       double eps_loc, int fanout)
    : LeafPartitionIndex(db, eps_loc, RTreePartitioning(db, fanout)) {}

LeafPartitionIndex::LeafPartitionIndex(const ObjectDatabase& db,
                                       double eps_loc,
                                       const SpatialPartitioning& parts) {
  const size_t num_parts = parts.mbrs.size();
  STPS_CHECK(parts.members.size() == num_parts);
  extended_mbrs_.reserve(num_parts);

  // (leaf ordinal, ref) pairs per user, appended leaf by leaf so every
  // list stays ordinal-sorted, with a leaf's objects in member order;
  // turned into CSR layouts once all leaves are in (the spans must point
  // at the final flat arrays).
  std::vector<std::vector<std::pair<int64_t, ObjectRef>>> keyed(
      db.num_users());
  for (uint32_t ordinal = 0; ordinal < num_parts; ++ordinal) {
    extended_mbrs_.push_back(parts.mbrs[ordinal].Extended(eps_loc));
    for (const ObjectId id : parts.members[ordinal]) {
      const STObject& o = db.object(id);
      keyed[o.user].emplace_back(ordinal, ObjectRef{&o, db.LocalIndex(o)});
    }
  }
  per_user_.reserve(db.num_users());
  for (UserId u = 0; u < db.num_users(); ++u) {
    per_user_.push_back(MakeUserLayout(keyed[u]));
  }

  // Precompute which extended partition MBRs intersect (spatial join).
  adjacency_.resize(num_parts);
  for (uint32_t l = 0; l < num_parts; ++l) adjacency_[l].push_back(l);
  for (const auto& [i, j] : RectSelfJoin(extended_mbrs_)) {
    adjacency_[i].push_back(j);
    adjacency_[j].push_back(i);
  }
  for (auto& list : adjacency_) std::sort(list.begin(), list.end());
}

namespace {

LeafPartitionIndex BuildIndex(const ObjectDatabase& db,
                              const STPSQuery& query,
                              const SPPJDOptions& options) {
  return LeafPartitionIndex(
      db, query.eps_loc,
      options.partitioning == PartitioningScheme::kRTree
          ? RTreePartitioning(db, options.fanout)
          : QuadTreePartitioning(db, options.fanout));
}

}  // namespace

std::vector<ScoredUserPair> SPPJD(const ObjectDatabase& db,
                                  const STPSQuery& query,
                                  const SPPJDOptions& options,
                                  JoinStats* stats,
                                  const JoinPartition& partition) {
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.eps_u > 0.0);
  if (db.num_objects() == 0) return {};
  const LeafPartitionIndex leaves = BuildIndex(db, query, options);
  const LeafNeighborhood neighborhood = leaves.neighborhood();
  const MatchThresholds t = query.match_thresholds();
  const auto ppjd = [&](const UserLayout& lu, size_t nu, const UserLayout& lv,
                        size_t nv, double eps_u, JoinStats* ws,
                        size_t* matched) {
    return PPJCPair(lu, nu, lv, nv, neighborhood, t, eps_u, ws, matched);
  };
  return SPPJFJoin(db, leaves.layouts(), neighborhood, ppjd, query, stats,
                   partition);
}

}  // namespace stps
