#include "matching/taxi_index.h"

#include <gtest/gtest.h>

#include "graph/graph_generators.h"
#include "routing/dijkstra.h"
#include "sim/taxi.h"

namespace mtshare {
namespace {

class TaxiIndexTest : public ::testing::Test {
 protected:
  TaxiIndexTest() {
    GridCityOptions opt;
    opt.rows = 12;
    opt.cols = 12;
    opt.seed = 17;
    net_ = MakeGridCity(opt);
    partitioning_ = GridPartition(net_, 9);
    index_ =
        std::make_unique<MtShareTaxiIndex>(net_, partitioning_, 0.707);
  }

  TaxiState IdleTaxiAt(TaxiId id, VertexId v) {
    TaxiState t;
    t.id = id;
    t.capacity = 3;
    t.location = v;
    return t;
  }

  bool InPartitionList(PartitionId p, TaxiId id) {
    return index_->PartitionContains(p, id);
  }

  RoadNetwork net_;
  MapPartitioning partitioning_;
  std::unique_ptr<MtShareTaxiIndex> index_;
};

TEST_F(TaxiIndexTest, IdleTaxiIndexedInItsPartition) {
  TaxiState t = IdleTaxiAt(0, 10);
  index_->ReindexTaxi(t, 0.0);
  EXPECT_TRUE(InPartitionList(partitioning_.PartitionOf(10), 0));
  // Idle: not mobility-clustered.
  EXPECT_EQ(index_->clustering().num_members(), 0);
}

TEST_F(TaxiIndexTest, ReindexMovesMembership) {
  TaxiState t = IdleTaxiAt(0, 10);
  index_->ReindexTaxi(t, 0.0);
  PartitionId before = partitioning_.PartitionOf(10);
  // Move the idle taxi far away.
  VertexId far = net_.num_vertices() - 1;
  t.location = far;
  index_->OnTaxiAdvanced(t, 0, 0);
  PartitionId after = partitioning_.PartitionOf(far);
  if (before != after) {
    EXPECT_FALSE(InPartitionList(before, 0));
  }
  EXPECT_TRUE(InPartitionList(after, 0));
}

TEST_F(TaxiIndexTest, BusyTaxiIndexedAlongRouteWithinHorizon) {
  TaxiState t = IdleTaxiAt(1, 0);
  // Fake a committed route crossing the map with a dropoff far away.
  DijkstraSearch search(net_);
  Path path = search.FindPath(0, net_.num_vertices() - 1);
  ASSERT_TRUE(path.valid);
  RideRequest r;
  r.id = 7;
  r.origin = 0;
  r.destination = net_.num_vertices() - 1;
  r.release_time = 0.0;
  r.direct_cost = path.cost;
  r.deadline = 10 * path.cost;
  t.schedule = Schedule::WithInsertion(Schedule(), r, 0, 0);
  ApplyPlan(&t, net_, t.schedule, path.vertices, {0.0, path.cost}, 0.0);
  index_->ReindexTaxi(t, 0.0);

  // Every partition the route crosses within T_mp lists the taxi.
  for (size_t i = 0; i < path.vertices.size(); ++i) {
    if (t.route.time(i) > 3600.0) break;
    EXPECT_TRUE(InPartitionList(partitioning_.PartitionOf(path.vertices[i]),
                                1))
        << "vertex " << path.vertices[i];
  }
  // Busy with a dropoff: mobility-clustered.
  EXPECT_EQ(index_->clustering().num_members(), 1);
}

TEST_F(TaxiIndexTest, HorizonCapsRouteMemberships) {
  // A slow line city, one partition per vertex: 10 vertices 1000 m apart
  // at 1 m/s, so the route 0 -> 9 reaches vertex i at 1000 * i s and its
  // tail arrives long after the T_mp horizon.
  RoadNetwork::Builder b(1.0);
  for (int i = 0; i < 10; ++i) b.AddVertex({1000.0 * i, 0.0});
  for (int i = 0; i + 1 < 10; ++i) b.AddBidirectionalEdge(i, i + 1, 1000.0);
  RoadNetwork line = b.Build();
  MapPartitioning parts;
  parts.vertex_partition.resize(10);
  parts.partition_vertices.resize(10);
  for (VertexId v = 0; v < 10; ++v) {
    parts.vertex_partition[v] = v;
    parts.partition_vertices[v].push_back(v);
  }
  FinalizeGeometry(line, &parts);
  ASSERT_EQ(MtShareTaxiIndex::kTmp, 3600.0);

  TaxiState t = IdleTaxiAt(2, 0);
  DijkstraSearch search(line);
  Path path = search.FindPath(0, 9);
  ASSERT_TRUE(path.valid);
  ASSERT_EQ(path.cost, 9000.0);
  RideRequest r;
  r.id = 9;
  r.origin = 0;
  r.destination = 9;
  r.deadline = 10 * path.cost;
  r.direct_cost = path.cost;
  t.schedule = Schedule::WithInsertion(Schedule(), r, 0, 0);
  ApplyPlan(&t, line, t.schedule, path.vertices, {0.0, path.cost}, 0.0);

  MtShareTaxiIndex index(line, parts, 0.707);
  index.ReindexTaxi(t, 0.0);
  // Only the partitions reached within 3600 s (vertices 0-3) are listed.
  for (PartitionId p = 0; p < 10; ++p) {
    EXPECT_EQ(index.PartitionContains(p, 2), p <= 3) << "partition " << p;
  }
}

TEST_F(TaxiIndexTest, RequestsShapeClustersAndAreRemovable) {
  RideRequest r;
  r.id = 3;
  r.origin = 0;
  r.destination = net_.num_vertices() - 1;
  index_->AddRequest(r);
  EXPECT_EQ(index_->clustering().num_members(), 1);
  MobilityVector probe{net_.coord(r.origin), net_.coord(r.destination)};
  ClusterId c = index_->FindCluster(probe);
  EXPECT_NE(c, kInvalidCluster);
  // No taxis in that cluster yet.
  std::vector<TaxiId> taxis;
  index_->AppendClusterTaxis(c, &taxis);
  EXPECT_TRUE(taxis.empty());
  index_->RemoveRequest(3);
  EXPECT_EQ(index_->clustering().num_members(), 0);
}

TEST_F(TaxiIndexTest, ClusterTaxisFiltersOutRequests) {
  // A busy taxi and a request heading the same way share a cluster; only
  // the taxi surfaces in AppendClusterTaxis.
  TaxiState t = IdleTaxiAt(4, 0);
  DijkstraSearch search(net_);
  Path path = search.FindPath(0, net_.num_vertices() - 1);
  RideRequest served;
  served.id = 11;
  served.origin = 0;
  served.destination = net_.num_vertices() - 1;
  served.direct_cost = path.cost;
  served.deadline = 10 * path.cost;
  t.schedule = Schedule::WithInsertion(Schedule(), served, 0, 0);
  ApplyPlan(&t, net_, t.schedule, path.vertices, {0.0, path.cost}, 0.0);
  index_->ReindexTaxi(t, 0.0);

  RideRequest r;
  r.id = 12;
  r.origin = 0;
  r.destination = net_.num_vertices() - 1;
  index_->AddRequest(r);

  MobilityVector probe{net_.coord(0), net_.coord(net_.num_vertices() - 1)};
  ClusterId c = index_->FindCluster(probe);
  ASSERT_NE(c, kInvalidCluster);
  std::vector<TaxiId> taxis;
  index_->AppendClusterTaxis(c, &taxis);
  ASSERT_EQ(taxis.size(), 1u);
  EXPECT_EQ(taxis[0], 4);
  // The cluster is direction-compatible with its own probe, so the union
  // form surfaces the same taxi.
  std::vector<TaxiId> compatible;
  index_->AppendCompatibleClusterTaxis(probe, &compatible);
  EXPECT_EQ(compatible, taxis);
}

TEST_F(TaxiIndexTest, BusyTaxiCrossingPartitionDropsStaleEntry) {
  // Regression: the move hook used to early-return for busy taxis, so a taxi
  // that crossed a partition border stayed listed in the partition it left
  // with a past arrival time — candidate search kept surfacing it there
  // for the rest of its trip.
  TaxiState t = IdleTaxiAt(5, 0);
  DijkstraSearch search(net_);
  Path path = search.FindPath(0, net_.num_vertices() - 1);
  ASSERT_TRUE(path.valid);
  RideRequest r;
  r.id = 21;
  r.origin = 0;
  r.destination = net_.num_vertices() - 1;
  r.direct_cost = path.cost;
  r.deadline = 10 * path.cost;
  t.schedule = Schedule::WithInsertion(Schedule(), r, 0, 0);
  ApplyPlan(&t, net_, t.schedule, path.vertices, {0.0, path.cost}, 0.0);
  index_->ReindexTaxi(t, 0.0);
  ASSERT_FALSE(t.Idle());

  PartitionId start = partitioning_.PartitionOf(path.vertices[0]);
  ASSERT_TRUE(InPartitionList(start, 5));
  // First route position after which the remaining route never re-enters
  // the start partition.
  size_t cross = path.vertices.size();
  for (size_t i = path.vertices.size(); i-- > 0;) {
    if (partitioning_.PartitionOf(path.vertices[i]) == start) {
      cross = i + 1;
      break;
    }
  }
  ASSERT_LT(cross, path.vertices.size()) << "route never leaves partition";

  // Advance the taxi to the crossing vertex, as the engine would.
  t.location = path.vertices[cross];
  t.location_time = t.route.time(cross);
  t.route_pos = cross;
  index_->OnTaxiAdvanced(t, 0, cross);

  EXPECT_FALSE(InPartitionList(start, 5)) << "stale entry left behind";
  PartitionId here = partitioning_.PartitionOf(t.location);
  EXPECT_TRUE(InPartitionList(here, 5));
}

TEST_F(TaxiIndexTest, BusyTaxiMoveWithinPartitionKeepsEntryUntouched) {
  TaxiState t = IdleTaxiAt(6, 0);
  DijkstraSearch search(net_);
  Path path = search.FindPath(0, net_.num_vertices() - 1);
  ASSERT_TRUE(path.valid);
  RideRequest r;
  r.id = 22;
  r.origin = 0;
  r.destination = net_.num_vertices() - 1;
  r.direct_cost = path.cost;
  r.deadline = 10 * path.cost;
  t.schedule = Schedule::WithInsertion(Schedule(), r, 0, 0);
  ApplyPlan(&t, net_, t.schedule, path.vertices, {0.0, path.cost}, 0.0);
  index_->ReindexTaxi(t, 0.0);

  PartitionId start = partitioning_.PartitionOf(path.vertices[0]);
  // Find a later route vertex still inside the start partition, if any.
  size_t inside = 0;
  for (size_t i = 1; i < path.vertices.size(); ++i) {
    if (partitioning_.PartitionOf(path.vertices[i]) == start) inside = i;
    else break;
  }
  if (inside == 0) GTEST_SKIP() << "route leaves immediately";

  t.location = path.vertices[inside];
  t.location_time = t.route.time(inside);
  t.route_pos = inside;
  index_->OnTaxiAdvanced(t, 0, inside);

  // Still listed with its ORIGINAL first-arrival time: within-partition
  // moves must not reindex (that is the cheap path the early return keeps).
  bool found = false;
  for (const MtShareTaxiIndex::Arrival& a : index_->PartitionTaxis(start)) {
    if (a.taxi == 6) {
      found = true;
      EXPECT_DOUBLE_EQ(a.time, 0.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TaxiIndexTest, RemovalWithTiedArrivalTimesKeepsOtherTaxis) {
  // The sorted-key removal binary-searches by arrival time and then scans
  // the tie range for the right taxi id; several taxis indexed at the same
  // instant in the same partition exercise exactly that range.
  for (TaxiId id = 0; id < 5; ++id) {
    TaxiState t = IdleTaxiAt(id, 10);
    index_->ReindexTaxi(t, 0.0);
  }
  PartitionId p = partitioning_.PartitionOf(10);
  for (TaxiId id = 0; id < 5; ++id) ASSERT_TRUE(InPartitionList(p, id));

  // Move the middle taxi elsewhere; its tied neighbors must survive.
  TaxiState moved = IdleTaxiAt(2, net_.num_vertices() - 1);
  index_->ReindexTaxi(moved, 3.0);
  EXPECT_FALSE(InPartitionList(p, 2));
  for (TaxiId id : {0, 1, 3, 4}) {
    EXPECT_TRUE(InPartitionList(p, id)) << "taxi " << id;
  }
  EXPECT_TRUE(
      InPartitionList(partitioning_.PartitionOf(net_.num_vertices() - 1), 2));
}

TEST_F(TaxiIndexTest, MemoryAccounted) {
  TaxiState t = IdleTaxiAt(0, 10);
  index_->ReindexTaxi(t, 0.0);
  EXPECT_GT(index_->MemoryBytes(), 0u);
}

}  // namespace
}  // namespace mtshare
