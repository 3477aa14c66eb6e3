#include "demand/trip_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "graph/graph_generators.h"

namespace mtshare {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class TripIoTest : public ::testing::Test {
 protected:
  TripIoTest() {
    GridCityOptions opt;
    opt.rows = 10;
    opt.cols = 10;
    opt.seed = 3;
    net_ = MakeGridCity(opt);
    snap_ = std::make_unique<GridIndex>(net_, 150.0);
  }

  RoadNetwork net_;
  std::unique_ptr<GridIndex> snap_;
};

TEST_F(TripIoTest, RoundTripThroughGaiaCsv) {
  // Synthesize trips on vertices, save, reload: endpoints must snap back
  // to the same vertices (save writes the exact vertex coordinates).
  std::vector<Trip> trips = {{100.0, 0, 57}, {160.0, 12, 80}, {40.0, 33, 5}};
  std::string path = TempPath("trips.csv");
  ASSERT_TRUE(SaveTripCsv(path, trips, net_).ok());

  TripCsvOptions opt;
  opt.rebase_to = -1.0;  // keep raw timestamps
  Result<TripCsvResult> r = LoadTripCsv(path, net_, *snap_, opt);
  ASSERT_TRUE(r.ok()) << r.status();
  const TripCsvResult& res = r.value();
  EXPECT_EQ(res.parsed_lines, 3);
  ASSERT_EQ(res.trips.size(), 3u);
  // Sorted by release time: 40, 100, 160.
  EXPECT_EQ(res.trips[0].origin, 33);
  EXPECT_EQ(res.trips[0].destination, 5);
  EXPECT_DOUBLE_EQ(res.trips[0].release_time, 40.0);
  EXPECT_EQ(res.trips[1].origin, 0);
  EXPECT_EQ(res.trips[2].origin, 12);
}

TEST_F(TripIoTest, RebaseShiftsEarliestTripToZero) {
  std::vector<Trip> trips = {{1000.0, 0, 57}, {1200.0, 12, 80}};
  std::string path = TempPath("rebase.csv");
  ASSERT_TRUE(SaveTripCsv(path, trips, net_).ok());
  TripCsvOptions opt;
  opt.rebase_to = 500.0;
  Result<TripCsvResult> r = LoadTripCsv(path, net_, *snap_, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().trips[0].release_time, 500.0);
  EXPECT_DOUBLE_EQ(r.value().trips[1].release_time, 700.0);
}

TEST_F(TripIoTest, OffMapEndpointsDropped) {
  std::string path = TempPath("offmap.csv");
  {
    std::ofstream out(path);
    // Pickup ~1 degree (~100 km) away from the projection origin.
    out << "0,1,10,105.2,31.6,104.0661,30.6576\n";
  }
  TripCsvOptions opt;
  Result<TripCsvResult> r = LoadTripCsv(path, net_, *snap_, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().dropped_snap, 1);
  EXPECT_TRUE(r.value().trips.empty());
}

TEST_F(TripIoTest, DegenerateTripsDropped) {
  std::vector<Trip> trips = {{10.0, 7, 7}};
  // Save writes it; load snaps both endpoints to vertex 7 and drops it.
  std::string path = TempPath("degenerate.csv");
  ASSERT_TRUE(SaveTripCsv(path, trips, net_).ok());
  Result<TripCsvResult> r = LoadTripCsv(path, net_, *snap_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().dropped_degenerate, 1);
}

TEST_F(TripIoTest, MalformedLineReportsLineNumber) {
  std::string path = TempPath("bad.csv");
  {
    std::ofstream out(path);
    out << "# comment\n0,1,10,104.07\n";
  }
  Result<TripCsvResult> r = LoadTripCsv(path, net_, *snap_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find(":2:"), std::string::npos);
}

TEST_F(TripIoTest, NonNumericFieldRejected) {
  std::string path = TempPath("nan.csv");
  {
    std::ofstream out(path);
    out << "0,1,ten,104.07,30.66,104.08,30.67\n";
  }
  EXPECT_FALSE(LoadTripCsv(path, net_, *snap_).ok());
}

TEST_F(TripIoTest, NonFiniteFieldRejectedWithLineNumber) {
  // A NaN timestamp or an infinite coordinate would sort, project and snap
  // as garbage; the reader names the line instead.
  for (const char* bad : {"0,1,nan,104.07,30.66,104.08,30.67",
                          "0,1,10,inf,30.66,104.08,30.67",
                          "0,1,10,104.07,30.66,104.08,-inf"}) {
    SCOPED_TRACE(bad);
    std::string path = TempPath("nonfinite.csv");
    {
      std::ofstream out(path);
      out << "0,1,10,104.07,30.66,104.08,30.67\n" << bad << "\n";
    }
    Result<TripCsvResult> r = LoadTripCsv(path, net_, *snap_);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find(":2:"), std::string::npos)
        << r.status();
    std::remove(path.c_str());
  }
}

TEST_F(TripIoTest, MissingFileIsIoError) {
  Result<TripCsvResult> r = LoadTripCsv("/no/such/file.csv", net_, *snap_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(TripIoTest, LoadedTripsUsableAsHistory) {
  // End-to-end: save a synthetic day, reload, feed the transition model.
  std::vector<Trip> trips;
  for (int i = 0; i < 50; ++i) {
    trips.push_back(Trip{double(i * 60), VertexId(i % net_.num_vertices()),
                         VertexId((i * 7 + 13) % net_.num_vertices())});
  }
  std::string path = TempPath("history.csv");
  ASSERT_TRUE(SaveTripCsv(path, trips, net_).ok());
  Result<TripCsvResult> r = LoadTripCsv(path, net_, *snap_);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().trips.size(), 40u);  // a few degenerate drops allowed
}

}  // namespace
}  // namespace mtshare
