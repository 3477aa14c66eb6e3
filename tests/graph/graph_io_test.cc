#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "graph/graph_generators.h"

namespace mtshare {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(GraphIoTest, RoundTripPreservesTopologyAndCosts) {
  GridCityOptions opt;
  opt.rows = 6;
  opt.cols = 6;
  RoadNetwork original = MakeGridCity(opt);
  std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(SaveEdgeList(original, path).ok());

  Result<RoadNetwork> loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const RoadNetwork& net = loaded.value();
  ASSERT_EQ(net.num_vertices(), original.num_vertices());
  ASSERT_EQ(net.num_edges(), original.num_edges());
  for (VertexId v = 0; v < net.num_vertices(); ++v) {
    auto a = original.OutArcs(v);
    auto b = net.OutArcs(v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].head, b[i].head);
      EXPECT_NEAR(a[i].cost, b[i].cost, 1e-6);
    }
  }
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFileIsIoError) {
  Result<RoadNetwork> r = LoadEdgeList("/nonexistent/net.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(GraphIoTest, CommentsAndBlankLinesIgnored) {
  std::string path = TempPath("comments.csv");
  {
    std::ofstream out(path);
    out << "# header\n\nv,0,0\nv,10,0\n# mid comment\ne,0,1,10\n";
  }
  Result<RoadNetwork> r = LoadEdgeList(path);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().num_vertices(), 2);
  EXPECT_EQ(r.value().num_edges(), 1);
  std::remove(path.c_str());
}

TEST(GraphIoTest, EdgeToUnknownVertexRejectedWithLineNumber) {
  std::string path = TempPath("badedge.csv");
  {
    std::ofstream out(path);
    out << "v,0,0\ne,0,5,10\n";
  }
  Result<RoadNetwork> r = LoadEdgeList(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(":2:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(GraphIoTest, NegativeLengthRejected) {
  std::string path = TempPath("neglen.csv");
  {
    std::ofstream out(path);
    out << "v,0,0\nv,1,1\ne,0,1,-5\n";
  }
  EXPECT_FALSE(LoadEdgeList(path).ok());
  std::remove(path.c_str());
}

TEST(GraphIoTest, UnknownRecordTypeRejected) {
  std::string path = TempPath("badtype.csv");
  {
    std::ofstream out(path);
    out << "x,1,2\n";
  }
  EXPECT_FALSE(LoadEdgeList(path).ok());
  std::remove(path.c_str());
}

TEST(GraphIoTest, MalformedCoordinatesRejected) {
  std::string path = TempPath("badcoord.csv");
  {
    std::ofstream out(path);
    out << "v,zero,0\n";
  }
  EXPECT_FALSE(LoadEdgeList(path).ok());
  std::remove(path.c_str());
}

TEST(GraphIoTest, NonFiniteNumbersRejectedWithLineNumber) {
  // Each bad line sits on line 3 behind two good vertices; the reader must
  // name that line instead of passing a NaN or an infinity on to the road
  // network.
  for (const char* bad : {"e,0,1,nan", "e,0,1,inf", "e,0,1,100,nan",
                          "e,0,1,100,inf", "v,nan,0", "v,0,-inf"}) {
    SCOPED_TRACE(bad);
    std::string path = TempPath("nonfinite.csv");
    {
      std::ofstream out(path);
      out << "v,0,0\nv,100,0\n" << bad << "\n";
    }
    Result<RoadNetwork> r = LoadEdgeList(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(":3:"), std::string::npos)
        << r.status();
    std::remove(path.c_str());
  }
}

TEST(GraphIoTest, SpeedFactorRoundTrips) {
  std::string path = TempPath("factor.csv");
  {
    std::ofstream out(path);
    out << "v,0,0\nv,100,0\ne,0,1,100,2.0\n";
  }
  Result<RoadNetwork> r = LoadEdgeList(path, 10.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().OutArcs(0)[0].cost, 5.0, 1e-9);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mtshare
