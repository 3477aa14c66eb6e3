#include "mobility/transition_model.h"

#include <gtest/gtest.h>

namespace mtshare {
namespace {

// 4 vertices in 2 groups: {0,1} -> group 0, {2,3} -> group 1.
const std::vector<int32_t> kGroups = {0, 0, 1, 1};

TEST(TransitionModelTest, EmpiricalFrequencies) {
  std::vector<OdPair> trips = {{0, 2}, {0, 3}, {0, 1}, {0, 2}};
  TransitionModel m = TransitionModel::Build(4, 2, kGroups, trips);
  // Vertex 0: 3 of 4 trips end in group 1.
  EXPECT_DOUBLE_EQ(m.Probability(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(m.Probability(0, 1), 0.75);
  EXPECT_EQ(m.TripCount(0), 4);
  EXPECT_EQ(m.total_trips(), 4);
}

TEST(TransitionModelTest, RowsSumToOne) {
  std::vector<OdPair> trips = {{0, 2}, {1, 3}, {2, 0}, {3, 1}, {0, 1}};
  TransitionModel m = TransitionModel::Build(4, 2, kGroups, trips);
  for (VertexId v = 0; v < 4; ++v) {
    double sum = 0.0;
    for (int32_t g = 0; g < 2; ++g) sum += m.Probability(v, g);
    EXPECT_NEAR(sum, 1.0, 1e-12) << "vertex " << v;
  }
}

TEST(TransitionModelTest, NoDataVertexGetsGlobalPrior) {
  std::vector<OdPair> trips = {{0, 2}, {0, 2}, {0, 1}};  // vertex 3 unseen
  TransitionModel m = TransitionModel::Build(4, 2, kGroups, trips);
  EXPECT_EQ(m.TripCount(3), 0);
  // Global: 2/3 to group 1, 1/3 to group 0.
  EXPECT_NEAR(m.Probability(3, 1), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.Probability(3, 0), 1.0 / 3.0, 1e-12);
}

TEST(TransitionModelTest, NoTripsAtAllGivesUniform) {
  TransitionModel m = TransitionModel::Build(4, 2, kGroups, {});
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(m.Probability(v, 0), 0.5);
    EXPECT_DOUBLE_EQ(m.Probability(v, 1), 0.5);
  }
}

TEST(TransitionModelTest, MassTowardsSumsSelectedGroups) {
  std::vector<OdPair> trips = {{0, 0}, {0, 2}, {0, 3}, {0, 3}, {1, 2}};
  TransitionModel m = TransitionModel::Build(4, 2, kGroups, trips);
  auto mass = [&](VertexId v, std::vector<int32_t> groups) {
    double out = -1.0;
    m.MassTowards({&v, 1}, groups, &out);
    return out;
  };
  EXPECT_DOUBLE_EQ(mass(0, {0}), 0.25);
  EXPECT_DOUBLE_EQ(mass(0, {1}), 0.75);
  EXPECT_DOUBLE_EQ(mass(0, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(mass(0, {}), 0.0);
  // Six vertices take one four-row block and two single rows; each sum
  // equals the one-vertex sum over the same groups in the same order.
  const std::vector<VertexId> vertices = {0, 1, 2, 3, 0, 2};
  const std::vector<int32_t> groups = {1, 0, 1};
  std::vector<double> out(vertices.size(), -1.0);
  m.MassTowards(vertices, groups, out.data());
  for (size_t i = 0; i < vertices.size(); ++i) {
    EXPECT_EQ(out[i], mass(vertices[i], groups)) << i;
  }
}

TEST(TransitionModelTest, MemoryAccounting) {
  TransitionModel m = TransitionModel::Build(4, 2, kGroups, {});
  EXPECT_GE(m.MemoryBytes(), 4 * 2 * sizeof(double));
}

}  // namespace
}  // namespace mtshare
