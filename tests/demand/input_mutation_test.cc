// Seeded mutation tests over the untrusted text inputs: request-log lines
// (CSV and JSON, through StreamRequestSource), edge lists (LoadEdgeList)
// and trip CSVs (LoadTripCsv). Each case starts from a valid input and
// applies one seeded mutation: a byte flip, a truncation, a duplicated or
// swapped field, or a field replaced by a huge or negative number. A case
// either loads, and then means what its text says, or fails with a non-OK
// status whose message names a line of the input; no case may abort (the
// asan preset runs this file under ASan and UBSan).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "demand/trip_io.h"
#include "graph/graph_generators.h"
#include "graph/graph_io.h"
#include "sim/request_source.h"
#include "spatial/grid_index.h"

namespace mtshare {
namespace {

constexpr int kCasesPerKind = 600;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

std::vector<std::string> Lines(const std::string& text) {
  return Split(text, '\n');
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) text += '\n';
    text += lines[i];
  }
  return text;
}

std::string JoinFields(const std::vector<std::string>& fields) {
  std::string line;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ',';
    line += fields[i];
  }
  return line;
}

enum class Mutation {
  kByteFlip,
  kTruncate,
  kDuplicateField,
  kSwapFields,
  kHugeNumber,
  kNegativeNumber,
};
constexpr int kNumMutations = 6;

/// Replaces the value of a comma-separated field: the text after a JSON
/// key's colon, or the whole field, keeping a JSON object's braces.
std::string ReplaceValue(const std::string& field, const std::string& value) {
  const size_t colon = field.find(':');
  if (colon != std::string::npos) {
    return field.substr(0, colon + 1) + value +
           (field.back() == '}' ? "}" : "");
  }
  return (!field.empty() && field.front() == '{' ? "{" : "") + value;
}

/// `text` with one seeded mutation applied to a random line (or, for byte
/// flips and truncations, anywhere in the text).
std::string Mutate(const std::string& text, Rng& rng) {
  static const char* const kHuge[] = {
      "1e308",          "9223372036854775807", "99999999999999999999",
      "4294967301",     "2147483648",          "4294967297",
      "1.7976931348623157e308"};
  static const char* const kNegative[] = {
      "-1", "-1e308", "-2147483649", "-9223372036854775808", "-0.5"};
  std::string out = text;
  const auto mutation =
      static_cast<Mutation>(rng.NextInt(0, kNumMutations - 1));
  if (mutation == Mutation::kByteFlip) {
    const size_t at = size_t(rng.NextInt(0, int32_t(out.size()) - 1));
    out[at] = static_cast<char>(out[at] ^ (1 << rng.NextInt(0, 7)));
    return out;
  }
  if (mutation == Mutation::kTruncate) {
    return out.substr(0, size_t(rng.NextInt(0, int32_t(out.size()) - 1)));
  }
  std::vector<std::string> lines = Lines(out);
  std::string& line = lines[size_t(rng.NextInt(0, int32_t(lines.size()) - 1))];
  if (line.empty() || line[0] == '#') return out;
  std::vector<std::string> fields = Split(line, ',');
  const size_t i = size_t(rng.NextInt(0, int32_t(fields.size()) - 1));
  const size_t j = size_t(rng.NextInt(0, int32_t(fields.size()) - 1));
  switch (mutation) {
    case Mutation::kDuplicateField:
      fields.insert(fields.begin() + i, fields[i]);
      break;
    case Mutation::kSwapFields:
      std::swap(fields[i], fields[j]);
      break;
    case Mutation::kHugeNumber:
      fields[i] = ReplaceValue(fields[i], kHuge[rng.NextInt(0, 6)]);
      break;
    case Mutation::kNegativeNumber:
      fields[i] = ReplaceValue(fields[i], kNegative[rng.NextInt(0, 4)]);
      break;
    default:
      break;
  }
  line = JoinFields(fields);
  return JoinLines(lines);
}

/// Expects `message` to name line k of `text` (1-based) right after
/// `prefix`.
void ExpectNamesLine(const std::string& message, const std::string& prefix,
                     const std::string& text) {
  const size_t at = message.find(prefix);
  ASSERT_NE(at, std::string::npos) << message;
  size_t end = at + prefix.size();
  int64_t line = 0;
  while (end < message.size() && message[end] >= '0' && message[end] <= '9') {
    line = line * 10 + (message[end++] - '0');
  }
  EXPECT_GE(line, 1) << message;
  EXPECT_LE(line, static_cast<int64_t>(Lines(text).size())) << message;
}

// --- request logs ---

constexpr int64_t kLogVertices = 500;

/// A valid log of `n` requests, alternating CSV and JSON lines.
std::string ValidRequestLog(int n) {
  Rng rng(5);
  std::string text = "# mutation seed log\n";
  Seconds release = 0.0;
  for (int i = 0; i < n; ++i) {
    RideRequest r;
    r.id = i;
    release += rng.NextUniform(0.0, 30.0);
    r.release_time = release;
    r.origin = VertexId(rng.NextInt(0, kLogVertices - 1));
    r.destination = VertexId(rng.NextInt(0, kLogVertices - 1));
    r.direct_cost = rng.NextUniform(60.0, 900.0);
    r.deadline = release + 1.5 * r.direct_cost + 300.0;
    r.passengers = int32_t(rng.NextInt(1, 3));
    r.offline = rng.NextInt(0, 3) == 0;
    text += i % 2 == 0 ? FormatRequestCsv(r) : FormatRequestJson(r);
    text += '\n';
  }
  return text;
}

/// The integer a request-log line gives field `key` (CSV column
/// `column`), if it gives one that parses.
bool LineInteger(const std::string& line, const char* key, size_t column,
                 int64_t* out) {
  const std::string_view text = Trim(line);
  if (!text.empty() && text.front() == '{') {
    const std::string quoted = std::string("\"") + key + "\"";
    for (const std::string& field :
         Split(text.substr(1, text.size() - 2), ',')) {
      const size_t colon = field.find(':');
      if (colon != std::string::npos &&
          Trim(std::string_view(field).substr(0, colon)) == quoted) {
        return ParseInt64(std::string_view(field).substr(colon + 1), out);
      }
    }
    return false;
  }
  const std::vector<std::string> fields = Split(text, ',');
  return column < fields.size() && ParseInt64(fields[column], out);
}

/// Drains `text` through a StreamRequestSource: every request it yields
/// is valid and carries the vertices and passenger count its line
/// states, and a failure names its line. Returns whether it failed.
bool ExpectLogLoadsOrNamesLine(const std::string& text) {
  std::istringstream in(text);
  StreamSourceOptions options;
  options.num_vertices = kLogVertices;
  StreamRequestSource source(&in, options);
  std::vector<std::string> request_lines;
  for (const std::string& line : Lines(text)) {
    const std::string_view t = Trim(line);
    if (!t.empty() && t[0] != '#') request_lines.push_back(line);
  }
  RideRequest r;
  size_t k = 0;
  while (source.Next(&r)) {
    EXPECT_LT(k, request_lines.size());
    if (k >= request_lines.size()) break;
    const std::string& line = request_lines[k++];
    EXPECT_EQ(r.id, static_cast<RequestId>(k - 1)) << line;
    EXPECT_GE(r.origin, 0) << line;
    EXPECT_LT(r.origin, kLogVertices) << line;
    EXPECT_GE(r.destination, 0) << line;
    EXPECT_LT(r.destination, kLogVertices) << line;
    EXPECT_GE(r.passengers, 1) << line;
    EXPECT_GT(r.direct_cost, 0.0) << line;
    EXPECT_GT(r.deadline, r.release_time) << line;
    int64_t stated = 0;
    if (LineInteger(line, "origin", 2, &stated)) {
      EXPECT_EQ(r.origin, stated) << line;
    }
    if (LineInteger(line, "destination", 3, &stated)) {
      EXPECT_EQ(r.destination, stated) << line;
    }
    if (LineInteger(line, "passengers", 6, &stated)) {
      EXPECT_EQ(r.passengers, stated) << line;
    }
  }
  if (source.status().ok()) return false;
  ExpectNamesLine(source.status().message(), "request stream line ", text);
  return true;
}

TEST(InputMutationTest, RequestLogLoadsOrNamesTheBadLine) {
  const std::string valid = ValidRequestLog(12);
  EXPECT_FALSE(ExpectLogLoadsOrNamesLine(valid));
  Rng rng(101);
  int failed = 0;
  for (int c = 0; c < kCasesPerKind; ++c) {
    const std::string text = Mutate(valid, rng);
    SCOPED_TRACE("case " + std::to_string(c) + ":\n" + text);
    failed += ExpectLogLoadsOrNamesLine(text) ? 1 : 0;
    if (HasFailure()) return;
  }
  // The mutations reach the error paths.
  EXPECT_GT(failed, kCasesPerKind / 4);
}

// A vertex id or passenger count beyond 32 bits once wrapped silently:
// 4294967301 read as vertex 5 and 4294967297 as one passenger.
TEST(InputMutationTest, OutOfRangeIntegersAreRejectedNotWrapped) {
  for (const char* line :
       {"0,1.5,4294967301,7,900,300,1,0", "0,1.5,5,4294967303,900,300,1,0",
        "0,1.5,5,7,900,300,4294967297,0",
        "{\"release_time\":1.5,\"origin\":4294967301,\"destination\":7}",
        "{\"release_time\":1.5,\"origin\":5,\"destination\":7,"
        "\"passengers\":4294967297}",
        "0,1.5,-4294967291,7,900,300,1,0"}) {
    SCOPED_TRACE(line);
    EXPECT_FALSE(ParseRequestLine(line).ok());
    std::istringstream in(std::string("# log\n") + line + "\n");
    StreamRequestSource source(&in);
    RideRequest r;
    EXPECT_FALSE(source.Next(&r));
    EXPECT_NE(source.status().message().find("request stream line 2: "),
              std::string::npos)
        << source.status().message();
  }
  // The largest values that fit still parse.
  Result<RideRequest> edge =
      ParseRequestLine("0,1.5,2147483647,0,900,300,2147483647,0");
  ASSERT_TRUE(edge.ok()) << edge.status();
  EXPECT_EQ(edge.value().origin, 2147483647);
  EXPECT_EQ(edge.value().passengers, 2147483647);
}

// --- edge lists ---

TEST(InputMutationTest, EdgeListLoadsOrNamesTheBadLine) {
  GridCityOptions opt;
  opt.rows = 5;
  opt.cols = 5;
  opt.one_way_fraction = 0.3;
  const std::string path = TempPath("mutation_edges.csv");
  ASSERT_TRUE(SaveEdgeList(MakeGridCity(opt), path).ok());
  std::stringstream buffer;
  buffer << std::ifstream(path).rdbuf();
  const std::string valid = buffer.str();
  Rng rng(103);
  int failed = 0;
  for (int c = 0; c < kCasesPerKind; ++c) {
    const std::string text = Mutate(valid, rng);
    SCOPED_TRACE("case " + std::to_string(c));
    WriteFile(path, text);
    Result<RoadNetwork> loaded = LoadEdgeList(path);
    if (loaded.ok()) {
      const RoadNetwork& net = loaded.value();
      for (VertexId v = 0; v < net.num_vertices(); ++v) {
        for (const Arc& arc : net.OutArcs(v)) {
          EXPECT_GE(arc.head, 0);
          EXPECT_LT(arc.head, net.num_vertices());
          EXPECT_GT(arc.cost, 0.0);
        }
      }
    } else {
      ++failed;
      ExpectNamesLine(loaded.status().message(), path + ":", text);
    }
    if (HasFailure()) break;
  }
  std::remove(path.c_str());
  EXPECT_GT(failed, kCasesPerKind / 4);
}

// --- trip CSVs ---

TEST(InputMutationTest, TripCsvLoadsOrNamesTheBadLine) {
  GridCityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 3;
  const RoadNetwork net = MakeGridCity(opt);
  const GridIndex snap(net, 150.0);
  std::vector<Trip> trips;
  Rng pick(7);
  for (int i = 0; i < 10; ++i) {
    trips.push_back({100.0 * i, VertexId(pick.NextInt(0, 20)),
                     VertexId(pick.NextInt(21, net.num_vertices() - 1))});
  }
  const std::string path = TempPath("mutation_trips.csv");
  ASSERT_TRUE(SaveTripCsv(path, trips, net).ok());
  std::stringstream buffer;
  buffer << std::ifstream(path).rdbuf();
  const std::string valid = buffer.str();
  Rng rng(107);
  int failed = 0;
  for (int c = 0; c < kCasesPerKind; ++c) {
    const std::string text = Mutate(valid, rng);
    SCOPED_TRACE("case " + std::to_string(c) + ":\n" + text);
    WriteFile(path, text);
    Result<TripCsvResult> loaded = LoadTripCsv(path, net, snap);
    if (loaded.ok()) {
      for (const Trip& t : loaded.value().trips) {
        EXPECT_GE(t.origin, 0);
        EXPECT_LT(t.origin, net.num_vertices());
        EXPECT_GE(t.destination, 0);
        EXPECT_LT(t.destination, net.num_vertices());
        EXPECT_NE(t.origin, t.destination);
      }
    } else {
      ++failed;
      ExpectNamesLine(loaded.status().message(), path + ":", text);
    }
    if (HasFailure()) break;
  }
  std::remove(path.c_str());
  EXPECT_GT(failed, kCasesPerKind / 4);
}

// Coordinates far off the map once reached a double-to-int conversion
// out of int32 range (undefined behaviour) when snapped to the grid.
TEST(InputMutationTest, TripFarOffTheMapIsDropped) {
  GridCityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  const RoadNetwork net = MakeGridCity(opt);
  const GridIndex snap(net, 150.0);
  const std::string path = TempPath("mutation_far_trip.csv");
  WriteFile(path,
            "1,1,100,1e308,30.65,104.07,30.66\n"
            "2,1,200,104.07,-1e308,104.07,30.66\n");
  Result<TripCsvResult> loaded = LoadTripCsv(path, net, snap);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().parsed_lines, 2);
  EXPECT_EQ(loaded.value().dropped_snap, 2);
  EXPECT_TRUE(loaded.value().trips.empty());
}

}  // namespace
}  // namespace mtshare
