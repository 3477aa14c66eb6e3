#include "demand/trip_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/string_util.h"

namespace mtshare {

namespace {

/// Shortest decimal form that parses back to the exact same double (%.17g
/// is always sufficient for a binary64 round-trip).
std::string ExactDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Result<TripCsvResult> LoadTripCsv(const std::string& path,
                                  const RoadNetwork& network,
                                  const GridIndex& snap,
                                  const TripCsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open: " + path);
  Projection projection(options.projection_origin);

  TripCsvResult result;
  std::string line;
  int line_no = 0;
  Seconds min_release = kInfiniteCost;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view text = Trim(line);
    if (text.empty() || text[0] == '#') continue;
    std::vector<std::string> fields = Split(text, ',');
    auto malformed = [&](const char* why) {
      std::ostringstream os;
      os << path << ":" << line_no << ": " << why;
      return Status::InvalidArgument(os.str());
    };
    if (fields.size() != 7) {
      return malformed("expected 7 fields: txn,taxi,ts,plng,plat,dlng,dlat");
    }
    double ts = 0.0;
    double plng = 0.0;
    double plat = 0.0;
    double dlng = 0.0;
    double dlat = 0.0;
    if (!ParseDouble(fields[2], &ts) || !ParseDouble(fields[3], &plng) ||
        !ParseDouble(fields[4], &plat) || !ParseDouble(fields[5], &dlng) ||
        !ParseDouble(fields[6], &dlat)) {
      return malformed("bad numeric field");
    }
    ++result.parsed_lines;

    Point pickup = projection.Project(LatLng{plat, plng});
    Point dropoff = projection.Project(LatLng{dlat, dlng});
    VertexId origin = snap.NearestVertex(pickup);
    VertexId dest = snap.NearestVertex(dropoff);
    if (origin == kInvalidVertex || dest == kInvalidVertex) {
      ++result.dropped_snap;
      continue;
    }
    if (options.max_snap_distance_m > 0 &&
        (Distance(network.coord(origin), pickup) >
             options.max_snap_distance_m ||
         Distance(network.coord(dest), dropoff) >
             options.max_snap_distance_m)) {
      ++result.dropped_snap;
      continue;
    }
    if (origin == dest) {
      ++result.dropped_degenerate;
      continue;
    }
    result.trips.push_back(Trip{ts, origin, dest});
    min_release = std::min(min_release, ts);
  }

  if (options.rebase_to >= 0.0 && !result.trips.empty()) {
    for (Trip& t : result.trips) {
      t.release_time = t.release_time - min_release + options.rebase_to;
    }
  }
  std::sort(result.trips.begin(), result.trips.end(),
            [](const Trip& a, const Trip& b) {
              return a.release_time < b.release_time;
            });
  return result;
}

Status SaveTripCsv(const std::string& path, const std::vector<Trip>& trips,
                   const RoadNetwork& network, const TripCsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  Projection projection(options.projection_origin);
  out << "# txn,taxi,release_ts,pickup_lng,pickup_lat,dropoff_lng,"
         "dropoff_lat\n";
  out.precision(10);
  int64_t txn = 0;
  for (const Trip& t : trips) {
    LatLng p = projection.Unproject(network.coord(t.origin));
    LatLng d = projection.Unproject(network.coord(t.destination));
    out << txn << "," << (txn % 997) << "," << t.release_time << "," << p.lng
        << "," << p.lat << "," << d.lng << "," << d.lat << "\n";
    ++txn;
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

std::string FormatRequestCsv(const RideRequest& r) {
  std::string line;
  line += std::to_string(r.id);
  line += ',';
  line += ExactDouble(r.release_time);
  line += ',';
  line += std::to_string(r.origin);
  line += ',';
  line += std::to_string(r.destination);
  line += ',';
  line += ExactDouble(r.deadline);
  line += ',';
  line += ExactDouble(r.direct_cost);
  line += ',';
  line += std::to_string(r.passengers);
  line += ',';
  line += r.offline ? '1' : '0';
  return line;
}

std::string FormatRequestJson(const RideRequest& r) {
  std::string line = "{\"id\":";
  line += std::to_string(r.id);
  line += ",\"release_time\":";
  line += ExactDouble(r.release_time);
  line += ",\"origin\":";
  line += std::to_string(r.origin);
  line += ",\"destination\":";
  line += std::to_string(r.destination);
  line += ",\"deadline\":";
  line += ExactDouble(r.deadline);
  line += ",\"direct_cost\":";
  line += ExactDouble(r.direct_cost);
  line += ",\"passengers\":";
  line += std::to_string(r.passengers);
  line += ",\"offline\":";
  line += r.offline ? "true" : "false";
  line += '}';
  return line;
}

namespace {

/// Whether `value` fits the 32-bit field (a vertex id or a passenger
/// count) it is stored in; a wider value would wrap silently.
bool FitsInt32(int64_t value) {
  return value >= std::numeric_limits<int32_t>::min() &&
         value <= std::numeric_limits<int32_t>::max();
}

Result<RideRequest> ParseRequestJsonLine(std::string_view text) {
  auto malformed = [](const std::string& why) {
    return Status::InvalidArgument("bad JSON request: " + why);
  };
  // A flat object of numeric/bool fields — commas and colons never appear
  // inside values, so a field split needs no real JSON tokenizer.
  if (text.size() < 2 || text.front() != '{' || text.back() != '}') {
    return malformed("expected one flat {...} object");
  }
  RideRequest r;
  r.id = kInvalidRequest;
  r.deadline = -1.0;
  r.direct_cost = -1.0;
  bool has_release = false;
  bool has_origin = false;
  bool has_destination = false;
  std::string_view inner = Trim(text.substr(1, text.size() - 2));
  if (inner.empty()) return malformed("empty object");
  for (const std::string& field : Split(inner, ',')) {
    size_t colon = field.find(':');
    if (colon == std::string::npos) return malformed("field without ':'");
    std::string_view key = Trim(std::string_view(field).substr(0, colon));
    std::string_view value = Trim(std::string_view(field).substr(colon + 1));
    if (key.size() < 2 || key.front() != '"' || key.back() != '"') {
      return malformed("unquoted key");
    }
    key = key.substr(1, key.size() - 2);
    double num = 0.0;
    int64_t integer = 0;
    if (key == "release_time") {
      if (!ParseDouble(value, &num)) return malformed("bad release_time");
      r.release_time = num;
      has_release = true;
    } else if (key == "deadline") {
      if (!ParseDouble(value, &num)) return malformed("bad deadline");
      r.deadline = num;
    } else if (key == "direct_cost") {
      if (!ParseDouble(value, &num)) return malformed("bad direct_cost");
      r.direct_cost = num;
    } else if (key == "id") {
      if (!ParseInt64(value, &integer)) return malformed("bad id");
      r.id = integer;
    } else if (key == "origin") {
      if (!ParseInt64(value, &integer) || !FitsInt32(integer)) {
        return malformed("bad origin");
      }
      r.origin = static_cast<VertexId>(integer);
      has_origin = true;
    } else if (key == "destination") {
      if (!ParseInt64(value, &integer) || !FitsInt32(integer)) {
        return malformed("bad destination");
      }
      r.destination = static_cast<VertexId>(integer);
      has_destination = true;
    } else if (key == "passengers") {
      if (!ParseInt64(value, &integer) || !FitsInt32(integer)) {
        return malformed("bad passengers");
      }
      r.passengers = static_cast<int32_t>(integer);
    } else if (key == "offline") {
      if (value == "true") {
        r.offline = true;
      } else if (value == "false") {
        r.offline = false;
      } else if (ParseInt64(value, &integer)) {
        r.offline = integer != 0;
      } else {
        return malformed("bad offline");
      }
    } else {
      return malformed("unknown key '" + std::string(key) + "'");
    }
  }
  if (!has_release || !has_origin || !has_destination) {
    return malformed("release_time, origin, and destination are required");
  }
  return r;
}

Result<RideRequest> ParseRequestCsvLine(std::string_view text) {
  auto malformed = [](const char* why) {
    return Status::InvalidArgument(std::string("bad CSV request: ") + why);
  };
  std::vector<std::string> fields = Split(text, ',');
  if (fields.size() != 8) {
    return malformed(
        "expected 8 fields: id,release,origin,destination,deadline,"
        "direct_cost,passengers,offline");
  }
  RideRequest r;
  int64_t id = 0;
  int64_t origin = 0;
  int64_t destination = 0;
  int64_t passengers = 0;
  int64_t offline = 0;
  if (!ParseInt64(Trim(fields[0]), &id) ||
      !ParseDouble(Trim(fields[1]), &r.release_time) ||
      !ParseInt64(Trim(fields[2]), &origin) ||
      !ParseInt64(Trim(fields[3]), &destination) ||
      !ParseDouble(Trim(fields[4]), &r.deadline) ||
      !ParseDouble(Trim(fields[5]), &r.direct_cost) ||
      !ParseInt64(Trim(fields[6]), &passengers) ||
      !ParseInt64(Trim(fields[7]), &offline)) {
    return malformed("bad numeric field");
  }
  if (!FitsInt32(origin) || !FitsInt32(destination) ||
      !FitsInt32(passengers)) {
    return malformed("vertex or passenger count out of 32-bit range");
  }
  r.id = id;
  r.origin = static_cast<VertexId>(origin);
  r.destination = static_cast<VertexId>(destination);
  r.passengers = static_cast<int32_t>(passengers);
  r.offline = offline != 0;
  return r;
}

}  // namespace

Result<RideRequest> ParseRequestLine(std::string_view line) {
  std::string_view text = Trim(line);
  if (text.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  return text.front() == '{' ? ParseRequestJsonLine(text)
                             : ParseRequestCsvLine(text);
}

Status SaveRequestLog(const std::string& path,
                      const std::vector<RideRequest>& requests, bool json) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << "# request log: id,release,origin,destination,deadline,"
         "direct_cost,passengers,offline (or JSON lines)\n";
  for (const RideRequest& r : requests) {
    out << (json ? FormatRequestJson(r) : FormatRequestCsv(r)) << "\n";
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace mtshare
