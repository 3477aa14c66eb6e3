// End-to-end tests of the mtshare_serve service binary: pipe a request
// log produced by mtshare_sim --save-requests through the server, check
// the JSON decision stream, the schema-5 "serve" report block, and the
// strict flag/log error handling. Compiled only when the CLI targets are
// wired in (MTSHARE_SERVE_BINARY / MTSHARE_SIM_BINARY).
#include <gtest/gtest.h>

#if defined(MTSHARE_SERVE_BINARY) && defined(MTSHARE_SIM_BINARY)

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace mtshare {
namespace {

int RunCommand(const std::string& command) {
  int rc = std::system(command.c_str());
  return rc < 0 ? rc : WEXITSTATUS(rc);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Numeric value following `"key":` in raw JSON (good enough for the
/// flat keys these tests check).
double NumberAfter(const std::string& json, const std::string& key) {
  size_t at = json.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << "missing key " << key;
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

/// Shared city/fleet flags: the two binaries build identical systems from
/// these, which is what makes the served counts comparable.
const char kCityFlags[] =
    " --rows=12 --cols=12 --taxis=15 --scheme=mt-share --seed=42";

class ServeCliTest : public ::testing::Test {
 protected:
  std::string Tmp(const std::string& name) {
    return testing::TempDir() + "mtshare_serve_" + name;
  }
};

TEST_F(ServeCliTest, ServesPipedLogEndToEnd) {
  std::string log = Tmp("log.csv");
  std::string sim_report = Tmp("sim_report.json");
  std::string serve_report = Tmp("serve_report.json");
  std::string out = Tmp("out.jsonl");
  std::string err = Tmp("err.txt");
  for (const std::string& f : {log, sim_report, serve_report, out, err}) {
    std::remove(f.c_str());
  }

  std::string gen = std::string(MTSHARE_SIM_BINARY) + kCityFlags +
                    " --requests=150 --save-requests=" + log +
                    " --report=" + sim_report + " > /dev/null";
  ASSERT_EQ(RunCommand(gen), 0) << gen;

  std::string serve = std::string(MTSHARE_SERVE_BINARY) + kCityFlags +
                      " --gauge-every=50 --report=" + serve_report + " < " +
                      log + " > " + out + " 2> " + err;
  ASSERT_EQ(RunCommand(serve), 0) << serve << "\n" << ReadFile(err);

  // One JSON decision line per logged request.
  std::ifstream lines(out);
  std::string line;
  int decisions = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(line.rfind("{\"id\":", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
    ++decisions;
  }
  std::string sim_json = ReadFile(sim_report);
  double logged = NumberAfter(sim_json, "total");
  EXPECT_EQ(decisions, static_cast<int>(logged));

  // Live gauges reached stderr while the run was in flight.
  std::string gauges = ReadFile(err);
  EXPECT_NE(gauges.find("p50="), std::string::npos) << gauges;
  EXPECT_NE(gauges.find("p99="), std::string::npos) << gauges;

  // The report carries the serve block with everything admitted, and the
  // streamed replay serves exactly what the vector run served.
  std::string serve_json = ReadFile(serve_report);
  EXPECT_NE(serve_json.find("\"experiment\": \"mtshare_serve\""),
            std::string::npos);
  EXPECT_NE(serve_json.find("\"serve\""), std::string::npos);
  EXPECT_EQ(NumberAfter(serve_json, "admitted"), logged);
  EXPECT_EQ(NumberAfter(serve_json, "shed"), 0.0);
  EXPECT_EQ(NumberAfter(serve_json, "served"),
            NumberAfter(sim_json, "served"));

  for (const std::string& f : {log, sim_report, serve_report, out, err}) {
    std::remove(f.c_str());
  }
}

TEST_F(ServeCliTest, BatchWindowReportsBatches) {
  std::string log = Tmp("batch_log.csv");
  std::string report = Tmp("batch_report.json");
  std::string gen = std::string(MTSHARE_SIM_BINARY) + kCityFlags +
                    " --requests=120 --save-requests=" + log + " > /dev/null";
  ASSERT_EQ(RunCommand(gen), 0) << gen;
  std::string serve = std::string(MTSHARE_SERVE_BINARY) + kCityFlags +
                      " --batch-window-ms=60000 --gauge-every=0 --report=" +
                      report + " < " + log + " > /dev/null 2> /dev/null";
  ASSERT_EQ(RunCommand(serve), 0) << serve;
  std::string json = ReadFile(report);
  EXPECT_EQ(NumberAfter(json, "batch_window_ms"), 60000.0);
  EXPECT_GT(NumberAfter(json, "batches"), 0.0);
  // A 60 s simulated window over an hour of traffic must coalesce
  // arrivals: strictly fewer flushes than admitted requests.
  EXPECT_LT(NumberAfter(json, "batches"), NumberAfter(json, "admitted"));
  std::remove(log.c_str());
  std::remove(report.c_str());
}

TEST_F(ServeCliTest, RejectsMalformedFlags) {
  // Regression: garbage numerics must exit 2, never atoi to a zero fleet.
  // --seed went through GetD (a double parse) for a while, so "-1" and
  // "abc" silently became seed 42; it must reject like every other flag.
  // Unknown keys ("--taxi", the removed "--engine", "--candidates" and
  // "--threads") must not be silently ignored either, whatever their value,
  // and a --window other than peak or nonpeak must not fall back to
  // nonpeak.
  for (const char* flag :
       {"--taxis=abc", "--batch-window-ms=nope", "--batch-window-ms=-3",
        "--max-queue=-1", "--gauge-every=x", "--scheme=uber-pool",
        "--oracle=magic", "--oracle=lru", "--engine=sweep", "--seed=-1",
        "--seed=abc", "--seed=4.5", "--candidates=magic", "--candidates=",
        "--candidates=INDEX", "--candidates=buckets", "--candidates=index",
        "--candidates=ch_buckets", "--taxi=5", "--threads=1",
        "--threads=4", "--window=weekend", "--window=Peak", "--window="}) {
    std::string cmd = std::string(MTSHARE_SERVE_BINARY) + " \"" +
                      std::string(flag) +
                      "\" < /dev/null > /dev/null 2>&1";
    EXPECT_EQ(RunCommand(cmd), 2) << flag;
  }
}

TEST_F(ServeCliTest, RejectsDegenerateCity) {
  // A one-row or one-column grid used to abort in MakeGridCity's CHECK
  // (SIGABRT, exit 134); the flag is now rejected before anything is
  // built. Small values only: a huge grid allocates before any check.
  const std::string err = Tmp("degenerate_city.err");
  std::remove(err.c_str());
  const std::string cmd = std::string(MTSHARE_SERVE_BINARY) +
                          " --rows=5 --cols=1 < /dev/null > /dev/null 2> " +
                          err;
  EXPECT_EQ(RunCommand(cmd), 2);
  EXPECT_NE(ReadFile(err).find("--rows and --cols must be >= 2"),
            std::string::npos)
      << ReadFile(err);
  std::remove(err.c_str());
}

TEST_F(ServeCliTest, AcceptsFullUint64SeedRange) {
  // The whole uint64 range is a valid seed — UINT64_MAX used to lose
  // precision through the double path (2^64-1 is not representable).
  std::string serve = std::string(MTSHARE_SERVE_BINARY) + kCityFlags +
                      " --seed=18446744073709551615 --gauge-every=0"
                      " < /dev/null > /dev/null 2>&1";
  EXPECT_EQ(RunCommand(serve), 0) << serve;
}

TEST_F(ServeCliTest, ShortWriteOnDecisionStreamExitsOne) {
  // The decision stream is the service's product; losing it silently (full
  // disk, closed pipe) must surface as exit 1 with a diagnostic, exactly
  // as --help documents. /dev/full fails every write with ENOSPC.
  std::ifstream dev_full("/dev/full");
  if (!dev_full.good()) GTEST_SKIP() << "/dev/full unavailable";

  std::string log = Tmp("short_write_log.csv");
  std::string err = Tmp("short_write_err.txt");
  std::string gen = std::string(MTSHARE_SIM_BINARY) + kCityFlags +
                    " --requests=40 --save-requests=" + log + " > /dev/null";
  ASSERT_EQ(RunCommand(gen), 0) << gen;
  std::string serve = std::string(MTSHARE_SERVE_BINARY) + kCityFlags +
                      " --gauge-every=0 < " + log + " > /dev/full 2> " + err;
  EXPECT_EQ(RunCommand(serve), 1) << serve;
  std::string message = ReadFile(err);
  EXPECT_NE(message.find("short write"), std::string::npos) << message;
  std::remove(log.c_str());
  std::remove(err.c_str());
}

TEST_F(ServeCliTest, MalformedLogLineFailsWithLineTaggedError) {
  std::string log = Tmp("bad_log.csv");
  std::string err = Tmp("bad_err.txt");
  // A NaN release time once reached the engine and aborted the server on
  // its release-order check (exit 134); the reader now rejects the line.
  for (const char* bad :
       {"this is not a request", "1,nan,6,41,37100,300,1,0"}) {
    {
      std::ofstream out(log);
      out << "# comment\n";
      out << "0,28800.0,3,40,-1,-1,1,0\n";
      out << bad << "\n";
    }
    std::string serve = std::string(MTSHARE_SERVE_BINARY) + kCityFlags +
                        " --gauge-every=0 < " + log + " > /dev/null 2> " +
                        err;
    EXPECT_EQ(RunCommand(serve), 1) << serve << " with " << bad;
    std::string message = ReadFile(err);
    EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  }
  std::remove(log.c_str());
  std::remove(err.c_str());
}

}  // namespace
}  // namespace mtshare

#endif  // MTSHARE_SERVE_BINARY && MTSHARE_SIM_BINARY
