// Seed-sweep smoke test: every bench_e* binary must run end-to-end in
// --smoke mode across three seeds and emit a well-formed metrics report
// conforming to the `zeiot.obs.v2` schema.  This is the cheapest guard
// against a bench that compiles but crashes mid-run (bad smoke knobs, a
// config invariant tripped only at reduced scale) or that silently stops
// writing its report.
//
// The binaries are located via ZEIOT_BENCH_BIN_DIR (a compile definition
// pointing at the bench output directory); each run gets a private
// ZEIOT_METRICS_DIR so concurrent ctest jobs cannot clobber each other.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---- Minimal JSON well-formedness checker --------------------------------
// Recursive descent over the full grammar (objects, arrays, strings with
// escapes, numbers, true/false/null).  Returns false instead of throwing so
// a malformed report fails the EXPECT with the offending file name.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || std::isxdigit(
                    static_cast<unsigned char>(s_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(
                               s_[pos_ - 1])) != 0;
  }

  bool literal(const std::string& lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs `<bench> --smoke --seed <seed>` for seeds 1..3, each into a private
/// metrics dir, and validates every emitted report.  `required_series` must
/// all appear (as quoted JSON names) in each report.
void run_seed_sweep(const std::string& bench,
                    const std::vector<std::string>& required_series) {
  const std::string bin = std::string(ZEIOT_BENCH_BIN_DIR) + "/" + bench;
  for (int seed = 1; seed <= 3; ++seed) {
    std::string dir = ::testing::TempDir() + bench + "_seed" +
                      std::to_string(seed) + "_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr) << dir;
    const std::string cmd = "ZEIOT_METRICS_DIR=" + dir + " " + bin +
                            " --smoke --seed " + std::to_string(seed) +
                            " > /dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    ASSERT_EQ(rc, 0) << bench << " --smoke --seed " << seed
                     << " exited with " << rc;
    const std::string report = dir + "/" + bench + ".metrics.json";
    const std::string text = slurp(report);
    ASSERT_FALSE(text.empty()) << "no report at " << report;
    EXPECT_TRUE(JsonChecker(text).valid())
        << report << " is not well-formed JSON";
    EXPECT_NE(text.find("\"schema\":\"zeiot.obs.v2\""), std::string::npos)
        << report << " does not declare schema zeiot.obs.v2";
    for (const std::string& series : required_series) {
      EXPECT_NE(text.find("\"" + series + "\""), std::string::npos)
          << report << " is missing series " << series;
    }
    std::remove(report.c_str());
    // Span-enabled benches also write the sibling exports.
    std::remove((dir + "/" + bench + ".spans.jsonl").c_str());
    std::remove((dir + "/" + bench + ".trace.json").c_str());
    ::rmdir(dir.c_str());
  }
}

// The two MicroDeep benches must additionally carry the network-in-the-loop
// rows (the netexec.* gauges are part of the report contract).
TEST(BenchSmoke, E1TemperatureSeedSweep) {
  run_seed_sweep("bench_e1_microdeep_temperature",
                 {"netexec.accuracy", "netexec.p50_latency_s",
                  "netexec.p99_latency_s", "netexec.energy_per_inference_j"});
}

TEST(BenchSmoke, E2FallSeedSweep) {
  run_seed_sweep("bench_e2_fall_commcost",
                 {"netexec.accuracy", "netexec.p50_latency_s",
                  "netexec.p99_latency_s", "netexec.energy_per_inference_j"});
}

TEST(BenchSmoke, E3TrainSeedSweep) {
  run_seed_sweep("bench_e3_train_congestion", {});
}

TEST(BenchSmoke, E4RoomSeedSweep) {
  run_seed_sweep("bench_e4_room_count", {});
}

TEST(BenchSmoke, E5CsiSeedSweep) {
  run_seed_sweep("bench_e5_csi_localization", {});
}

TEST(BenchSmoke, E6BackscatterSeedSweep) {
  run_seed_sweep("bench_e6_backscatter_mac", {});
}

// The energy bench must report the drought sweep's capacitor overdraw.
TEST(BenchSmoke, E7EnergySeedSweep) {
  run_seed_sweep("bench_e7_energy_budget",
                 {"e7.drought.s40.none.overdraw_per_inference_j"});
}

// The fleet bench must report the fleet aggregates plus the headline
// devices/wall-second throughput gauge (perf.a8.fleet.items_per_s).
TEST(BenchSmoke, A8FleetSeedSweep) {
  run_seed_sweep("bench_a8_fleet",
                 {"fleet.deployments", "fleet.devices", "fleet.accuracy",
                  "fleet.e6.delivery_ratio", "perf.a8.fleet.wall_s",
                  "perf.a8.fleet.items_per_s"});
}

// The serving bench must report the request accounting, the plan-cache
// hit rate, and the headline requests/wall-second throughput gauge
// (perf.a9.serve.items_per_s).
TEST(BenchSmoke, A9ServeSeedSweep) {
  run_seed_sweep("bench_a9_serve",
                 {"serve.offered", "serve.served", "serve.shed",
                  "serve.rejected", "serve.plan_cache.hit_rate",
                  "perf.a9.serve.wall_s", "perf.a9.serve.items_per_s"});
}

}  // namespace
