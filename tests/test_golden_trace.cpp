// Golden-trace regression: two fixed-seed scenarios export their records
// as JSONL and must match the checked-in snapshots byte for byte — the
// instant spans (point events) of backscatter coexistence under fault
// injection (e2e_trace.jsonl), and the span tree of two lossy
// network-in-the-loop MicroDeep inferences (e2e_spans.jsonl).  Both files
// predate instant spans, so each is compared with the matching stream of
// tests/legacy_record.hpp.  Any behavioral drift — event reordering, RNG
// stream changes, altered fault schedules — shows up as a first-divergence
// diff.
//
// To regenerate after an *intentional* behavior change:
//   ZEIOT_UPDATE_GOLDEN=1 ./build/tests/test_golden_trace
// then commit the updated tests/golden/*.jsonl with the change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "backscatter/coexistence.hpp"
#include "fault/injector.hpp"
#include "legacy_record.hpp"
#include "netexec/netexec.hpp"

namespace zeiot {
namespace {

constexpr const char* kGoldenPath = ZEIOT_GOLDEN_DIR "/e2e_trace.jsonl";
constexpr const char* kGoldenSpansPath = ZEIOT_GOLDEN_DIR "/e2e_spans.jsonl";

// The scenario is deliberately small (about 800 events) so the golden
// file stays reviewable, but crosses the sim kernel, backscatter MAC, WLAN
// and fault injection.
void run_scenario(obs::Observability& obs) {
  backscatter::CoexistenceConfig cfg;
  cfg.mode = backscatter::MacMode::Proposed;
  cfg.duration_s = 8.0;
  cfg.wlan_rate_hz = 20.0;
  cfg.num_devices = 4;
  cfg.device_period_s = 1.0;
  cfg.seed = 21;

  fault::FaultSpec spec;
  spec.horizon_s = 8.0;
  spec.num_targets = 4;
  spec.intensity = 1.0;
  spec.node_death_rate = 2.0;
  spec.mean_downtime_s = 3.0;
  spec.drop_rate = 2.0;
  spec.drop_window_s = 2.0;
  spec.drop_probability = 0.5;
  spec.seed = 99;
  fault::FaultInjector inj(fault::generate_plan(spec));
  inj.set_observability(&obs);

  backscatter::CoexistenceSimulator sim(cfg);
  sim.set_observability(&obs);
  sim.set_fault_injector(&inj);
  (void)sim.run();
}

// Span-golden scenario: two fixed-seed lossy network-in-the-loop
// inferences.  Small enough to review (a few hundred spans) but crossing
// every netexec span kind: the root Inference, Sense, NodeCompute, HopTx /
// HopRetryTx / Backoff under 10% loss, and the four phase-attribution
// children that tile each root.
void run_span_scenario(obs::Observability& obs) {
  Rng rng(5);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 3, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(3 * 4 * 4, 6, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(6, 2, rng);

  const Rect area{0.0, 0.0, 10.0, 10.0};
  const auto wsn = microdeep::WsnTopology::grid(area, 4, 4);
  const auto graph = microdeep::UnitGraph::build(net, {1, 8, 8});
  const auto assignment = microdeep::assign_balanced_heuristic(graph, wsn);

  netexec::NetExecConfig cfg;
  cfg.channel.loss_per_hop = 0.1;
  cfg.seed = 17;
  cfg.obs = &obs;
  netexec::NetworkExecutor exec(net, graph, assignment, wsn, cfg);
  for (int i = 0; i < 2; ++i) {
    ml::Tensor sample({1, 8, 8});
    for (std::size_t j = 0; j < sample.size(); ++j) {
      sample[j] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    (void)exec.run(sample);
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Room for the whole coexistence scenario: no record may be dropped.
constexpr std::size_t kScenarioCapacity = 1u << 16;

std::string render_scenario_jsonl() {
  obs::Observability obs;
  obs.enable_spans(kScenarioCapacity);
  run_scenario(obs);
  EXPECT_GT(obs.spans().size(), 0u);
  EXPECT_EQ(obs.spans().dropped(), 0u)
      << "golden scenario overflowed the recorder; raise capacity";
  return legacy::trace_jsonl(obs.spans());
}

TEST(GoldenTrace, ScenarioIsDeterministicInProcess) {
  obs::Observability a, b;
  a.enable_spans(kScenarioCapacity);
  b.enable_spans(kScenarioCapacity);
  run_scenario(a);
  run_scenario(b);
  ASSERT_GT(a.spans().size(), 0u);
  ASSERT_EQ(a.spans().dropped(), 0u);
  ASSERT_EQ(b.spans().dropped(), 0u);
  ASSERT_EQ(a.spans().size(), b.spans().size());
  EXPECT_EQ(a.spans().digest(), b.spans().digest());
}

/// Byte-level line diff against a checked-in snapshot, with
/// ZEIOT_UPDATE_GOLDEN regeneration.  Reports the first divergence.
void expect_matches_golden(const char* path, const std::string& actual_text) {
  if (std::getenv("ZEIOT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << actual_text;
    GTEST_SKIP() << "golden file regenerated at " << path
                 << " — review and commit it";
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << path
                            << "; regenerate with ZEIOT_UPDATE_GOLDEN=1";
  std::ostringstream golden_buf;
  golden_buf << in.rdbuf();

  const std::vector<std::string> expected = split_lines(golden_buf.str());
  const std::vector<std::string> actual = split_lines(actual_text);

  const std::size_t common = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < common; ++i) {
    ASSERT_EQ(expected[i], actual[i])
        << "diverges at line " << (i + 1) << " of " << expected.size()
        << "\n  golden: " << expected[i] << "\n  actual: " << actual[i]
        << "\nIf the change is intentional, regenerate with "
           "ZEIOT_UPDATE_GOLDEN=1 and commit the new snapshot.";
  }
  ASSERT_EQ(expected.size(), actual.size())
      << "length changed (golden " << expected.size() << " lines, run "
      << actual.size() << " lines); first " << common << " lines match. "
      << "Regenerate with ZEIOT_UPDATE_GOLDEN=1 if intentional.";
}

TEST(GoldenTrace, MatchesCheckedInSnapshot) {
  expect_matches_golden(kGoldenPath, render_scenario_jsonl());
}

TEST(GoldenTrace, SpanTreeMatchesCheckedInSnapshot) {
  obs::Observability obs;
  obs.enable_spans(1u << 14);
  run_span_scenario(obs);
  ASSERT_EQ(obs.spans().dropped(), 0u)
      << "golden span scenario overflowed the recorder; raise capacity";
  std::size_t inference_roots = 0;
  for (std::size_t i = 0; i < obs.spans().size(); ++i) {
    const obs::SpanEvent& s = obs.spans().at(i);
    if (s.parent == 0 && s.kind == obs::SpanKind::Inference) {
      ++inference_roots;
    }
  }
  ASSERT_EQ(inference_roots, 2u);  // one root per inference

  // In-process double run first: the snapshot only pins what is already
  // deterministic.
  obs::Observability again;
  again.enable_spans(1u << 14);
  run_span_scenario(again);
  ASSERT_EQ(again.spans().dropped(), 0u);
  ASSERT_EQ(obs.spans().digest(), again.spans().digest());

  std::ostringstream out;
  legacy::span_stream(obs.spans()).export_jsonl(out);
  expect_matches_golden(kGoldenSpansPath, out.str());
}

}  // namespace
}  // namespace zeiot
