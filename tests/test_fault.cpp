// zeiot::fault — plan generation, injector semantics, invariant checking,
// and the injection points wired through the backscatter coexistence
// simulator and netexec.  Everything here is seeded: a failing
// case names the exact plan digest needed to replay it.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "backscatter/coexistence.hpp"
#include "common/error.hpp"
#include "fault/injector.hpp"
#include "fault/invariants.hpp"
#include "netexec/netexec.hpp"
#include "sim/simulator.hpp"

namespace zeiot::fault {
namespace {

FaultSpec busy_spec(std::uint64_t seed = 9) {
  FaultSpec s;
  s.horizon_s = 100.0;
  s.num_targets = 16;
  s.node_death_rate = 5.0;
  s.mean_downtime_s = 20.0;
  s.drop_rate = 4.0;
  s.corrupt_rate = 3.0;
  s.seed = seed;
  return s;
}

// -- Plan generation -------------------------------------------------------

TEST(FaultPlan, GenerationIsDeterministic) {
  const FaultPlan a = generate_plan(busy_spec());
  const FaultPlan b = generate_plan(busy_spec());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.events(), b.events());
  EXPECT_EQ(a.digest(), b.digest());
  const FaultPlan c = generate_plan(busy_spec(10));
  EXPECT_NE(a.digest(), c.digest()) << "seed must change the schedule";
}

TEST(FaultPlan, IntensityZeroMeansEmptyAndScalesCounts) {
  FaultSpec s = busy_spec();
  s.intensity = 0.0;
  EXPECT_TRUE(generate_plan(s).empty());
  s.intensity = 1.0;
  const std::size_t base = generate_plan(s).size();
  s.intensity = 4.0;
  const std::size_t heavy = generate_plan(s).size();
  EXPECT_GT(base, 0u);
  EXPECT_GT(heavy, base) << "4x intensity must inject more events";
}

TEST(FaultPlan, FaultClassesUseIndependentSubstreams) {
  FaultSpec with_drops = busy_spec();
  FaultSpec without_drops = busy_spec();
  without_drops.drop_rate = 0.0;
  auto deaths_of = [](const FaultPlan& p) {
    std::vector<FaultEvent> out;
    for (const auto& e : p.events()) {
      if (e.type == FaultType::NodeDeath || e.type == FaultType::NodeRevival) {
        out.push_back(e);
      }
    }
    return out;
  };
  EXPECT_EQ(deaths_of(generate_plan(with_drops)),
            deaths_of(generate_plan(without_drops)))
      << "zeroing one class's rate must not shift another class's schedule";
}

// -- Injector state queries ------------------------------------------------

TEST(FaultInjector, DeathRevivalSpans) {
  FaultInjector inj(FaultPlan({{5.0, FaultType::NodeDeath, 3},
                               {9.0, FaultType::NodeRevival, 3}}));
  EXPECT_FALSE(inj.node_dead(4.9, 3));
  EXPECT_TRUE(inj.node_dead(5.0, 3));
  EXPECT_TRUE(inj.node_dead(8.9, 3));
  EXPECT_FALSE(inj.node_dead(9.0, 3));
  EXPECT_FALSE(inj.node_dead(7.0, 2)) << "other nodes stay alive";
}

TEST(FaultInjector, DeadMaskAndWildcardTarget) {
  FaultInjector inj(FaultPlan({{1.0, FaultType::NodeDeath, kAllTargets},
                               {2.0, FaultType::NodeRevival, 0}}));
  const auto all_dead = inj.dead_mask(1.5, 4);
  EXPECT_EQ(all_dead, std::vector<bool>(4, true));
  const auto after = inj.dead_mask(2.5, 4);
  EXPECT_EQ(after, (std::vector<bool>{false, true, true, true}));
}

TEST(FaultInjector, DropWindowFiresOnlyInside) {
  // magnitude 1.0 => certain drop inside [10, 20), never outside.
  FaultInjector inj(
      FaultPlan({{10.0, FaultType::MessageDrop, 2, 10.0, 1.0}}));
  EXPECT_FALSE(inj.should_drop(9.9, 2, 7));
  EXPECT_TRUE(inj.should_drop(10.0, 2, 7));
  EXPECT_TRUE(inj.should_drop(19.9, 7, 2)) << "either endpoint matches";
  EXPECT_FALSE(inj.should_drop(20.0, 2, 7)) << "window end is exclusive";
  EXPECT_FALSE(inj.should_drop(15.0, 4, 5)) << "unrelated endpoints";
  EXPECT_EQ(inj.injected(FaultType::MessageDrop), 2u);
}

TEST(FaultInjector, ProbabilisticDrawsAreSeedReproducible) {
  const FaultPlan plan(
      {{0.0, FaultType::MessageDrop, kAllTargets, 100.0, 0.5}});
  FaultInjector a(plan, 123), b(plan, 123);
  std::size_t drops = 0;
  for (int i = 0; i < 200; ++i) {
    const bool da = a.should_drop(1.0, 0, 1);
    ASSERT_EQ(da, b.should_drop(1.0, 0, 1)) << "draw " << i << " diverged";
    if (da) ++drops;
  }
  EXPECT_GT(drops, 50u);
  EXPECT_LT(drops, 150u) << "Bernoulli(0.5) should land near half";
}

TEST(FaultInjector, CorruptWindowIndependentOfDrop) {
  FaultInjector inj(
      FaultPlan({{0.0, FaultType::MessageCorrupt, 1, 5.0, 1.0}}));
  EXPECT_FALSE(inj.should_drop(1.0, 1, 2)) << "no drop window exists";
  EXPECT_TRUE(inj.should_corrupt(1.0, 1, 2));
  EXPECT_FALSE(inj.should_corrupt(6.0, 1, 2));
  EXPECT_EQ(inj.injected(FaultType::MessageCorrupt), 1u);
}

TEST(FaultInjector, DelayWindowsOverlapToMax) {
  FaultInjector inj(
      FaultPlan({{0.0, FaultType::MessageDelay, 4, 10.0, 0.010},
                 {5.0, FaultType::MessageDelay, 4, 10.0, 0.030}}));
  EXPECT_DOUBLE_EQ(inj.message_delay_s(2.0, 4, 9), 0.010);
  EXPECT_DOUBLE_EQ(inj.message_delay_s(7.0, 4, 9), 0.030)
      << "largest active delay wins in the overlap";
  EXPECT_DOUBLE_EQ(inj.message_delay_s(20.0, 4, 9), 0.0);
  EXPECT_EQ(inj.injected(FaultType::MessageDelay), 2u);
}

TEST(FaultInjector, RecordsInjectionsIntoObservability) {
  obs::Observability obs;
  obs.enable_spans(16);
  FaultInjector inj(
      FaultPlan({{0.0, FaultType::MessageDrop, 1, 10.0, 1.0}}));
  inj.set_observability(&obs);
  ASSERT_TRUE(inj.should_drop(1.0, 1, 2));
  EXPECT_EQ(obs.metrics()
                .counter("fault.injected", {{"type", "message_drop"}})
                .value(),
            1.0);
  ASSERT_EQ(obs.spans().size(), 1u);
  EXPECT_EQ(obs.spans().at(0).kind, obs::SpanKind::FaultInjected);
  EXPECT_EQ(obs.spans().at(0).a, 1u);
}

TEST(FaultDriver, ArmsPlanTransitionsOnTheKernel) {
  obs::Observability obs;
  FaultInjector inj(FaultPlan({{2.0, FaultType::NodeDeath, 1},
                               {5.0, FaultType::NodeRevival, 1}}));
  inj.set_observability(&obs);
  sim::Simulator sim;
  FaultDriver driver(sim, inj);
  driver.arm();
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 5.0) << "fault events advance the clock";
  EXPECT_EQ(obs.metrics()
                .counter("fault.transitions", {{"type", "node_death"}})
                .value(),
            1.0);
  EXPECT_EQ(obs.metrics()
                .counter("fault.transitions", {{"type", "node_revival"}})
                .value(),
            1.0);
}

// -- Invariant checker -----------------------------------------------------

TEST(InvariantChecker, EnergyBoundsAndRequireClean) {
  InvariantChecker chk;
  EXPECT_TRUE(chk.check_energy_bounds(1.0, 0, 0.5, 3.3));
  EXPECT_TRUE(chk.clean());
  EXPECT_NO_THROW(chk.require_clean());
  EXPECT_FALSE(chk.check_energy_bounds(2.0, 0, -1e-9, 3.3));
  EXPECT_FALSE(chk.check_energy_bounds(3.0, 1, 0.1, std::nan("")));
  ASSERT_EQ(chk.violations().size(), 2u);
  EXPECT_THROW(chk.require_clean(), Error);
}

TEST(InvariantChecker, NoDeadSenderScansTrace) {
  obs::Observability obs;
  obs.enable_spans(16);
  obs.spans().instant(obs::SpanKind::PacketTx, 1.0, /*a=*/3);
  obs.spans().instant(obs::SpanKind::PacketTx, 6.0, /*a=*/3);
  FaultInjector inj(FaultPlan({{5.0, FaultType::NodeDeath, 3}}));
  InvariantChecker chk;
  EXPECT_FALSE(chk.check_no_dead_sender(obs.spans(), inj))
      << "the t=6 transmission comes from a node dead since t=5";
  ASSERT_EQ(chk.violations().size(), 1u);
  EXPECT_DOUBLE_EQ(chk.violations().front().t, 6.0);
}

TEST(InvariantChecker, UnitCoverUnderDropout) {
  InvariantChecker chk;
  const std::vector<std::uint32_t> ok{0, 1, 2, 1};
  EXPECT_TRUE(chk.check_unit_cover(0.0, ok, 3, {}));
  EXPECT_FALSE(chk.check_unit_cover(1.0, {0, 5}, 3, {}))
      << "node 5 is out of range";
  EXPECT_FALSE(chk.check_unit_cover(2.0, ok, 3, {false, true, false}))
      << "units hosted on dead node 1";
  // One violation per offending unit: node 5 out of range, plus units 1
  // and 3 both hosted on dead node 1.
  EXPECT_EQ(chk.violations().size(), 3u);
}

TEST(InvariantChecker, ForwardConservationTolerance) {
  InvariantChecker chk;
  EXPECT_TRUE(chk.check_forward_conservation(0.0, 1.0000004, 1.0, 1e-6));
  EXPECT_FALSE(chk.check_forward_conservation(1.0, 1.1, 1.0, 1e-6));
  EXPECT_FALSE(chk.check_forward_conservation(2.0, std::nan(""), 1.0, 1e-6));
  EXPECT_EQ(chk.violations().size(), 2u);
}

// -- Wired subsystems ------------------------------------------------------

// Room for a whole 15-20 s chaos run of coexistence: no record dropped.
constexpr std::size_t kChaosRecordCapacity = 1 << 16;

TEST(FaultWiring, CoexistenceChaosIsSeedReproducible) {
  const FaultPlan plan = generate_plan([] {
    FaultSpec s;
    s.horizon_s = 20.0;
    s.num_targets = 4;
    s.node_death_rate = 2.0;
    s.mean_downtime_s = 5.0;
    s.drop_rate = 2.0;
    s.drop_probability = 0.7;
    s.seed = 21;
    return s;
  }());
  auto run_once = [&](obs::Observability& obs) {
    backscatter::CoexistenceConfig cfg;
    cfg.duration_s = 20.0;
    cfg.num_devices = 4;
    cfg.wlan_rate_hz = 40.0;
    FaultInjector inj(plan);
    inj.set_observability(&obs);
    backscatter::CoexistenceSimulator sim(cfg);
    sim.set_observability(&obs);
    sim.set_fault_injector(&inj);
    return sim.run();
  };
  obs::Observability oa, ob;
  oa.enable_spans(kChaosRecordCapacity);
  ob.enable_spans(kChaosRecordCapacity);
  const auto ma = run_once(oa);
  const auto mb = run_once(ob);
  EXPECT_EQ(ma.frames_delivered, mb.frames_delivered);
  EXPECT_EQ(ma.frames_suppressed, mb.frames_suppressed);
  EXPECT_EQ(ma.frames_faulted, mb.frames_faulted);
  for (const obs::Observability* o : {&oa, &ob}) {
    ASSERT_GT(o->spans().size(), 0u);
    ASSERT_EQ(o->spans().dropped(), 0u) << "the record must hold the run";
  }
  EXPECT_EQ(oa.spans().digest(), ob.spans().digest())
      << "protocol + fault interleaving must be bit-identical";
  EXPECT_GT(ma.frames_suppressed + ma.frames_faulted, 0u)
      << "the plan should actually bite at this intensity";
}

TEST(FaultWiring, CoexistenceFrameOfATagDeadAtItsWindowIsFaulted) {
  // One tag and no WLAN, so each frame rides a dummy carrier granted just
  // before its deadline.  A fault-free run's record gives the first
  // window, the event that registered its frame (the last one before the
  // window opens) and the next event after it closes.  The tag then dies
  // between registration and window and revives before that next event:
  // the AP still grants the window, but the frame is lost, not delivered.
  backscatter::CoexistenceConfig cfg;
  cfg.duration_s = 5.0;
  cfg.num_devices = 1;
  cfg.wlan_rate_hz = 0.0;
  cfg.backscatter_noise_per = 0.0;  // every granted frame would arrive
  const auto run_once = [&](obs::Observability* o, FaultInjector* inj) {
    backscatter::CoexistenceSimulator sim(cfg);
    sim.set_observability(o);
    sim.set_fault_injector(inj);
    return sim.run();
  };
  obs::Observability clean;
  clean.enable_spans(kChaosRecordCapacity);
  const auto base = run_once(&clean, nullptr);
  ASSERT_EQ(clean.spans().dropped(), 0u);
  double open = -1.0, close = -1.0;
  for (std::size_t i = 0; i < clean.spans().size() && close < 0.0; ++i) {
    const obs::SpanEvent& e = clean.spans().at(i);
    if (e.kind == obs::SpanKind::BackscatterWindowOpen) open = e.t0;
    if (e.kind == obs::SpanKind::BackscatterWindowClose) close = e.t0;
  }
  ASSERT_GT(open, 0.0);
  ASSERT_GT(close, open);
  double registered = -1.0, next = -1.0;
  for (std::size_t i = 0; i < clean.spans().size(); ++i) {
    const obs::SpanEvent& e = clean.spans().at(i);
    if (e.kind != obs::SpanKind::EventFired) continue;
    if (e.t0 < open) registered = std::max(registered, e.t0);
    if (e.t0 > close && (next < 0.0 || e.t0 < next)) next = e.t0;
  }
  ASSERT_GE(registered, 0.0);
  ASSERT_GT(next, close);

  FaultInjector inj(FaultPlan(
      {{0.5 * (registered + open), FaultType::NodeDeath, 0},
       {0.5 * (close + next), FaultType::NodeRevival, 0}}));
  const auto hit = run_once(nullptr, &inj);
  EXPECT_EQ(base.frames_faulted, 0u);
  EXPECT_EQ(hit.frames_generated, base.frames_generated);
  EXPECT_EQ(hit.frames_suppressed, 0u) << "the tag is alive at each cycle";
  EXPECT_EQ(hit.frames_faulted, 1u);
  EXPECT_EQ(hit.frames_delivered + 1, base.frames_delivered);
}

/// One netexec inference of `sample` under `fault` (nullable).
netexec::NetInferenceResult run_netexec(
    ml::Network& net, const microdeep::UnitGraph& graph,
    const microdeep::Assignment& a, const microdeep::WsnTopology& wsn,
    const ml::Tensor& sample, FaultInjector* fault,
    double layer_deadline_s = netexec::NetExecConfig{}.layer_deadline_s) {
  netexec::NetExecConfig cfg;
  cfg.fault = fault;
  cfg.layer_deadline_s = layer_deadline_s;
  netexec::NetworkExecutor exec(net, graph, a, wsn, cfg);
  return exec.run(sample);
}

void expect_same_bits(const ml::Tensor& a, const ml::Tensor& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float fa = a[i], fb = b[i];
    EXPECT_EQ(std::memcmp(&fa, &fb, sizeof(float)), 0)
        << "logit " << i << ": " << fa << " vs " << fb;
  }
}

TEST(FaultWiring, ExecutorEmptyPlanMatchesNoInjectorExactly) {
  Rng rng(1);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 3, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(3 * 3 * 3, 4, rng);
  net.emplace<ml::Dense>(4, 2, rng);
  const auto graph = microdeep::UnitGraph::build(net, {1, 6, 6});
  const auto wsn = microdeep::WsnTopology::grid({0, 0, 10, 10}, 3, 3);
  const auto a = microdeep::assign_nearest(graph, wsn);
  ml::Tensor sample({1, 6, 6});
  Rng srng(4);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample[i] = static_cast<float>(srng.uniform(-1.0, 1.0));
  }
  const auto base = run_netexec(net, graph, a, wsn, sample, nullptr);
  FaultInjector empty{FaultPlan{}};
  const auto with = run_netexec(net, graph, a, wsn, sample, &empty);
  expect_same_bits(base.output, with.output);
  EXPECT_EQ(base.latency_s, with.latency_s);
  EXPECT_EQ(base.transmissions, with.transmissions);
  EXPECT_EQ(with.frames_lost, 0u);
  EXPECT_FALSE(with.degraded);
}

TEST(FaultWiring, ExecutorSurvivesTotalMessageLoss) {
  Rng rng(2);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 2, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(2 * 2 * 2, 2, rng);
  const auto graph = microdeep::UnitGraph::build(net, {1, 4, 4});
  const auto wsn = microdeep::WsnTopology::grid({0, 0, 10, 10}, 2, 2);
  const auto a = microdeep::assign_nearest(graph, wsn);
  ml::Tensor sample({1, 4, 4});
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample[i] = 1.0f;
  }
  FaultInjector all_lost(FaultPlan(
      {{0.0, FaultType::MessageDrop, kAllTargets, 100.0, 1.0}}));
  const auto res = run_netexec(net, graph, a, wsn, sample, &all_lost);
  EXPECT_GT(res.messages, 0u);
  EXPECT_EQ(res.frames_lost, res.messages)
      << "every cross-node frame sits inside the certain-drop window";
  EXPECT_TRUE(res.degraded);
  for (std::size_t i = 0; i < res.output.size(); ++i) {
    EXPECT_TRUE(std::isfinite(res.output[i]))
        << "missing data must degrade, never produce inf/nan";
  }
}

TEST(FaultWiring, ExecutorDelayStretchesLatency) {
  Rng rng(3);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 2, 3, 1, rng);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(2 * 4 * 4, 2, rng);
  const auto graph = microdeep::UnitGraph::build(net, {1, 4, 4});
  const auto wsn = microdeep::WsnTopology::grid({0, 0, 10, 10}, 2, 2);
  const auto a = microdeep::assign_nearest(graph, wsn);
  ml::Tensor sample({1, 4, 4});
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample[i] = 0.5f;
  }
  // Layer deadlines well past the injected delay: the default 0.25 s would
  // fire before the delayed frames land and substitute their values.
  constexpr double kDeadline = 5.0;
  const auto base =
      run_netexec(net, graph, a, wsn, sample, nullptr, kDeadline);
  FaultInjector slow(FaultPlan(
      {{0.0, FaultType::MessageDelay, kAllTargets, 100.0, 0.250}}));
  const auto delayed =
      run_netexec(net, graph, a, wsn, sample, &slow, kDeadline);
  EXPECT_GT(delayed.latency_s, base.latency_s + 0.2)
      << "every cross-node hop gained 250 ms";
  EXPECT_FALSE(delayed.degraded);
  expect_same_bits(base.output, delayed.output);  // timing, never values
}

TEST(FaultWiring, InvariantCheckerHoldsUnderChaosRun) {
  // End-to-end: a recorded netexec inference in which the node that
  // transmits most in a fault-free run dies while frames wait for its
  // radio.  The record must hold that node's frames from before its death,
  // so the scan has something to check, and none from after.
  Rng rng(44);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 3, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(3 * 3 * 3, 6, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(6, 2, rng);
  const auto graph = microdeep::UnitGraph::build(net, {1, 6, 6});
  const auto wsn = microdeep::WsnTopology::grid({0.0, 0.0, 10.0, 10.0}, 4, 4);
  const auto assignment = microdeep::assign_nearest(graph, wsn);
  ml::Tensor sample({1, 6, 6});
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  const auto run_once = [&](obs::Observability& o, FaultInjector* inj) {
    netexec::NetExecConfig cfg;
    cfg.fault = inj;
    cfg.obs = &o;
    netexec::NetworkExecutor exec(net, graph, assignment, wsn, cfg);
    (void)exec.run(sample);
    ASSERT_EQ(o.spans().dropped(), 0u) << "the scan must see the whole run";
  };
  const auto tx_times = [](const obs::Observability& o) {
    std::map<std::uint32_t, std::vector<double>> by_node;
    for (std::size_t i = 0; i < o.spans().size(); ++i) {
      const obs::SpanEvent& e = o.spans().at(i);
      if (e.kind == obs::SpanKind::PacketTx) by_node[e.a].push_back(e.t0);
    }
    return by_node;
  };

  obs::Observability clean;
  clean.enable_spans(kChaosRecordCapacity);
  run_once(clean, nullptr);
  std::uint32_t victim = 0;
  std::vector<double> victim_tx;
  for (const auto& [node, times] : tx_times(clean)) {
    if (times.size() > victim_tx.size()) {
      victim = node;
      victim_tx = times;
    }
  }
  ASSERT_GE(victim_tx.size(), 2u);
  std::sort(victim_tx.begin(), victim_tx.end());
  // Between its first two transmissions: every node sends its sensed
  // inputs at once, so the rest of that burst still waits for its radio.
  const double death = 0.5 * (victim_tx[0] + victim_tx[1]);

  obs::Observability obs;
  obs.enable_spans(kChaosRecordCapacity);
  FaultInjector inj(FaultPlan({{death, FaultType::NodeDeath, victim}}));
  inj.set_observability(&obs);
  run_once(obs, &inj);
  const std::vector<double> sent = tx_times(obs)[victim];
  EXPECT_GT(std::count_if(sent.begin(), sent.end(),
                          [&](double t) { return t < death; }),
            0)
      << "the victim transmits before it dies";
  InvariantChecker chk(&obs);
  EXPECT_TRUE(chk.check_no_dead_sender(obs.spans(), inj))
      << "no frame may leave a node after its death";
  chk.require_clean();
}

// -- Network-in-the-loop execution under faults ----------------------------

TEST(FaultWiring, NetexecNodeDeathMidInferenceTerminatesDegraded) {
  // Kill the node owning a hidden-layer (dense) unit while its inference is
  // in flight.  The event loop must still drain (the per-layer deadline is
  // the termination guarantee), the consumers must substitute the missing
  // activations, and the result must carry the degraded flag.
  Rng rng(41);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 3, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(3 * 3 * 3, 6, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(6, 2, rng);
  const auto graph = microdeep::UnitGraph::build(net, {1, 6, 6});
  const auto wsn = microdeep::WsnTopology::grid({0.0, 0.0, 10.0, 10.0}, 4, 4);
  const auto assignment = microdeep::assign_nearest(graph, wsn);

  // The first Dense layer in the unit graph is the hidden one; its owner is
  // the victim.
  microdeep::UnitId hidden_unit = 0;
  bool found = false;
  for (const auto& layer : graph.layers()) {
    if (layer.kind == microdeep::UnitLayer::Kind::Dense) {
      hidden_unit = layer.first_unit;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  const auto victim = assignment.node_of(hidden_unit);

  // Death at 1 ms: input frames are already in flight (per-hop airtime is
  // ~1.3 ms under the default 802.15.4 channel) but the hidden layer has
  // not computed yet — squarely mid-inference.
  FaultPlan plan({FaultEvent{1e-3, FaultType::NodeDeath,
                             static_cast<std::uint32_t>(victim)}});
  FaultInjector inj(std::move(plan));

  netexec::NetExecConfig cfg;
  cfg.fault = &inj;
  netexec::NetworkExecutor exec(net, graph, assignment, wsn, cfg);

  ml::Tensor sample({1, 6, 6});
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  const auto r = exec.run(sample);  // returning at all proves termination

  EXPECT_TRUE(r.degraded);
  EXPECT_GT(r.substitutions, 0u);
  EXPECT_EQ(r.output.size(), 2u);
  EXPECT_GT(r.latency_s, 0.0);
  // A dead owner never ships its outputs: the frames addressed to / from it
  // are abandoned, not retried forever.
  EXPECT_GT(r.frames_lost + r.substitutions, 0u);

  // The executor must stay usable after the fault run: the victim stays
  // dead (point event, no revival), so later inferences degrade too but
  // still terminate.
  const auto r2 = exec.run(sample);
  EXPECT_TRUE(r2.degraded);
}

TEST(FaultWiring, NetexecDeadSensingNodeSubstitutesItsInputs) {
  // A node that is already dead at t=0 cannot sense: every input unit it
  // owns is substituted (zeros on first contact) and the run degrades, but
  // the remaining nodes still produce a full-sized output vector.
  Rng rng(42);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 2, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(2 * 6 * 6, 2, rng);
  const auto graph = microdeep::UnitGraph::build(net, {1, 6, 6});
  const auto wsn = microdeep::WsnTopology::grid({0.0, 0.0, 10.0, 10.0}, 3, 3);
  const auto assignment = microdeep::assign_nearest(graph, wsn);

  const auto victim = assignment.node_of(graph.layers().front().first_unit);
  FaultPlan plan({FaultEvent{0.0, FaultType::NodeDeath,
                             static_cast<std::uint32_t>(victim)}});
  FaultInjector inj(std::move(plan));

  netexec::NetExecConfig cfg;
  cfg.fault = &inj;
  netexec::NetworkExecutor exec(net, graph, assignment, wsn, cfg);

  ml::Tensor sample({1, 6, 6});
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  const auto r = exec.run(sample);
  EXPECT_TRUE(r.degraded);
  EXPECT_GT(r.substitutions, 0u);
  EXPECT_EQ(r.output.size(), 2u);
}

TEST(FaultWiring, NetexecBrownoutWithCheckpointsResumesCorrectLate) {
  // A whole-cell supply brownout mid-inference (Sec. III.A's intermittency
  // meeting the distributed executor): with per-unit NVM checkpoints the
  // round suspends instead of dying, resumes from the durable image at
  // revival, and completes with logits bit-identical to the uninterrupted
  // run — correct, just late.  (The degradation control arm and the codec
  // properties live in tests/test_intermittent_exec.cpp.)
  Rng rng(43);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 3, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(3 * 3 * 3, 6, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(6, 2, rng);
  const auto graph = microdeep::UnitGraph::build(net, {1, 6, 6});
  const auto wsn = microdeep::WsnTopology::grid({0.0, 0.0, 10.0, 10.0}, 4, 4);
  const auto assignment = microdeep::assign_nearest(graph, wsn);

  ml::Tensor sample({1, 6, 6});
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }

  netexec::NetExecConfig base;
  base.checkpoint.policy = energy::CheckpointPolicy::EveryUnit;
  netexec::NetworkExecutor clean(net, graph, assignment, wsn, base);
  const auto ref = clean.run(sample);
  ASSERT_FALSE(ref.degraded);

  // All nodes lose their supply from 1 ms (frames in flight) to 51 ms.
  FaultPlan plan({FaultEvent{1e-3, FaultType::Brownout, kAllTargets, 50e-3,
                             1.0}});
  FaultInjector inj(std::move(plan));
  netexec::NetExecConfig cfg = base;
  cfg.fault = &inj;
  netexec::NetworkExecutor exec(net, graph, assignment, wsn, cfg);
  const auto r = exec.run(sample);

  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.substitutions, 0u);
  EXPECT_GT(r.suspensions, 0u);
  EXPECT_GT(r.resumes, 0u);
  EXPECT_GE(r.latency_s, 51e-3) << "completion waits for the revival";
  EXPECT_GT(r.latency_s, ref.latency_s);
  ASSERT_EQ(r.output.size(), ref.output.size());
  for (std::size_t i = 0; i < r.output.size(); ++i) {
    const float fg = r.output[i];
    const float fw = ref.output[i];
    std::uint32_t got = 0;
    std::uint32_t want = 0;
    std::memcpy(&got, &fg, sizeof(got));
    std::memcpy(&want, &fw, sizeof(want));
    EXPECT_EQ(got, want) << "logit " << i << " differs in bits after resume";
  }
}

}  // namespace
}  // namespace zeiot::fault
