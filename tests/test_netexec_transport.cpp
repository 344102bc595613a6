// Hop transport of NetworkExecutor: per-node radio serialization.
//
// A node's radio sends one frame at a time; frames that find it busy wait
// in the node's radio queue and leave in the order their re-polls would
// have fired.  These tests pin that behaviour on scenarios small enough
// to predict frame by frame (a burst leaving back to back, a relayed frame
// cutting into a waiting burst, holders dying under a waiting burst), pin
// the ARQ backoff schedule of a single frame, and bound the simulator
// events the queue spends per transmission on the E1 template.
#include "netexec/netexec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "fleet/templates.hpp"

namespace zeiot::netexec {
namespace {

using microdeep::Assignment;
using microdeep::UnitGraph;
using microdeep::WsnTopology;

constexpr double kAir = 1e-3;  // fixed per-hop airtime

ml::Network make_net() {
  Rng rng(7);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 1, 3, 1, rng);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(16, 2, rng);
  return net;
}

/// Five nodes in radio range of each other.  Node 0 senses the whole 4x4
/// input; conv unit i runs on node 1 + i % 4 and the logits on node 1, so
/// every frame of plan 0 leaves node 0 for a neighbour one hop away.
struct Clique {
  Clique()
      : net(make_net()),
        graph(UnitGraph::build(net, {1, 4, 4})),
        wsn({{5, 5}, {4, 5}, {6, 5}, {5, 4}, {5, 6}}, Rect{0, 0, 10, 10},
            3.0),
        assignment(&graph, unit_map(graph)) {}
  Clique(const Clique&) = delete;
  Clique& operator=(const Clique&) = delete;

  static std::vector<NodeId> unit_map(const UnitGraph& g) {
    std::vector<NodeId> map(g.num_units(), 1);
    const microdeep::UnitLayer& in = g.layers()[0];
    const microdeep::UnitLayer& conv = g.layers()[1];
    for (int i = 0; i < in.num_units(); ++i) map[in.first_unit + i] = 0;
    for (int i = 0; i < conv.num_units(); ++i) {
      map[conv.first_unit + i] = static_cast<NodeId>(1 + i % 4);
    }
    return map;
  }

  /// Destination of each plan-0 frame in the executor's canonical message
  /// order: consumer units in order, each one's input neighbours in order,
  /// one message per (producer unit, consumer node).
  std::vector<NodeId> plan0_destinations() const {
    const microdeep::UnitLayer& in = graph.layers()[0];
    const microdeep::UnitLayer& conv = graph.layers()[1];
    std::set<std::pair<UnitId, NodeId>> seen;
    std::vector<NodeId> dsts;
    for (int i = 0; i < conv.num_units(); ++i) {
      const UnitId u = conv.first_unit + static_cast<UnitId>(i);
      const NodeId n = assignment.node_of(u);
      for (const UnitId src : graph.graph_neighbors(u)) {
        const bool input =
            src >= in.first_unit &&
            src < in.first_unit + static_cast<UnitId>(in.num_units());
        if (input && seen.insert({src, n}).second) dsts.push_back(n);
      }
    }
    return dsts;
  }

  ml::Network net;
  UnitGraph graph;
  WsnTopology wsn;
  Assignment assignment;
};

ml::Tensor sample() {
  Rng rng(3);
  ml::Tensor t({1, 4, 4});
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

NetExecConfig lossless(obs::Observability* o) {
  NetExecConfig cfg;
  cfg.channel.fixed_hop_latency_s = kAir;
  cfg.unit_compute_s = 0.0;
  cfg.obs = o;
  return cfg;
}

/// Room for every record of one inference in these small scenarios.
constexpr std::size_t kRecordCapacity = 1 << 12;

/// Spans of `kind` in record order, from a record that must hold the whole
/// run.
std::vector<obs::SpanEvent> of_kind(const obs::Observability& o,
                                    obs::SpanKind kind) {
  EXPECT_GT(o.spans().size(), 0u);
  EXPECT_EQ(o.spans().dropped(), 0u);
  std::vector<obs::SpanEvent> out;
  for (std::size_t i = 0; i < o.spans().size(); ++i) {
    if (o.spans().at(i).kind == kind) out.push_back(o.spans().at(i));
  }
  return out;
}

/// PacketTx instants sent by `node`, in record order.
std::vector<obs::SpanEvent> sent_by(const obs::Observability& o,
                                    NodeId node) {
  std::vector<obs::SpanEvent> tx;
  for (const obs::SpanEvent& e : of_kind(o, obs::SpanKind::PacketTx)) {
    if (e.a == node) tx.push_back(e);
  }
  return tx;
}

TEST(NetexecTransport, OneNodesFramesLeaveBackToBackInMessageOrder) {
  Clique c;
  obs::Observability o;
  o.enable_spans(kRecordCapacity);
  NetworkExecutor exec(c.net, c.graph, c.assignment, c.wsn, lossless(&o));
  const NetInferenceResult r = exec.run(sample());
  EXPECT_FALSE(r.degraded);

  const std::vector<NodeId> want = c.plan0_destinations();
  const std::vector<obs::SpanEvent> tx = sent_by(o, 0);
  ASSERT_GT(want.size(), 4u);
  ASSERT_EQ(tx.size(), want.size());
  // Each frame starts the instant the previous one's airtime ends:
  // t0 = 0, then t0 + air, t0 + 2 air, ... summed as the radio sums them.
  double t = 0.0;
  for (std::size_t i = 0; i < tx.size(); ++i) {
    EXPECT_EQ(tx[i].t0, t) << "frame " << i;
    EXPECT_EQ(tx[i].b, want[i]) << "frame " << i;
    t += kAir;
  }
}

TEST(NetexecTransport, FramesWaitingAtADeadNodeAreLostWhenItsRadioFrees) {
  // Node 0's first frame is on air over [0, air); the others wait for the
  // radio to free at t = air.  A death that covers t = air loses every
  // waiting frame there, even though the node revives before any of them
  // could have left; a death that ends before t = air loses none.
  using fault::FaultEvent;
  using fault::FaultType;
  struct Case {
    double death_t, revival_t;
    bool covers_radio_free;
  };
  for (const Case& k : {Case{0.5 * kAir, 1.5 * kAir, true},
                        Case{0.2 * kAir, 0.8 * kAir, false}}) {
    Clique c;
    fault::FaultInjector inj{fault::FaultPlan(
        {FaultEvent{k.death_t, FaultType::NodeDeath, 0, 0.0, 1.0},
         FaultEvent{k.revival_t, FaultType::NodeRevival, 0, 0.0, 1.0}})};
    obs::Observability o;
    o.enable_spans(kRecordCapacity);
    NetExecConfig cfg = lossless(&o);
    cfg.fault = &inj;
    NetworkExecutor exec(c.net, c.graph, c.assignment, c.wsn, cfg);
    const NetInferenceResult r = exec.run(sample());

    const std::size_t frames = c.plan0_destinations().size();
    const std::vector<obs::SpanEvent> tx = sent_by(o, 0);
    if (k.covers_radio_free) {
      EXPECT_EQ(r.frames_lost, frames - 1);
      ASSERT_EQ(tx.size(), 1u);
      EXPECT_EQ(tx[0].t0, 0.0);
      EXPECT_TRUE(r.degraded);
    } else {
      EXPECT_EQ(r.frames_lost, 0u);
      EXPECT_EQ(tx.size(), frames);
      EXPECT_FALSE(r.degraded);
    }
  }
}

TEST(NetexecTransport, AHolderDyingMidBurstLosesTheFramesStillWaiting) {
  // Node 0's burst leaves one frame per airtime: frame i at i * air.  A
  // death over [2.5 air, 3.5 air) lets frames 0, 1 and 2 leave; at 3 air
  // the drain finds the holder dead and every frame still waiting is lost
  // there, one by one, though the node revives before the next would have
  // left.
  using fault::FaultEvent;
  using fault::FaultType;
  Clique c;
  fault::FaultInjector inj{fault::FaultPlan(
      {FaultEvent{2.5 * kAir, FaultType::NodeDeath, 0, 0.0, 1.0},
       FaultEvent{3.5 * kAir, FaultType::NodeRevival, 0, 0.0, 1.0}})};
  obs::Observability o;
  o.enable_spans(kRecordCapacity);
  NetExecConfig cfg = lossless(&o);
  cfg.fault = &inj;
  NetworkExecutor exec(c.net, c.graph, c.assignment, c.wsn, cfg);
  const NetInferenceResult r = exec.run(sample());

  const std::vector<NodeId> want = c.plan0_destinations();
  ASSERT_GT(want.size(), 4u);
  EXPECT_EQ(r.frames_lost, want.size() - 3);
  const std::vector<obs::SpanEvent> tx = sent_by(o, 0);
  ASSERT_EQ(tx.size(), 3u);
  double t = 0.0;
  for (std::size_t i = 0; i < tx.size(); ++i) {
    EXPECT_EQ(tx[i].t0, t) << "frame " << i;
    EXPECT_EQ(tx[i].b, want[i]) << "frame " << i;
    t += kAir;
  }
  EXPECT_TRUE(r.degraded);
}

TEST(NetexecTransport, ARelayedArrivalOnTheRadioFreeInstantGoesFirst) {
  // A line 0 - 3 - 1 - 2, plus node 4 next to 1 and 2.  A 1x1 conv makes
  // conv unit i consume input unit i only.  Input 0 is sensed on node 0,
  // inputs 1-4 on node 1; conv units 0, 1 and 3 run on node 2, units 2 and
  // 4 on node 4, the logits on node 2.  So node 1 sends its own burst
  // 1->2, 2->4, 3->2, 4->4 (message order) and relays input 0, which left
  // node 0 at t = 0 and reaches node 1 over relay 3 at 2 air: exactly when
  // node 1's radio frees after its second frame.  The arrival was
  // scheduled before the burst's waiting frames took their positions, so
  // it takes the radio first; then the burst's rest leaves in message
  // order.
  Rng rng(11);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 1, 1, 0, rng);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(5, 2, rng);
  const UnitGraph graph = UnitGraph::build(net, {1, 1, 5});
  const WsnTopology wsn({{0, 5}, {4, 5}, {6, 5}, {2, 5}, {5, 6.5}},
                        Rect{0, 0, 10, 10}, 2.5);
  ASSERT_EQ(wsn.hops(0, 2), 3);
  ASSERT_EQ(wsn.next_hop(0, 2), 3u);
  std::vector<NodeId> map(graph.num_units(), 2);
  const microdeep::UnitLayer& in = graph.layers()[0];
  const microdeep::UnitLayer& conv = graph.layers()[1];
  for (int i = 0; i < in.num_units(); ++i) {
    map[in.first_unit + i] = i == 0 ? 0 : 1;
  }
  map[conv.first_unit + 2] = 4;
  map[conv.first_unit + 4] = 4;
  const Assignment assignment(&graph, map);

  obs::Observability o;
  o.enable_spans(kRecordCapacity);
  NetworkExecutor exec(net, graph, assignment, wsn, lossless(&o));
  const NetInferenceResult r = exec.run(ml::Tensor({1, 1, 5}));
  EXPECT_FALSE(r.degraded);

  // Node 1's radio: its burst at 0 and air, the relayed frame at 2 air,
  // then the rest of the burst back to back.
  const std::vector<obs::SpanEvent> tx = sent_by(o, 1);
  const std::vector<std::pair<double, NodeId>> want = {
      {0.0, 2}, {kAir, 4}, {2 * kAir, 2}, {3 * kAir, 2}, {4 * kAir, 4}};
  ASSERT_EQ(tx.size(), want.size());
  for (std::size_t i = 0; i < tx.size(); ++i) {
    EXPECT_DOUBLE_EQ(tx[i].t0, want[i].first) << "frame " << i;
    EXPECT_EQ(tx[i].b, want[i].second) << "frame " << i;
  }
  // The frame at 2 air is the relayed one: its hop span's parent is node
  // 0's sensing, the burst's is node 1's.
  std::vector<NodeId> producer;
  for (const obs::SpanEvent& e : of_kind(o, obs::SpanKind::HopTx)) {
    if (e.a != 1) continue;
    for (std::size_t i = 0; i < o.spans().size(); ++i) {
      const obs::SpanEvent& p = o.spans().at(i);
      if (p.id == e.parent) producer.push_back(p.a);
    }
  }
  EXPECT_EQ(producer, (std::vector<NodeId>{1, 1, 0, 1, 1}));
}

TEST(NetexecTransport, ArqRetriesBackOffExponentiallyThenAbandon) {
  // Two nodes in range; node 0 senses the single input, node 1 hosts both
  // logits, so the inference ships exactly one frame over one hop.  Every
  // attempt is dropped, so the frame walks the whole ARQ schedule: retry
  // k + 1 leaves the ack timeout 4 ms * 2^k after attempt k's airtime
  // ends, and after attempt max_retries the frame is abandoned.
  Rng rng(5);
  ml::Network net;
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(1, 2, rng);
  const UnitGraph graph = UnitGraph::build(net, {1, 1, 1});
  const WsnTopology wsn({{5, 5}, {4, 5}}, Rect{0, 0, 10, 10}, 3.0);
  std::vector<NodeId> map(graph.num_units(), 1);
  map[graph.layers()[0].first_unit] = 0;
  const Assignment assignment(&graph, map);

  fault::FaultInjector inj{fault::FaultPlan({fault::FaultEvent{
      0.0, fault::FaultType::MessageDrop, fault::kAllTargets, 1.0, 1.0}})};
  obs::Observability o;
  o.enable_spans(kRecordCapacity);
  NetExecConfig cfg = lossless(&o);
  cfg.max_retries = 3;
  cfg.fault = &inj;
  NetworkExecutor exec(net, graph, assignment, wsn, cfg);
  ml::Tensor x({1, 1, 1});
  x[0] = 0.5f;
  const NetInferenceResult r = exec.run(x);

  EXPECT_EQ(r.messages, 1u);
  EXPECT_EQ(r.transmissions, 4u);
  EXPECT_EQ(r.retransmissions, 3u);
  EXPECT_EQ(r.frames_lost, 1u);
  EXPECT_TRUE(r.degraded);

  // Attempts 0..3 and nothing after: the abandoned frame is never sent
  // again, and it never arrives.
  const std::vector<obs::SpanEvent> tx = of_kind(o, obs::SpanKind::PacketTx);
  ASSERT_EQ(tx.size(), 4u);
  for (const obs::SpanEvent& e : tx) {
    EXPECT_EQ(e.a, 0u);
    EXPECT_EQ(e.b, 1u);
  }
  EXPECT_TRUE(of_kind(o, obs::SpanKind::PacketRx).empty());

  const std::vector<obs::SpanEvent> backoff =
      of_kind(o, obs::SpanKind::Backoff);
  ASSERT_EQ(backoff.size(), 3u);
  for (std::size_t k = 0; k < backoff.size(); ++k) {
    const double wait = 4e-3 * std::pow(2.0, static_cast<double>(k));
    EXPECT_EQ(tx[k + 1].t0, tx[k].t0 + kAir + wait) << "retry " << k + 1;
    // The backoff span covers exactly the wait between the two attempts.
    EXPECT_EQ(backoff[k].t0, tx[k].t0 + kAir) << "backoff " << k;
    EXPECT_EQ(backoff[k].t1, tx[k + 1].t0) << "backoff " << k;
    EXPECT_DOUBLE_EQ(backoff[k].duration(), wait) << "backoff " << k;
    EXPECT_EQ(backoff[k].a, 0u);
    EXPECT_EQ(backoff[k].b, k + 1);
  }
}

TEST(NetexecTransport, FewSimulatorEventsPerTransmission) {
  // A waiting frame costs no event of its own: per transmission the
  // simulator runs its arrival, about one radio-queue drain, and the
  // inference's share of sense/compute/deadline events.  Re-polling the
  // radio with one event per waiting frame per busy airtime would spend
  // about 14 per transmission here.
  auto tmpl = fleet::make_lounge_template();
  obs::Observability o;
  NetworkExecutor exec(tmpl->net, tmpl->graph, tmpl->assignment, tmpl->wsn,
                       fleet::deployment_netexec_config(11, &o));
  for (std::size_t s = 0; s < 2; ++s) exec.run(tmpl->data.x(s));
  const double tx = o.metrics().counter_value("netexec.exec.transmissions");
  const double events = o.metrics().counter_value("netexec.exec.sim_events");
  ASSERT_GT(tx, 1000.0);
  EXPECT_LT(events / tx, 4.0) << events << " events for " << tx
                              << " transmissions";
}

}  // namespace
}  // namespace zeiot::netexec
