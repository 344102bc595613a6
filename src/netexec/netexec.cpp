#include "netexec/netexec.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <unordered_set>
#include <utility>

#include "common/stats.hpp"
#include "energy/device.hpp"
#include "microdeep/quant.hpp"
#include "phy/airtime.hpp"
#include "sim/simulator.hpp"

namespace zeiot::netexec {

namespace {

// Fixed radio and energy model (EXPERIMENTS.md, "Model constants").
constexpr double kAckTimeoutS = 4e-3;    // missing-ACK wait before retry 0
constexpr double kBackoffFactor = 2.0;   // retry k waits kAckTimeoutS * 2^k
constexpr std::size_t kHeaderBytes = 9;  // MAC/NWK header on every frame
constexpr double kSenseS = 10e-3;        // sensing burst: charged, not timed
constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

PhaseBreakdown attribute_phases(const PhaseIntervals& ivals, double horizon) {
  PhaseBreakdown out;
  if (horizon <= 0.0) return out;
  struct Edge {
    double t;
    int cat;    // 0 compute, 1 checkpoint, 2 airtime, 3 retry
    int delta;  // +1 open, -1 close
  };
  std::vector<Edge> edges;
  edges.reserve(2 * (ivals.compute.size() + ivals.checkpoint.size() +
                     ivals.airtime.size() + ivals.retry.size()));
  auto push = [&](const std::vector<Interval>& list, int cat) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      // A phase counts only as active or not, so an interval equal to the
      // one before it (radios sending in step) changes nothing.
      if (i > 0 && list[i].lo == list[i - 1].lo &&
          list[i].hi == list[i - 1].hi) {
        continue;
      }
      const double lo = std::max(0.0, list[i].lo);
      const double hi = std::min(horizon, list[i].hi);
      if (hi <= lo) continue;  // empty or entirely past the horizon
      edges.push_back(Edge{lo, cat, +1});
      edges.push_back(Edge{hi, cat, -1});
    }
  };
  push(ivals.compute, 0);
  push(ivals.checkpoint, 1);
  push(ivals.airtime, 2);
  push(ivals.retry, 3);
  // A segment is flushed only when time advances, after every edge at the
  // earlier time has been applied, so edges at equal times may come in any
  // order: sorting on time alone gives the same sums, bit for bit.
  std::sort(edges.begin(), edges.end(),
            [](const Edge& x, const Edge& y) { return x.t < y.t; });
  int active[4] = {0, 0, 0, 0};
  double acc[5] = {0.0, 0.0, 0.0, 0.0, 0.0};
  double prev = 0.0;
  auto flush = [&](double t) {
    if (t <= prev) return;
    const int cat = active[0] > 0 ? 0 : active[1] > 0 ? 1
                                    : active[2] > 0   ? 2
                                    : active[3] > 0   ? 3
                                                      : 4;
    acc[cat] += t - prev;
    prev = t;
  };
  for (const Edge& e : edges) {
    flush(e.t);
    active[e.cat] += e.delta;
  }
  flush(horizon);
  out.compute_s = acc[0];
  out.checkpoint_s = acc[1];
  out.airtime_s = acc[2];
  out.retry_s = acc[3];
  out.idle_s = acc[4];
  return out;
}

NetworkExecutor::NetworkExecutor(ml::Network& net,
                                 const microdeep::UnitGraph& graph,
                                 const microdeep::Assignment& assignment,
                                 const microdeep::WsnTopology& wsn,
                                 NetExecConfig cfg)
    : net_(net), graph_(graph), assignment_(assignment), wsn_(wsn),
      cfg_(std::move(cfg)) {
  ZEIOT_CHECK_MSG(cfg_.max_retries >= 0, "max_retries must be >= 0");
  ZEIOT_CHECK_MSG(cfg_.channel.loss_per_hop >= 0.0 &&
                      cfg_.channel.loss_per_hop < 1.0,
                  "loss_per_hop must be in [0, 1)");
  ZEIOT_CHECK_MSG(cfg_.layer_deadline_s > 0.0,
                  "layer_deadline_s must be > 0 (termination guarantee)");
  if (cfg_.quantized_transport) {
    ZEIOT_CHECK_MSG(cfg_.act_scales.size() == graph_.layers().size(),
                    "quantized_transport requires one activation scale per "
                    "unit layer (microdeep::calibrate_unit_activation_scales)");
    for (const float s : cfg_.act_scales) {
      ZEIOT_CHECK_MSG(s > 0.0f && std::isfinite(s),
                      "activation scales must be finite and positive");
    }
  }
  if (cfg_.harvest.enabled) {
    ZEIOT_CHECK_MSG(cfg_.harvest.valid(),
                    "harvest config invalid (watt/initial >= 0, "
                    "initial <= kCapacitorJ)");
  }
  if (cfg_.checkpoint.policy == energy::CheckpointPolicy::EnergyAdaptive) {
    ZEIOT_CHECK_MSG(cfg_.harvest.enabled,
                    "EnergyAdaptive checkpointing requires the harvest model "
                    "(the policy keys off the capacitor level)");
  }
  build_plans();
  scan_fault_windows();
}

void NetworkExecutor::reset_memory() { memory_.clear(); }

void NetworkExecutor::build_plans() {
  const auto& layers = graph_.layers();
  const std::size_t n_nodes = wsn_.num_nodes();
  ZEIOT_CHECK_MSG(layers.back().kind == microdeep::UnitLayer::Kind::Dense,
                  "network must end in a dense (logit) layer");
  const microdeep::UnitLayer& input = layers.front();
  own_inputs_.resize(n_nodes);
  for (int i = 0; i < input.num_units(); ++i) {
    const UnitId u = input.first_unit + static_cast<UnitId>(i);
    own_inputs_[assignment_.node_of(u)].push_back(u);
  }

  std::uint64_t next_uid = 0;
  std::size_t unit_layer = 0;  // current (producer) unit layer index
  for (std::size_t li = 0; li < net_.num_layers(); ++li) {
    const int produced = graph_.unit_layer_of_net_layer(li);
    if (produced < 0) {
      if (dynamic_cast<ml::ReLU*>(&net_.layer(li)) != nullptr) {
        ZEIOT_CHECK_MSG(!plans_.empty() &&
                            plans_.back().out_layer == unit_layer,
                        "netexec: ReLU must follow a producing layer");
        plans_.back().relu_after = true;
      }
      continue;  // Flatten: no units, no traffic
    }

    LayerPlan p;
    p.net_layer = li;
    p.in_layer = unit_layer;
    p.out_layer = static_cast<std::size_t>(produced);
    ZEIOT_CHECK_MSG(p.out_layer == p.in_layer + 1,
                    "netexec expects sequential unit layers");
    const microdeep::UnitLayer& in = layers[p.in_layer];
    const microdeep::UnitLayer& out = layers[p.out_layer];
    // Float transport ships 4 bytes per channel; quantized transport ships
    // the paper's 1-byte unit messages (symmetric int8).
    const std::size_t bytes_per_channel =
        cfg_.quantized_transport ? 1 : sizeof(float);
    p.payload_bytes = static_cast<std::size_t>(in.channels) * bytes_per_channel +
                      kHeaderBytes;
    p.air_s = cfg_.channel.fixed_hop_latency_s >= 0.0
                  ? cfg_.channel.fixed_hop_latency_s
                  : phy::dot154_frame_airtime_s(p.payload_bytes);
    p.first_uid = next_uid;
    p.out_msgs.resize(n_nodes);
    p.in_msgs.resize(n_nodes);
    p.local_srcs.resize(n_nodes);
    p.units.resize(n_nodes);

    // Walk consumer units and their inputs in the exact order of the
    // shared unit-compute kernel, deduplicating per (producer unit,
    // consumer node) — the message set compute_comm_cost counts.
    std::unordered_set<std::uint64_t> seen;
    auto visit_src = [&](UnitId src, NodeId dst_node) {
      const NodeId src_node = assignment_.node_of(src);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(src) << 32) | dst_node;
      if (!seen.insert(key).second) return;
      if (src_node == dst_node) {
        p.local_srcs[dst_node].push_back(src);
        return;
      }
      Message m;
      m.src = src;
      m.src_node = src_node;
      m.dst_node = dst_node;
      m.hops = wsn_.hops(src_node, dst_node);
      const std::size_t mi = p.messages.size();
      p.messages.push_back(m);
      p.out_msgs[src_node].push_back(mi);
      p.in_msgs[dst_node].push_back(mi);
    };

    const UnitId in_begin = in.first_unit;
    const UnitId in_end = in.first_unit + static_cast<UnitId>(in.num_units());
    for (int i = 0; i < out.num_units(); ++i) {
      const UnitId u = out.first_unit + static_cast<UnitId>(i);
      const NodeId n = assignment_.node_of(u);
      p.units[n].push_back(u);
      if (out.kind == microdeep::UnitLayer::Kind::Dense) {
        for (UnitId src = in_begin; src < in_end; ++src) visit_src(src, n);
      } else {
        for (const UnitId src : graph_.graph_neighbors(u)) {
          if (src >= in_begin && src < in_end) visit_src(src, n);
        }
      }
    }
    p.pending0.resize(n_nodes);
    for (NodeId n = 0; n < n_nodes; ++n) {
      p.pending0[n] = p.in_msgs[n].size() + (p.local_srcs[n].empty() ? 0 : 1);
    }
    next_uid += p.messages.size();
    unit_layer = p.out_layer;
    plans_.push_back(std::move(p));
  }
  ZEIOT_CHECK_MSG(!plans_.empty(), "network produces no unit layers");

  // Harvest admission: computing plan k on node n needs the compute burst,
  // the worst-case commit, and the first TX attempt of every frame the
  // result ships (plan k feeds plan k+1's out_msgs).
  if (!cfg_.harvest.enabled) return;
  for (std::size_t k = 0; k < plans_.size(); ++k) {
    LayerPlan& p = plans_[k];
    const auto out_ch = static_cast<std::size_t>(layers[p.out_layer].channels);
    p.admission_j.assign(n_nodes, 0.0);
    for (NodeId n = 0; n < n_nodes; ++n) {
      if (p.units[n].empty()) continue;
      const double compute_j = energy::kActivityCosts.compute_watt *
                               static_cast<double>(p.units[n].size()) *
                               cfg_.unit_compute_s;
      double ckpt_j = 0.0;
      if (cfg_.checkpoint.enabled()) {
        const std::size_t bytes =
            p.units[n].size() *
            (kNvmEntryOverheadBytes + out_ch * kNvmBytesPerActivation);
        ckpt_j = energy::kCheckpointCosts.energy_j(bytes);
      }
      double tx_j = 0.0;
      if (k + 1 < plans_.size()) {
        const LayerPlan& nxt = plans_[k + 1];
        tx_j = static_cast<double>(nxt.out_msgs[n].size()) *
               energy::kActivityCosts.backscatter_tx_watt * nxt.air_s;
      }
      p.admission_j[n] = compute_j + ckpt_j + tx_j;
    }
  }
}

void NetworkExecutor::scan_fault_windows() {
  const std::size_t n_nodes = wsn_.num_nodes();
  brownouts_.resize(n_nodes);
  droughts_.resize(n_nodes);
  // Brownout windows are honoured whenever checkpointing or harvesting is
  // on; the all-default configuration ignores them like the classic
  // executor.
  const bool intermittent = cfg_.checkpoint.enabled() || cfg_.harvest.enabled;
  if (cfg_.fault == nullptr || !intermittent) return;
  // False when the event's window is empty or ends before t = 0.
  auto add_window = [&](std::vector<std::vector<Window>>& per_node,
                        const fault::FaultEvent& e) {
    const double lo = std::max(0.0, e.t);
    const double hi = e.t + e.duration_s;
    if (e.duration_s <= 0.0 || hi <= 0.0) return false;
    if (e.target == fault::kAllTargets) {
      for (NodeId n = 0; n < n_nodes; ++n) {
        per_node[n].push_back(Window{lo, hi, e.magnitude});
      }
    } else if (e.target < n_nodes) {
      per_node[e.target].push_back(Window{lo, hi, e.magnitude});
    }
    return true;
  };
  for (const fault::FaultEvent& e : cfg_.fault->plan().events()) {
    if (e.type == fault::FaultType::Brownout) {
      if (add_window(brownouts_, e)) {
        last_revival_ = std::max(last_revival_, e.t + e.duration_s);
      }
    } else if (cfg_.harvest.enabled &&
               e.type == fault::FaultType::HarvestDrought) {
      add_window(droughts_, e);
    }
  }
  for (auto& w : brownouts_) {  // merge overlaps: clean suspend/revive pairs
    std::sort(w.begin(), w.end(), [](const Window& a, const Window& b) {
      return a.lo < b.lo;
    });
    std::vector<Window> merged;
    for (const Window& x : w) {
      if (!merged.empty() && x.lo <= merged.back().hi) {
        merged.back().hi = std::max(merged.back().hi, x.hi);
      } else {
        merged.push_back(x);
      }
    }
    w = std::move(merged);
  }
}

double NetworkExecutor::brownout_until(NodeId n, double t) const {
  for (const Window& w : brownouts_[n]) {
    if (t >= w.lo && t < w.hi) return w.hi;
  }
  return -1.0;
}

std::size_t NetworkExecutor::spans_per_run_bound() const {
  // Root + 4 phase children + per-node sense markers + per-(plan, node)
  // compute spans and deadline markers + per hop traversal at most
  // (1 + max_retries) tx attempts, each possibly followed by a backoff
  // span.  Radio-busy deferrals record nothing.
  std::size_t hop_traversals = 0;
  for (const LayerPlan& p : plans_) {
    for (const Message& m : p.messages) {
      hop_traversals += static_cast<std::size_t>(m.hops);
    }
  }
  const std::size_t attempts = static_cast<std::size_t>(cfg_.max_retries) + 1;
  const std::size_t n_nodes = wsn_.num_nodes();
  // Checkpointing adds at most one Checkpoint span per (plan, node) commit
  // plus one per sense commit per node, and a fifth phase child.  (Brownout
  // recomputes can exceed the per-(plan, node) counts, but faults are
  // run()-only — evaluate(), which this bound sizes, forbids them.)
  const std::size_t ckpt_spans =
      cfg_.checkpoint.enabled() ? (plans_.size() + 1) * n_nodes + 1 : 0;
  return 1 + 4 + n_nodes + 2 * plans_.size() * n_nodes +
         2 * hop_traversals * attempts + ckpt_spans;
}

// -- One inference ----------------------------------------------------------

/// One inference as an event-driven state machine over sim::Simulator.
/// The handlers are member functions; each event is a small closure over
/// `this` and the handler's arguments, and the simulator drains before the
/// object goes away.  Per node, unit layer k moves through the stages
/// waiting -> compute scheduled -> done.  A brownout suspend bumps the
/// (plan, node) epoch, which voids the node's in-flight events — the
/// rollback edge of the resumable state machine.
struct NetworkExecutor::Inference {
  /// `loss_seed` keys the inference's loss substreams and doubles as its
  /// trace id — seed-derived and stable across reruns and thread counts.
  /// `spans` (nullable) receives the causal span tree under a root
  /// Inference span; `last_known` (nullable) holds the last-known
  /// activations.
  Inference(const NetworkExecutor& executor, const ml::Tensor& sample,
            std::uint64_t loss_seed, obs::Observability* observability,
            microdeep::ActTable* last_known, obs::SpanRecorder* spans)
      : ex(executor), seed(loss_seed), obs(observability),
        memory(last_known),
        sp(spans != nullptr && spans->enabled() ? spans : nullptr) {
    microdeep::load_input_units(ex.graph_, sample, acts);
    if (ckpt) {
      nvm_state.resize(n_nodes);
      for (NodeId n = 0; n < n_nodes; ++n) {
        nvm_state[n].node = static_cast<std::uint32_t>(n);
      }
      nvm_image.resize(n_nodes);
    }
    if (sp != nullptr) {
      root = sp->open(obs::SpanKind::Inference, 0.0, 0, seed,
                      static_cast<std::uint32_t>(n_nodes),
                      static_cast<std::uint32_t>(plans.size()));
      sense_span.assign(n_nodes, 0);
      compute_span.assign(plans.size(), std::vector<obs::SpanId>(n_nodes, 0));
    }
    for (std::size_t k = 0; k < plans.size(); ++k) {
      st[k].stage.assign(n_nodes, 0);
      st[k].delivered.assign(plans[k].messages.size(), 0);
      st[k].pending = plans[k].pending0;
    }
  }

  NetInferenceResult run() {
    // t = 0: sensing nodes publish their input units and feed plan 0.
    sim.schedule(0.0, [this] {
      for (NodeId n = 0; n < n_nodes; ++n) {
        if (!ex.own_inputs_[n].empty()) sense(n);
      }
    });
    // Brownout windows: suspend at entry, revive (checkpointing) at exit.
    for (NodeId n = 0; n < n_nodes; ++n) {
      for (const Window& w : ex.brownouts_[n]) {
        sim.schedule_at(w.lo, [this, n] { suspend(n); });
        if (ckpt) sim.schedule_at(w.hi, [this, n] { revive(n); });
      }
    }
    // Termination guarantee: plan k's consumers stop waiting at absolute
    // time (k+1) * layer_deadline_s no matter what was lost.  Under
    // checkpointing the whole ladder shifts past the last revival — the
    // resumable executor finishes correctly late instead of degrading, and
    // no deadline can force a compute inside a brownout window.
    for (std::size_t k = 0; k < plans.size(); ++k) {
      const double fire_t =
          dl_shift + static_cast<double>(k + 1) * cfg.layer_deadline_s;
      sim.schedule_at(fire_t, [this, k, fire_t] { fire_deadline(k, fire_t); });
    }
    sim_events = sim.run();
    ZEIOT_CHECK_MSG(sim.pending() == 0, "netexec event loop did not drain");
    for (const std::deque<Run>& q : radio_q) {
      ZEIOT_CHECK_MSG(q.empty(), "netexec radio queue did not drain");
    }
    return finish();
  }

  // -- Compute path ---------------------------------------------------------

  void dec_pending(std::size_t k, NodeId n) {
    auto& s = st[k];
    if (s.pending[n] == 0) return;
    if (--s.pending[n] == 0 && s.stage[n] == 0 && !plans[k].units[n].empty())
      schedule_compute(k, n, /*forced=*/false);
  }

  void layer_done(std::size_t done_layer, NodeId n) {
    // Unit layer `done_layer` is final on node n: ship its activations to
    // remote consumers and release the local dependency of the next plan.
    if (done_layer >= plans.size()) return;  // logits: nothing downstream
    const LayerPlan& p = plans[done_layer];
    for (const std::size_t mi : p.out_msgs[n]) start_frame(done_layer, mi);
    if (!p.local_srcs[n].empty()) dec_pending(done_layer, n);
  }

  void schedule_compute(std::size_t k, NodeId n, bool forced) {
    auto& s = st[k];
    if (s.stage[n] != 0) return;
    const double now_s = sim.now();
    if (ex.brownout_until(n, now_s) >= 0.0) {
      // Suspended node.  With checkpointing the revival restore re-enters
      // this plan from NVM; without it the node is simply dark — a forced
      // (deadline) call marks the plan skipped so consumers substitute.
      if (!ckpt && forced) s.stage[n] = 2;
      return;
    }
    const std::uint32_t ep = epoch[k][n];
    if (harvesting) {
      const double need = plans[k].admission_j[n];
      accrue(n, now_s);
      if (stored[n] < need) {
        if (forced) {
          // Deadline fired on a dry capacitor: the plan is starved, its
          // units stay invalid, and downstream consumers substitute.
          ++res.starved;
          s.stage[n] = 2;
          return;
        }
        // Defer until the capacitor covers compute + commit + first TX.
        // The layer deadline is the backstop when the harvest never gets
        // there; a suspend voids the retry through the epoch.
        ++res.deferrals;
        const double ready = harvest_ready_time(n, now_s, need);
        if (ready >= 0.0) {
          // The exact ready-time solve can round one ULP short: re-checking
          // at `ready` would find a ~1e-22 J deficit whose own retry delay
          // underflows below the ULP of `now`, freezing virtual time.  A
          // 1 ns floor per retry guarantees progress (1 ns of any positive
          // harvest rate dwarfs the FP residue).
          sim.schedule_at(std::max(now_s + 1e-9, ready), [this, k, n, ep] {
            if (epoch[k][n] == ep) schedule_compute(k, n, /*forced=*/false);
          });
        }
        return;
      }
    }
    s.stage[n] = 1;
    const double start = std::max(now_s, cpu_free[n]);
    const double dur =
        static_cast<double>(plans[k].units[n].size()) * cfg.unit_compute_s;
    cpu_free[n] = start + dur;  // reserve the MCU now (serial execution)
    sim.schedule_at(start, [this, k, n, start, dur, ep] {
      compute(k, n, start, dur, ep);
    });
  }

  void compute(std::size_t k, NodeId n, double start, double dur,
               std::uint32_t ep) {
    if (epoch[k][n] != ep) return;  // suspended while queued
    if (cfg.fault != nullptr && cfg.fault->node_dead(start, n)) {
      st[k].stage[n] = 2;  // node died before computing: units stay invalid
      return;
    }
    evaluate_units(k, n);
    const double compute_j = energy::kActivityCosts.compute_watt * dur;
    charge(n, start, Activity::Compute, compute_j);
    const double finish = start + dur;
    phases.compute.push_back(Interval{start, finish});
    if (sp != nullptr) {
      compute_span[k][n] =
          sp->add(obs::SpanKind::NodeCompute, start, finish, root, seed,
                  static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(k),
                  compute_j);
    }
    sim.schedule_at(finish, [this, k, n, finish, ep] {
      finish_compute(k, n, finish, ep);
    });
  }

  /// Node n's share of plan k: substitute activations that never arrived
  /// (lost frames, dead or late producers) with the last-known value —
  /// zeros on first contact — snap radio-borne values onto the int8 grid
  /// under quantized transport, run the unit kernels on the node's units,
  /// then restore the producers' exact vectors.
  void evaluate_units(std::size_t k, NodeId n) {
    const LayerPlan& plan = plans[k];
    const auto in_ch = static_cast<std::size_t>(
        ex.graph_.layers()[plan.in_layer].channels);
    // Snapping is idempotent (round(q*s / s) == q), so it is safe when
    // several consumer nodes process the same producer in one plan.
    const float qs =
        cfg.quantized_transport ? cfg.act_scales[plan.in_layer] : 0.0f;
    auto snap = [qs](std::vector<float>& v) {
      for (float& x : v) {
        x = static_cast<float>(microdeep::quantize_value(x, qs)) * qs;
      }
    };
    std::vector<std::pair<UnitId, std::vector<float>>> saved;
    auto substitute = [&](UnitId src, bool remote) {
      saved.emplace_back(src, std::move(acts[src]));
      if (memory != nullptr && src < memory->size() &&
          !(*memory)[src].empty()) {
        acts[src] = (*memory)[src];
        // A remote consumer only ever saw the quantized stream, so its
        // last-known value is on-grid too; local memory stays exact.
        if (remote && cfg.quantized_transport) snap(acts[src]);
      } else {
        acts[src].assign(in_ch, 0.0f);  // zero is on every symmetric grid
      }
      ++res.substitutions;
    };
    for (const std::size_t mi : plan.in_msgs[n]) {
      const UnitId src = plan.messages[mi].src;
      if (!st[k].delivered[mi]) {
        substitute(src, /*remote=*/true);
      } else if (cfg.quantized_transport) {
        saved.emplace_back(src, acts[src]);
        snap(acts[src]);
      }
    }
    for (const UnitId src : plan.local_srcs[n]) {
      if (!unit_valid[src]) substitute(src, /*remote=*/false);
    }
    microdeep::compute_units(ex.net_.layer(plan.net_layer), ex.graph_,
                             plan.in_layer, plan.out_layer, plan.units[n],
                             acts);
    if (plan.relu_after) microdeep::apply_relu_units(plan.units[n], acts);
    for (auto& [src, prev] : saved) acts[src] = std::move(prev);
  }

  void finish_compute(std::size_t k, NodeId n, double finish,
                      std::uint32_t ep) {
    if (epoch[k][n] != ep) return;  // suspended mid-compute: no commit
    const LayerPlan& p = plans[k];
    for (const UnitId u : p.units[n]) unit_valid[u] = 1;
    // Commit what the policy says cannot stay volatile: EveryUnit persists
    // every finished unit layer; EnergyAdaptive persists only while the
    // capacitor is below the reserve (when energy is plentiful,
    // re-execution after a brown-out is cheaper than the write burst —
    // progress can be recomputed, inputs cannot).
    bool commit = ckpt && !adaptive;
    if (ckpt && adaptive) {
      accrue(n, finish);
      commit = stored[n] < kAdaptiveReserveJ;
    }
    double done_t = finish;
    if (commit) {
      const CommitReceipt receipt = nvm_commit(n, p.units[n], k + 1, finish);
      done_t = finish + receipt.duration_s;
      cpu_free[n] = std::max(cpu_free[n], done_t);
      phases.checkpoint.push_back(Interval{finish, done_t});
      if (sp != nullptr) {
        sp->add(obs::SpanKind::Checkpoint, finish, done_t,
                compute_span[k][n] != 0 ? compute_span[k][n] : root, seed,
                static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(k),
                receipt.energy_j);
      }
    }
    // The plan completes (and ships downstream) only once the commit burst
    // ends — atomic commit-at-end: a brown-out during the write voids this
    // event chain and the revival replays the layer.
    if (done_t > finish) {
      sim.schedule_at(done_t, [this, k, n, done_t, ep] {
        if (epoch[k][n] == ep) complete(k, n, done_t);
      });
    } else {
      complete(k, n, finish);
    }
  }

  void complete(std::size_t k, NodeId n, double t_done) {
    auto& s = st[k];
    s.stage[n] = 2;
    s.finish_s = std::max(s.finish_s, t_done);
    s.any_computed = true;
    layer_done(plans[k].out_layer, n);
  }

  void fire_deadline(std::size_t k, double fire_t) {
    for (NodeId n = 0; n < n_nodes; ++n) {
      if (st[k].stage[n] != 0 || plans[k].units[n].empty()) continue;
      if (sp != nullptr) {
        sp->add(obs::SpanKind::DeadlineFire, fire_t, fire_t, root, seed,
                static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(k),
                0.0);
      }
      schedule_compute(k, n, /*forced=*/true);
    }
  }

  // -- Hop transport and ARQ ------------------------------------------------

  void start_frame(std::size_t k, std::size_t mi) {
    const Message& m = plans[k].messages[mi];
    ++res.messages;
    if (obs != nullptr) {
      obs->spans().instant(obs::SpanKind::MicroDeepHop, sim.now(), m.src_node,
                           m.dst_node, static_cast<double>(m.hops));
    }
    attempt_hop(new_frame(k, mi, m.src_node));
  }

  /// Span parent of every frame of plan k: the span that produced its
  /// activations, or the root when the producer recorded none (dead node,
  /// deadline-skipped compute).
  obs::SpanId frame_parent(std::size_t k, const Message& m) const {
    const obs::SpanId p =
        k == 0 ? sense_span[m.src_node] : compute_span[k - 1][m.src_node];
    return p != 0 ? p : root;
  }

  // -- Frames in flight ------------------------------------------------------

  /// A frame between hops: the message it carries, the node holding it and
  /// the hop attempt it takes next.  Events and radio queues name a frame by
  /// its index in `frames`, so an event's closure is `this` plus one index
  /// and fits inside std::function without allocating.
  struct Frame {
    std::size_t k = 0;   // plan
    std::size_t mi = 0;  // message of the plan
    NodeId node = 0;     // holder
    int hop = 0;
    int attempt = 0;
    std::uint32_t next = 0;  // the frame after it in its radio-queue run
  };

  std::uint32_t new_frame(std::size_t k, std::size_t mi, NodeId node) {
    const Frame fr{k, mi, node, 0, 0, 0};
    if (free_frames.empty()) {
      frames.push_back(fr);
      return static_cast<std::uint32_t>(frames.size() - 1);
    }
    const std::uint32_t f = free_frames.back();
    free_frames.pop_back();
    frames[f] = fr;
    return f;
  }

  /// Frame f's next hop attempt from its holder.
  void attempt_hop(std::uint32_t f) {
    const Frame fr = frames[f];
    const LayerPlan& plan = plans[fr.k];
    const Message& m = plan.messages[fr.mi];
    const NodeId cur = fr.node;
    const double now = sim.now();
    fault::FaultInjector* const fault = cfg.fault;
    if (fault != nullptr && fault->node_dead(now, cur)) {
      ++res.frames_lost;  // holder died with the frame in its buffer
      free_frames.push_back(f);
      return;
    }
    const double revival = ex.brownout_until(cur, now);
    if (revival >= 0.0 && !ckpt) {
      ++res.frames_lost;  // volatile buffer died with the node
      free_frames.push_back(f);
      return;
    }
    // Browned out with NVM: the frame waits in the durable TX queue and the
    // attempt replays at revival (not an ARQ attempt — the keyed loss draws
    // are untouched, preserving bit-identical resume).
    if (revival >= 0.0) {
      sim.schedule_at(revival, [this, f] { attempt_hop(f); });
      return;
    }
    // Radio busy: wait in the holder's radio queue, not an attempt yet.
    if (radio_free[cur] > now) {
      join_radio_queue(cur, Run{radio_free[cur], sim.reserve(), f, f, 1});
      return;
    }
    const NodeId nxt = ex.wsn_.next_hop(cur, m.dst_node);
    const double air = plan.air_s;
    radio_free[cur] = now + air;
    ++res.transmissions;
    if (fr.attempt > 0) ++res.retransmissions;
    charge(cur, now, Activity::Tx,
           energy::kActivityCosts.backscatter_tx_watt * air);
    charge(nxt, now, Activity::Rx, energy::kActivityCosts.rx_watt * air);
    phases.airtime.push_back(Interval{now, now + air});
    if (obs != nullptr) {
      obs->spans().instant(obs::SpanKind::PacketTx, now, cur, nxt, air);
    }
    if (sp != nullptr) {
      sp->add(fr.attempt == 0 ? obs::SpanKind::HopTx
                              : obs::SpanKind::HopRetryTx,
              now, now + air, frame_parent(fr.k, m), seed,
              static_cast<std::uint32_t>(cur), static_cast<std::uint32_t>(nxt),
              energy::kActivityCosts.backscatter_tx_watt * air);
    }

    // Loss: keyed per-(frame, hop, attempt) channel draw — a pure function
    // of (seed, uid, hop, attempt), so raising loss_per_hop can only turn
    // successes into losses (monotone coupling) — then injected faults,
    // then a dead receiver.
    bool lost = false;
    if (cfg.channel.loss_per_hop > 0.0) {
      lost = keyed_uniform(seed, plan.first_uid + fr.mi,
                           static_cast<std::uint64_t>(fr.hop),
                           static_cast<std::uint64_t>(fr.attempt)) <
             cfg.channel.loss_per_hop;
    }
    if (!lost && fault != nullptr) {
      lost = fault->should_drop(now, cur, nxt) ||
             fault->should_corrupt(now, cur, nxt);
    }
    double arrive_t = now + air;
    if (fault != nullptr) arrive_t += fault->message_delay_s(now, cur, nxt);
    if (!lost && fault != nullptr && fault->node_dead(arrive_t, nxt)) {
      lost = true;
    }
    // A browned-out receiver is checked after the loss draw so the channel
    // outcomes match the uninterrupted run draw-for-draw.  With NVM its
    // wake-up receiver latches the frame at revival; without, the inbox is
    // volatile and ARQ retries.
    const double rx_revival = lost ? -1.0 : ex.brownout_until(nxt, arrive_t);
    if (rx_revival >= 0.0) {
      if (ckpt) arrive_t = rx_revival;
      lost = !ckpt;
    }
    if (!lost) {
      frames[f].node = nxt;
      frames[f].hop = fr.hop + 1;
      frames[f].attempt = 0;
      sim.schedule_at(arrive_t, [this, f] { arrive(f); });
    } else if (fr.attempt >= cfg.max_retries) {
      ++res.frames_lost;  // abandoned; the consumer's deadline substitutes
      free_frames.push_back(f);
    } else {
      const double wait = kAckTimeoutS * std::pow(kBackoffFactor, fr.attempt);
      phases.retry.push_back(Interval{now + air, now + air + wait});
      if (sp != nullptr) {
        sp->add(obs::SpanKind::Backoff, now + air, now + air + wait,
                frame_parent(fr.k, m), seed, static_cast<std::uint32_t>(cur),
                static_cast<std::uint32_t>(fr.attempt + 1), 0.0);
      }
      frames[f].attempt = fr.attempt + 1;
      sim.schedule_at(now + air + wait, [this, f] { attempt_hop(f); });
    }
  }

  // -- Radio queues (ticket invariant and runs: see netexec.hpp) ------------

  /// Frames waiting for one node's radio at consecutive positions pos,
  /// pos + 1, ... that share the ticket time t: frames[head] waits at pos,
  /// and each frame's `next` waits at the position after its own.
  struct Run {
    double t = 0.0;
    sim::Position pos;
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    std::uint32_t count = 0;
  };

  /// Appends run r to node n's queue.  A run that starts right after the
  /// tail run's last position, at the same time, extends it.
  void join_radio_queue(NodeId n, const Run& r) {
    std::deque<Run>& q = radio_q[n];
    if (!q.empty() && q.back().t == r.t &&
        q.back().pos + q.back().count == r.pos) {
      Run& tail = q.back();
      frames[tail.tail].next = r.head;
      tail.tail = r.tail;
      tail.count += r.count;
    } else {
      q.push_back(r);
    }
    if (drain_armed[n]) return;  // the pending (or running) drain gets to it
    drain_armed[n] = 1;
    arm_drain(n);
  }

  void arm_drain(NodeId n) {
    const Run& head = radio_q[n].front();
    sim.schedule_at(head.t, head.pos, [this, n] { drain(n); });
  }

  /// Node n's drain event, at its head's ticket.  The head run's frames
  /// re-poll the radio one after the other, as their re-poll events would
  /// have run.  While the radio is free, each frame takes attempt_hop from
  /// the top: it is sent, or lost or held with a downed holder.  Once the
  /// radio is busy, every frame left would find it busy and re-queue with
  /// a fresh ticket at the next position, so what is left of the run
  /// re-queues as one run.  (The radio can only be busy at its free
  /// instant when n sent a frame at this very instant, so n is up now, and
  /// death and brownout are pure in time: no frame left would fail the
  /// holder checks first.)  The next run is taken inline only when its
  /// ticket is now and no pending event orders before it, i.e. when its
  /// re-poll would have been the very next event.  The drain stays armed
  /// while it runs, so frames it re-queues only append.
  void drain(NodeId n) {
    std::deque<Run>& q = radio_q[n];
    const double now = sim.now();
    do {
      for (bool more = true; more;) {
        Run& r = q.front();
        if (radio_free[n] > now) {
          Run rest = r;
          q.pop_front();
          rest.t = radio_free[n];
          rest.pos = sim.reserve(rest.count);
          join_radio_queue(n, rest);
          break;
        }
        const std::uint32_t f = r.head;
        more = --r.count > 0;
        if (more) {
          r.head = frames[f].next;
          r.pos = r.pos + 1;
        } else {
          q.pop_front();
        }
        attempt_hop(f);
      }
    } while (!q.empty() && q.front().t == now &&
             !sim.has_pending_before(now, q.front().pos));
    if (q.empty()) {
      drain_armed[n] = 0;
    } else {
      arm_drain(n);
    }
  }

  void arrive(std::uint32_t f) {
    const Frame fr = frames[f];
    const LayerPlan& plan = plans[fr.k];
    const Message& m = plan.messages[fr.mi];
    const NodeId at = fr.node;
    if (obs != nullptr) {
      obs->spans().instant(obs::SpanKind::PacketRx, sim.now(), at, m.dst_node,
                           static_cast<double>(plan.payload_bytes));
    }
    if (at != m.dst_node) {
      attempt_hop(f);  // forward along the shortest path
      return;
    }
    free_frames.push_back(f);
    auto& s = st[fr.k];
    if (s.delivered[fr.mi]) return;
    s.delivered[fr.mi] = 1;
    if (ckpt) {
      // Write-through durable inbox: the payload is latched into NVM on
      // delivery (remote activations cannot be recomputed locally), so
      // delivered frames survive a brown-out without retransmission.
      nvm_commit(at, {m.src}, /*plans_done=*/0, sim.now());
    }
    if (s.stage[at] == 2) {
      ++res.late_frames;  // consumer already computed with a substitute
      return;
    }
    dec_pending(fr.k, at);
  }

  // -- Sensing, brownouts and NVM -------------------------------------------

  /// Publishes node n's input units, charges the sense burst, and
  /// (checkpointing) commits the inputs at once — sensed samples are the
  /// one thing re-execution can never recover.
  void sense(NodeId n) {
    const double t = sim.now();
    if (cfg.fault != nullptr && cfg.fault->node_dead(t, n)) return;
    const double revival = ex.brownout_until(n, t);
    if (revival >= 0.0) {
      // Browned out at sample time: with NVM the node samples at revival
      // (late but durable); without, the sample is lost and plan-0
      // deadlines substitute.
      if (ckpt) sim.schedule_at(revival, [this, n] { sense(n); });
      return;
    }
    const std::vector<UnitId>& inputs = ex.own_inputs_[n];
    for (const UnitId u : inputs) unit_valid[u] = 1;
    const double sense_j = energy::kActivityCosts.sense_watt * kSenseS;
    charge(n, t, Activity::Sense, sense_j);
    if (sp != nullptr) {
      // Zero-duration marker: sensing costs energy over kSenseS but does
      // not delay the inference (inputs are ready at sample time).
      sense_span[n] = sp->add(obs::SpanKind::Sense, t, t, root, seed,
                              static_cast<std::uint32_t>(n), 0, sense_j);
    }
    if (ckpt) {
      // Input commit is charged in full but modelled as instantaneous,
      // matching the zero-duration sense convention above.
      const CommitReceipt receipt = nvm_commit(n, inputs, 0, t);
      if (sp != nullptr) {
        sp->add(obs::SpanKind::Checkpoint, t, t,
                sense_span[n] != 0 ? sense_span[n] : root, seed,
                static_cast<std::uint32_t>(n), 0, receipt.energy_j);
      }
    }
    layer_done(0, n);
  }

  /// Brownout entry: voids every in-flight per-node event through the
  /// epoch bump and wipes the volatile compute state.  What survives
  /// differs by policy — with checkpointing, NVM (inputs, inbox, committed
  /// outputs) plus the durable delivered flags; without, nothing.
  void suspend(NodeId n) {
    ++res.suspensions;
    for (std::size_t k = 0; k < plans.size(); ++k) ++epoch[k][n];
    for (const UnitId u : ex.own_inputs_[n]) unit_valid[u] = 0;
    for (std::size_t k = 0; k < plans.size(); ++k) {
      const LayerPlan& p = plans[k];
      for (const UnitId u : p.units[n]) unit_valid[u] = 0;
      if (ckpt) continue;  // revival rebuilds the plan state from NVM
      auto& s = st[k];
      if (s.stage[n] == 2) continue;  // already shipped downstream
      s.stage[n] = 0;
      for (const std::size_t mi : p.in_msgs[n]) s.delivered[mi] = 0;
      s.pending[n] = p.pending0[n];
    }
  }

  /// Brownout exit (checkpointing only): restore node n from its NVM image
  /// and rebuild its per-plan state machine from durable facts only.
  void revive(NodeId n) {
    ++res.resumes;
    // Round-trip through the codec: a corrupt, truncated, or foreign image
    // falls back to a clean restart (degrade, never garbage).
    const NodeCheckpointState snap = restore_node_from_nvm(nvm_image[n], n);
    for (const CheckpointEntry& e : snap.entries) {
      acts[e.unit].assign(e.values.begin(), e.values.end());
      if (ex.assignment_.node_of(e.unit) == n) unit_valid[e.unit] = 1;
    }
    // A plan is done iff every unit it produces here was committed; a torn
    // or skipped commit re-enters the scheduler with pending recomputed
    // from the durable delivered flags and the restored local inputs.  The
    // rebuild runs to completion before any frame ships or compute kicks,
    // so nothing observes a half-restored node.
    std::vector<std::size_t> to_ship;
    for (std::size_t k = 0; k < plans.size(); ++k) {
      const LayerPlan& p = plans[k];
      if (p.units[n].empty()) continue;
      auto& s = st[k];
      bool done = true;
      for (const UnitId u : p.units[n]) done = done && unit_valid[u] != 0;
      if (done) {
        // Restored complete from NVM.  If the pre-suspend run never
        // shipped it (commit landed, brown-out hit before layer_done),
        // re-send its frames below; consumers deduplicate.
        if (s.stage[n] != 2) {
          s.finish_s = std::max(s.finish_s, sim.now());
          to_ship.push_back(k);
        }
        s.stage[n] = 2;
        s.any_computed = true;
        continue;
      }
      s.stage[n] = 0;
      std::size_t pend = 0;
      for (const std::size_t mi : p.in_msgs[n]) {
        if (!s.delivered[mi]) ++pend;
      }
      bool locals_ok = true;
      for (const UnitId u : p.local_srcs[n]) {
        locals_ok = locals_ok && unit_valid[u] != 0;
      }
      if (!p.local_srcs[n].empty() && !locals_ok) ++pend;
      s.pending[n] = pend;
    }
    // Re-ship remote frames only: the local release of a restored-done
    // producer is already folded into the recomputed pending above, so
    // calling dec_pending here would double-count it.
    for (const std::size_t k : to_ship) {
      const std::size_t out = plans[k].out_layer;
      if (out >= plans.size()) continue;  // logits: nothing downstream
      for (const std::size_t mi : plans[out].out_msgs[n]) start_frame(out, mi);
    }
    for (std::size_t k = 0; k < plans.size(); ++k) {
      auto& s = st[k];
      if (plans[k].units[n].empty() || s.stage[n] != 0) continue;
      if (s.pending[n] == 0) schedule_compute(k, n, /*forced=*/false);
    }
  }

  struct CommitReceipt {
    double energy_j = 0.0;
    double duration_s = 0.0;
  };

  /// One durable commit burst on node n: merge the entries into the node's
  /// NVM state, re-encode the canonical image, and charge exactly one
  /// checkpoint burst (base + per-byte) for the bytes written.
  CommitReceipt nvm_commit(NodeId n, const std::vector<UnitId>& units_list,
                           std::size_t plans_done, double t) {
    NodeCheckpointState& state = nvm_state[n];
    // First-ever commit also writes the frame (header + trailer).
    std::size_t bytes =
        nvm_image[n].empty() ? kNvmImageOverheadBytes : 0;
    for (const UnitId u : units_list) {
      auto it = std::lower_bound(
          state.entries.begin(), state.entries.end(), u,
          [](const CheckpointEntry& e, UnitId v) { return e.unit < v; });
      const std::size_t value_bytes =
          acts[u].size() * kNvmBytesPerActivation;
      if (it != state.entries.end() && it->unit == u) {
        it->values = acts[u];
        bytes += value_bytes;  // overwrite in place, entry header untouched
      } else {
        bytes += kNvmEntryOverheadBytes + value_bytes;
        state.entries.insert(it, CheckpointEntry{u, acts[u]});
      }
    }
    state.plans_done =
        std::max(state.plans_done, static_cast<std::uint32_t>(plans_done));
    nvm_image[n] = encode_checkpoint(state);
    const CommitReceipt receipt{energy::kCheckpointCosts.energy_j(bytes),
                                energy::kCheckpointCosts.duration_s(bytes)};
    charge(n, t, Activity::Checkpoint, receipt.energy_j);
    ++res.checkpoints;
    res.checkpoint_bytes += bytes;
    return receipt;
  }

  // -- Capacitor (harvest only) ---------------------------------------------
  // A piecewise-constant harvest rate (drought windows scale it), lazily
  // integrated forward to the query time and clipped to kCapacitorJ.

  double harvest_rate(NodeId n, double t, double* next_change) const {
    double scale = 1.0;
    double next = kInf;
    for (const Window& w : ex.droughts_[n]) {
      if (t >= w.lo && t < w.hi) {
        scale = std::min(scale, w.scale);
        next = std::min(next, w.hi);
      } else if (w.lo > t) {
        next = std::min(next, w.lo);
      }
    }
    *next_change = next;
    return cfg.harvest.harvest_watt * scale;
  }

  void accrue(NodeId n, double t) {
    if (!harvesting) return;
    double cur = stored_t[n];
    while (cur < t) {
      double next = kInf;
      const double rate = harvest_rate(n, cur, &next);
      const double seg = std::min(t, next);
      stored[n] = std::min(kCapacitorJ, stored[n] + rate * (seg - cur));
      cur = seg;
    }
    stored_t[n] = std::max(stored_t[n], t);
  }

  /// Charges node n a burst of j joules for activity a at time t: to its
  /// ledger, and under harvest to its capacitor.  A burst the capacitor
  /// cannot fully cover still runs and leaves it at zero; the shortfall
  /// counts as overdraw.
  void charge(NodeId n, double t, Activity a, double j) {
    ZEIOT_CHECK_MSG(j >= 0.0, "ledger energy must be >= 0");
    const auto i = static_cast<std::size_t>(a);
    ledger[n][i] += j;
    if (!harvesting) return;
    accrue(n, t);
    const double left = stored[n] - j;
    if (left < 0.0) res.overdraw_by_activity_j[i] -= left;
    stored[n] = std::max(0.0, left);
  }

  /// Earliest time >= t when node n's capacitor reaches `need`; -1 when the
  /// harvest can never get there (the layer deadline then takes over).
  double harvest_ready_time(NodeId n, double t, double need) {
    accrue(n, t);
    need = std::min(need, kCapacitorJ);
    double have = stored[n];
    double cur = t;
    for (int guard = 0; guard < 65536 && have < need; ++guard) {
      double next = kInf;
      const double rate = harvest_rate(n, cur, &next);
      if (rate > 0.0) {
        const double t_need = cur + (need - have) / rate;
        if (t_need <= next) return t_need;
      }
      if (next == kInf) return -1.0;
      have = std::min(kCapacitorJ, have + rate * (next - cur));
      cur = next;
    }
    return have >= need ? cur : -1.0;
  }

  // -- Result ---------------------------------------------------------------

  NetInferenceResult finish() {
    // Logits from the final unit layer; invalid outputs fall back to the
    // last-known value (degradation, not a crash).
    const microdeep::UnitLayer& last = ex.graph_.layers().back();
    res.output = ml::Tensor({1, last.num_units()});
    for (int i = 0; i < last.num_units(); ++i) {
      const UnitId u = last.first_unit + static_cast<UnitId>(i);
      if (unit_valid[u]) {
        res.output.at({0, i}) = acts[u][0];
      } else {
        res.output.at({0, i}) =
            (memory != nullptr && u < memory->size() && !(*memory)[u].empty())
                ? (*memory)[u][0]
                : 0.0f;
        ++res.substitutions;
      }
    }
    res.latency_s =
        st.back().any_computed
            ? st.back().finish_s
            : dl_shift + static_cast<double>(plans.size()) * cfg.layer_deadline_s;
    res.degraded = res.substitutions > 0;
    res.breakdown = attribute_phases(phases, res.latency_s);
    const auto of = [](const Ledger& l, Activity a) {
      return l[static_cast<std::size_t>(a)];
    };
    for (const Ledger& l : ledger) {
      res.tx_energy_j += of(l, Activity::Tx);
      res.rx_energy_j += of(l, Activity::Rx);
      res.compute_energy_j += of(l, Activity::Compute);
      res.sense_energy_j += of(l, Activity::Sense);
      res.checkpoint_energy_j += of(l, Activity::Checkpoint);
      double total = 0.0;
      for (const double j : l) total += j;
      res.energy_j += total;
    }
    for (const double j : res.overdraw_by_activity_j) res.overdraw_j += j;
    if (sp != nullptr) record_phase_spans();
    if (memory != nullptr) {
      memory->resize(ex.graph_.num_units());
      for (UnitId u = 0; u < ex.graph_.num_units(); ++u) {
        if (unit_valid[u]) (*memory)[u] = acts[u];
      }
    }
    if (obs != nullptr) record_metrics();
    return res;
  }

  /// Phase children tile [0, latency] in a fixed stacking order, so their
  /// durations (the breakdown components) sum to the root duration by
  /// construction — the invariant tools/obs_report.py checks.  The fifth
  /// (checkpoint) child appears only when checkpointing is on, keeping
  /// classic traces byte-stable.
  void record_phase_spans() {
    struct Ph {
      obs::SpanKind kind;
      double dur;
    };
    std::vector<Ph> phases = {
        {obs::SpanKind::PhaseCompute, res.breakdown.compute_s},
        {obs::SpanKind::PhaseAirtime, res.breakdown.airtime_s},
        {obs::SpanKind::PhaseRetry, res.breakdown.retry_s}};
    if (ckpt) {
      phases.push_back(
          {obs::SpanKind::PhaseCheckpoint, res.breakdown.checkpoint_s});
    }
    phases.push_back({obs::SpanKind::PhaseIdle, res.breakdown.idle_s});
    double t = 0.0;
    for (const auto& ph : phases) {
      sp->add(ph.kind, t, t + ph.dur, root, seed, 0, 0, ph.dur);
      t += ph.dur;
    }
    sp->close(root, res.latency_s, res.energy_j);
  }

  void record_metrics() const {
    auto& m = obs->metrics();
    const auto count = [&m](const char* name, std::uint64_t v) {
      m.counter(name).inc(static_cast<double>(v));
    };
    count("netexec.exec.messages", res.messages);
    count("netexec.exec.transmissions", res.transmissions);
    count("netexec.exec.retransmissions", res.retransmissions);
    count("netexec.exec.frames_lost", res.frames_lost);
    count("netexec.exec.substitutions", res.substitutions);
    count("netexec.exec.sim_events", sim_events);
    if (ckpt || harvesting) {  // gated: classic configs gain no metric keys
      count("netexec.exec.checkpoints", res.checkpoints);
      count("netexec.exec.checkpoint_bytes", res.checkpoint_bytes);
      count("netexec.exec.resumes", res.resumes);
      count("netexec.exec.suspensions", res.suspensions);
      count("netexec.exec.deferrals", res.deferrals);
      count("netexec.exec.starved", res.starved);
      m.counter("netexec.energy.overdraw_j").inc(res.overdraw_j);
    }
    if (res.degraded) m.counter("netexec.exec.degraded").inc();
    m.summary("netexec.exec.latency_s").observe(res.latency_s);
    m.summary("netexec.exec.energy_j").observe(res.energy_j);
  }

  /// Per-plan dynamic state.  stage: 0 = waiting, 1 = compute scheduled,
  /// 2 = done (computed, or skipped because the node was dead or dry).
  struct PlanState {
    std::vector<std::size_t> pending;
    std::vector<char> stage;
    std::vector<char> delivered;
    double finish_s = 0.0;
    bool any_computed = false;
  };

  const NetworkExecutor& ex;
  const NetExecConfig& cfg = ex.cfg_;
  const std::vector<LayerPlan>& plans = ex.plans_;
  const std::size_t n_nodes = ex.wsn_.num_nodes();
  const std::uint64_t seed;  // keys the loss substreams; also the trace id
  obs::Observability* const obs;
  microdeep::ActTable* const memory;
  obs::SpanRecorder* const sp;
  const bool ckpt = cfg.checkpoint.enabled();
  const bool harvesting = cfg.harvest.enabled;
  const bool adaptive =
      cfg.checkpoint.policy == energy::CheckpointPolicy::EnergyAdaptive;
  const double dl_shift = ckpt ? ex.last_revival_ : 0.0;  // deadline shift

  NetInferenceResult res;
  sim::Simulator sim;
  std::size_t sim_events = 0;  // events sim.run() executed (metrics only)
  microdeep::ActTable acts = microdeep::ActTable(ex.graph_.num_units());
  std::vector<char> unit_valid = std::vector<char>(ex.graph_.num_units(), 0);
  std::vector<double> radio_free = std::vector<double>(n_nodes, 0.0);
  std::vector<std::deque<Run>> radio_q = std::vector<std::deque<Run>>(n_nodes);
  std::vector<Frame> frames;               // frames in flight, by index
  std::vector<std::uint32_t> free_frames;  // slots of delivered or lost ones
  std::vector<char> drain_armed = std::vector<char>(n_nodes, 0);
  std::vector<double> cpu_free = std::vector<double>(n_nodes, 0.0);
  // Energy per node and activity, in joules.
  using Ledger = std::array<double, kActivityCount>;
  std::vector<Ledger> ledger = std::vector<Ledger>(n_nodes, Ledger{});
  // Capacitor charge and the time it was integrated to (harvest only).
  std::vector<double> stored =
      std::vector<double>(harvesting ? n_nodes : 0, cfg.harvest.initial_j);
  std::vector<double> stored_t =
      std::vector<double>(harvesting ? n_nodes : 0, 0.0);
  // Durable per-node NVM image (checkpointing only): the decoded state plus
  // its canonical encoding — revival round-trips through the codec so the
  // restore path exercised here is the one corruption tests attack.
  std::vector<NodeCheckpointState> nvm_state;
  std::vector<std::vector<std::uint8_t>> nvm_image;
  // Causal span tree (opt-in).  Activity spans carry energy-ledger deltas
  // as their value; hop/backoff spans parent to the span that produced the
  // activations they carry (frame_parent), making the tree causal rather
  // than purely temporal.
  obs::SpanId root = 0;
  std::vector<obs::SpanId> sense_span;
  std::vector<std::vector<obs::SpanId>> compute_span;
  // Latency-attribution intervals, collected whether or not spans are on;
  // finish() turns them into res.breakdown.
  PhaseIntervals phases;
  std::vector<PlanState> st = std::vector<PlanState>(plans.size());
  // Event-invalidation epochs per (plan, node): every in-flight compute,
  // commit or deferral event captures one and bails if a suspend bumped it.
  std::vector<std::vector<std::uint32_t>> epoch =
      std::vector<std::vector<std::uint32_t>>(
          plans.size(), std::vector<std::uint32_t>(n_nodes, 0));
};

NetInferenceResult NetworkExecutor::run(const ml::Tensor& sample) {
  Rng base(cfg_.seed);
  const std::uint64_t run_seed = par::substream(base, runs_++)();
  obs::SpanRecorder* spans =
      (cfg_.obs != nullptr && cfg_.obs->spans_enabled()) ? &cfg_.obs->spans()
                                                         : nullptr;
  return Inference(*this, sample, run_seed, cfg_.obs, &memory_, spans).run();
}

NetEvalResult NetworkExecutor::evaluate(const ml::Dataset& data,
                                        par::ThreadPool* pool,
                                        std::size_t max_samples) {
  ZEIOT_CHECK_MSG(cfg_.fault == nullptr,
                  "evaluate() does not support fault injection (the injector "
                  "RNG is call-order coupled); use run()");
  const std::size_t n =
      max_samples > 0 ? std::min(max_samples, data.size()) : data.size();
  if (n == 0) {
    // Zero-sample population (everything upstream shed or terminated, or an
    // empty dataset): every aggregate is a defined zero.  Dividing by n or
    // indexing the latency vectors here was the crash path this guards.
    NetEvalResult empty;
    if (cfg_.obs != nullptr) {
      cfg_.obs->metrics().counter("netexec.eval.samples").inc(0.0);
    }
    return empty;
  }

  // One independent simulation per sample into its own slot; aggregation
  // below runs on the calling thread in index order, so the result is
  // bit-identical for any worker count.
  std::vector<NetInferenceResult> slots(n);
  const bool spanning = cfg_.obs != nullptr && cfg_.obs->spans_enabled();
  std::vector<obs::SpanRecorder> span_slots;
  if (spanning) {
    // One private recorder per sample, sized so nothing is ever dropped;
    // merged below in index order (the parallel_sweep pattern), so the
    // merged stream is bit-identical at any ZEIOT_THREADS.
    const std::size_t cap = spans_per_run_bound();
    span_slots.reserve(n);
    for (std::size_t i = 0; i < n; ++i) span_slots.emplace_back(cap);
  }
  const Rng base(cfg_.seed);
  par::parallel_for(
      n,
      [&](std::size_t i) {
        Rng child = par::substream(base, i);
        slots[i] = Inference(*this, data.x(i), child(), nullptr, nullptr,
                             spanning ? &span_slots[i] : nullptr)
                       .run();
      },
      pool);
  if (spanning) {
    for (const obs::SpanRecorder& r : span_slots) cfg_.obs->spans().merge(r);
  }

  NetEvalResult ev;
  ev.samples = n;
  std::vector<double> lat, ph_compute, ph_ckpt, ph_air, ph_retry, ph_idle;
  lat.reserve(n);
  ph_compute.reserve(n);
  ph_ckpt.reserve(n);
  ph_air.reserve(n);
  ph_retry.reserve(n);
  ph_idle.reserve(n);
  std::size_t correct = 0, degraded = 0;
  double energy = 0.0, retrans = 0.0, ckpt_energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const NetInferenceResult& r = slots[i];
    if (static_cast<int>(r.output.argmax()) == data.label(i)) ++correct;
    if (r.degraded) ++degraded;
    lat.push_back(r.latency_s);
    ph_compute.push_back(r.breakdown.compute_s);
    ph_ckpt.push_back(r.breakdown.checkpoint_s);
    ph_air.push_back(r.breakdown.airtime_s);
    ph_retry.push_back(r.breakdown.retry_s);
    ph_idle.push_back(r.breakdown.idle_s);
    energy += r.energy_j;
    ckpt_energy += r.checkpoint_energy_j;
    retrans += static_cast<double>(r.retransmissions);
    ev.messages += r.messages;
    ev.frames_lost += r.frames_lost;
    ev.checkpoints += r.checkpoints;
    ev.resumes += r.resumes;
  }
  // Shared nearest-rank convention (common/stats.hpp) — also used by the
  // fleet aggregator and tools/obs_report.py.
  const auto pct = [](std::vector<double> v, double q) {
    return nearest_rank_quantile(std::move(v), q);
  };
  ev.accuracy = static_cast<double>(correct) / static_cast<double>(n);
  ev.p50_latency_s = pct(lat, 0.50);
  ev.p99_latency_s = pct(lat, 0.99);
  ev.mean_energy_j = energy / static_cast<double>(n);
  ev.degraded_fraction =
      static_cast<double>(degraded) / static_cast<double>(n);
  ev.mean_retransmissions = retrans / static_cast<double>(n);
  ev.mean_checkpoint_energy_j = ckpt_energy / static_cast<double>(n);
  ev.p50_breakdown = PhaseBreakdown{pct(ph_compute, 0.50), pct(ph_air, 0.50),
                                    pct(ph_retry, 0.50), pct(ph_idle, 0.50),
                                    pct(ph_ckpt, 0.50)};
  ev.p99_breakdown = PhaseBreakdown{pct(ph_compute, 0.99), pct(ph_air, 0.99),
                                    pct(ph_retry, 0.99), pct(ph_idle, 0.99),
                                    pct(ph_ckpt, 0.99)};
  ev.latencies_s = lat;  // unsorted: dataset index order

  if (cfg_.obs != nullptr) {
    auto& m = cfg_.obs->metrics();
    m.gauge("netexec.accuracy").set(ev.accuracy);
    m.gauge("netexec.p50_latency_s").set(ev.p50_latency_s);
    m.gauge("netexec.p99_latency_s").set(ev.p99_latency_s);
    m.gauge("netexec.energy_per_inference_j").set(ev.mean_energy_j);
    m.gauge("netexec.degraded_fraction").set(ev.degraded_fraction);
    m.gauge("netexec.breakdown.compute_p50_s").set(ev.p50_breakdown.compute_s);
    m.gauge("netexec.breakdown.compute_p99_s").set(ev.p99_breakdown.compute_s);
    m.gauge("netexec.breakdown.airtime_p50_s").set(ev.p50_breakdown.airtime_s);
    m.gauge("netexec.breakdown.airtime_p99_s").set(ev.p99_breakdown.airtime_s);
    m.gauge("netexec.breakdown.retry_p50_s").set(ev.p50_breakdown.retry_s);
    m.gauge("netexec.breakdown.retry_p99_s").set(ev.p99_breakdown.retry_s);
    m.gauge("netexec.breakdown.idle_p50_s").set(ev.p50_breakdown.idle_s);
    m.gauge("netexec.breakdown.idle_p99_s").set(ev.p99_breakdown.idle_s);
    if (cfg_.checkpoint.enabled()) {
      // Gated so classic configurations gain no metric keys (report and
      // baseline stability).
      m.counter("netexec.checkpoints")
          .inc(static_cast<double>(ev.checkpoints));
      m.counter("netexec.resumes").inc(static_cast<double>(ev.resumes));
      m.gauge("netexec.checkpoint_energy_per_inference_j")
          .set(ev.mean_checkpoint_energy_j);
      m.gauge("netexec.breakdown.checkpoint_p50_s")
          .set(ev.p50_breakdown.checkpoint_s);
      m.gauge("netexec.breakdown.checkpoint_p99_s")
          .set(ev.p99_breakdown.checkpoint_s);
    }
    // Per-phase latency histograms over the sample population — the
    // root-span-derived distribution behind the p50/p99 gauges.  Bounds
    // cover the termination guarantee (latency <= n_plans * deadline).
    const double hist_hi =
        static_cast<double>(plans_.size()) * cfg_.layer_deadline_s;
    const struct {
      const char* phase;
      const std::vector<double>* samples;
    } phase_rows[5] = {{"total", &lat},
                       {"compute", &ph_compute},
                       {"airtime", &ph_air},
                       {"retry", &ph_retry},
                       {"idle", &ph_idle}};
    for (const auto& row : phase_rows) {
      auto& h = m.histogram("netexec.latency_breakdown_s", 0.0, hist_hi, 64,
                            {{"phase", row.phase}});
      for (const double x : *row.samples) h.observe(x);
    }
    if (cfg_.checkpoint.enabled()) {
      auto& h = m.histogram("netexec.latency_breakdown_s", 0.0, hist_hi, 64,
                            {{"phase", "checkpoint"}});
      for (const double x : ph_ckpt) h.observe(x);
    }
    m.counter("netexec.eval.messages").inc(static_cast<double>(ev.messages));
    m.counter("netexec.eval.frames_lost")
        .inc(static_cast<double>(ev.frames_lost));
    m.counter("netexec.eval.samples").inc(static_cast<double>(n));
  }
  return ev;
}

}  // namespace zeiot::netexec
