// Network-in-the-loop MicroDeep execution (paper Sec. IV.A / IV.C).
//
// NetworkExecutor is the one MicroDeep executor.  It lowers the
// per-(producer unit, consumer node) message set of an assignment into
// timestamped frames forwarded hop by hop inside sim::Simulator, with
//  * per-hop airtime from phy::Dot154Phy (or a fixed override),
//  * per-node radio/CPU serialization,
//  * loss, retry/timeout/exponential backoff, and per-frame abandonment,
//  * energy charged per activity through energy::EnergyLedger,
//  * graceful degradation: a node missing remote activations past the
//    layer deadline substitutes its last-known value (zero on first
//    contact) and flags the inference as degraded,
//  * fault::FaultInjector integration — a node dying mid-inference stops
//    transmitting and computing but never deadlocks the event loop.
//
// Work is split by lifetime.  The constructor lowers everything that
// depends only on its inputs, once: the per-layer message plans, each
// node's input units and initial pending counts, the harvest admission
// energies, each plan's frame airtime, and the brownout/drought windows of
// cfg.fault's plan.  Each run() or evaluate() sample then builds one
// per-inference state machine (NetworkExecutor::Inference, netexec.cpp)
// that owns the simulator, activations, ledgers, capacitors and NVM
// images, and whose member handlers (sensing, compute scheduling, hop
// transport and ARQ, suspend/revive, NVM commits, deadlines) are the
// simulator's events.
//
// Radio serialization is a per-node FIFO.  A node's radio sends one frame
// at a time; a frame that finds it busy joins the node's queue with the
// ticket (radio-free time, a position reserved from the simulator via
// sim::Simulator::reserve) — the (time, position) at which an event that
// re-polled the radio in its place would have run.  Tickets only grow, so
// each queue is in ticket order, and a node with waiting frames has exactly
// one drain event, at its head's ticket.  Frames therefore leave in the
// order such re-polls would have fired, every fault check and injector
// draw happens where a re-poll's would, and an arrival that lands on a
// radio-free instant before a waiting frame's ticket goes first.
//
// The queue holds runs: frames that share one ticket time at consecutive
// positions p, p+1, ... (a layer's burst of frames is one run).  No event
// can take a position between two of a run's, so when the drain reaches a
// run's first frame, every frame of the run would re-poll next, one after
// the other.  Once the radio is busy at that instant (a frame of the run
// was just sent, or an arrival at the same instant took the radio first),
// the node sent a frame at this instant, so it is alive and not browned
// out; those are point queries that draw nothing, so every frame left
// would pass them, find the radio busy and re-queue at the next
// consecutive positions.  The rest of the run therefore moves to the back
// of the queue as one run, with one block reservation
// (sim::Simulator::reserve(n)): one check stands for the whole run.
// Frames whose holder is down, and frames on a zero-airtime channel,
// still take their attempt one by one — each exactly once.
//
// The radio and energy model constants are fixed, not configurable:
// 4 ms ACK timeout doubling per retry, a 9-byte frame header, a 10 ms
// sensing burst, energy::ActivityCosts and energy::CheckpointCosts
// defaults, and the capacitor constants in netexec/checkpoint.hpp.
//
// Conformance contract (locked down by tests/test_netexec_conformance.cpp):
// an inference with no substituted activation (not degraded: no loss, no
// fault, every layer deadline met) returns the logits of
// microdeep::unit_walk bit-for-bit, because every node computes its units
// through the same microdeep/unit_compute kernels in the same canonical
// order.  Over ChannelConfig::ideal() with zero compute time, run()
// records exactly one MicroDeepHop instant per (producer unit, consumer
// node) pair of the unit graph's cross-node edges, at t = 0 — the message
// set microdeep::compute_comm_cost counts.
#pragma once

#include <array>
#include <cstdint>

#include "fault/injector.hpp"
#include "microdeep/assignment.hpp"
#include "netexec/checkpoint.hpp"
#include "microdeep/unit_compute.hpp"
#include "ml/dataset.hpp"
#include "par/parallel.hpp"

namespace zeiot::netexec {

using microdeep::NodeId;
using microdeep::UnitId;

/// Transport model of one WSN hop.
struct ChannelConfig {
  /// Independent loss probability per hop *attempt* (frames are re-drawn on
  /// every retry from a keyed substream, so realizations are coupled
  /// monotonically across loss levels: raising the probability can only
  /// turn successes into losses, never the reverse).
  double loss_per_hop = 0.0;
  /// When >= 0, overrides the 802.15.4 O-QPSK airtime of each frame
  /// (payload plus a 9-byte header) with a fixed per-hop latency (0 gives
  /// the zero-latency conformance channel).
  double fixed_hop_latency_s = -1.0;

  /// Zero-loss / zero-latency channel: with zero unit compute time every
  /// frame starts and lands at t = 0 (the conformance configuration).
  static ChannelConfig ideal() { return ChannelConfig{0.0, 0.0}; }
};

struct NetExecConfig {
  ChannelConfig channel{};
  /// Retransmissions allowed per hop before the frame is abandoned; retry
  /// k waits 4 ms * 2^k for the missing ACK.
  int max_retries = 3;
  /// Per-unit MCU compute time (0 gives the zero-time conformance setup).
  double unit_compute_s = 100e-6;
  /// Node computing unit layer k+1 gives up waiting for remote activations
  /// at absolute time (k+1) * layer_deadline_s and substitutes last-known
  /// values — the termination guarantee of the event loop.
  double layer_deadline_s = 0.25;
  /// Seed of the keyed per-(frame, hop, attempt) loss substreams.
  std::uint64_t seed = 1;
  /// Null-sink observability following the library convention: metrics,
  /// plus, when it records spans, each run()'s span tree and its
  /// MicroDeepHop/PacketTx/PacketRx instants (evaluate() records span
  /// trees only).
  obs::Observability* obs = nullptr;
  /// Optional fault injector; node death/drop/corrupt/delay are honored at
  /// plan time sim.now() of each run.  Its plan's brownout and drought
  /// windows are read once, at construction.  run() only — evaluate()
  /// requires nullptr (the injector RNG is call-order coupled).
  fault::FaultInjector* fault = nullptr;
  /// Quantized activation transport: every inter-node frame carries ONE
  /// byte per channel instead of four.  Frames shrink (payload_bytes =
  /// channels * 1 + header), so airtime, tx/rx energy, and retry exposure
  /// all drop; the cost is that every value crossing the radio is snapped
  /// onto the symmetric int8 grid of its producing unit layer —
  /// clamp(round(v / s), -127, 127) * s with s = act_scales[unit layer].
  /// Same-node activations never touch the radio and stay exact, as do
  /// locally substituted values; remote substitutes are snapped because the
  /// consumer only ever saw the quantized stream.  Requires one finite
  /// positive scale per unit layer
  /// (microdeep::calibrate_unit_activation_scales).
  bool quantized_transport = false;
  std::vector<float> act_scales;
  /// NVM checkpointing (see netexec/checkpoint.hpp).  With a policy other
  /// than None, fault Brownout windows suspend a node instead of killing
  /// its round: in-flight work rolls back to the last durable commit, the
  /// wake-up receiver latches arriving frames into NVM, and on revival the
  /// node resumes from its checkpoint — layer deadlines shift past the
  /// last revival so the inference completes correctly, late.  Sensed
  /// inputs and the delivered inbox are always committed (they cannot be
  /// recomputed); compute outputs follow the policy.
  CheckpointConfig checkpoint{};
  /// Harvest-aware scheduling.  When enabled, each node accrues capacitor
  /// charge at harvest_watt (scaled by HarvestDrought windows) and a unit
  /// layer's evaluation is deferred until the capacitor covers
  /// compute + checkpoint + first-attempt TX; a deadline-forced compute
  /// with an empty capacitor is starved (units stay invalid, downstream
  /// substitutes).  Brownout windows are honoured (suspend/wipe semantics
  /// per the checkpoint policy) whenever checkpointing OR harvesting is on;
  /// the all-default configuration is bit-identical to the previous
  /// executor.
  HarvestConfig harvest{};
};

/// What a node spends energy on.  The order is the ledger's summation order
/// (alphabetical, as the string-keyed ledger summed it), so every energy
/// total keeps its bits.
enum class Activity : std::uint8_t { Checkpoint, Compute, Rx, Sense, Tx };
inline constexpr std::size_t kActivityCount = 5;

/// Latency attribution of one inference: a disjoint partition of the root
/// interval [0, latency_s] by activity, computed from the recorded
/// compute/airtime/backoff intervals with a priority sweep (overlaps
/// resolved compute > airtime > retry; uncovered time is idle).  The four
/// components always sum to latency_s up to floating-point association —
/// well under one virtual tick (1 us).
struct PhaseBreakdown {
  double compute_s = 0.0;  // >= 1 MCU busy computing units
  double airtime_s = 0.0;  // >= 1 radio transmitting (and not compute)
  double retry_s = 0.0;    // ARQ backoff wait only (no compute / airtime)
  double idle_s = 0.0;     // uncovered: queueing, turnaround, deadline slack
  /// NVM commit bursts (checkpointing only; stays 0.0 — and the phase lane
  /// stays four children — when the policy is None).  Declared last so the
  /// historical four-field aggregate initializers keep their meaning.
  double checkpoint_s = 0.0;

  double total_s() const {
    return compute_s + airtime_s + retry_s + idle_s + checkpoint_s;
  }
};

/// Outcome of one network-in-the-loop inference.
struct NetInferenceResult {
  ml::Tensor output;            // logits, shape (1, K)
  double latency_s = 0.0;       // last output unit available
  bool degraded = false;        // any activation substituted
  std::uint64_t messages = 0;         // logical (producer unit, consumer node)
  std::uint64_t transmissions = 0;    // per-hop frame attempts
  std::uint64_t retransmissions = 0;  // of those, retries after a loss
  std::uint64_t frames_lost = 0;      // frames abandoned after max_retries
  std::uint64_t late_frames = 0;      // delivered after the consumer computed
  std::uint64_t substitutions = 0;    // activations replaced by last-known
  double energy_j = 0.0;        // total across nodes
  double tx_energy_j = 0.0;
  double rx_energy_j = 0.0;
  double compute_energy_j = 0.0;
  double sense_energy_j = 0.0;
  /// Intermittent execution (all zero unless checkpoint/harvest enabled).
  std::uint64_t checkpoints = 0;       // NVM commit operations (incl. latches)
  std::uint64_t checkpoint_bytes = 0;  // bytes written across all commits
  std::uint64_t resumes = 0;           // brownout revivals restored from NVM
  std::uint64_t suspensions = 0;       // brownout windows entered
  std::uint64_t deferrals = 0;         // computes postponed awaiting harvest
  std::uint64_t starved = 0;           // deadline-forced computes skipped dry
  double checkpoint_energy_j = 0.0;    // ledger total of "checkpoint"
  /// Capacitor overdraw (harvest only; zero otherwise): the part of each
  /// burst the stored charge did not cover.  The burst still runs and the
  /// capacitor floors at zero, so this is energy the node did not have.
  /// Indexed by Activity; overdraw_j is the sum.
  std::array<double, kActivityCount> overdraw_by_activity_j{};
  double overdraw_j = 0.0;
  /// Where the latency went (always computed; spans are optional).
  PhaseBreakdown breakdown{};
};

/// Half-open activity interval [lo, hi) on the virtual time axis.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

/// The activity intervals of one inference, by phase, each list in the
/// order the inference recorded it.
struct PhaseIntervals {
  std::vector<Interval> compute, checkpoint, airtime, retry;
};

/// Partitions [0, horizon] into PhaseBreakdown's phases by a sweep over
/// `ivals`.  Overlaps resolve by priority compute > checkpoint > airtime >
/// retry (a tick where any MCU computes counts as compute even if a radio
/// is also on air); uncovered time is idle.  Parts past the horizon are
/// cut off.  The result depends only on the set of intervals, not on list
/// order.
PhaseBreakdown attribute_phases(const PhaseIntervals& ivals, double horizon);

/// Dataset-level aggregate of evaluate().
struct NetEvalResult {
  double accuracy = 0.0;
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double mean_energy_j = 0.0;
  double degraded_fraction = 0.0;
  double mean_retransmissions = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t frames_lost = 0;
  std::size_t samples = 0;
  /// Intermittent execution totals (zero when checkpointing is off).
  std::uint64_t checkpoints = 0;
  std::uint64_t resumes = 0;
  double mean_checkpoint_energy_j = 0.0;
  /// Per-phase latency percentiles over the sample population (each phase's
  /// per-inference duration sorted independently, same p50/p99 convention
  /// as the latency percentiles above).
  PhaseBreakdown p50_breakdown{};
  PhaseBreakdown p99_breakdown{};
  /// Per-sample end-to-end latencies in dataset index order — the raw
  /// population behind the percentiles, so fleet-level aggregation can
  /// compute exact percentiles across many deployments instead of
  /// approximating from per-deployment summaries.
  std::vector<double> latencies_s;
};

class NetworkExecutor {
 public:
  /// `net` must be the network `graph` was built from; all four references
  /// must outlive the executor.  The inter-node message plan is lowered
  /// once here and reused by every inference.
  NetworkExecutor(ml::Network& net, const microdeep::UnitGraph& graph,
                  const microdeep::Assignment& assignment,
                  const microdeep::WsnTopology& wsn, NetExecConfig cfg = {});

  /// Runs one (C,H,W) sample through the simulated network.  Sequential
  /// inferences share the last-known activation memory, so a degraded
  /// inference substitutes values from the previous one.
  NetInferenceResult run(const ml::Tensor& sample);

  /// Evaluates `data` (capped at `max_samples` when > 0) with one
  /// independent simulation per sample (seed split per index, no shared
  /// memory), chunked over `pool` — bit-identical for any ZEIOT_THREADS.
  /// Emits netexec.accuracy / netexec.p50_latency_s / netexec.p99_latency_s
  /// / netexec.energy_per_inference_j / netexec.degraded_fraction and
  /// netexec.breakdown.{compute,airtime,retry,idle}_{p50,p99}_s gauges
  /// (plus message counters and per-phase latency histograms) into cfg.obs.
  /// When cfg.obs has spans enabled, each sample records its causal span
  /// tree into a private per-slot recorder; the slots are merged into
  /// cfg.obs->spans() in index order, so the merged stream (and its
  /// digest) is bit-identical at any ZEIOT_THREADS — one root Inference
  /// span per sample.  Requires cfg.fault == nullptr.
  NetEvalResult evaluate(const ml::Dataset& data,
                         par::ThreadPool* pool = nullptr,
                         std::size_t max_samples = 0);

  /// Clears the last-known activation memory (fresh deployment).
  void reset_memory();

  const NetExecConfig& config() const { return cfg_; }

 private:
  /// One logical activation message: the producer unit's channel vector,
  /// routed src_node -> dst_node over BFS shortest paths.
  struct Message {
    UnitId src = 0;
    NodeId src_node = 0;
    NodeId dst_node = 0;
    int hops = 0;
  };

  /// Static lowering of one produced unit layer (plan k: unit layer k ->
  /// unit layer k+1).
  struct LayerPlan {
    std::size_t net_layer = 0;  // index into net of the producing layer
    std::size_t in_layer = 0;   // consumed unit layer
    std::size_t out_layer = 0;  // produced unit layer
    bool relu_after = false;    // folded elementwise ReLU
    std::size_t payload_bytes = 0;  // activation + header bytes per frame
    double air_s = 0.0;             // airtime of one frame on one hop
    std::uint64_t first_uid = 0;    // global uid of messages[0]
    std::vector<Message> messages;  // canonical executor dedup order
    std::vector<std::vector<std::size_t>> out_msgs;  // per src node
    std::vector<std::vector<std::size_t>> in_msgs;   // per dst node
    std::vector<std::vector<UnitId>> local_srcs;     // per node, same-node deps
    std::vector<std::vector<UnitId>> units;          // produced units per node
    /// Per node: inputs awaited before computing (one per remote message,
    /// plus one for all same-node inputs together).
    std::vector<std::size_t> pending0;
    /// Per node (harvest only): capacitor charge needed to start computing
    /// — compute burst + worst-case commit + first TX of every frame the
    /// result ships.
    std::vector<double> admission_j;
  };

  /// A [lo, hi) window of cfg.fault's plan on one node.
  struct Window {
    double lo = 0.0;
    double hi = 0.0;
    double scale = 1.0;  // harvest scale (droughts)
  };

  /// One inference's state machine (defined in netexec.cpp).
  struct Inference;

  void build_plans();
  /// Brownout and drought windows of cfg.fault's plan, per node.  The plan
  /// is pure data: reading it consumes no injector RNG.
  void scan_fault_windows();
  /// Revival time when `t` falls inside a brownout window of node n, else -1.
  double brownout_until(NodeId n, double t) const;
  /// Upper bound on spans one inference can record (used to size per-slot
  /// recorders in evaluate() so nothing is dropped).
  std::size_t spans_per_run_bound() const;

  ml::Network& net_;
  const microdeep::UnitGraph& graph_;
  const microdeep::Assignment& assignment_;
  const microdeep::WsnTopology& wsn_;
  NetExecConfig cfg_;
  std::vector<LayerPlan> plans_;
  std::vector<std::vector<UnitId>> own_inputs_;  // input units per node
  std::vector<std::vector<Window>> brownouts_;   // merged, per node
  std::vector<std::vector<Window>> droughts_;    // per node
  double last_revival_ = 0.0;  // end of the latest brownout window
  microdeep::ActTable memory_;  // last-known activations across run() calls
  std::uint64_t runs_ = 0;      // run() counter, keys per-inference substreams
};

}  // namespace zeiot::netexec
