// Workload process of the repository benchmark (see perfbench/README.md).
//
// One process is one child run of one workload.  It builds the workload's
// inputs from --seed, runs an untimed warm-up, and then either
//
//  * timed mode (--trace 0): repeats untraced passes through the library's
//    public entry points on a pinned 2-worker pool for --seconds, checking
//    the outputs of every pass after its timer stopped; every obs pointer
//    stays null; or
//  * traced mode (--trace 1): repeats traced rounds for --seconds.  A round
//    runs the workload once untraced and once with an obs::Observability
//    attached, and times every call into a layer from the outside with the
//    benchmark's own spans.  The spans are kept in memory and written to
//    --spans at exit.
//
// Progress is printed to stdout as one JSON object per line, flushed as it
// happens, so the runner (run.py) can account for a run that hangs or
// crashes part-way through:
//   {"event":"plan","items_per_pass":N}          before set-up starts
//   {"event":"ready","setup_s":S}                 at the first timed item
//   {"event":"pass","items":N,"refused":R,"ok":B,"wall_s":W,"digest":"D"}
//                                                 after every pass
//   {"event":"done","peak_rss_mib":M,"env":{..},"layers":{..},
//    "probes":{..}}                               at a clean exit
// A pass's digest identifies its outputs; the runner requires every digest
// of one run to be equal, across passes and across child processes.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fleet/fleet.hpp"
#include "microdeep/assignment.hpp"
#include "microdeep/search.hpp"
#include "microdeep/unit_compute.hpp"
#include "ml/kernels/backend.hpp"
#include "netexec/netexec.hpp"
#include "obs/json.hpp"
#include "par/parallel.hpp"
#include "serve/serve.hpp"
#include "serve/workload.hpp"

using namespace zeiot;

namespace {

using Clock = std::chrono::steady_clock;

/// Every entry point that takes a pool gets one of this size.  Two workers
/// keep the pool's parallel path live (one worker runs serially) without
/// depending on the host's core count.
constexpr std::size_t kWorkers = 2;

// Keys of the per-layer input seeds derived from --seed.
constexpr std::uint64_t kFleetSeedKey = 0xBE0C0001;
constexpr std::uint64_t kSampleSeedKey = 0xBE0C0002;
constexpr std::uint64_t kLossSeedKey = 0xBE0C0003;
constexpr std::uint64_t kTraceSeedKey = 0xBE0C0004;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t key) {
  return par::substream(Rng(seed), key)();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FNV-1a over 64-bit words: the benchmark's own output digests.
class Fnv {
 public:
  void mix(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    mix(u);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

using Metrics = std::map<std::string, double>;

void write_numbers(obs::JsonWriter& w, const Metrics& m) {
  w.begin_object();
  for (const auto& [name, value] : m) w.key(name).value(value);
  w.end_object();
}

/// Prints one progress event as a single JSON line and flushes it;
/// `fields` writes the event's other keys.
template <typename F>
void emit_event(const char* event, F&& fields) {
  obs::JsonWriter w(std::cout);
  w.begin_object().key("event").value(event);
  fields(w);
  w.end_object();
  std::cout << std::endl;
}

/// Spans the benchmark records around its calls into the library (traced
/// mode only).  Every span is opened and closed on the main thread, so
/// nesting follows the call stack.
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t trace_id) : trace_id_(trace_id) {}

  /// Opens a span as a child of the innermost open span; returns its id.
  std::size_t open(std::string name) {
    const std::size_t parent = stack_.empty() ? 0 : stack_.back();
    spans_.push_back({std::move(name), parent, 0.0, 0.0});
    stack_.push_back(spans_.size());
    // Stamped last, so the log's own growth stays outside the span.
    spans_.back().t0_s = now_s();
    return spans_.size();
  }
  /// Closes span `id`, the innermost open one; returns its duration.
  double close(std::size_t id) {
    Span& s = spans_[id - 1];
    s.t1_s = now_s();
    stack_.pop_back();
    return s.t1_s - s.t0_s;
  }
  /// Runs fn() inside a span named `name`; returns the span's duration.
  template <typename F>
  double time(std::string name, F&& fn) {
    const std::size_t id = open(std::move(name));
    fn();
    return close(id);
  }

  /// One JSON object per span: id, parent (0 = root), name, start and end
  /// in microseconds since the log was created, and the trace id.
  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      obs::JsonWriter(out)
          .begin_object()
          .key("id").value(static_cast<std::uint64_t>(i + 1))
          .key("parent").value(static_cast<std::uint64_t>(s.parent))
          .key("name").value(s.name)
          .key("t0_us").value(s.t0_s * 1e6)
          .key("t1_us").value(s.t1_s * 1e6)
          .key("trace_id").value(std::to_string(trace_id_))
          .end_object();
      out << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    std::size_t parent = 0;
    double t0_s = 0.0;
    double t1_s = 0.0;
  };
  double now_s() const { return seconds_since(origin_); }

  std::uint64_t trace_id_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Checked result of one program pass over the workload's inputs.
struct PassOutcome {
  std::uint64_t items = 0;
  std::uint64_t refused = 0;  // operations the program refused by design
  bool ok = false;            // the pass's own output checks held
  /// Identity of the pass's outputs; absent when an attached recorder
  /// legitimately changes them.
  std::optional<std::uint64_t> digest;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::uint64_t items_per_pass() const = 0;
  /// Builds the inputs: pool, templates or routes, spec list or trace.
  virtual void setup() = 0;
  /// Untimed warm-up: fills caches and finishes lazy set-up.
  virtual void warm_up() {
    prepare_pass();
    pass();
  }
  /// Untimed per-pass preparation that must not count as pass time.
  virtual void prepare_pass() {}
  /// One untraced call of the public entry point over the inputs.
  virtual void pass() = 0;
  /// Checks the outputs of the last pass (untimed).
  virtual PassOutcome check() = 0;
  /// One traced round; returns the checked outcomes of the passes it ran.
  virtual std::vector<PassOutcome> traced_round(SpanLog& log) = 0;
  /// Per-layer metrics over every traced round so far.
  virtual Metrics layer_metrics() const = 0;
  /// Counts proving which layers the traced rounds did (not) exercise.
  virtual Metrics probes() const = 0;
};

// ---------------------------------------------------------------------------
// fleet_backscatter: FleetSimulator::run over E6 backscatter cells only.

class FleetBackscatter final : public Workload {
 public:
  FleetBackscatter(std::uint64_t seed, bool smoke)
      : cells_(smoke ? 48 : 15500),
        tags_(smoke ? 8 : 64),
        fleet_seed_(derive_seed(seed, kFleetSeedKey)) {}

  std::uint64_t items_per_pass() const override { return cells_ * tags_; }

  void setup() override {
    pool_ = std::make_unique<par::ThreadPool>(kWorkers);
    // bench_a8's E6 cell: 1 s horizon, 25 Hz WLAN traffic, proposed MAC.
    specs_.reserve(cells_);
    for (std::size_t i = 0; i < cells_; ++i) {
      fleet::DeploymentSpec spec;
      spec.kind = fleet::TemplateKind::BackscatterCellE6;
      spec.cell_id = i;
      spec.devices = tags_;
      spec.horizon_s = 1.0;
      spec.wlan_rate_hz = 25.0;
      specs_.push_back(spec);
    }
    sim_ = std::make_unique<fleet::FleetSimulator>(config(nullptr));
  }

  void pass() override { last_ = sim_->run(pool_.get()); }

  PassOutcome check() override {
    PassOutcome out = totals(last_);
    Fnv f;
    for (const std::uint64_t d : last_.digest) f.mix(d);
    out.digest = f.value();
    // A fixed sample of rows equals standalone runs of the same specs.
    for (std::size_t k = 0; k < kSampledRows; ++k) {
      const std::size_t i = k * (cells_ - 1) / (kSampledRows - 1);
      out.ok = out.ok && sim_->run_deployment(specs_[i], nullptr, pool_.get())
                                 .digest == last_.digest[i];
    }
    return out;
  }

  std::vector<PassOutcome> traced_round(SpanLog& log) override {
    const double plain_s =
        log.time("fleet.FleetSimulator.run", [&] { pass(); });
    std::vector<PassOutcome> outcomes{check()};

    obs::Observability obs;
    std::unique_ptr<fleet::FleetSimulator> traced;
    log.time("fleet.FleetSimulator.ctor", [&] {
      traced = std::make_unique<fleet::FleetSimulator>(config(&obs));
    });
    fleet::FleetResult res;
    const double traced_s = log.time("fleet.FleetSimulator.run_traced",
                                     [&] { res = traced->run(pool_.get()); });
    // Attached recorders change the rows' digests, never the totals.
    PassOutcome t = totals(res);
    t.ok = t.ok && res.e6_frames_delivered == last_.e6_frames_delivered &&
           res.e6_frames_generated == last_.e6_frames_generated;
    outcomes.push_back(t);
    const auto& m = obs.metrics();
    executed_ += m.counter_value("sim.events.executed");
    scheduled_ += m.counter_value("sim.events.scheduled");
    cancelled_ += m.counter_value("sim.events.cancelled");
    inferences_ += static_cast<double>(res.inference_count);
    delivery_ratio_ = res.e6_delivery_ratio;

    // Every cell on its own, serially: per-cell wall and kernel speed.
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      fleet::DeploymentOutcome out;
      const double dt = log.time("fleet.run_deployment", [&] {
        out = sim_->run_deployment(specs_[i], nullptr, pool_.get());
      });
      cell_ms_.push_back(dt * 1e3);
      cell_wall_s_ += dt;
      outcomes.front().ok =
          outcomes.front().ok && out.digest == last_.digest[i];
    }

    // The same cells in a plain parallel loop on the same pool: what the
    // fleet's waves and slot-order fold add on top of the cells.
    loop_s_ += log.time("par.parallel_for", [&] {
      par::parallel_for(
          specs_.size(),
          [&](std::size_t i) {
            sim_->run_deployment(specs_[i], nullptr, pool_.get());
          },
          pool_.get());
    });
    plain_s_ += plain_s;
    traced_s_ += traced_s;
    cells_run_ += static_cast<double>(specs_.size());
    return outcomes;
  }

  Metrics layer_metrics() const override {
    return {
        {"fleet.cell_ms_p50", nearest_rank_quantile(cell_ms_, 0.50)},
        {"fleet.cell_ms_p99", nearest_rank_quantile(cell_ms_, 0.99)},
        {"fleet.fold_share", 1.0 - ratio(loop_s_, plain_s_)},
        {"sim.events_per_cell", ratio(executed_, cells_run_)},
        {"sim.events_per_s", ratio(executed_, cell_wall_s_)},
        {"sim.cancel_share", ratio(cancelled_, scheduled_)},
        {"backscatter.delivery_ratio", delivery_ratio_},
        {"obs.overhead_ratio", ratio(traced_s_, plain_s_)},
    };
  }

  Metrics probes() const override {
    return {{"sim.events.executed", executed_},
            {"fleet.inferences", inferences_}};
  }

 private:
  static constexpr std::size_t kSampledRows = 8;

  fleet::FleetConfig config(obs::Observability* obs) const {
    fleet::FleetConfig cfg;
    cfg.seed = fleet_seed_;
    cfg.deployments = specs_;
    cfg.obs = obs;
    return cfg;
  }

  /// Outcome of a fleet result whose totals match the spec list.
  PassOutcome totals(const fleet::FleetResult& res) const {
    PassOutcome out;
    out.items = res.total_devices;
    out.ok = res.total_devices == cells_ * tags_ && res.e6_cells == cells_ &&
             res.inference_count == 0 && res.e6_frames_generated > 0;
    return out;
  }

  const std::size_t cells_;
  const std::size_t tags_;
  const std::uint64_t fleet_seed_;
  std::unique_ptr<par::ThreadPool> pool_;
  std::vector<fleet::DeploymentSpec> specs_;
  std::unique_ptr<fleet::FleetSimulator> sim_;
  fleet::FleetResult last_;

  // Traced-round accumulators.
  std::vector<double> cell_ms_;
  double cell_wall_s_ = 0.0;
  double plain_s_ = 0.0;
  double traced_s_ = 0.0;
  double loop_s_ = 0.0;
  double cells_run_ = 0.0;
  double executed_ = 0.0;
  double scheduled_ = 0.0;
  double cancelled_ = 0.0;
  double inferences_ = 0.0;
  double delivery_ratio_ = 0.0;
};

// ---------------------------------------------------------------------------
// netexec_inference: sequential NetworkExecutor::run calls on the E1 lounge
// and E2 IR-array templates, 1% per-hop loss with ARQ.

class NetexecInference final : public Workload {
 public:
  NetexecInference(std::uint64_t seed, bool smoke)
      : per_template_(smoke ? 1 : 16),
        sample_seed_(derive_seed(seed, kSampleSeedKey)),
        loss_seed_(derive_seed(seed, kLossSeedKey)) {}

  std::uint64_t items_per_pass() const override { return 2 * per_template_; }

  void setup() override {
    cells_.resize(2);
    cells_[0].tmpl = fleet::make_lounge_template();
    cells_[1].tmpl = fleet::make_ir_array_template();
    Rng rng(sample_seed_);
    for (Cell& c : cells_) {
      const std::vector<std::size_t> order =
          rng.permutation(c.tmpl->data.size());
      c.samples.assign(order.begin(), order.begin() + per_template_);
    }
  }

  /// Fresh executors for every pass: run() keys its loss substreams by a
  /// per-executor call counter and keeps last-known activations between
  /// calls, so only new executors repeat the first pass's work exactly.
  void prepare_pass() override {
    for (Cell& c : cells_) c.exec = make_executor(c, nullptr);
  }

  void pass() override {
    results_.clear();
    for (Cell& c : cells_) {
      for (const std::size_t s : c.samples) {
        results_.push_back(c.exec->run(c.tmpl->data.x(s)));
      }
    }
  }

  PassOutcome check() override { return judge(results_); }

  std::vector<PassOutcome> traced_round(SpanLog& log) override {
    // Set-up layers, re-timed every round.
    template_s_ += log.time("fleet.make_lounge_template",
                            [] { fleet::make_lounge_template(); });
    template_s_ += log.time("fleet.make_ir_array_template",
                            [] { fleet::make_ir_array_template(); });
    for (Cell& c : cells_) {
      std::optional<microdeep::UnitGraph> graph;
      graph_s_ += log.time("microdeep.UnitGraph.build", [&] {
        graph = microdeep::UnitGraph::build(c.tmpl->net, c.tmpl->shape);
      });
      assign_s_ += log.time("microdeep.assign_balanced_heuristic", [&] {
        microdeep::assign_balanced_heuristic(*graph, c.tmpl->wsn);
      });
    }
    rounds_ += 1.0;

    // Untraced pass, one span per inference.
    results_.clear();
    double plain_s = 0.0;
    for (Cell& c : cells_) {
      lowering_s_ += log.time("netexec.NetworkExecutor.ctor",
                              [&] { c.exec = make_executor(c, nullptr); });
      for (const std::size_t s : c.samples) {
        const double dt = log.time("netexec.NetworkExecutor.run", [&] {
          results_.push_back(c.exec->run(c.tmpl->data.x(s)));
        });
        plain_s += dt;
        c.run_ms.push_back(dt * 1e3);
        transmissions_ += static_cast<double>(results_.back().transmissions);
        retransmissions_ +=
            static_cast<double>(results_.back().retransmissions);
        inferences_ += 1.0;
      }
    }
    std::vector<PassOutcome> outcomes{check()};

    // The same pass with an Observability attached.
    obs::Observability obs;
    std::vector<netexec::NetInferenceResult> traced;
    double traced_s = 0.0;
    for (Cell& c : cells_) {
      c.exec = make_executor(c, &obs);
      for (const std::size_t s : c.samples) {
        traced_s += log.time("netexec.NetworkExecutor.run_traced", [&] {
          traced.push_back(c.exec->run(c.tmpl->data.x(s)));
        });
      }
    }
    outcomes.push_back(judge(traced));

    // MicroDeep's per-unit arithmetic alone, over the same samples.
    for (Cell& c : cells_) {
      for (const std::size_t s : c.samples) {
        unit_s_ += log.time("microdeep.unit_walk",
                            [&] { walk_units(log, c, c.tmpl->data.x(s)); });
      }
    }
    plain_s_ += plain_s;
    traced_s_ += traced_s;
    return outcomes;
  }

  Metrics layer_metrics() const override {
    const double per_round = std::max(rounds_, 1.0);
    return {
        {"netexec.e1.run_ms_p50", nearest_rank_quantile(cells_[0].run_ms, 0.50)},
        {"netexec.e1.run_ms_p99", nearest_rank_quantile(cells_[0].run_ms, 0.99)},
        {"netexec.e2.run_ms_p50", nearest_rank_quantile(cells_[1].run_ms, 0.50)},
        {"netexec.e2.run_ms_p99", nearest_rank_quantile(cells_[1].run_ms, 0.99)},
        {"microdeep.unit_compute_share", ratio(unit_s_, plain_s_)},
        {"netexec.tx_per_inference", ratio(transmissions_, inferences_)},
        {"netexec.retx_per_inference", ratio(retransmissions_, inferences_)},
        {"netexec.lowering_ms", lowering_s_ * 1e3 / per_round},
        {"microdeep.graph_build_ms", graph_s_ * 1e3 / per_round},
        {"microdeep.assign_ms", assign_s_ * 1e3 / per_round},
        {"fleet.template_ms", template_s_ * 1e3 / per_round},
        {"obs.overhead_ratio", ratio(traced_s_, plain_s_)},
    };
  }

  Metrics probes() const override {
    return {{"netexec.inferences", inferences_}};
  }

 private:
  struct Cell {
    std::unique_ptr<fleet::InferenceTemplate> tmpl;
    std::vector<std::size_t> samples;
    std::unique_ptr<netexec::NetworkExecutor> exec;
    std::vector<double> run_ms;  // traced rounds
  };

  std::unique_ptr<netexec::NetworkExecutor> make_executor(
      Cell& c, obs::Observability* obs) const {
    return std::make_unique<netexec::NetworkExecutor>(
        c.tmpl->net, c.tmpl->graph, c.tmpl->assignment, c.tmpl->wsn,
        fleet::deployment_netexec_config(loss_seed_, obs));
  }

  /// Digest over every logit and counter; ok when every logit is finite.
  PassOutcome judge(
      const std::vector<netexec::NetInferenceResult>& results) const {
    PassOutcome out;
    out.items = results.size();
    out.ok = results.size() == items_per_pass();
    Fnv f;
    for (const netexec::NetInferenceResult& r : results) {
      for (std::size_t i = 0; i < r.output.size(); ++i) {
        const double v = r.output.data()[i];
        out.ok = out.ok && std::isfinite(v);
        f.mix(v);
      }
      f.mix(static_cast<std::uint64_t>(r.degraded));
      f.mix(r.messages);
      f.mix(r.transmissions);
      f.mix(r.retransmissions);
      f.mix(r.frames_lost);
      f.mix(r.late_frames);
      f.mix(r.substitutions);
      f.mix(r.latency_s);
    }
    out.digest = f.value();
    return out;
  }

  /// The unit-level forward pass netexec evaluates node by node, walked in
  /// one place: input units from the sample, then every network layer.
  static void walk_units(SpanLog& log, Cell& c, const ml::Tensor& sample) {
    const microdeep::UnitGraph& graph = c.tmpl->graph;
    const microdeep::UnitLayer& input = graph.layers().front();
    microdeep::ActTable acts(graph.num_units());
    for (int y = 0; y < input.height; ++y) {
      for (int x = 0; x < input.width; ++x) {
        auto& a = acts[input.first_unit +
                       static_cast<microdeep::UnitId>(y * input.width + x)];
        a.resize(static_cast<std::size_t>(input.channels));
        for (int ch = 0; ch < input.channels; ++ch) {
          a[static_cast<std::size_t>(ch)] = sample.at({ch, y, x});
        }
      }
    }
    std::size_t unit_layer = 0;
    for (std::size_t li = 0; li < c.tmpl->net.num_layers(); ++li) {
      ml::Layer& layer = c.tmpl->net.layer(li);
      const int produced = graph.unit_layer_of_net_layer(li);
      if (produced < 0) {
        // Flatten and Dropout leave unit activations unchanged.
        if (layer.name() == "relu") {
          log.time("microdeep.apply_relu_layer", [&] {
            microdeep::apply_relu_layer(graph, unit_layer, acts);
          });
        }
        continue;
      }
      const auto out_layer = static_cast<std::size_t>(produced);
      log.time("microdeep.compute_unit_layer", [&] {
        microdeep::compute_unit_layer(layer, graph, unit_layer, out_layer,
                                      acts);
      });
      unit_layer = out_layer;
    }
  }

  const std::size_t per_template_;
  const std::uint64_t sample_seed_;
  const std::uint64_t loss_seed_;
  std::vector<Cell> cells_;  // E1 lounge, E2 IR array
  std::vector<netexec::NetInferenceResult> results_;

  // Traced-round accumulators.
  double rounds_ = 0.0;
  double template_s_ = 0.0;
  double graph_s_ = 0.0;
  double assign_s_ = 0.0;
  double lowering_s_ = 0.0;
  double plain_s_ = 0.0;
  double traced_s_ = 0.0;
  double unit_s_ = 0.0;
  double transmissions_ = 0.0;
  double retransmissions_ = 0.0;
  double inferences_ = 0.0;
};

// ---------------------------------------------------------------------------
// serve_mix: Server::run over bench_a9's open-loop trace.

class ServeMix final : public Workload {
 public:
  ServeMix(std::uint64_t seed, bool smoke)
      : smoke_(smoke), trace_seed_(derive_seed(seed, kTraceSeedKey)) {}

  std::uint64_t items_per_pass() const override {
    return trace_config().num_requests;
  }

  void setup() override {
    pool_ = std::make_unique<par::ThreadPool>(kWorkers);
    routes_ = serve::make_routes(route_config());
    arrivals_ = serve::generate_workload(trace_config(), *routes_);
    server_ =
        std::make_unique<serve::Server>(routes_.get(), serve_config(nullptr));
  }

  /// A full pass takes seconds; the trace's first requests are enough to
  /// fill caches and run every route and plan miss once.
  void warm_up() override {
    const std::size_t n = std::min<std::size_t>(arrivals_.size(), 20000);
    server_->run({arrivals_.begin(), arrivals_.begin() + n});
  }

  void pass() override { last_ = server_->run(arrivals_); }

  PassOutcome check() override {
    PassOutcome out = judge(last_);
    // A fixed sample of served labels equals a one-item execute.
    std::vector<std::size_t> served;
    for (std::size_t i = 0; i < last_.responses.size(); ++i) {
      if (last_.responses[i].outcome == serve::Outcome::Served) {
        served.push_back(i);
      }
    }
    out.ok = out.ok && !served.empty();
    constexpr std::size_t kSampled = 16;
    for (std::size_t k = 0; out.ok && k < kSampled; ++k) {
      const serve::Response& r =
          last_.responses[served[k * (served.size() - 1) / (kSampled - 1)]];
      out.ok = routes_->execute(r.route, {arrivals_[r.id].sample}).front() ==
               r.label;
    }
    return out;
  }

  std::vector<PassOutcome> traced_round(SpanLog& log) override {
    // Set-up layers, re-timed every round.
    routes_build_s_ += log.time("serve.make_routes",
                                [&] { serve::make_routes(route_config()); });
    trace_gen_s_ += log.time("serve.generate_workload", [&] {
      serve::generate_workload(trace_config(), *routes_);
    });
    rounds_ += 1.0;

    const double plain_s = log.time("serve.Server.run", [&] { pass(); });
    std::vector<PassOutcome> outcomes{judge(last_)};

    obs::Observability obs;
    serve::Server traced(routes_.get(), serve_config(&obs));
    serve::ServeReport rep;
    const double traced_s = log.time("serve.Server.run_traced",
                                     [&] { rep = traced.run(arrivals_); });
    outcomes.push_back(judge(rep));
    executed_ += obs.metrics().counter_value("sim.events.executed");
    offered_ += static_cast<double>(rep.offered);
    refused_ += static_cast<double>(rep.shed + rep.rejected);
    served_ += static_cast<double>(rep.served);
    batches_ += static_cast<double>(rep.batches);
    plan_hits_ += static_cast<double>(rep.plan_hits);
    plan_lookups_ += static_cast<double>(rep.plan_hits + rep.plan_misses);

    outcomes.front().ok = replay(log) && outcomes.front().ok;

    // The search a plan miss runs, once per CNN topology variant.
    microdeep::AssignmentSearchOptions opts =
        serve::ServeConfig::make_default_search();
    opts.pool = pool_.get();
    for (const serve::Route r :
         {serve::Route::E1Temperature, serve::Route::E2Fall}) {
      const serve::CnnRoute& c = routes_->cnn(r);
      for (const microdeep::WsnTopology& topo : c.variants) {
        search_s_ += log.time("microdeep.search_assignment", [&] {
          microdeep::search_assignment(c.graph, topo, opts);
        });
        searches_ += 1.0;
      }
    }
    plain_s_ += plain_s;
    traced_s_ += traced_s;
    return outcomes;
  }

  Metrics layer_metrics() const override {
    const double per_round = std::max(rounds_, 1.0);
    Metrics m{
        {"serve.engine_share", 1.0 - ratio(replay_s_, plain_s_)},
        {"microdeep.search_ms", ratio(search_s_ * 1e3, searches_)},
        {"serve.batch_items_mean", ratio(served_, batches_)},
        {"serve.plan_hit_ratio", ratio(plan_hits_, plan_lookups_)},
        {"serve.refused_share", ratio(refused_, offered_)},
        {"serve.routes_build_s", routes_build_s_ / per_round},
        {"serve.trace_gen_s", trace_gen_s_ / per_round},
        {"obs.overhead_ratio", ratio(traced_s_, plain_s_)},
    };
    for (std::size_t r = 0; r < serve::kNumRoutes; ++r) {
      const auto route = static_cast<serve::Route>(r);
      m[std::string("serve.route_us.") + serve::route_name(route)] =
          ratio(route_s_[r] * 1e6, route_items_[r]);
    }
    for (const char* kind : {"conv2d", "maxpool2d", "dense"}) {
      const auto it = layer_s_.find(kind);
      const double s = it == layer_s_.end() ? 0.0 : it->second;
      m[std::string("ml.layer_us.") + kind] = ratio(s * 1e6, cnn_items_);
    }
    return m;
  }

  Metrics probes() const override {
    return {{"sim.events.executed", executed_}, {"serve.offered", offered_}};
  }

 private:
  /// bench_a9's full trace; the generator's other knobs keep their
  /// defaults.
  serve::WorkloadConfig trace_config() const {
    serve::WorkloadConfig w;
    w.num_requests = smoke_ ? 2000 : 400000;
    w.seed = trace_seed_;
    return w;
  }

  serve::RouteSetConfig route_config() const {
    serve::RouteSetConfig c;
    if (smoke_) {
      c.e3_train_trips_per_level = 6;
      c.e3_scenarios = 12;
      c.e4_train_rounds_per_count = 6;
      c.e4_measurements = 24;
    }
    c.pool = pool_.get();
    return c;
  }

  serve::ServeConfig serve_config(obs::Observability* obs) const {
    serve::ServeConfig c;
    c.search.pool = pool_.get();
    c.obs = obs;
    return c;
  }

  PassOutcome judge(const serve::ServeReport& rep) const {
    PassOutcome out;
    out.items = rep.offered;
    out.refused = rep.shed + rep.rejected;
    out.ok = rep.served + rep.shed + rep.rejected == rep.offered &&
             rep.offered == arrivals_.size();
    out.digest = rep.digest();
    return out;
  }

  /// Replays every served batch of the last pass through
  /// RouteSet::execute, and the CNN batches layer by layer; false when a
  /// replayed label differs from the served one.
  bool replay(SpanLog& log) {
    struct Batch {
      serve::Route route = serve::Route::E4RoomCount;
      std::vector<std::uint32_t> samples;
      std::vector<int> labels;
    };
    std::vector<Batch> batches(last_.batches);
    for (const serve::Response& r : last_.responses) {
      if (r.outcome != serve::Outcome::Served) continue;
      Batch& b = batches[r.batch_seq];
      b.route = r.route;
      b.samples.push_back(arrivals_[r.id].sample);
      b.labels.push_back(r.label);
    }
    bool ok = true;
    for (const Batch& b : batches) {
      const auto ri = static_cast<std::size_t>(b.route);
      std::vector<int> labels;
      const double dt = log.time(
          std::string("serve.RouteSet.execute.") + serve::route_name(b.route),
          [&] { labels = routes_->execute(b.route, b.samples); });
      route_s_[ri] += dt;
      replay_s_ += dt;
      route_items_[ri] += static_cast<double>(b.samples.size());
      ok = ok && labels == b.labels;
      if (routes_->uses_plans(b.route)) {
        ok = forward_by_layer(log, b.route, b.samples, b.labels) && ok;
      }
    }
    return ok;
  }

  /// Chains Layer::forward over the route's CNN; false when the argmax of
  /// the chained logits differs from the served labels.
  bool forward_by_layer(SpanLog& log, serve::Route r,
                        const std::vector<std::uint32_t>& samples,
                        const std::vector<int>& labels) {
    serve::CnnRoute& c = routes_->cnn(r);
    const std::vector<std::size_t> idx(samples.begin(), samples.end());
    ml::Tensor h = c.pool.batch(idx).first;
    for (std::size_t li = 0; li < c.net.num_layers(); ++li) {
      ml::Layer& layer = c.net.layer(li);
      const std::string kind = layer.name();
      layer_s_[kind] += log.time("ml.Layer.forward." + kind,
                                 [&] { h = layer.forward(h, false); });
    }
    cnn_items_ += static_cast<double>(samples.size());
    const auto classes = static_cast<std::size_t>(h.shape().back());
    bool ok = true;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const float* row = h.data() + i * classes;
      ok = ok && std::max_element(row, row + classes) - row == labels[i];
    }
    return ok;
  }

  const bool smoke_;
  const std::uint64_t trace_seed_;
  std::unique_ptr<par::ThreadPool> pool_;
  std::unique_ptr<serve::RouteSet> routes_;
  std::vector<serve::Request> arrivals_;
  std::unique_ptr<serve::Server> server_;
  serve::ServeReport last_;

  // Traced-round accumulators.
  double rounds_ = 0.0;
  double routes_build_s_ = 0.0;
  double trace_gen_s_ = 0.0;
  double plain_s_ = 0.0;
  double traced_s_ = 0.0;
  double replay_s_ = 0.0;
  double route_s_[serve::kNumRoutes] = {};
  double route_items_[serve::kNumRoutes] = {};
  std::map<std::string, double> layer_s_;
  double cnn_items_ = 0.0;
  double search_s_ = 0.0;
  double searches_ = 0.0;
  double executed_ = 0.0;
  double offered_ = 0.0;
  double refused_ = 0.0;
  double served_ = 0.0;
  double batches_ = 0.0;
  double plan_hits_ = 0.0;
  double plan_lookups_ = 0.0;
};

// ---------------------------------------------------------------------------

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void write_environment(obs::JsonWriter& w) {
  w.begin_object()
      .key("workers").value(static_cast<std::uint64_t>(kWorkers))
      .key("default_threads")
      .value(static_cast<std::uint64_t>(par::default_threads()))
      .key("gemm_backend").value(ml::kernels::active_backend().name)
      .key("compiler").value(ZEIOT_PERFBENCH_COMPILER)
      .key("build_type").value(ZEIOT_PERFBENCH_BUILD_TYPE)
      .end_object();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
};

int usage() {
  std::cerr << "usage: zeiot_perfbench --workload "
               "fleet_backscatter|netexec_inference|serve_mix --seed N "
               "--seconds S --trace 0|1 [--smoke] [--spans PATH]\n";
  return 2;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "fleet_backscatter") {
    return std::make_unique<FleetBackscatter>(a.seed, a.smoke);
  }
  if (a.workload == "netexec_inference") {
    return std::make_unique<NetexecInference>(a.seed, a.smoke);
  }
  if (a.workload == "serve_mix") {
    return std::make_unique<ServeMix>(a.seed, a.smoke);
  }
  return nullptr;
}

void emit_pass(const PassOutcome& p, double wall_s) {
  emit_event("pass", [&](obs::JsonWriter& w) {
    w.key("items").value(p.items).key("refused").value(p.refused);
    w.key("ok").value(p.ok).key("wall_s").value(wall_s);
    if (p.digest) w.key("digest").value(std::to_string(*p.digest));
  });
}

int run(const Args& a) {
  const std::unique_ptr<Workload> w = make_workload(a);
  if (w == nullptr) return usage();
  if (par::default_threads() != kWorkers) {
    std::cerr << "ZEIOT_THREADS must be " << kWorkers << "\n";
    return 2;
  }
  emit_event("plan", [&](obs::JsonWriter& j) {
    j.key("workload").value(a.workload);
    j.key("items_per_pass").value(w->items_per_pass());
  });

  const auto t_setup = Clock::now();
  w->setup();
  w->warm_up();
  const double setup_s = seconds_since(t_setup);
  emit_event("ready",
             [&](obs::JsonWriter& j) { j.key("setup_s").value(setup_s); });

  const auto t_run = Clock::now();
  if (!a.trace) {
    do {
      w->prepare_pass();
      const auto t0 = Clock::now();
      w->pass();
      const double wall_s = seconds_since(t0);
      emit_pass(w->check(), wall_s);
    } while (seconds_since(t_run) < a.seconds);
  } else {
    Fnv id;
    for (const char c : a.workload) id.mix(static_cast<std::uint64_t>(c));
    id.mix(a.seed);
    SpanLog log(id.value());
    do {
      const std::size_t round = log.open("round");
      const std::vector<PassOutcome> outcomes = w->traced_round(log);
      log.close(round);
      for (const PassOutcome& p : outcomes) emit_pass(p, 0.0);
    } while (seconds_since(t_run) < a.seconds);
    if (!a.spans_path.empty() && !log.write_jsonl(a.spans_path)) {
      std::cerr << "cannot write spans to " << a.spans_path << "\n";
      return 1;
    }
  }

  emit_event("done", [&](obs::JsonWriter& j) {
    j.key("peak_rss_mib").value(peak_rss_mib());
    write_environment(j.key("env"));
    if (a.trace) {
      write_numbers(j.key("layers"), w->layer_metrics());
      write_numbers(j.key("probes"), w->probes());
    }
  });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--spans" && has_value) {
      a.spans_path = argv[++i];
    } else {
      return usage();
    }
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "zeiot_perfbench: " << e.what() << "\n";
    return 1;
  }
}
