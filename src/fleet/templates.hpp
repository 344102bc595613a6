// Deployment templates: the reusable per-deployment construction behind
// the fleet simulator (and the conformance suite's standalone reference).
//
// One city-scale fleet instantiates thousands of independent cells cut
// from three templates of the paper's experiments:
//  * LoungeE1          — the E1 lounge: 50-node jittered-grid WSN running
//                        the feasible temperature CNN over netexec;
//  * IrArrayE2         — the E2 IR sensor array: 100-node grid WSN running
//                        the feasible fall-detection CNN over netexec;
//  * BackscatterCellE6 — one E6 backscatter cell: zero-energy tags and a
//                        WLAN AP coexisting through the proposed MAC.
//
// Everything immutable is built ONCE per template (network weights, unit
// graph, topology, assignment, sample pool — all from fixed seeds) and
// shared read-only by every deployment of that kind; per-deployment state
// is only the executor / coexistence simulator plus its RNG substream.
// The substream convention is the load-bearing determinism contract:
//
//   deployment_seed(fleet_seed, spec) is a pure function of the fleet
//   seed and the spec's identity (kind, cell_id) — never of which other
//   deployments run, their order, or the worker count.
//
// The functions here are deliberately free and pure so the fleet
// conformance tests can reconstruct any single deployment standalone,
// bit-for-bit, without going through FleetSimulator at all.
#pragma once

#include <cstdint>
#include <memory>

#include "backscatter/coexistence.hpp"
#include "microdeep/assignment.hpp"
#include "ml/dataset.hpp"
#include "netexec/netexec.hpp"

namespace zeiot::fleet {

enum class TemplateKind : std::uint8_t {
  LoungeE1 = 0,
  IrArrayE2 = 1,
  BackscatterCellE6 = 2,
};

/// Stable lowercase name used in metrics labels and bench tables.
const char* template_name(TemplateKind kind);

/// One deployment of the fleet.  `cell_id` is the deployment's identity:
/// two specs with the same (kind, cell_id, parameters) are the same
/// deployment no matter where they appear in a fleet (or in which fleet).
struct DeploymentSpec {
  TemplateKind kind = TemplateKind::BackscatterCellE6;
  std::uint64_t cell_id = 0;

  // Inference cells (LoungeE1 / IrArrayE2): inferences per run, drawn from
  // the template's shared sample pool by the deployment substream.
  std::size_t samples = 2;

  // Backscatter cells (BackscatterCellE6): zero-energy tags, horizon, and
  // offered WLAN load of this cell.
  std::size_t devices = 8;
  double horizon_s = 1.0;
  double wlan_rate_hz = 50.0;
};

/// Immutable shared context of one inference template (E1 / E2).
/// Members are constructed in place (Assignment keeps a pointer into
/// `graph`), so templates live behind a stable address — the fleet holds
/// them in unique_ptrs and never moves them.
struct InferenceTemplate {
  InferenceTemplate(ml::Network n, std::vector<int> s,
                    microdeep::WsnTopology w, ml::Dataset d)
      : net(std::move(n)),
        shape(std::move(s)),
        wsn(std::move(w)),
        graph(microdeep::UnitGraph::build(net, shape)),
        assignment(microdeep::assign_balanced_heuristic(graph, wsn)),
        data(std::move(d)),
        devices(static_cast<std::uint32_t>(wsn.num_nodes())) {}
  InferenceTemplate(const InferenceTemplate&) = delete;
  InferenceTemplate& operator=(const InferenceTemplate&) = delete;

  ml::Network net;  // untrained feasible CNN, fixed-seed weights
  std::vector<int> shape;
  microdeep::WsnTopology wsn;
  microdeep::UnitGraph graph;
  microdeep::Assignment assignment;
  ml::Dataset data;  // shared synthetic sample pool (fixed-seed datagen)
  std::uint32_t devices = 0;  // WSN nodes simulated per deployment
};

/// E1 lounge template: 17x25 temperature grid, 50-node jittered-grid WSN,
/// feasible CNN, balanced-heuristic assignment (bench_e1's MicroDeep row,
/// minus the training).
std::unique_ptr<InferenceTemplate> make_lounge_template();

/// E2 IR-array template: 10-channel 10x10 windows, 100-node grid WSN,
/// feasible CNN, balanced-heuristic assignment (bench_e2's variant (b)).
std::unique_ptr<InferenceTemplate> make_ir_array_template();

/// Per-deployment seed: substream keyed by (kind, cell_id) split off the
/// fleet seed.  Pure function; see the header comment.
std::uint64_t deployment_seed(std::uint64_t fleet_seed,
                              const DeploymentSpec& spec);

/// The deployment's inference workload: `spec.samples` draws (with
/// replacement) from the template pool, chosen by the deployment seed.
ml::Dataset deployment_dataset(const InferenceTemplate& tmpl,
                               const DeploymentSpec& spec,
                               std::uint64_t dep_seed);

/// Network-in-the-loop configuration of one inference deployment: 1%
/// per-hop loss (the benign indoor link of bench_e1/e2), loss substreams
/// keyed by `dep_seed`.
netexec::NetExecConfig deployment_netexec_config(std::uint64_t dep_seed,
                                                 obs::Observability* obs);

/// Coexistence configuration of one backscatter cell (proposed MAC).
backscatter::CoexistenceConfig deployment_coexistence_config(
    const DeploymentSpec& spec, std::uint64_t dep_seed);

}  // namespace zeiot::fleet
