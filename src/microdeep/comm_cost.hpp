// Communication-cost accounting for a distributed CNN (Fig. 10 of the
// paper: "communication costs of the sensor nodes").
//
// One forward pass sends, for every (producer unit -> consumer node) pair
// with distinct endpoints, one message routed along a WSN shortest path;
// every hop charges one transmission to the hop source and one reception to
// the hop destination, so relays pay for the traffic they forward.
// Messages to the same destination node are deduplicated per producer unit
// (an activation is broadcast once per destination, however many consumer
// units live there).  The backward pass
// retraces the same routes in reverse; weight updates are node-local and
// free, matching the paper's design.
//
// Iteration order matters: routes are load-aware, so the order in which
// messages are charged changes which relays they pick.  Dense aggregation
// trees are therefore charged in ascending destination-UnitId order with
// each tree's source nodes visited in ascending NodeId order — pure
// functions of the assignment, never of container iteration order.  (An
// earlier version walked an unordered_map of dense units and an
// unordered_set of sources here, which made per-node costs depend on hash
// iteration order.)
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "microdeep/assignment.hpp"
#include "obs/obs.hpp"

namespace zeiot::microdeep {

struct CommCostOptions {
  /// Include the backward pass (training); inference-only when false.
  bool include_backward = true;
  /// In-network aggregation for fully-connected layers: a dense unit's
  /// weighted sum is accumulated as partial sums along the routing tree
  /// toward its node (and the error broadcast back down the same tree),
  /// so each tree edge carries exactly one value per pass.  This is how a
  /// WSN implementation realises FC layers ("averaging communication and
  /// processing tasks over wireless sensor nodes"); without it the
  /// all-to-all fan-in of a dense layer swamps every assignment.  Spatial
  /// (conv/pool) layers always use unicast messages — their raw
  /// activations cannot be combined en route.
  bool aggregate_dense = true;
};

struct CommCostReport {
  /// Per-node cost: transmissions + receptions per sample.
  std::vector<double> per_node;
  double max_cost = 0.0;
  double mean_cost = 0.0;
  double total_messages = 0.0;  // end-to-end messages (not hop count)
  double total_hop_transmissions = 0.0;
  /// Index of the most loaded node.
  NodeId hottest_node = 0;
};

/// Reusable scratch for repeated cost evaluations (the assignment search
/// scores dozens of candidates over the same graph/WSN pair).  Dedup
/// tables are flat arrays with epoch stamping, so a fresh evaluation is an
/// O(1) epoch bump instead of an O(units x nodes) clear or a rebuild of
/// hash sets.  Contents never influence results — only allocation reuse.
struct CommCostScratch {
  // (producer unit x destination node) broadcast dedup for unicast edges.
  std::vector<std::uint32_t> unicast_stamp;
  std::uint32_t unicast_epoch = 0;
  // Source-node lists per dense destination unit (slot = dense unit in
  // ascending UnitId order); sorted + deduplicated before charging.
  std::vector<std::vector<NodeId>> dense_sources;
  // Per-node aggregation-tree membership: parent chosen for each child,
  // stamped per tree.  A stamped child IS the tree-edge dedup (each child
  // has exactly one parent, so "child already stamped" == "edge charged").
  std::vector<NodeId> tree_parent;
  std::vector<std::uint32_t> tree_stamp;
  std::uint32_t tree_epoch = 0;
};

/// Computes the per-node communication cost of running the assigned network
/// once over the WSN.
///
/// When `obs` is non-null the report is also published as live gauges —
/// the paper's Fig. 8/10 quantities:
///   microdeep.comm_cost.max_per_node / .mean_per_node /
///   .total_messages / .hop_transmissions / .hottest_node
CommCostReport compute_comm_cost(const Assignment& assignment,
                                 const WsnTopology& wsn,
                                 const CommCostOptions& opts = {},
                                 obs::Observability* obs = nullptr);

/// Bounded variant for candidate scoring: evaluates with reusable scratch
/// and aborts — returning nullopt — as soon as the running max per-node
/// cost strictly exceeds `abort_above` (checked after every charged route,
/// so an abandoned candidate costs only the work up to the point it lost).
/// With the default infinite bound the result equals compute_comm_cost().
std::optional<CommCostReport> compute_comm_cost_bounded(
    const Assignment& assignment, const WsnTopology& wsn,
    const CommCostOptions& opts, CommCostScratch& scratch,
    double abort_above = std::numeric_limits<double>::infinity());

}  // namespace zeiot::microdeep
