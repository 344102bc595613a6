// Per-node memory accounting for unit assignments.
//
// The paper's nodes are zero-energy MCU-class devices with KB-scale RAM
// ("Split CNN Inference on Networked Microcontrollers" deploys exactly this
// way), so an assignment is only deployable if every node can hold the
// weights and activation buffers of the units it hosts.  The model:
//
//   weights      conv unit layers replicate the FULL filter bank onto every
//                hosting node (a conv unit computes all output channels at
//                one location, so it needs every filter); dense unit layers
//                charge each hosted unit its own weight rows (a dense unit
//                is one output neuron).  Input/pool layers carry none.
//   activations  a node buffers (a) the outputs of its own units —
//                channels x bytes_per_activation each — and (b) one copy of
//                every REMOTE producer unit whose activation any hosted
//                unit consumes (deduplicated per node, exactly like the
//                executor's per-node inbox).
//
// bytes_per_weight / bytes_per_activation parameterise the float (4/4) vs
// int8-quantized (1/1) deployments.
#pragma once

#include <cstddef>
#include <vector>

#include "microdeep/assignment.hpp"

namespace zeiot::microdeep {

struct NodeMemoryModel {
  /// Bytes per transmitted/buffered activation value (4 float, 1 int8).
  int bytes_per_activation = 4;
  /// Per unit layer: weight bytes charged ONCE per node hosting at least
  /// one unit of the layer (conv filter banks).
  std::vector<std::size_t> layer_weight_bytes_per_node;
  /// Per unit layer: weight bytes charged per hosted unit (dense rows).
  std::vector<std::size_t> unit_weight_bytes;
};

/// Builds the model for `net` distributed as `graph`.  `bytes_per_weight`
/// is 4 for float deployments, 1 for int8 (bias/requant tables are charged
/// at 4 bytes per output channel either way).
NodeMemoryModel make_node_memory_model(const ml::Network& net,
                                       const UnitGraph& graph,
                                       int bytes_per_weight,
                                       int bytes_per_activation);

/// Total bytes resident on each node (indexed by NodeId) under `model`.
std::vector<std::size_t> compute_node_memory(const Assignment& assignment,
                                             std::size_t num_nodes,
                                             const NodeMemoryModel& model);

/// Largest per-node residency.
std::size_t peak_node_memory(const Assignment& assignment,
                             std::size_t num_nodes,
                             const NodeMemoryModel& model);

}  // namespace zeiot::microdeep
