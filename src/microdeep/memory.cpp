#include "microdeep/memory.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"

namespace zeiot::microdeep {

NodeMemoryModel make_node_memory_model(const ml::Network& net,
                                       const UnitGraph& graph,
                                       int bytes_per_weight,
                                       int bytes_per_activation) {
  ZEIOT_CHECK_MSG(bytes_per_weight > 0 && bytes_per_activation > 0,
                  "byte sizes must be positive");
  NodeMemoryModel model;
  model.bytes_per_activation = bytes_per_activation;
  model.layer_weight_bytes_per_node.assign(graph.layers().size(), 0);
  model.unit_weight_bytes.assign(graph.layers().size(), 0);

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const int ul = graph.unit_layer_of_net_layer(li);
    if (ul < 0) continue;  // elementwise/reshape layers own no units
    const ml::Layer& layer = net.layer(li);
    if (const auto* conv = dynamic_cast<const ml::Conv2D*>(&layer)) {
      // A conv unit computes every output channel at its location, so each
      // hosting node needs the whole filter bank (+ per-channel bias /
      // requant constants at 4 bytes each).
      const std::size_t weights = static_cast<std::size_t>(conv->out_channels()) *
                                  conv->in_channels() * conv->kernel() *
                                  conv->kernel();
      model.layer_weight_bytes_per_node[static_cast<std::size_t>(ul)] =
          weights * static_cast<std::size_t>(bytes_per_weight) +
          static_cast<std::size_t>(conv->out_channels()) * 4;
    } else if (const auto* dense = dynamic_cast<const ml::Dense*>(&layer)) {
      // A dense unit is one output neuron: it owns its weight row + bias.
      model.unit_weight_bytes[static_cast<std::size_t>(ul)] =
          static_cast<std::size_t>(dense->in_features()) *
              static_cast<std::size_t>(bytes_per_weight) +
          4;
    }
    // Pool/input layers carry no parameters.
  }
  return model;
}

std::vector<std::size_t> compute_node_memory(const Assignment& assignment,
                                             std::size_t num_nodes,
                                             const NodeMemoryModel& model) {
  const UnitGraph& graph = assignment.graph();
  ZEIOT_CHECK_MSG(model.layer_weight_bytes_per_node.size() ==
                          graph.layers().size() &&
                      model.unit_weight_bytes.size() == graph.layers().size(),
                  "memory model layer count mismatch");
  std::vector<std::size_t> bytes(num_nodes, 0);
  const std::size_t num_layers = graph.layers().size();
  // hosts[n * num_layers + l]: node n already charged for layer l's bank.
  std::vector<char> hosts(num_nodes * num_layers, 0);

  const auto bpa = static_cast<std::size_t>(model.bytes_per_activation);
  for (std::size_t l = 0; l < num_layers; ++l) {
    const UnitLayer& ul = graph.layers()[l];
    for (int u = 0; u < ul.num_units(); ++u) {
      const UnitId uid = ul.first_unit + static_cast<UnitId>(u);
      const auto n = static_cast<std::size_t>(assignment.node_of(uid));
      ZEIOT_CHECK_MSG(n < num_nodes, "assignment references node " << n
                                         << " >= num_nodes " << num_nodes);
      // Own output buffer: all channels of the unit.
      bytes[n] += static_cast<std::size_t>(ul.channels) * bpa;
      // Per-unit weight share (dense rows).
      bytes[n] += model.unit_weight_bytes[l];
      // Once-per-hosting-node weight bank (conv filters).
      if (model.layer_weight_bytes_per_node[l] > 0 &&
          hosts[n * num_layers + l] == 0) {
        hosts[n * num_layers + l] = 1;
        bytes[n] += model.layer_weight_bytes_per_node[l];
      }
    }
  }

  // Remote-input buffers: one slot per unique (consumer node, producer
  // unit) pair with the producer on a different node — the executor's
  // per-node inbox (netexec build_plans dedups identically).
  std::unordered_set<std::uint64_t> seen;
  for (const UnitEdge& e : graph.edges()) {
    const NodeId src_node = assignment.node_of(e.src);
    const NodeId dst_node = assignment.node_of(e.dst);
    if (src_node == dst_node) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(dst_node) << 32) | e.src;
    if (!seen.insert(key).second) continue;
    const UnitLayer& sl = graph.layers()[graph.layer_of(e.src)];
    bytes[static_cast<std::size_t>(dst_node)] +=
        static_cast<std::size_t>(sl.channels) * bpa;
  }
  return bytes;
}

std::size_t peak_node_memory(const Assignment& assignment,
                             std::size_t num_nodes,
                             const NodeMemoryModel& model) {
  const auto bytes = compute_node_memory(assignment, num_nodes, model);
  return bytes.empty() ? 0 : *std::max_element(bytes.begin(), bytes.end());
}

}  // namespace zeiot::microdeep
