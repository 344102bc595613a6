// Per-unit arithmetic of the distributed forward pass.
//
// These kernels are what each sensor node runs on its share of a layer:
// netexec (netexec/netexec.hpp) computes every node's units through them,
// and unit_walk() runs them over the whole graph with no network in
// between.  The loops define the *canonical evaluation order* (output
// units in row-major order, inputs in graph-neighbour / feature order), so
// any caller that feeds the same input activations gets bit-identical
// floats.  That makes unit_walk() the bitwise reference for netexec over a
// lossless channel; ml::Network::forward matches it only to ~1e-3, because
// its GEMM sums in a different order.
#pragma once

#include <vector>

#include "microdeep/unit_graph.hpp"

namespace zeiot::microdeep {

/// Activation storage: one vector per unit, length = the unit layer's
/// channel count (1 for dense units).
using ActTable = std::vector<std::vector<float>>;

/// Writes a (C,H,W) sample into the input units of `acts` (one C-vector
/// per grid location).  Throws zeiot::Error when the shape does not match
/// the graph's input layer.
void load_input_units(const UnitGraph& graph, const ml::Tensor& sample,
                      ActTable& acts);

/// Computes the activations of unit layer `out_layer` (produced by network
/// layer `layer`) from the `in_layer` activations already present in
/// `acts`.  Supported producers: Conv2D, MaxPool2D, Dense; throws
/// zeiot::Error otherwise.
void compute_unit_layer(ml::Layer& layer, const UnitGraph& graph,
                        std::size_t in_layer, std::size_t out_layer,
                        ActTable& acts);

/// Computes only `units` (ids within unit layer `out_layer`).  netexec
/// computes one node's share of a layer at a time; the per-unit arithmetic
/// is independent, so any partition of a layer yields the same floats as
/// compute_unit_layer.
void compute_units(ml::Layer& layer, const UnitGraph& graph,
                   std::size_t in_layer, std::size_t out_layer,
                   const std::vector<UnitId>& units, ActTable& acts);

/// In-place ReLU over unit layer `layer_index` (elementwise layers create
/// no units of their own; they act on their producer's activations).
void apply_relu_layer(const UnitGraph& graph, std::size_t layer_index,
                      ActTable& acts);

/// In-place ReLU over `units` only.
void apply_relu_units(const std::vector<UnitId>& units, ActTable& acts);

/// Runs one (C,H,W) sample through `net` unit by unit: compute_unit_layer
/// for each unit-producing net layer and apply_relu_layer for each ReLU,
/// in net-layer order.  Returns every unit's activation, after its folded
/// ReLU; the last unit layer holds the logits.  `net` must be the network
/// `graph` was built from.
ActTable unit_walk(ml::Network& net, const UnitGraph& graph,
                   const ml::Tensor& sample);

}  // namespace zeiot::microdeep
