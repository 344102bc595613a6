// Shared per-unit arithmetic of the distributed forward pass.
//
// Both MicroDeep executors — the ideal in-memory walk
// (microdeep/executor.hpp) and the network-in-the-loop event simulation
// (netexec/netexec.hpp) — compute layer activations through these kernels.
// The loops here define the *canonical evaluation order* (output units in
// row-major order, inputs in graph-neighbour / feature order), so any two
// executors that feed the same input activations produce bit-identical
// floats: the conformance suite relies on this to assert that a zero-loss
// zero-latency channel reproduces the ideal executor exactly.
#pragma once

#include <functional>
#include <vector>

#include "microdeep/unit_graph.hpp"

namespace zeiot::microdeep {

/// Activation storage: one vector per unit, length = the unit layer's
/// channel count (1 for dense units).
using ActTable = std::vector<std::vector<float>>;

/// Hooks threaded through the layer walk so each executor keeps its own
/// message accounting without duplicating the arithmetic.  All callbacks
/// may be empty (treated as "never lost" / no-op).
struct UnitComputeHooks {
  /// True when `src`'s activation never reached `dst`'s executor; the
  /// contribution is then skipped (missing-data semantics).  Called once
  /// per (input unit, consumer unit) pair, in canonical order — fault
  /// injectors that consume RNG on this path stay reproducible.
  std::function<bool(UnitId src, UnitId dst)> lost;
  /// Called after each (input, consumer) contribution was applied or
  /// skipped — the arrival-time / message-dedup hook of the ideal executor.
  std::function<void(UnitId src, UnitId dst, bool lost)> visited;
  /// Replace -inf pool outputs (every input lost) by 0 so missing data
  /// never propagates non-finite values.  Enable whenever `lost` can fire.
  bool substitute_missing = false;
};

/// Computes the activations of unit layer `out_layer` (produced by network
/// layer `layer`) from the `in_layer` activations already present in
/// `acts`.  Supported producers: Conv2D, MaxPool2D, Dense; throws
/// zeiot::Error otherwise.
void compute_unit_layer(ml::Layer& layer, const UnitGraph& graph,
                        std::size_t in_layer, std::size_t out_layer,
                        ActTable& acts, const UnitComputeHooks& hooks = {});

/// Computes only `units` (ids within unit layer `out_layer`), with no
/// hooks.  netexec computes one node's share of a layer at a time; the
/// per-unit arithmetic is independent, so any partition of a layer yields
/// the same floats as compute_unit_layer.
void compute_units(ml::Layer& layer, const UnitGraph& graph,
                   std::size_t in_layer, std::size_t out_layer,
                   const std::vector<UnitId>& units, ActTable& acts);

/// In-place ReLU over unit layer `layer_index` (elementwise layers create
/// no units of their own; they act on their producer's activations).
void apply_relu_layer(const UnitGraph& graph, std::size_t layer_index,
                      ActTable& acts);

/// In-place ReLU over `units` only.
void apply_relu_units(const std::vector<UnitId>& units, ActTable& acts);

}  // namespace zeiot::microdeep
