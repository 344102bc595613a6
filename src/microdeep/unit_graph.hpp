// Per-unit view of a CNN for distribution onto sensor nodes.
//
// Following the paper (Fig. 8), every unit of the network is given an XY
// coordinate inside the deployment area:
//  * spatial layers (input / conv / pool) have one unit per grid location —
//    all channels of a location travel together as one message, since they
//    are co-assigned by construction;
//  * fully-connected layers spread their units evenly over the area.
// Edges connect a unit to the units whose activations it consumes; they are
// the messages of the distributed forward pass (reversed for backward).
#pragma once

#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "ml/network.hpp"

namespace zeiot::microdeep {

using UnitId = std::uint32_t;

/// One distributable layer of units (elementwise and reshaping layers,
/// ReLU and Flatten, are folded into their producer and create no units).
struct UnitLayer {
  enum class Kind { Input, Conv, Pool, Dense };
  Kind kind = Kind::Input;
  int channels = 1;  // depth carried by each unit (1 for dense)
  int height = 1;    // spatial grid (1x`units` for dense)
  int width = 1;
  UnitId first_unit = 0;  // global id of unit (0,0) / unit 0

  int num_units() const { return height * width; }
};

/// Directed dependency edge: `dst` consumes the activation of `src`.
struct UnitEdge {
  UnitId src;
  UnitId dst;
};

class UnitGraph {
 public:
  /// Builds the unit graph of `net` for a (C,H,W) input.  Supported layers:
  /// Conv2D, MaxPool2D, Dense, Flatten, ReLU.
  static UnitGraph build(const ml::Network& net,
                         const std::vector<int>& input_shape);

  std::size_t num_units() const { return num_units_; }
  const std::vector<UnitLayer>& layers() const { return layers_; }
  const std::vector<UnitEdge>& edges() const { return edges_; }

  /// Index of the unit layer containing `u`.
  std::size_t layer_of(UnitId u) const;

  /// Deployment-area coordinate of a unit (spatial layers scale their grid
  /// into `area`; dense layers use a square raster over `area`).
  Point2D position(UnitId u, const Rect& area) const;

  /// Units adjacent to `u` in the dependency graph (both directions) —
  /// used by the assignment heuristic's link-correspondence objective.
  const std::vector<UnitId>& graph_neighbors(UnitId u) const;

  /// Unit-layer index produced by network layer `net_layer`, or -1 for
  /// elementwise/reshaping layers that create no units.  Used to map each
  /// trainable parameter to the cross-node traffic feeding it.
  int unit_layer_of_net_layer(std::size_t net_layer) const;

 private:
  std::vector<UnitLayer> layers_;
  std::vector<UnitEdge> edges_;
  std::size_t num_units_ = 0;
  std::vector<std::vector<UnitId>> neighbor_cache_;
  std::vector<int> net_to_unit_layer_;
};

}  // namespace zeiot::microdeep
