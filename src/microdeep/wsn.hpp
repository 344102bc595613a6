// Wireless sensor network topology for MicroDeep (paper Sec. IV.C, Fig. 8):
// sensor nodes on XY coordinates forming a mesh over the sensed area, with a
// fixed communication radius.  Message routing between non-adjacent nodes
// follows BFS shortest paths, which is what drives the relaying load in the
// communication-cost accounting.
#pragma once

#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"

namespace zeiot::microdeep {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

class WsnTopology {
 public:
  /// Builds a topology from node positions.  `comm_radius_m` defines links.
  /// The resulting graph must be connected (throws otherwise) — MicroDeep
  /// requires every node to be reachable.
  WsnTopology(std::vector<Point2D> positions, Rect area, double comm_radius_m);

  /// Regular grid deployment of `cols` x `rows` nodes filling `area`; the
  /// communication radius is chosen to connect the 8-neighbourhood.
  static WsnTopology grid(Rect area, int cols, int rows);

  /// `n` nodes placed uniformly at random; the radius is grown until the
  /// graph connects (keeps the degree near `target_degree`).
  static WsnTopology random_uniform(Rect area, std::size_t n, Rng& rng,
                                    double target_degree = 6.0);

  /// Grid deployment with per-node placement jitter (fraction of the cell
  /// pitch) — the planned-but-imperfect layout of a real instrumented
  /// space such as the paper's 50-sensor lounge.
  static WsnTopology jittered_grid(Rect area, int cols, int rows, Rng& rng,
                                   double jitter_fraction = 0.25);

  std::size_t num_nodes() const { return positions_.size(); }
  const Rect& area() const { return area_; }
  Point2D position(NodeId id) const;
  const std::vector<NodeId>& neighbors(NodeId id) const;
  bool is_link(NodeId a, NodeId b) const;

  /// Node whose position is nearest to `p`.
  NodeId nearest_node(Point2D p) const;

  /// Hop count of the shortest path a->b (0 when a == b).
  int hops(NodeId a, NodeId b) const;

  /// Next hop from `from` along a shortest path to `to` (precomputed BFS).
  /// Requires from != to.
  NodeId next_hop(NodeId from, NodeId to) const;

  /// Mean node degree.
  double mean_degree() const;

 private:
  void build_links(double comm_radius_m);
  void build_routing();
  bool connected() const;

  std::vector<Point2D> positions_;
  Rect area_;
  std::vector<std::vector<NodeId>> adj_;
  std::vector<std::uint8_t> link_;  // n*n adjacency matrix for O(1) is_link
  // next_hop_[to][from] = neighbour of `from` one step closer to `to`.
  std::vector<std::vector<NodeId>> next_hop_;
  std::vector<std::vector<int>> hops_;
};

}  // namespace zeiot::microdeep
