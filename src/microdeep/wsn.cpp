#include "microdeep/wsn.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/hash.hpp"

namespace zeiot::microdeep {

WsnTopology::WsnTopology(std::vector<Point2D> positions, Rect area,
                         double comm_radius_m)
    : positions_(std::move(positions)), area_(area), comm_radius_(comm_radius_m) {
  ZEIOT_CHECK_MSG(!positions_.empty(), "topology requires nodes");
  ZEIOT_CHECK_MSG(comm_radius_m > 0.0, "comm radius must be > 0");
  build_links();
  ZEIOT_CHECK_MSG(connected(), "WSN topology is not connected at radius "
                                   << comm_radius_m);
  build_routing();
}

WsnTopology WsnTopology::grid(Rect area, int cols, int rows) {
  ZEIOT_CHECK_MSG(cols > 0 && rows > 0, "grid dims must be positive");
  std::vector<Point2D> pos;
  pos.reserve(static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows));
  const double dx = area.width() / static_cast<double>(cols);
  const double dy = area.height() / static_cast<double>(rows);
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      pos.push_back({area.x0 + (static_cast<double>(x) + 0.5) * dx,
                     area.y0 + (static_cast<double>(y) + 0.5) * dy});
    }
  }
  // 8-neighbourhood: radius just over the diagonal spacing.
  const double radius = 1.05 * std::hypot(dx, dy);
  return WsnTopology(std::move(pos), area, radius);
}

WsnTopology WsnTopology::random_uniform(Rect area, std::size_t n, Rng& rng,
                                        double target_degree) {
  ZEIOT_CHECK_MSG(n >= 2, "need at least two nodes");
  ZEIOT_CHECK_MSG(target_degree > 0.0, "target degree must be > 0");
  std::vector<Point2D> pos;
  pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back({rng.uniform(area.x0, area.x1), rng.uniform(area.y0, area.y1)});
  }
  // Radius for the requested mean degree under uniform density, then grow
  // until connected.
  double radius = std::sqrt(target_degree * area.width() * area.height() /
                            (M_PI * static_cast<double>(n)));
  for (int attempt = 0; attempt < 64; ++attempt) {
    try {
      return WsnTopology(pos, area, radius);
    } catch (const Error&) {
      radius *= 1.25;
    }
  }
  throw Error("random_uniform: could not connect topology");
}

WsnTopology WsnTopology::jittered_grid(Rect area, int cols, int rows,
                                       Rng& rng, double jitter_fraction) {
  ZEIOT_CHECK_MSG(cols > 0 && rows > 0, "grid dims must be positive");
  ZEIOT_CHECK_MSG(jitter_fraction >= 0.0 && jitter_fraction < 0.5,
                  "jitter fraction must be in [0, 0.5)");
  std::vector<Point2D> pos;
  const double dx = area.width() / static_cast<double>(cols);
  const double dy = area.height() / static_cast<double>(rows);
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      pos.push_back(
          {area.x0 + (static_cast<double>(x) + 0.5 +
                      rng.uniform(-jitter_fraction, jitter_fraction)) *
                         dx,
           area.y0 + (static_cast<double>(y) + 0.5 +
                      rng.uniform(-jitter_fraction, jitter_fraction)) *
                         dy});
    }
  }
  // Radius covering the 8-neighbourhood even at worst-case jitter.
  const double radius = (1.05 + 2.0 * jitter_fraction) * std::hypot(dx, dy);
  return WsnTopology(std::move(pos), area, radius);
}

void WsnTopology::build_links() {
  const std::size_t n = positions_.size();
  adj_.assign(n, {});
  link_.assign(n * n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (distance(positions_[a], positions_[b]) <= comm_radius_) {
        adj_[a].push_back(static_cast<NodeId>(b));
        adj_[b].push_back(static_cast<NodeId>(a));
        link_[a * n + b] = 1;
        link_[b * n + a] = 1;
      }
    }
  }
}

bool WsnTopology::connected() const {
  std::vector<bool> seen(positions_.size(), false);
  std::queue<NodeId> q;
  q.push(0);
  seen[0] = true;
  std::size_t count = 1;
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (NodeId v : adj_[u]) {
      if (!seen[v]) {
        seen[v] = true;
        ++count;
        q.push(v);
      }
    }
  }
  return count == positions_.size();
}

void WsnTopology::build_routing() {
  const std::size_t n = positions_.size();
  next_hop_.assign(n, std::vector<NodeId>(n, kNoNode));
  hops_.assign(n, std::vector<int>(n, -1));
  // One BFS per destination: parent pointers give the next hop toward it.
  for (std::size_t dst = 0; dst < n; ++dst) {
    auto& nh = next_hop_[dst];
    auto& hp = hops_[dst];
    std::queue<NodeId> q;
    q.push(static_cast<NodeId>(dst));
    hp[dst] = 0;
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop();
      for (NodeId v : adj_[u]) {
        if (hp[v] == -1) {
          hp[v] = hp[u] + 1;
          nh[v] = u;  // from v, step to u to get closer to dst
          q.push(v);
        }
      }
    }
  }
}

Point2D WsnTopology::position(NodeId id) const {
  ZEIOT_CHECK(id < positions_.size());
  return positions_[id];
}

const std::vector<NodeId>& WsnTopology::neighbors(NodeId id) const {
  ZEIOT_CHECK(id < adj_.size());
  return adj_[id];
}

bool WsnTopology::is_link(NodeId a, NodeId b) const {
  ZEIOT_CHECK(a < adj_.size() && b < adj_.size());
  return link_[static_cast<std::size_t>(a) * adj_.size() + b] != 0;
}

NodeId WsnTopology::nearest_node(Point2D p) const {
  NodeId best = 0;
  double best_d = distance(positions_[0], p);
  for (std::size_t i = 1; i < positions_.size(); ++i) {
    const double d = distance(positions_[i], p);
    if (d < best_d) {
      best_d = d;
      best = static_cast<NodeId>(i);
    }
  }
  return best;
}

int WsnTopology::hops(NodeId a, NodeId b) const {
  ZEIOT_CHECK(a < positions_.size() && b < positions_.size());
  return hops_[b][a];
}

NodeId WsnTopology::next_hop(NodeId from, NodeId to) const {
  ZEIOT_CHECK(from < positions_.size() && to < positions_.size());
  ZEIOT_CHECK_MSG(from != to, "next_hop requires from != to");
  return next_hop_[to][from];
}

std::uint64_t WsnTopology::digest() const {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(positions_.size()));
  for (const Point2D& p : positions_) {
    h.mix_bits(p.x);
    h.mix_bits(p.y);
  }
  h.mix_bits(area_.x0);
  h.mix_bits(area_.y0);
  h.mix_bits(area_.x1);
  h.mix_bits(area_.y1);
  h.mix_bits(comm_radius_);
  return h.value();
}

double WsnTopology::mean_degree() const {
  std::size_t total = 0;
  for (const auto& a : adj_) total += a.size();
  return static_cast<double>(total) / static_cast<double>(adj_.size());
}

}  // namespace zeiot::microdeep
