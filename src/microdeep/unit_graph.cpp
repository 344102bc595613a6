#include "microdeep/unit_graph.hpp"

#include <cmath>

namespace zeiot::microdeep {

namespace {

UnitId unit_at(const UnitLayer& l, int y, int x) {
  ZEIOT_CHECK(y >= 0 && y < l.height && x >= 0 && x < l.width);
  return l.first_unit + static_cast<UnitId>(y * l.width + x);
}

}  // namespace

UnitGraph UnitGraph::build(const ml::Network& net,
                           const std::vector<int>& input_shape) {
  ZEIOT_CHECK_MSG(input_shape.size() == 3, "input shape must be (C,H,W)");
  UnitGraph g;

  UnitLayer input;
  input.kind = UnitLayer::Kind::Input;
  input.channels = input_shape[0];
  input.height = input_shape[1];
  input.width = input_shape[2];
  input.first_unit = 0;
  g.layers_.push_back(input);
  UnitId next_unit = static_cast<UnitId>(input.num_units());

  std::vector<int> shape = input_shape;  // running (C,H,W) or (features)
  g.net_to_unit_layer_.assign(net.num_layers(), -1);
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const ml::Layer& l = net.layer(li);
    const UnitLayer& prev = g.layers_.back();
    if (const auto* conv = dynamic_cast<const ml::Conv2D*>(&l)) {
      shape = conv->output_shape(shape);
      UnitLayer ul;
      ul.kind = UnitLayer::Kind::Conv;
      ul.channels = shape[0];
      ul.height = shape[1];
      ul.width = shape[2];
      ul.first_unit = next_unit;
      const int k = conv->kernel(), p = conv->padding();
      for (int y = 0; y < ul.height; ++y) {
        for (int x = 0; x < ul.width; ++x) {
          const UnitId dst = unit_at(ul, y, x);
          for (int ky = 0; ky < k; ++ky) {
            const int sy = y + ky - p;
            if (sy < 0 || sy >= prev.height) continue;
            for (int kx = 0; kx < k; ++kx) {
              const int sx = x + kx - p;
              if (sx < 0 || sx >= prev.width) continue;
              g.edges_.push_back({unit_at(prev, sy, sx), dst});
            }
          }
        }
      }
      g.layers_.push_back(ul);
      g.net_to_unit_layer_[li] = static_cast<int>(g.layers_.size()) - 1;
      next_unit += static_cast<UnitId>(ul.num_units());
    } else if (const auto* pool = dynamic_cast<const ml::MaxPool2D*>(&l)) {
      shape = pool->output_shape(shape);
      UnitLayer ul;
      ul.kind = UnitLayer::Kind::Pool;
      ul.channels = shape[0];
      ul.height = shape[1];
      ul.width = shape[2];
      ul.first_unit = next_unit;
      const int k = pool->k();
      for (int y = 0; y < ul.height; ++y) {
        for (int x = 0; x < ul.width; ++x) {
          const UnitId dst = unit_at(ul, y, x);
          for (int dy = 0; dy < k; ++dy) {
            for (int dx = 0; dx < k; ++dx) {
              g.edges_.push_back({unit_at(prev, y * k + dy, x * k + dx), dst});
            }
          }
        }
      }
      g.layers_.push_back(ul);
      g.net_to_unit_layer_[li] = static_cast<int>(g.layers_.size()) - 1;
      next_unit += static_cast<UnitId>(ul.num_units());
    } else if (const auto* dense = dynamic_cast<const ml::Dense*>(&l)) {
      shape = {dense->out_features()};
      UnitLayer ul;
      ul.kind = UnitLayer::Kind::Dense;
      ul.channels = 1;
      ul.height = 1;
      ul.width = dense->out_features();
      ul.first_unit = next_unit;
      // Fully connected: every unit of the previous layer feeds every unit.
      for (int u = 0; u < ul.width; ++u) {
        const UnitId dst = ul.first_unit + static_cast<UnitId>(u);
        for (int s = 0; s < prev.num_units(); ++s) {
          g.edges_.push_back({prev.first_unit + static_cast<UnitId>(s), dst});
        }
      }
      g.layers_.push_back(ul);
      g.net_to_unit_layer_[li] = static_cast<int>(g.layers_.size()) - 1;
      next_unit += static_cast<UnitId>(ul.num_units());
    } else if (dynamic_cast<const ml::Flatten*>(&l) != nullptr ||
               dynamic_cast<const ml::ReLU*>(&l) != nullptr) {
      // Elementwise / reshaping layers execute on the producer's node and
      // add no units or messages.
      if (dynamic_cast<const ml::Flatten*>(&l) != nullptr) {
        int prod = 1;
        for (int d : shape) prod *= d;
        shape = {prod};
      }
    } else {
      throw Error("UnitGraph: unsupported layer type " + l.name());
    }
  }
  g.num_units_ = next_unit;

  g.neighbor_cache_.assign(g.num_units_, {});
  for (const UnitEdge& e : g.edges_) {
    g.neighbor_cache_[e.src].push_back(e.dst);
    g.neighbor_cache_[e.dst].push_back(e.src);
  }
  return g;
}

std::size_t UnitGraph::layer_of(UnitId u) const {
  ZEIOT_CHECK_MSG(u < num_units_, "unit id out of range");
  for (std::size_t i = layers_.size(); i-- > 0;) {
    if (u >= layers_[i].first_unit) return i;
  }
  throw Error("UnitGraph::layer_of: corrupt layer table");
}

Point2D UnitGraph::position(UnitId u, const Rect& area) const {
  const std::size_t li = layer_of(u);
  const UnitLayer& l = layers_[li];
  const int local = static_cast<int>(u - l.first_unit);
  if (l.kind == UnitLayer::Kind::Dense) {
    // Raster the units over a near-square grid covering the area.
    const int n = l.num_units();
    const int cols = std::max(1, static_cast<int>(std::ceil(std::sqrt(n))));
    const int rows = (n + cols - 1) / cols;
    const int y = local / cols;
    const int x = local % cols;
    return {area.x0 + (static_cast<double>(x) + 0.5) * area.width() /
                          static_cast<double>(cols),
            area.y0 + (static_cast<double>(y) + 0.5) * area.height() /
                          static_cast<double>(rows)};
  }
  const int y = local / l.width;
  const int x = local % l.width;
  return {area.x0 + (static_cast<double>(x) + 0.5) * area.width() /
                        static_cast<double>(l.width),
          area.y0 + (static_cast<double>(y) + 0.5) * area.height() /
                        static_cast<double>(l.height)};
}

int UnitGraph::unit_layer_of_net_layer(std::size_t net_layer) const {
  ZEIOT_CHECK_MSG(net_layer < net_to_unit_layer_.size(),
                  "network layer index out of range");
  return net_to_unit_layer_[net_layer];
}

const std::vector<UnitId>& UnitGraph::graph_neighbors(UnitId u) const {
  ZEIOT_CHECK_MSG(u < num_units_, "unit id out of range");
  return neighbor_cache_[u];
}

}  // namespace zeiot::microdeep
