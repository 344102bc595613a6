#include "microdeep/unit_compute.hpp"

#include <algorithm>
#include <limits>

namespace zeiot::microdeep {

namespace {

inline void relu(std::vector<float>& v) {
  for (float& x : v) x = std::max(0.0f, x);
}

/// The per-unit arithmetic of every producer kind.  `for_each_unit(f)`
/// calls f(u) for each output unit to compute, in the caller's order.
template <typename ForEachUnit>
void compute_layer(ml::Layer& layer, const UnitGraph& graph,
                   std::size_t in_layer, std::size_t out_layer, ActTable& acts,
                   ForEachUnit for_each_unit) {
  const auto& layers = graph.layers();
  const UnitLayer& out = layers[out_layer];
  const UnitLayer& in = layers[in_layer];
  const UnitId in_end = in.first_unit + static_cast<UnitId>(in.num_units());

  if (auto* conv = dynamic_cast<ml::Conv2D*>(&layer)) {
    const auto params = conv->params();
    const ml::Tensor& w = params[0]->value;  // (oc, ic, k, k)
    const ml::Tensor& b = params[1]->value;
    const int p = conv->padding();
    // Every index the loops form is in bounds (ky and kx are checked per
    // neighbour below), so the weights are read from w.data() directly.
    ZEIOT_CHECK(w.ndim() == 4 && out.channels <= w.dim(0) &&
                in.channels <= w.dim(1) && conv->kernel() <= w.dim(2) &&
                conv->kernel() <= w.dim(3));
    // Strides of ky, ic and oc in the weight tensor.
    const auto w_ky = static_cast<std::size_t>(w.dim(3));
    const std::size_t w_ic = static_cast<std::size_t>(w.dim(2)) * w_ky;
    const std::size_t w_oc = static_cast<std::size_t>(w.dim(1)) * w_ic;
    for_each_unit([&](UnitId u) {
      const int local = static_cast<int>(u - out.first_unit);
      const int oy = local / out.width;
      const int ox = local % out.width;
      auto& acc = acts[u];
      acc.assign(static_cast<std::size_t>(out.channels), 0.0f);
      for (int oc = 0; oc < out.channels; ++oc) {
        acc[static_cast<std::size_t>(oc)] = b[static_cast<std::size_t>(oc)];
      }
      for (const UnitId src : graph.graph_neighbors(u)) {
        if (src < in.first_unit || src >= in_end) {
          continue;  // neighbour in the *next* layer, not an input
        }
        const int in_local = static_cast<int>(src - in.first_unit);
        const int sy = in_local / in.width;
        const int sx = in_local % in.width;
        const int ky = sy - oy + p;
        const int kx = sx - ox + p;
        ZEIOT_CHECK(ky >= 0 && ky < conv->kernel() && kx >= 0 &&
                    kx < conv->kernel());
        const float* w_k = w.data() + static_cast<std::size_t>(ky) * w_ky +
                           static_cast<std::size_t>(kx);
        const std::vector<float>& x = acts[src];
        for (int oc = 0; oc < out.channels; ++oc) {
          const float* w_oc_k = w_k + static_cast<std::size_t>(oc) * w_oc;
          float dot = 0.0f;
          for (int ic = 0; ic < in.channels; ++ic) {
            dot += w_oc_k[static_cast<std::size_t>(ic) * w_ic] *
                   x[static_cast<std::size_t>(ic)];
          }
          acc[static_cast<std::size_t>(oc)] += dot;
        }
      }
    });
  } else if (dynamic_cast<ml::MaxPool2D*>(&layer) != nullptr) {
    for_each_unit([&](UnitId u) {
      auto& acc = acts[u];
      acc.assign(static_cast<std::size_t>(out.channels),
                 -std::numeric_limits<float>::infinity());
      for (const UnitId src : graph.graph_neighbors(u)) {
        if (src < in.first_unit || src >= in_end) continue;
        for (int c = 0; c < out.channels; ++c) {
          acc[static_cast<std::size_t>(c)] =
              std::max(acc[static_cast<std::size_t>(c)],
                       acts[src][static_cast<std::size_t>(c)]);
        }
      }
    });
  } else if (auto* dense = dynamic_cast<ml::Dense*>(&layer)) {
    const auto params = dense->params();
    const ml::Tensor& w = params[0]->value;  // (out, in_features)
    const ml::Tensor& b = params[1]->value;
    // Every (o, feature) the loops form is in bounds, so the weights are
    // read from w.data() directly.
    ZEIOT_CHECK(w.ndim() == 2 && out.num_units() <= w.dim(0) &&
                in.channels * in.num_units() <= w.dim(1));
    const auto in_units = static_cast<std::size_t>(in.num_units());
    const auto w_o_stride = static_cast<std::size_t>(w.dim(1));
    for_each_unit([&](UnitId u) {
      const int o = static_cast<int>(u - out.first_unit);
      acts[u].assign(1, b[static_cast<std::size_t>(o)]);
      const float* w_o = w.data() + static_cast<std::size_t>(o) * w_o_stride;
      for (std::size_t s = 0; s < in_units; ++s) {
        const std::vector<float>& x =
            acts[in.first_unit + static_cast<UnitId>(s)];
        // Flatten order is NCHW: feature index = ic*H*W + (y*W + x).
        float dot = 0.0f;
        for (int ic = 0; ic < in.channels; ++ic) {
          dot += w_o[static_cast<std::size_t>(ic) * in_units + s] *
                 x[static_cast<std::size_t>(ic)];
        }
        acts[u][0] += dot;
      }
    });
  } else {
    throw Error("compute_unit_layer: unsupported layer " + layer.name());
  }
}

}  // namespace

void load_input_units(const UnitGraph& graph, const ml::Tensor& sample,
                      ActTable& acts) {
  const UnitLayer& input = graph.layers().front();
  ZEIOT_CHECK_MSG(sample.ndim() == 3 && sample.dim(0) == input.channels &&
                      sample.dim(1) == input.height &&
                      sample.dim(2) == input.width,
                  "sample shape does not match the unit graph input");
  for (int y = 0; y < input.height; ++y) {
    for (int x = 0; x < input.width; ++x) {
      auto& a = acts[input.first_unit +
                     static_cast<UnitId>(y * input.width + x)];
      a.resize(static_cast<std::size_t>(input.channels));
      for (int c = 0; c < input.channels; ++c) {
        a[static_cast<std::size_t>(c)] = sample.at({c, y, x});
      }
    }
  }
}

void compute_unit_layer(ml::Layer& layer, const UnitGraph& graph,
                        std::size_t in_layer, std::size_t out_layer,
                        ActTable& acts) {
  const UnitLayer& out = graph.layers()[out_layer];
  compute_layer(layer, graph, in_layer, out_layer, acts,
                [&](const auto& f) {
                  for (int i = 0; i < out.num_units(); ++i) {
                    f(out.first_unit + static_cast<UnitId>(i));
                  }
                });
}

void compute_units(ml::Layer& layer, const UnitGraph& graph,
                   std::size_t in_layer, std::size_t out_layer,
                   const std::vector<UnitId>& units, ActTable& acts) {
  compute_layer(layer, graph, in_layer, out_layer, acts,
                [&](const auto& f) {
                  for (const UnitId u : units) f(u);
                });
}

void apply_relu_layer(const UnitGraph& graph, std::size_t layer_index,
                      ActTable& acts) {
  const UnitLayer& l = graph.layers()[layer_index];
  for (int i = 0; i < l.num_units(); ++i) {
    relu(acts[l.first_unit + static_cast<UnitId>(i)]);
  }
}

void apply_relu_units(const std::vector<UnitId>& units, ActTable& acts) {
  for (const UnitId u : units) relu(acts[u]);
}

ActTable unit_walk(ml::Network& net, const UnitGraph& graph,
                   const ml::Tensor& sample) {
  ActTable acts(graph.num_units());
  load_input_units(graph, sample, acts);
  std::size_t cur = 0;  // unit layer the next producer consumes
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    ml::Layer& layer = net.layer(li);
    const int out = graph.unit_layer_of_net_layer(li);
    if (out >= 0) {
      compute_unit_layer(layer, graph, cur, static_cast<std::size_t>(out),
                         acts);
      cur = static_cast<std::size_t>(out);
    } else if (dynamic_cast<ml::ReLU*>(&layer) != nullptr) {
      apply_relu_layer(graph, cur, acts);
    }
    // Flatten does not change unit activations.
  }
  return acts;
}

}  // namespace zeiot::microdeep
