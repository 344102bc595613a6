#include "microdeep/comm_cost.hpp"

#include <algorithm>

namespace zeiot::microdeep {

namespace {

/// Picks the next hop from `cur` toward `dst`: among the neighbours one
/// hop closer to `dst`, the one with the least accumulated load — the
/// load-balancing multi-parent routing WSN collection protocols use.
/// Falls back to the BFS next hop (always valid on a connected graph).
NodeId pick_next_hop(const WsnTopology& wsn, NodeId cur, NodeId dst,
                     const std::vector<double>& per_node) {
  const int cur_hops = wsn.hops(cur, dst);
  NodeId best = wsn.next_hop(cur, dst);
  double best_load = per_node[best];
  for (NodeId v : wsn.neighbors(cur)) {
    if (wsn.hops(v, dst) != cur_hops - 1) continue;
    if (per_node[v] < best_load) {
      best_load = per_node[v];
      best = v;
    }
  }
  return best;
}

/// Charges one message from `src` to `dst` along a load-aware route,
/// tracking the running per-node maximum for early exit.
void charge_route(const WsnTopology& wsn, NodeId src, NodeId dst,
                  CommCostReport& r, double& running_max) {
  NodeId cur = src;
  while (cur != dst) {
    const NodeId nxt = pick_next_hop(wsn, cur, dst, r.per_node);
    const double a = r.per_node[cur] += 1.0;  // tx of this hop
    const double b = r.per_node[nxt] += 1.0;  // rx of this hop
    r.total_hop_transmissions += 1.0;
    running_max = std::max(running_max, std::max(a, b));
    cur = nxt;
  }
}

/// Starts a fresh epoch on a stamped array, handling wraparound (on the
/// 2^32nd use the stamps are cleared once and the epoch restarts at 1).
std::uint32_t next_epoch(std::vector<std::uint32_t>& stamps,
                         std::uint32_t& epoch) {
  if (++epoch == 0) {
    std::fill(stamps.begin(), stamps.end(), 0u);
    epoch = 1;
  }
  return epoch;
}

/// Charges the aggregation tree for one dense unit hosted on `root`:
/// partial sums flow from every node in `sources` (ascending NodeId,
/// deduplicated by the caller) toward `root` along load-aware routes
/// (their union forms the tree); each tree edge carries one value up
/// (forward) and, if requested, one error value down (backward).
///
/// Tree membership and edge dedup share one stamped parent array: a tree
/// is a function child -> parent, so a child being stamped means its
/// (child, parent) edge was already charged.
void charge_aggregation_tree(const WsnTopology& wsn, NodeId root,
                             const std::vector<NodeId>& sources,
                             bool include_backward,
                             CommCostScratch& scratch, CommCostReport& r,
                             double& running_max) {
  const std::uint32_t epoch = next_epoch(scratch.tree_stamp, scratch.tree_epoch);
  const double passes = include_backward ? 2.0 : 1.0;
  double edges = 0.0;
  auto charge_edge = [&](NodeId child, NodeId parent) {
    scratch.tree_stamp[child] = epoch;
    scratch.tree_parent[child] = parent;
    const double a = r.per_node[child] += passes;   // tx up (+ rx down)
    const double b = r.per_node[parent] += passes;  // rx up (+ tx down)
    r.total_hop_transmissions += passes;
    running_max = std::max(running_max, std::max(a, b));
    edges += 1.0;
  };
  for (NodeId src : sources) {
    NodeId cur = src;
    while (cur != root) {
      if (scratch.tree_stamp[cur] == epoch) {
        cur = scratch.tree_parent[cur];  // joins the existing tree branch
        continue;
      }
      const NodeId nxt = pick_next_hop(wsn, cur, root, r.per_node);
      charge_edge(cur, nxt);
      cur = nxt;
    }
  }
  r.total_messages += passes * edges;
}

}  // namespace

std::optional<CommCostReport> compute_comm_cost_bounded(
    const Assignment& assignment, const WsnTopology& wsn,
    const CommCostOptions& opts, CommCostScratch& scratch,
    double abort_above) {
  const UnitGraph& g = assignment.graph();
  const std::size_t num_nodes = wsn.num_nodes();
  CommCostReport r;
  r.per_node.assign(num_nodes, 0.0);
  double running_max = 0.0;

  const auto& layers = g.layers();
  const UnitLayer& input = layers.front();
  const UnitId input_end =
      input.first_unit + static_cast<UnitId>(input.num_units());

  // Flat dedup table keyed by producer unit x destination node; an epoch
  // bump invalidates the previous evaluation's entries in O(1).
  const std::size_t stamp_size = g.num_units() * num_nodes;
  if (scratch.unicast_stamp.size() < stamp_size) {
    scratch.unicast_stamp.resize(stamp_size, 0u);
  }
  const std::uint32_t epoch =
      next_epoch(scratch.unicast_stamp, scratch.unicast_epoch);
  if (scratch.tree_parent.size() < num_nodes) {
    scratch.tree_parent.resize(num_nodes, 0);
    scratch.tree_stamp.resize(num_nodes, 0u);
  }

  // Dense destination units get contiguous slots in ascending UnitId order
  // (layers are stored by ascending first_unit); slot bases per layer.
  std::vector<std::size_t> dense_base(layers.size(), 0);
  std::size_t num_dense = 0;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    dense_base[li] = num_dense;
    if (layers[li].kind == UnitLayer::Kind::Dense) {
      num_dense += static_cast<std::size_t>(layers[li].num_units());
    }
  }
  for (auto& slot : scratch.dense_sources) slot.clear();
  if (scratch.dense_sources.size() < num_dense) {
    scratch.dense_sources.resize(num_dense);
  }

  // Unicast part: spatial-layer edges, deduplicated per (producer unit,
  // consumer node) — an activation is broadcast once per destination node
  // regardless of how many consumer units live there.
  for (const UnitEdge& e : g.edges()) {
    const NodeId src_node = assignment.node_of(e.src);
    const NodeId dst_node = assignment.node_of(e.dst);
    const std::size_t dst_layer = g.layer_of(e.dst);
    const bool dense_dst =
        opts.aggregate_dense && layers[dst_layer].kind == UnitLayer::Kind::Dense;
    if (dense_dst) {
      if (src_node != dst_node) {
        const std::size_t slot =
            dense_base[dst_layer] + (e.dst - layers[dst_layer].first_unit);
        scratch.dense_sources[slot].push_back(src_node);
      }
      continue;
    }
    if (src_node == dst_node) continue;
    std::uint32_t& stamp =
        scratch.unicast_stamp[static_cast<std::size_t>(e.src) * num_nodes +
                              dst_node];
    if (stamp == epoch) continue;
    stamp = epoch;
    r.total_messages += 1.0;
    charge_route(wsn, src_node, dst_node, r, running_max);
    // The error signal retraces the route in reverse — but only producers
    // that themselves have trainable inputs need it: sensing (input-layer)
    // units receive no backpropagated error.
    if (opts.include_backward && e.src >= input_end) {
      r.total_messages += 1.0;
      charge_route(wsn, dst_node, src_node, r, running_max);
    }
    if (running_max > abort_above) return std::nullopt;
  }

  // Aggregation part: dense units in ascending UnitId order, each tree's
  // sources in ascending NodeId order — load-aware routing then charges
  // relays in an order that is a pure function of the assignment.
  for (std::size_t li = 0; li < layers.size(); ++li) {
    if (layers[li].kind != UnitLayer::Kind::Dense) continue;
    const int n_units = layers[li].num_units();
    for (int u = 0; u < n_units; ++u) {
      auto& sources = scratch.dense_sources[dense_base[li] + u];
      if (sources.empty()) continue;
      std::sort(sources.begin(), sources.end());
      sources.erase(std::unique(sources.begin(), sources.end()),
                    sources.end());
      const UnitId unit = layers[li].first_unit + static_cast<UnitId>(u);
      charge_aggregation_tree(wsn, assignment.node_of(unit), sources,
                              opts.include_backward, scratch, r,
                              running_max);
      if (running_max > abort_above) return std::nullopt;
    }
  }

  const auto it = std::max_element(r.per_node.begin(), r.per_node.end());
  r.hottest_node = static_cast<NodeId>(it - r.per_node.begin());
  r.max_cost = *it;
  double sum = 0.0;
  for (double c : r.per_node) sum += c;
  r.mean_cost = sum / static_cast<double>(r.per_node.size());
  return r;
}

CommCostReport compute_comm_cost(const Assignment& assignment,
                                 const WsnTopology& wsn,
                                 const CommCostOptions& opts,
                                 obs::Observability* obs) {
  // Per-thread scratch: repeated evaluations (the search loop, benches)
  // reuse the dedup tables without any cross-call clearing.
  thread_local CommCostScratch scratch;
  auto r = compute_comm_cost_bounded(assignment, wsn, opts, scratch);
  ZEIOT_CHECK_MSG(r.has_value(), "unbounded comm cost cannot abort");

  if (obs != nullptr) {
    auto& m = obs->metrics();
    m.gauge("microdeep.comm_cost.max_per_node").set(r->max_cost);
    m.gauge("microdeep.comm_cost.mean_per_node").set(r->mean_cost);
    m.gauge("microdeep.comm_cost.total_messages").set(r->total_messages);
    m.gauge("microdeep.comm_cost.hop_transmissions")
        .set(r->total_hop_transmissions);
    m.gauge("microdeep.comm_cost.hottest_node")
        .set(static_cast<double>(r->hottest_node));
  }
  return std::move(*r);
}

}  // namespace zeiot::microdeep
