// Test-only reference for the canonical witness forest, built straight from
// its definition rather than from the BFS every engine shares, so a defect
// in that one implementation cannot hide on both sides of a differential
// comparison:
//
//   - an arc u→h is *tight* when it is alive, not a self-loop, both ends are
//     up and routed, and f(w_h) ≈ w_u;
//   - a node's *layer* is its hop distance to the destination over tight
//     arcs (the destination, routed and up, is layer 0 with the origin);
//   - a node's witness is its first (smallest-id) tight out-arc into an
//     earlier layer;
//   - routed nodes with no layer are cleared.
//
// Weights of laid nodes are kept as stored: on the antisymmetric carriers
// the suites sweep, the achieved value f(w_h) equals w_u.
#pragma once

#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "mrt/dyn/delta.hpp"

namespace mrt::testing {

inline Routing reference_forest(const dyn::DynNet& net,
                                const OrderTransform& alg, int dest,
                                const Value& origin, const Routing& r) {
  const int n = net.num_nodes();
  const Digraph& g = net.graph();
  Routing out;
  out.weight.assign(static_cast<std::size_t>(n), std::nullopt);
  out.next_arc.assign(static_cast<std::size_t>(n), -1);
  auto routed = [&](int v) {
    return net.node_up(v) && r.weight[static_cast<std::size_t>(v)].has_value();
  };
  if (!routed(dest)) return out;
  auto w = [&](int v) -> const Value& {
    return v == dest ? origin : *r.weight[static_cast<std::size_t>(v)];
  };
  auto tight = [&](int id) {
    const Arc& a = g.arc(id);
    if (!net.arc_alive(id) || a.src == a.dst || !routed(a.src) ||
        !routed(a.dst)) {
      return false;
    }
    return equiv_of(
        alg.ord->cmp(alg.fns->apply(net.label(id), w(a.dst)), w(a.src)));
  };
  std::vector<int> layer(static_cast<std::size_t>(n), -1);
  layer[static_cast<std::size_t>(dest)] = 0;
  std::deque<int> queue{dest};
  while (!queue.empty()) {
    const int h = queue.front();
    queue.pop_front();
    for (int id : g.in_arcs(h)) {
      const int u = g.arc(id).src;
      if (layer[static_cast<std::size_t>(u)] < 0 && tight(id)) {
        layer[static_cast<std::size_t>(u)] =
            layer[static_cast<std::size_t>(h)] + 1;
        queue.push_back(u);
      }
    }
  }
  out.weight[static_cast<std::size_t>(dest)] = origin;
  for (int u = 0; u < n; ++u) {
    const int lu = layer[static_cast<std::size_t>(u)];
    if (lu <= 0) continue;
    out.weight[static_cast<std::size_t>(u)] = w(u);
    for (int id : g.out_arcs(u)) {
      const int lh = layer[static_cast<std::size_t>(g.arc(id).dst)];
      if (lh >= 0 && lh < lu && tight(id)) {
        out.next_arc[static_cast<std::size_t>(u)] = id;
        break;
      }
    }
  }
  return out;
}

/// Asserts that `r` is exactly the reference forest of its own weights.
inline void expect_reference_forest(const dyn::DynNet& net,
                                    const OrderTransform& alg, int dest,
                                    const Value& origin, const Routing& r,
                                    const std::string& what) {
  const Routing ref = reference_forest(net, alg, dest, origin, r);
  ASSERT_EQ(r.weight.size(), ref.weight.size()) << what;
  for (std::size_t v = 0; v < ref.weight.size(); ++v) {
    ASSERT_EQ(r.weight[v].has_value(), ref.weight[v].has_value())
        << what << " (reference forest) node " << v;
    if (ref.weight[v]) {
      ASSERT_EQ(*r.weight[v], *ref.weight[v])
          << what << " (reference forest) node " << v;
    }
    ASSERT_EQ(r.next_arc[v], ref.next_arc[v])
        << what << " (reference forest) node " << v;
  }
}

}  // namespace mrt::testing
