// dyn::Column — one destination's Bellman state over a shared topology.
//
// The metarouting fixed point is per-destination independent (Daggitt–
// Griffin, arXiv:2106.01184), so the per-destination algorithm is written
// once here and shared by every engine that runs it:
//
//   dyn::Solver(Bellman)  one Column plus its own DynNet
//   dyn::Solver(Dijkstra) the Column's invalidation, seeding and forest
//                         around its own delta-Dijkstra relax
//   rib::RibSolver        one Column per destination over the table's single
//                         DynNet (boxed mode), and canonical_forest over
//                         flat word lanes (batched mode)
//
// A Column only reads the DynNet it is handed: the caller applies deltas
// (DynNet::apply) and passes the resulting Applied set in. Hot loops walk
// the CSR adjacency and the DynNet's alive mask, and keep their temporaries
// in per-thread scratch, so many columns can run in parallel over one
// shared, read-only DynNet. Internal to the dyn and rib layers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mrt/core/order.hpp"
#include "mrt/dyn/delta.hpp"
#include "mrt/routing/labeled_graph.hpp"

namespace mrt::dyn {

/// Gauss–Seidel round cap of every Bellman worklist (dyn engine and RIB);
/// a column that hits it is reported unconverged.
inline constexpr int kMaxRounds = 1000;

/// Per-thread scratch of canonical_forest (one forest at a time per thread;
/// forests never nest). `in_cands` is all-zero between uses.
struct ForestScratch {
  std::vector<char> attached;
  std::vector<char> in_cands;
  std::vector<int> frontier, cands, next;
};
ForestScratch& forest_scratch();

/// The canonical witness forest, written once for every lane storage. The
/// forest is a breadth-first forest over *tight* arcs (u→h with f(w_h) ≈
/// w_u), rooted at `dest`: within a BFS layer nodes attach in ascending id
/// and each picks its smallest tight arc into the earlier layers, so the
/// forest is a pure function of the weight vector and the alive topology —
/// cold and warm solves emit identical bytes whenever they reach the same
/// fixed point. It is cycle-free by construction: a per-node smallest-arc
/// rule could let two equal-weight nodes witness each other (saturation
/// plateaus), leaving a forwarding cycle that invalidation can never trace
/// back to a failure. Routed nodes the forest does not reach (such ghost
/// plateaus) are cleared rather than preserved (see docs/DYN.md).
///
/// `Lane` supplies the storage:
///   bool routed(int v)                      v holds a route
///   void attach_origin(int v)               v := origin, no witness
///   bool attach_if_equiv(int u, int a, int h)  if f_a(w_h) ≈ w_u, store the
///                                           achieved weight and witness a
///   void clear(int v)                       drop v's route
template <typename Lane>
void canonical_forest(const DynNet& net, int dest, Lane& lane,
                      std::uint64_t& relaxations) {
  const int n = net.num_nodes();
  const Digraph& g = net.graph();
  const CsrAdjacency& out = g.csr_out();
  const CsrAdjacency& in = g.csr_in();
  const std::uint8_t* alive = net.alive().data();
  ForestScratch& s = forest_scratch();
  s.attached.assign(static_cast<std::size_t>(n), 0);
  if (s.in_cands.size() < static_cast<std::size_t>(n)) {
    s.in_cands.assign(static_cast<std::size_t>(n), 0);
  }
  // Register-resident views: the lane's out-of-line kernels cannot move them.
  char* const attached = s.attached.data();
  char* const in_cands = s.in_cands.data();
  if (net.node_up(dest) && lane.routed(dest)) {
    lane.attach_origin(dest);
    attached[dest] = 1;
    s.frontier.assign(1, dest);
    while (!s.frontier.empty()) {
      // This layer's candidates, deduplicated on the fly (a node adjacent to
      // several frontier members would otherwise be pushed — and sorted —
      // once per in-arc); the flags are wiped by walking the list.
      s.cands.clear();
      for (int v : s.frontier) {
        for (int e = in.begin(v); e < in.end(v); ++e) {
          if (!alive[in.arc[static_cast<std::size_t>(e)]]) continue;
          const int u = in.head[static_cast<std::size_t>(e)];
          if (!attached[u] && !in_cands[u] && net.node_up(u) &&
              lane.routed(u)) {
            in_cands[u] = 1;
            s.cands.push_back(u);
          }
        }
      }
      for (int u : s.cands) in_cands[u] = 0;
      std::sort(s.cands.begin(), s.cands.end());
      s.next.clear();
      for (int u : s.cands) {
        for (int e = out.begin(u); e < out.end(u); ++e) {
          const int id = out.arc[static_cast<std::size_t>(e)];
          if (!alive[id]) continue;
          const int h = out.head[static_cast<std::size_t>(e)];
          if (h == u || !attached[h]) continue;
          ++relaxations;
          if (lane.attach_if_equiv(u, id, h)) {
            s.next.push_back(u);
            break;
          }
        }
      }
      // Snapshot semantics: this layer becomes visible only for the next
      // one, keeping the layering independent of in-round scan order.
      for (int u : s.next) attached[u] = 1;
      s.frontier.swap(s.next);
    }
  }
  for (int v = 0; v < n; ++v) {
    if (!attached[v]) lane.clear(v);
  }
}

/// One destination's boxed solution (weights + witness arcs) and whether
/// its last pass converged, with the per-column steps of the dyn Bellman
/// engine. Every step reads the topology through an Env and writes only
/// the Column.
struct Column {
  Routing r;
  bool converged = false;

  /// What a column reads but does not own. `jstream` is the journal stream
  /// that per-node records (witness invalidations, relax waves) go to; 0
  /// journals nothing.
  struct Env {
    const DynNet& net;
    const OrderTransform& alg;
    int dest;
    const Value& origin;
    std::uint32_t jstream = 0;
  };

  /// Cold solve from {dest} over the current masks; sets `converged`.
  void solve(const Env& e, std::uint64_t& relaxations);
  /// Warm pass after `ap` was applied to e.net: invalidate, seed, relax,
  /// and rebuild the forest if the relax converged. Sets `converged`;
  /// returns the number of nodes the relax touched.
  int warm(const Env& e, const DynNet::Applied& ap,
           std::uint64_t& relaxations);

  /// Transitively invalidates every node whose forwarding chain passes
  /// through a changed arc or a crashed node, clearing their routes, and
  /// returns the sorted invalidated set. Running this *before* any
  /// recomputation is what rules out count-to-infinity ghosts: no surviving
  /// weight references a dead or relabeled witness, so every surviving
  /// weight is still achievable in the new topology.
  std::vector<int> invalidate(const Env& e, const DynNet::Applied& ap);
  /// Warm-start frontier: the invalidated set, the tails of changed arcs
  /// (their candidate sets changed even if their witness survived), and
  /// restarted nodes, sorted. Crashed nodes are excluded.
  static std::vector<int> seeds(const Env& e, const DynNet::Applied& ap,
                                const std::vector<int>& invalid);
  /// Gauss–Seidel rounds from `seeds`, ascending node order within a round;
  /// each active node recomputes its best extension (smallest arc id on
  /// ties, self-loops skipped) and activates its in-arc tails on change.
  /// Returns false on hitting kMaxRounds; otherwise stores the number of
  /// touched nodes in `*touched` (if set).
  bool relax(const Env& e, const std::vector<int>& seeds, int* touched,
             std::uint64_t& relaxations);
  /// canonical_forest over this column's Routing.
  void rebuild(const Env& e, std::uint64_t& relaxations);
};

/// Journals an applied delta batch on `stream`: one record per net change,
/// all carrying the post-apply topology version, so provenance can map a
/// route change back to the exact ops of the batch that caused it.
void journal_delta(std::uint32_t stream, const DynNet& net,
                   const TopologyDelta& delta, const DynNet::Applied& ap);

}  // namespace mrt::dyn
