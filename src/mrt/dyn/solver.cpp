#include "mrt/dyn/solver.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "mrt/dyn/column.hpp"
#include "mrt/obs/obs.hpp"
#include "mrt/support/require.hpp"

namespace mrt {

namespace dyn {
namespace {

bool dyn_enabled_from_env() {
  const char* e = std::getenv("MRT_DYN");
  return e == nullptr || std::string(e) != "0";
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{dyn_enabled_from_env()};
  return flag;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }
void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

}  // namespace dyn

namespace {

using dyn::DynNet;
using dyn::TopologyDelta;
using dyn::UpdateStats;
using obs::EventKind;
using obs::Subsystem;

/// Shared engine state: the bound problem, the current solution, and the
/// update protocol. The per-destination steps both engines build their warm
/// paths from — transitive invalidation, warm seeding, and the canonical
/// forest that gives cold and warm runs a common normal form — live in
/// dyn::Column (column.hpp), which also runs the Bellman engine's worklist.
class EngineBase : public Solver {
 public:
  EngineBase(OrderTransform alg, const compile::WeightEngine* weng)
      : alg_(std::move(alg)), weng_(weng) {}

  const Routing& solve(const LabeledGraph& net, int dest,
                       const Value& origin) override {
    MRT_REQUIRE(dest >= 0 && dest < net.num_nodes());
    obs::ScopedSpan span("dyn.solve", "routing");
    static obs::Histogram& solve_ns = obs::registry().histogram("dyn.solve_ns");
    obs::ScopedTimer timer(solve_ns);
    dnet_ = DynNet(net);
    dest_ = dest;
    origin_ = origin;
    bound_ = true;
    // A fresh binding opens a fresh journal stream and resets the diff
    // baseline, so the cold solve journals every route as a new attach.
    jstream_ = obs::journal_next_stream();
    jprev_valid_ = false;
    obs::jrecord(Subsystem::Dyn, EventKind::SolveBegin, jstream_, dest_, -1,
                 dnet_.num_nodes());
    if (weng_ != nullptr) {
      cnet_ = compile::CompiledNet::make(*weng_, dnet_.net());
    } else {
      cnet_ = compile::CompiledNet();
    }
    begin_stats(/*cold=*/true, 0);
    cold_solve();
    stats_.affected = dnet_.num_nodes();
    finish_stats(/*is_update=*/false);
    journal_routing_diff();
    obs::jrecord(Subsystem::Dyn, EventKind::UpdateEnd, jstream_, -1, -1,
                 -static_cast<std::int64_t>(stats_.affected),
                 dnet_.version());
    return col_.r;
  }

  const Routing& update(const TopologyDelta& delta) override {
    MRT_REQUIRE(bound_);
    obs::ScopedSpan span("dyn.update", "routing");
    static obs::Histogram& update_ns =
        obs::registry().histogram("dyn.update_ns");
    obs::ScopedTimer timer(update_ns);
    const DynNet::Applied ap = dnet_.apply(delta);
    dyn::journal_delta(jstream_, dnet_, delta, ap);
    // Delta-aware re-encoding: only the relabeled arcs' programs recompile.
    if (weng_ != nullptr) {
      for (int id : ap.relabeled_arcs) cnet_.relabel(id, dnet_.label(id));
    }
    begin_stats(/*cold=*/false, ap.changed_arcs.size());
    if (!ap.any()) {
      finish_stats(/*is_update=*/true);
      return col_.r;
    }
    if (!dyn::enabled() || !col_.converged) {
      run_cold();
    } else {
      warm_update(ap);
      // The incremental pass hit its safety cap: the masked full solve is
      // the fallback (it terminates regardless of the algebra's properties
      // on the Dijkstra engine, and caps identically on Bellman).
      if (!col_.converged) run_cold();
    }
    finish_stats(/*is_update=*/true);
    journal_routing_diff();
    obs::jrecord(Subsystem::Dyn, EventKind::UpdateEnd, jstream_, -1, -1,
                 stats_.cold ? -static_cast<std::int64_t>(stats_.affected)
                             : static_cast<std::int64_t>(stats_.affected),
                 dnet_.version());
    return col_.r;
  }

  const Routing& routing() const override { return col_.r; }
  const dyn::DynNet& net() const override { return dnet_; }
  int dest() const override { return dest_; }
  std::uint32_t journal_stream() const override { return jstream_; }
  bool converged() const override { return col_.converged; }
  const UpdateStats& last_update() const override { return stats_; }

 protected:
  /// Full solve over the current masks; sets col_.
  virtual void cold_solve() = 0;
  /// Incremental recomputation; sets col_ and stats_.affected.
  virtual void warm_update(const DynNet::Applied& ap) = 0;

  void run_cold() {
    stats_.cold = true;
    cold_solve();
    stats_.affected = dnet_.num_nodes();
  }

  bool node_ok(int v) const { return dnet_.node_up(v); }

  /// The column's view of the bound problem; per-node records go to this
  /// binding's journal stream.
  dyn::Column::Env env() const {
    return dyn::Column::Env{dnet_, alg_, dest_, origin_, jstream_};
  }

  /// Journals the routing diff against the previously published solution:
  /// one WitnessAttach per node whose (weight, witness arc) changed, one
  /// WitnessClear per node that lost its route. Diffing is the point —
  /// the canonical forest re-attaches every routed node on every update, but
  /// provenance wants "the delta after which this route last changed", so
  /// unaffected nodes must keep their older attach records. With the journal
  /// off the baseline goes stale; it is dropped so a later enable re-attaches
  /// everything instead of emitting a bogus partial diff.
  void journal_routing_diff() {
    if (!obs::journal_enabled()) {
      jprev_valid_ = false;
      return;
    }
    const int n = dnet_.num_nodes();
    const bool based =
        jprev_valid_ && jprev_weight_.size() == col_.r.weight.size();
    for (int v = 0; v < n; ++v) {
      const auto& w = col_.r.weight[static_cast<std::size_t>(v)];
      const int arc = col_.r.next_arc[static_cast<std::size_t>(v)];
      bool changed;
      if (!based) {
        changed = w.has_value();
      } else {
        const auto& pw = jprev_weight_[static_cast<std::size_t>(v)];
        changed = (w.has_value() != pw.has_value()) || (w && !(*w == *pw)) ||
                  arc != jprev_arc_[static_cast<std::size_t>(v)];
      }
      if (!changed) continue;
      if (w) {
        obs::jrecord(Subsystem::Dyn, EventKind::WitnessAttach, jstream_, v,
                     arc, 0, dnet_.version());
      } else {
        obs::jrecord(Subsystem::Dyn, EventKind::WitnessClear, jstream_, v, -1,
                     0, dnet_.version());
      }
    }
    jprev_weight_ = col_.r.weight;
    jprev_arc_ = col_.r.next_arc;
    jprev_valid_ = true;
  }

  void begin_stats(bool cold, std::size_t changed_arcs) {
    stats_ = UpdateStats{};
    stats_.cold = cold;
    stats_.total = dnet_.num_nodes();
    stats_.changed_arcs = static_cast<int>(changed_arcs);
  }

  /// `is_update` splits solve() and update() accounting: a cold bind is not
  /// a failed warm update, so dyn.updates / dyn.updates_cold / the
  /// affected-percentage histogram count update() calls only (solve() calls
  /// land in dyn.solves — they are definitionally 100%-affected and were
  /// previously polluting the warm-path ratios).
  void finish_stats(bool is_update) const {
    if (!obs::enabled()) return;
    obs::Registry& reg = obs::registry();
    if (is_update) {
      reg.counter("dyn.updates").add(1);
      if (stats_.cold) reg.counter("dyn.updates_cold").add(1);
      reg.histogram("dyn.affected_pct")
          .record(static_cast<std::uint64_t>(stats_.affected_fraction() *
                                             100));
    } else {
      reg.counter("dyn.solves").add(1);
    }
    reg.counter("dyn.affected_nodes")
        .add(static_cast<std::uint64_t>(stats_.affected));
    reg.counter("dyn.changed_arcs")
        .add(static_cast<std::uint64_t>(stats_.changed_arcs));
    reg.counter("dyn.relaxations").add(stats_.relaxations);
  }

  OrderTransform alg_;
  const compile::WeightEngine* weng_ = nullptr;
  DynNet dnet_;
  int dest_ = -1;
  Value origin_;
  bool bound_ = false;
  dyn::Column col_;  // the solution and its converged flag
  compile::CompiledNet cnet_;
  UpdateStats stats_;
  // Flight-recorder state: this binding's journal stream, and the routing
  // shadow journal_routing_diff() diffs against.
  std::uint32_t jstream_ = 0;
  std::vector<std::optional<Value>> jprev_weight_;
  std::vector<int> jprev_arc_;
  bool jprev_valid_ = false;
};

/// Generalized Dijkstra as a dynamic engine. Cold solves run the masked
/// selection loop (flat kernels when the network compiled); updates run a
/// delta-Dijkstra over the affected set only: unaffected nodes stay frozen
/// as settled seeds, and a frozen node rejoins the affected set exactly when
/// a relaxation strictly improves it (Ramalingam–Reps style). A safety cap
/// on settle operations falls back to the cold path for algebras outside
/// the ND + M license.
class DijkstraEngine final : public EngineBase {
 public:
  using EngineBase::EngineBase;

  std::unique_ptr<Solver> clone() const override {
    return std::make_unique<DijkstraEngine>(*this);
  }

 private:
  void cold_solve() override {
    const int n = dnet_.num_nodes();
    col_.r.weight.assign(static_cast<std::size_t>(n), std::nullopt);
    col_.r.next_arc.assign(static_cast<std::size_t>(n), -1);
    col_.converged = true;
    if (!node_ok(dest_)) return;
    if (!cold_flat()) cold_boxed();
    col_.rebuild(env(), stats_.relaxations);
  }

  void cold_boxed() {
    const int n = dnet_.num_nodes();
    const Digraph& g = dnet_.graph();
    const PreorderSet& ord = *alg_.ord;
    col_.r.weight[static_cast<std::size_t>(dest_)] = origin_;
    std::vector<char> settled(static_cast<std::size_t>(n), 0);
    for (;;) {
      int best = -1;
      for (int v = 0; v < n; ++v) {
        if (settled[static_cast<std::size_t>(v)] ||
            !col_.r.weight[static_cast<std::size_t>(v)]) {
          continue;
        }
        if (best < 0 ||
            lt_of(ord.cmp(*col_.r.weight[static_cast<std::size_t>(v)],
                          *col_.r.weight[static_cast<std::size_t>(best)]))) {
          best = v;
        }
      }
      if (best < 0) break;
      settled[static_cast<std::size_t>(best)] = 1;
      const Value& wb = *col_.r.weight[static_cast<std::size_t>(best)];
      for (int id : g.in_arcs(best)) {
        if (!dnet_.arc_alive(id)) continue;
        const int u = g.arc(id).src;
        if (u == best || settled[static_cast<std::size_t>(u)]) continue;
        ++stats_.relaxations;
        Value cand = alg_.fns->apply(dnet_.label(id), wb);
        auto& wu = col_.r.weight[static_cast<std::size_t>(u)];
        if (!wu || lt_of(ord.cmp(cand, *wu))) {
          wu = std::move(cand);
          col_.r.next_arc[static_cast<std::size_t>(u)] = id;
        }
      }
    }
  }

  /// Masked selection loop on flat weight words; the boxed canonicalization
  /// pass afterwards normalizes witnesses exactly as on the boxed path.
  bool cold_flat() {
    if (!cnet_.ok()) return false;
    const compile::CompiledAlgebra& ca = cnet_.algebra();
    const std::size_t stride = static_cast<std::size_t>(cnet_.words());
    std::vector<std::uint64_t> origin_w(stride, 0);
    if (!ca.encode(origin_, origin_w.data())) return false;

    const int n = dnet_.num_nodes();
    const Digraph& g = dnet_.graph();
    std::vector<std::uint64_t> w(static_cast<std::size_t>(n) * stride, 0);
    std::vector<std::uint8_t> present(static_cast<std::size_t>(n), 0);
    std::vector<char> settled(static_cast<std::size_t>(n), 0);
    auto wp = [&](int v) {
      return w.data() + static_cast<std::size_t>(v) * stride;
    };
    for (std::size_t k = 0; k < stride; ++k) wp(dest_)[k] = origin_w[k];
    present[static_cast<std::size_t>(dest_)] = 1;

    std::vector<std::uint64_t> cand(stride);
    for (;;) {
      int best = -1;
      for (int v = 0; v < n; ++v) {
        if (settled[static_cast<std::size_t>(v)] ||
            !present[static_cast<std::size_t>(v)]) {
          continue;
        }
        if (best < 0 || lt_of(ca.compare(wp(v), wp(best)))) best = v;
      }
      if (best < 0) break;
      settled[static_cast<std::size_t>(best)] = 1;
      for (int id : g.in_arcs(best)) {
        if (!dnet_.arc_alive(id)) continue;
        const int u = g.arc(id).src;
        if (u == best || settled[static_cast<std::size_t>(u)]) continue;
        ++stats_.relaxations;
        for (std::size_t k = 0; k < stride; ++k) cand[k] = wp(best)[k];
        ca.apply(cnet_.label(id), cand.data());
        if (!present[static_cast<std::size_t>(u)] ||
            lt_of(ca.compare(cand.data(), wp(u)))) {
          for (std::size_t k = 0; k < stride; ++k) wp(u)[k] = cand[k];
          present[static_cast<std::size_t>(u)] = 1;
          col_.r.next_arc[static_cast<std::size_t>(u)] = id;
        }
      }
    }
    for (int v = 0; v < n; ++v) {
      if (present[static_cast<std::size_t>(v)]) {
        col_.r.weight[static_cast<std::size_t>(v)] = ca.decode(wp(v));
      }
    }
    return true;
  }

  void warm_update(const DynNet::Applied& ap) override {
    const dyn::Column::Env e = env();
    std::vector<int> affected =
        dyn::Column::seeds(e, ap, col_.invalidate(e, ap));
    const int n = dnet_.num_nodes();
    const Digraph& g = dnet_.graph();
    const PreorderSet& ord = *alg_.ord;

    std::vector<char> in_a(static_cast<std::size_t>(n), 0);
    std::vector<char> settled(static_cast<std::size_t>(n), 1);
    for (int u : affected) {
      in_a[static_cast<std::size_t>(u)] = 1;
      settled[static_cast<std::size_t>(u)] = 0;
    }
    // Initial candidates from the frozen region only; routes via other
    // affected nodes arrive as those settle.
    for (int u : affected) {
      if (u == dest_) {
        col_.r.weight[static_cast<std::size_t>(u)] = origin_;
        col_.r.next_arc[static_cast<std::size_t>(u)] = -1;
        continue;
      }
      std::optional<Value> best;
      int best_arc = -1;
      for (int id : g.out_arcs(u)) {
        if (!dnet_.arc_alive(id)) continue;
        const int v = g.arc(id).dst;
        if (v == u || in_a[static_cast<std::size_t>(v)]) continue;
        const auto& wv = col_.r.weight[static_cast<std::size_t>(v)];
        if (!wv) continue;
        ++stats_.relaxations;
        Value cand = alg_.fns->apply(dnet_.label(id), *wv);
        if (!best || lt_of(ord.cmp(cand, *best))) {
          best = std::move(cand);
          best_arc = id;
        }
      }
      col_.r.weight[static_cast<std::size_t>(u)] = std::move(best);
      col_.r.next_arc[static_cast<std::size_t>(u)] = best_arc;
    }

    // Worst case re-settles every node a few times; beyond that something
    // is outside the license (non-ND improvement cycles) and the masked
    // full solve is both safer and faster.
    const std::uint64_t settle_cap = 4ull * static_cast<std::uint64_t>(n) + 16;
    std::uint64_t settles = 0;
    for (;;) {
      int best = -1;
      for (int v : affected) {
        if (settled[static_cast<std::size_t>(v)] ||
            !col_.r.weight[static_cast<std::size_t>(v)]) {
          continue;
        }
        if (best < 0 ||
            lt_of(ord.cmp(*col_.r.weight[static_cast<std::size_t>(v)],
                          *col_.r.weight[static_cast<std::size_t>(best)]))) {
          best = v;
        }
      }
      if (best < 0) break;
      if (++settles > settle_cap) {
        col_.converged = false;
        return;
      }
      settled[static_cast<std::size_t>(best)] = 1;
      obs::jrecord(Subsystem::Dyn, EventKind::RelaxSettle, jstream_, best,
                   col_.r.next_arc[static_cast<std::size_t>(best)],
                   static_cast<std::int64_t>(settles), dnet_.version());
      const Value wb = *col_.r.weight[static_cast<std::size_t>(best)];
      for (int id : g.in_arcs(best)) {
        if (!dnet_.arc_alive(id)) continue;
        const int u = g.arc(id).src;
        if (u == best || u == dest_) continue;
        ++stats_.relaxations;
        Value cand = alg_.fns->apply(dnet_.label(id), wb);
        auto& wu = col_.r.weight[static_cast<std::size_t>(u)];
        if (!wu || lt_of(ord.cmp(cand, *wu))) {
          wu = std::move(cand);
          col_.r.next_arc[static_cast<std::size_t>(u)] = id;
          // A strict improvement into the frozen region unsettles the node:
          // it joins the affected set and re-relaxes its own in-arcs.
          settled[static_cast<std::size_t>(u)] = 0;
          if (!in_a[static_cast<std::size_t>(u)]) {
            in_a[static_cast<std::size_t>(u)] = 1;
            affected.push_back(u);
          }
        }
      }
    }
    col_.converged = true;
    col_.rebuild(env(), stats_.relaxations);
    stats_.affected = static_cast<int>(affected.size());
  }
};

/// Synchronous Bellman–Ford as a dynamic engine: a worklist of active nodes
/// recomputes each one's best extension from scratch and activates the
/// tails of its in-arcs on change. The cold path seeds {dest}; the warm
/// path seeds the invalidated frontier plus touched arc tails. Caps at
/// dyn::kMaxRounds, the same round budget as the one-shot bellman_sync.
class BellmanEngine final : public EngineBase {
 public:
  using EngineBase::EngineBase;

  std::unique_ptr<Solver> clone() const override {
    return std::make_unique<BellmanEngine>(*this);
  }

 private:
  void cold_solve() override { col_.solve(env(), stats_.relaxations); }

  void warm_update(const DynNet::Applied& ap) override {
    const int touched = col_.warm(env(), ap, stats_.relaxations);
    if (col_.converged) stats_.affected = touched;
  }
};

}  // namespace

namespace dyn {

std::unique_ptr<Solver> make_solver(EngineKind kind, const OrderTransform& alg,
                                    const compile::WeightEngine* engine) {
  switch (kind) {
    case EngineKind::Bellman:
      return std::make_unique<BellmanEngine>(alg, engine);
    case EngineKind::Dijkstra:
      break;
  }
  return std::make_unique<DijkstraEngine>(alg, engine);
}

}  // namespace dyn
}  // namespace mrt
