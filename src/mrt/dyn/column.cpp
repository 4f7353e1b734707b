#include "mrt/dyn/column.hpp"

#include <optional>
#include <utility>

#include "mrt/obs/obs.hpp"

namespace mrt::dyn {

using obs::EventKind;
using obs::Subsystem;

namespace {

/// Per-thread scratch of the column steps. Byte arrays are all-zero between
/// uses (every step clears the bytes it set), so columns on one thread
/// reuse them without an O(n) wipe; columns on one thread never nest.
struct ColumnScratch {
  std::vector<std::uint8_t> mark;     // invalidate: killed; relax: touched
  std::vector<int> marked;            // nodes holding mark bytes
  std::vector<int> stack;
  std::vector<int> frontier;
  std::vector<std::uint64_t> nextb;   // next-round frontier as a node bitset

  void ensure(int n) {
    const std::size_t nn = static_cast<std::size_t>(n);
    if (mark.size() < nn) mark.assign(nn, 0);
    const std::size_t nwords = (nn + 63) / 64;
    if (nextb.size() < nwords) nextb.assign(nwords, 0);
  }
};

ColumnScratch& column_scratch() {
  thread_local ColumnScratch s;
  return s;
}

/// canonical_forest's lane over a boxed Routing.
struct BoxedLane {
  Routing& r;
  const Column::Env& e;

  bool routed(int v) const {
    return r.weight[static_cast<std::size_t>(v)].has_value();
  }
  void attach_origin(int v) {
    r.weight[static_cast<std::size_t>(v)] = e.origin;
    r.next_arc[static_cast<std::size_t>(v)] = -1;
  }
  bool attach_if_equiv(int u, int arc, int h) {
    Value c = e.alg.fns->apply(e.net.label(arc),
                               *r.weight[static_cast<std::size_t>(h)]);
    if (!equiv_of(e.alg.ord->cmp(c, *r.weight[static_cast<std::size_t>(u)]))) {
      return false;
    }
    // Normalized weight = the value actually achieved along the witness
    // (identical for antisymmetric algebras).
    r.weight[static_cast<std::size_t>(u)] = std::move(c);
    r.next_arc[static_cast<std::size_t>(u)] = arc;
    return true;
  }
  void clear(int v) {
    r.weight[static_cast<std::size_t>(v)] = std::nullopt;
    r.next_arc[static_cast<std::size_t>(v)] = -1;
  }
};

}  // namespace

ForestScratch& forest_scratch() {
  thread_local ForestScratch s;
  return s;
}

void Column::solve(const Env& e, std::uint64_t& relaxations) {
  const std::size_t n = static_cast<std::size_t>(e.net.num_nodes());
  r.weight.assign(n, std::nullopt);
  r.next_arc.assign(n, -1);
  converged = true;
  if (!e.net.node_up(e.dest)) return;
  converged = relax(e, {e.dest}, nullptr, relaxations);
  if (converged) rebuild(e, relaxations);
}

int Column::warm(const Env& e, const DynNet::Applied& ap,
                 std::uint64_t& relaxations) {
  const std::vector<int> invalid = invalidate(e, ap);
  int touched = 0;
  converged = relax(e, seeds(e, ap, invalid), &touched, relaxations);
  if (converged) rebuild(e, relaxations);
  return touched;
}

std::vector<int> Column::invalidate(const Env& e, const DynNet::Applied& ap) {
  const Digraph& g = e.net.graph();
  const CsrAdjacency& in = g.csr_in();
  ColumnScratch& s = column_scratch();
  s.ensure(e.net.num_nodes());
  s.marked.clear();
  s.stack.clear();
  auto kill = [&](int v) {
    if (!s.mark[static_cast<std::size_t>(v)]) {
      s.mark[static_cast<std::size_t>(v)] = 1;
      s.marked.push_back(v);
      s.stack.push_back(v);
    }
  };
  for (int v : ap.nodes_down) kill(v);
  // A changed arc that is someone's witness either died or was relabeled
  // (an arc that *came up* cannot have been a witness), so the route's
  // stored value is no longer trustworthy either way.
  for (int id : ap.changed_arcs) {
    const int u = g.arc(id).src;
    if (r.next_arc[static_cast<std::size_t>(u)] == id) kill(u);
  }
  while (!s.stack.empty()) {
    const int v = s.stack.back();
    s.stack.pop_back();
    for (int k = in.begin(v); k < in.end(v); ++k) {
      const int u = in.head[static_cast<std::size_t>(k)];
      if (r.next_arc[static_cast<std::size_t>(u)] ==
          in.arc[static_cast<std::size_t>(k)]) {
        kill(u);
      }
    }
  }
  std::vector<int> out = s.marked;
  std::sort(out.begin(), out.end());
  for (int v : out) {
    s.mark[static_cast<std::size_t>(v)] = 0;
    if (e.jstream != 0) {
      obs::jrecord(Subsystem::Dyn, EventKind::WitnessInvalidate, e.jstream, v,
                   r.next_arc[static_cast<std::size_t>(v)], 0,
                   e.net.version());
    }
    r.weight[static_cast<std::size_t>(v)] = std::nullopt;
    r.next_arc[static_cast<std::size_t>(v)] = -1;
  }
  return out;
}

std::vector<int> Column::seeds(const Env& e, const DynNet::Applied& ap,
                               const std::vector<int>& invalid) {
  std::vector<int> out = invalid;
  const Digraph& g = e.net.graph();
  for (int id : ap.changed_arcs) out.push_back(g.arc(id).src);
  for (int v : ap.nodes_up) out.push_back(v);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](int v) { return !e.net.node_up(v); }),
            out.end());
  return out;
}

bool Column::relax(const Env& e, const std::vector<int>& seeds, int* touched,
                   std::uint64_t& relaxations) {
  const DynNet& net = e.net;
  const Digraph& g = net.graph();
  const CsrAdjacency& out = g.csr_out();
  const CsrAdjacency& in = g.csr_in();
  const std::uint8_t* alive = net.alive().data();
  const FunctionFamily& fns = *e.alg.fns;
  const PreorderSet& ord = *e.alg.ord;
  const int n = net.num_nodes();
  ColumnScratch& s = column_scratch();
  s.ensure(n);
  const std::size_t nwords = (static_cast<std::size_t>(n) + 63) / 64;
  auto activate = [&](int x) {
    if (net.node_up(x)) {
      s.nextb[static_cast<std::size_t>(x) >> 6] |= std::uint64_t{1} << (x & 63);
    }
  };
  for (int u : seeds) activate(u);
  s.marked.clear();
  bool ok = true;
  int rounds = 0;
  for (;;) {
    // Drain the next-round bitset in word order: set bits come out
    // ascending, the Gauss–Seidel order, and the bitset is left all-zero.
    s.frontier.clear();
    for (std::size_t wi = 0; wi < nwords; ++wi) {
      for (std::uint64_t w = s.nextb[wi]; w != 0; w &= w - 1) {
        s.frontier.push_back(
            static_cast<int>((wi << 6) + __builtin_ctzll(w)));
      }
      s.nextb[wi] = 0;
    }
    if (s.frontier.empty()) break;
    if (++rounds > kMaxRounds) {
      ok = false;
      break;
    }
    if (e.jstream != 0) {
      obs::jrecord(Subsystem::Dyn, EventKind::RelaxWave, e.jstream, -1, -1,
                   static_cast<std::int64_t>(s.frontier.size()),
                   net.version());
    }
    for (int u : s.frontier) {
      if (!s.mark[static_cast<std::size_t>(u)]) {
        s.mark[static_cast<std::size_t>(u)] = 1;
        s.marked.push_back(u);
      }
      bool changed = false;
      auto& wu = r.weight[static_cast<std::size_t>(u)];
      if (u == e.dest) {
        changed = !wu || !(*wu == e.origin);
        if (changed) {
          wu = e.origin;
          r.next_arc[static_cast<std::size_t>(u)] = -1;
        }
      } else {
        std::optional<Value> best;
        int best_arc = -1;
        for (int k = out.begin(u); k < out.end(u); ++k) {
          const int id = out.arc[static_cast<std::size_t>(k)];
          if (!alive[id]) continue;
          const int v = out.head[static_cast<std::size_t>(k)];
          if (v == u) continue;
          const auto& wv = r.weight[static_cast<std::size_t>(v)];
          if (!wv) continue;
          ++relaxations;
          Value c = fns.apply(net.label(id), *wv);
          if (!best || lt_of(ord.cmp(c, *best))) {
            best = std::move(c);
            best_arc = id;
          }
        }
        changed = (best.has_value() != wu.has_value()) ||
                  (best && !(*best == *wu));
        if (changed) {
          wu = std::move(best);
          r.next_arc[static_cast<std::size_t>(u)] = best_arc;
        }
      }
      if (changed) {
        for (int k = in.begin(u); k < in.end(u); ++k) {
          activate(in.head[static_cast<std::size_t>(k)]);
        }
      }
    }
  }
  if (ok && touched != nullptr) *touched = static_cast<int>(s.marked.size());
  for (int v : s.marked) s.mark[static_cast<std::size_t>(v)] = 0;
  return ok;
}

void Column::rebuild(const Env& e, std::uint64_t& relaxations) {
  BoxedLane lane{r, e};
  canonical_forest(e.net, e.dest, lane, relaxations);
}

void journal_delta(std::uint32_t stream, const DynNet& net,
                   const TopologyDelta& delta, const DynNet::Applied& ap) {
  if (!obs::journal_enabled()) return;
  obs::jrecord(Subsystem::Dyn, EventKind::UpdateBegin, stream, -1, -1,
               static_cast<std::int64_t>(delta.ops.size()), net.version());
  for (int id : ap.changed_arcs) {
    const bool relabeled = std::binary_search(ap.relabeled_arcs.begin(),
                                              ap.relabeled_arcs.end(), id);
    obs::jrecord(Subsystem::Dyn,
                 relabeled ? EventKind::DeltaRelabel : EventKind::DeltaArc,
                 stream, net.graph().arc(id).src, id,
                 net.arc_alive(id) ? 1 : 0, net.version());
  }
  for (int v : ap.nodes_down) {
    obs::jrecord(Subsystem::Dyn, EventKind::DeltaNodeDown, stream, v, -1, 0,
                 net.version());
  }
  for (int v : ap.nodes_up) {
    obs::jrecord(Subsystem::Dyn, EventKind::DeltaNodeUp, stream, v, -1, 0,
                 net.version());
  }
}

}  // namespace mrt::dyn
