#include "mrt/dyn/delta.hpp"

#include <algorithm>
#include <utility>

#include "mrt/support/require.hpp"

namespace mrt::dyn {

std::string DeltaOp::describe() const {
  switch (kind) {
    case Kind::ArcDown:
      return "arc_down(" + std::to_string(arc) + ")";
    case Kind::ArcUp:
      return "arc_up(" + std::to_string(arc) + ")";
    case Kind::Relabel:
      return "relabel(" + std::to_string(arc) + ", " + label.to_string() + ")";
    case Kind::NodeDown:
      return "node_down(" + std::to_string(node) + ")";
    case Kind::NodeUp:
      return "node_up(" + std::to_string(node) + ")";
  }
  return "?";
}

TopologyDelta& TopologyDelta::arc_down(int arc) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::ArcDown;
  op.arc = arc;
  ops.push_back(std::move(op));
  return *this;
}

TopologyDelta& TopologyDelta::arc_up(int arc) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::ArcUp;
  op.arc = arc;
  ops.push_back(std::move(op));
  return *this;
}

TopologyDelta& TopologyDelta::relabel(int arc, Value label) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::Relabel;
  op.arc = arc;
  op.label = std::move(label);
  ops.push_back(std::move(op));
  return *this;
}

TopologyDelta& TopologyDelta::node_down(int node) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::NodeDown;
  op.node = node;
  ops.push_back(std::move(op));
  return *this;
}

TopologyDelta& TopologyDelta::node_up(int node) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::NodeUp;
  op.node = node;
  ops.push_back(std::move(op));
  return *this;
}

TopologyDelta TopologyDelta::to_state(const std::vector<bool>& arc_admin_up,
                                      const std::vector<bool>& node_up) {
  TopologyDelta d;
  for (std::size_t a = 0; a < arc_admin_up.size(); ++a) {
    if (!arc_admin_up[a]) d.arc_down(static_cast<int>(a));
  }
  for (std::size_t v = 0; v < node_up.size(); ++v) {
    if (!node_up[v]) d.node_down(static_cast<int>(v));
  }
  return d;
}

std::string TopologyDelta::describe() const {
  std::string out = "[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) out += ", ";
    out += ops[i].describe();
  }
  out += "]";
  return out;
}

DynNet::DynNet(LabeledGraph net) : net_(std::move(net)) {
  const int narcs = net_.graph().num_arcs();
  arc_up_.assign(static_cast<std::size_t>(narcs), true);
  node_up_.assign(static_cast<std::size_t>(net_.num_nodes()), true);
  alive_.assign(static_cast<std::size_t>(narcs), 1);
}

bool DynNet::compute_alive(int arc) const {
  if (!arc_up_[static_cast<std::size_t>(arc)]) return false;
  const Arc& a = net_.graph().arc(arc);
  return node_up_[static_cast<std::size_t>(a.src)] &&
         node_up_[static_cast<std::size_t>(a.dst)];
}

DynNet::Applied DynNet::apply(const TopologyDelta& delta) {
  const int narcs = net_.graph().num_arcs();
  const Digraph& g = net_.graph();
  // Validate-then-apply, in one read-only pass before any mutation: range
  // checks, plus the pre-batch state the net-effect diff below compares
  // against. Only arcs an op names — directly, or as an incident arc of a
  // named node — can change, so the diff never scans all m arcs.
  std::vector<int> cand;                            // arcs that may change
  std::vector<std::pair<int, bool>> node_before;    // named nodes
  std::vector<std::pair<int, Value>> label_before;  // relabeled arcs
  for (const DeltaOp& op : delta.ops) {
    switch (op.kind) {
      case DeltaOp::Kind::ArcDown:
      case DeltaOp::Kind::ArcUp:
      case DeltaOp::Kind::Relabel:
        MRT_REQUIRE(op.arc >= 0 && op.arc < narcs);
        cand.push_back(op.arc);
        if (op.kind == DeltaOp::Kind::Relabel) {
          label_before.emplace_back(op.arc, net_.label(op.arc));
        }
        break;
      case DeltaOp::Kind::NodeDown:
      case DeltaOp::Kind::NodeUp:
        MRT_REQUIRE(op.node >= 0 && op.node < num_nodes());
        node_before.emplace_back(op.node,
                                 node_up_[static_cast<std::size_t>(op.node)]);
        for (int id : g.out_arcs(op.node)) cand.push_back(id);
        for (int id : g.in_arcs(op.node)) cand.push_back(id);
        break;
    }
  }
  for (const DeltaOp& op : delta.ops) {
    switch (op.kind) {
      case DeltaOp::Kind::ArcDown:
        arc_up_[static_cast<std::size_t>(op.arc)] = false;
        break;
      case DeltaOp::Kind::ArcUp:
        arc_up_[static_cast<std::size_t>(op.arc)] = true;
        break;
      case DeltaOp::Kind::Relabel:
        net_.relabel(op.arc, op.label);
        break;
      case DeltaOp::Kind::NodeDown:
        node_up_[static_cast<std::size_t>(op.node)] = false;
        break;
      case DeltaOp::Kind::NodeUp:
        node_up_[static_cast<std::size_t>(op.node)] = true;
        break;
    }
  }
  ++version_;
  // Snapshot-and-diff: a batch reports its *net* effect, so an arc or node
  // that flaps down-then-up inside one batch (common in replayed simulator
  // event streams) produces no spurious invalidation work downstream.
  Applied out;
  auto by_first = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  auto same_first = [](const auto& a, const auto& b) {
    return a.first == b.first;
  };
  std::stable_sort(label_before.begin(), label_before.end(), by_first);
  label_before.erase(
      std::unique(label_before.begin(), label_before.end(), same_first),
      label_before.end());
  for (const auto& [id, old_label] : label_before) {
    if (!(net_.label(id) == old_label)) out.relabeled_arcs.push_back(id);
  }
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  for (int id : cand) {
    const bool relabeled = std::binary_search(
        out.relabeled_arcs.begin(), out.relabeled_arcs.end(), id);
    const bool alive_now = compute_alive(id);
    // A relabel of a dead arc changes no reachable route: the new label is
    // reported in relabeled_arcs (consumers re-encode their compiled label
    // programs from it), but the arc only enters changed_arcs — and thus
    // seeds witness invalidation — once it is actually alive. When it later
    // comes up, the alive transition puts it in changed_arcs then.
    if (alive_now != arc_alive(id) || (relabeled && alive_now)) {
      out.changed_arcs.push_back(id);
      alive_[static_cast<std::size_t>(id)] = alive_now ? 1 : 0;
    }
  }
  std::sort(node_before.begin(), node_before.end(), by_first);
  node_before.erase(
      std::unique(node_before.begin(), node_before.end(), same_first),
      node_before.end());
  for (const auto& [v, was] : node_before) {
    const bool now = node_up_[static_cast<std::size_t>(v)];
    if (was && !now) out.nodes_down.push_back(v);
    if (!was && now) out.nodes_up.push_back(v);
  }
  return out;
}

}  // namespace mrt::dyn
