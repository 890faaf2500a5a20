#include "analysis/symbolic/dd.hpp"

#include <algorithm>
#include <limits>

#include "util/contract.hpp"

namespace maton::analysis::symbolic {
namespace {

/// Sentinel ordering variable of leaves: after every real variable.
constexpr std::uint32_t kLeafVar = std::numeric_limits<std::uint32_t>::max();

/// Operator tags for the shared memo table.
enum OpTag : std::uint32_t {
  kOpAnd = 1,
  kOpOr = 2,
  kOpIte = 4,
  kOpOverlay = 5,
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

DiagramStore::DiagramStore(std::size_t max_nodes) : max_nodes_(max_nodes) {
  expects(max_nodes_ >= 2, "DiagramStore: budget too small for leaves");
  nodes_.reserve(std::min<std::size_t>(max_nodes_, 1u << 16));
  false_ = leaf(0);
  true_ = leaf(1);
}

NodeId DiagramStore::leaf(std::uint64_t payload) {
  Node n;
  n.kind = Kind::kLeaf;
  n.var = kLeafVar;
  n.payload = payload;
  return intern(std::move(n));
}

bool DiagramStore::is_leaf(NodeId id) const noexcept {
  return nodes_[id].kind == Kind::kLeaf;
}

NodeId DiagramStore::bit_node(std::uint32_t var, NodeId lo, NodeId hi) {
  if (lo == hi) return lo;
  expects(var < var_of(lo) && var < var_of(hi),
          "bit_node: children must branch on larger vars");
  Node n;
  n.kind = Kind::kBit;
  n.var = var;
  n.lo = lo;
  n.hi = hi;
  return intern(std::move(n));
}

NodeId DiagramStore::value_node(
    std::uint32_t var, std::vector<std::pair<std::uint64_t, NodeId>> edges,
    NodeId def) {
  std::erase_if(edges, [def](const auto& e) { return e.second == def; });
  if (edges.empty()) return def;
  expects(std::is_sorted(edges.begin(), edges.end(),
                         [](const auto& a, const auto& b) {
                           return a.first < b.first;
                         }),
          "value_node: edges must be sorted by value");
  expects(var < var_of(def), "value_node: default must branch on larger var");
  Node n;
  n.kind = Kind::kValue;
  n.var = var;
  n.lo = def;
  n.edges_begin = static_cast<std::uint32_t>(edge_pool_.size());
  n.edges_count = static_cast<std::uint32_t>(edges.size());
  for (const auto& e : edges) {
    expects(var < var_of(e.second),
            "value_node: children must branch on larger vars");
    edge_pool_.push_back(e);
  }
  const std::size_t before = nodes_.size();
  const NodeId id = intern(std::move(n));
  if (nodes_.size() == before) {
    edge_pool_.resize(edge_pool_.size() - edges.size());  // duplicate node
  }
  return id;
}

NodeId DiagramStore::cube(std::span<const CubeBit> bits) {
  NodeId acc = true_;
  for (std::size_t i = bits.size(); i-- > 0;) {
    const auto& b = bits[i];
    acc = b.one ? bit_node(b.var, false_, acc) : bit_node(b.var, acc, false_);
  }
  return acc;
}

NodeId DiagramStore::value_cube(std::span<const CubeValue> values) {
  NodeId acc = true_;
  for (std::size_t i = values.size(); i-- > 0;) {
    acc = value_node(values[i].var, {{values[i].value, acc}}, false_);
  }
  return acc;
}

NodeId DiagramStore::b_and(NodeId a, NodeId b) { return apply_bool(a, b, true); }
NodeId DiagramStore::b_or(NodeId a, NodeId b) { return apply_bool(a, b, false); }

NodeId DiagramStore::apply_bool(NodeId a, NodeId b, bool is_and) {
  if (a == b) return a;
  if (is_and) {
    if (a == false_ || b == false_) return false_;
    if (a == true_) return b;
    if (b == true_) return a;
  } else {
    if (a == true_ || b == true_) return true_;
    if (a == false_) return b;
    if (b == false_) return a;
  }
  expects(!is_leaf(a) && !is_leaf(b),
          "boolean operator over non-boolean leaves");
  const OpKey key{is_and ? kOpAnd : kOpOr, std::min(a, b), std::max(a, b), 0};
  ++stats_.memo_lookups;
  if (const auto it = op_memo_.find(key); it != op_memo_.end()) {
    ++stats_.memo_hits;
    return it->second;
  }
  const std::uint32_t var = std::min(var_of(a), var_of(b));
  const Kind kind =
      var_of(a) == var ? nodes_[a].kind : nodes_[b].kind;
  NodeId result = kInvalidNode;
  if (kind == Kind::kBit) {
    const NodeId lo = apply_bool(cofactor(a, var, 0, false),
                                 cofactor(b, var, 0, false), is_and);
    const NodeId hi = apply_bool(cofactor(a, var, 1, false),
                                 cofactor(b, var, 1, false), is_and);
    result = bit_node(var, lo, hi);
  } else {
    const NodeId def = apply_bool(cofactor(a, var, 0, true),
                                  cofactor(b, var, 0, true), is_and);
    std::vector<std::pair<std::uint64_t, NodeId>> edges;
    for (const std::uint64_t v : branch_values({a, b}, var)) {
      edges.emplace_back(v, apply_bool(cofactor(a, var, v, false),
                                       cofactor(b, var, v, false), is_and));
    }
    result = value_node(var, std::move(edges), def);
  }
  op_memo_.emplace(key, result);
  return result;
}

NodeId DiagramStore::ite(NodeId p, NodeId t, NodeId e) {
  if (p == true_) return t;
  if (p == false_) return e;
  if (t == e) return t;
  expects(!is_leaf(p), "ite predicate must be boolean");
  const OpKey key{kOpIte, p, t, e};
  ++stats_.memo_lookups;
  if (const auto it = op_memo_.find(key); it != op_memo_.end()) {
    ++stats_.memo_hits;
    return it->second;
  }
  const std::uint32_t var =
      std::min({var_of(p), var_of(t), var_of(e)});
  Kind kind = Kind::kLeaf;
  for (const NodeId id : {p, t, e}) {
    if (var_of(id) == var) {
      kind = nodes_[id].kind;
      break;
    }
  }
  NodeId result = kInvalidNode;
  if (kind == Kind::kBit) {
    const NodeId lo =
        ite(cofactor(p, var, 0, false), cofactor(t, var, 0, false),
            cofactor(e, var, 0, false));
    const NodeId hi =
        ite(cofactor(p, var, 1, false), cofactor(t, var, 1, false),
            cofactor(e, var, 1, false));
    result = bit_node(var, lo, hi);
  } else {
    const NodeId def =
        ite(cofactor(p, var, 0, true), cofactor(t, var, 0, true),
            cofactor(e, var, 0, true));
    std::vector<std::pair<std::uint64_t, NodeId>> edges;
    for (const std::uint64_t v : branch_values({p, t, e}, var)) {
      edges.emplace_back(
          v, ite(cofactor(p, var, v, false), cofactor(t, var, v, false),
                 cofactor(e, var, v, false)));
    }
    result = value_node(var, std::move(edges), def);
  }
  op_memo_.emplace(key, result);
  return result;
}

NodeId DiagramStore::overlay_first(NodeId a, NodeId b, NodeId identity) {
  if (a == identity) return b;
  if (b == identity || a == b) return a;
  if (is_leaf(a)) return a;  // total on this region: left wins
  const OpKey key{kOpOverlay, a, b, identity};
  ++stats_.memo_lookups;
  if (const auto it = op_memo_.find(key); it != op_memo_.end()) {
    ++stats_.memo_hits;
    return it->second;
  }
  const std::uint32_t var = std::min(var_of(a), var_of(b));
  const Kind kind = var_of(a) == var ? nodes_[a].kind : nodes_[b].kind;
  NodeId result = kInvalidNode;
  if (kind == Kind::kBit) {
    const NodeId lo = overlay_first(cofactor(a, var, 0, false),
                                    cofactor(b, var, 0, false), identity);
    const NodeId hi = overlay_first(cofactor(a, var, 1, false),
                                    cofactor(b, var, 1, false), identity);
    result = bit_node(var, lo, hi);
  } else {
    const NodeId def = overlay_first(cofactor(a, var, 0, true),
                                     cofactor(b, var, 0, true), identity);
    std::vector<std::pair<std::uint64_t, NodeId>> edges;
    for (const std::uint64_t v : branch_values({a, b}, var)) {
      edges.emplace_back(
          v, overlay_first(cofactor(a, var, v, false),
                           cofactor(b, var, v, false), identity));
    }
    result = value_node(var, std::move(edges), def);
  }
  op_memo_.emplace(key, result);
  return result;
}

NodeId DiagramStore::map_leaves(
    NodeId root, const std::function<std::uint64_t(std::uint64_t)>& fn) {
  std::unordered_map<NodeId, NodeId> memo;
  const std::function<NodeId(NodeId)> go = [&](NodeId id) -> NodeId {
    if (const auto it = memo.find(id); it != memo.end()) return it->second;
    const Node& n = nodes_[id];
    NodeId result = kInvalidNode;
    if (n.kind == Kind::kLeaf) {
      result = leaf(fn(n.payload));
    } else if (n.kind == Kind::kBit) {
      result = bit_node(n.var, go(n.lo), go(n.hi));
    } else {
      const NodeId def = go(n.lo);
      std::vector<std::pair<std::uint64_t, NodeId>> edges;
      for (const auto& e : edges_of(n)) {
        edges.emplace_back(e.first, go(e.second));
      }
      result = value_node(n.var, std::move(edges), def);
    }
    memo.emplace(id, result);
    return result;
  };
  return go(root);
}

NodeId DiagramStore::restrict_with(
    NodeId root,
    const std::function<std::optional<std::uint64_t>(std::uint32_t)>& fixed) {
  std::unordered_map<NodeId, NodeId> memo;
  const std::function<NodeId(NodeId)> go = [&](NodeId id) -> NodeId {
    const Node& n = nodes_[id];
    if (n.kind == Kind::kLeaf) return id;
    if (const auto it = memo.find(id); it != memo.end()) return it->second;
    NodeId result = kInvalidNode;
    if (const std::optional<std::uint64_t> v = fixed(n.var)) {
      result = go(cofactor(id, n.var, *v, false));
    } else if (n.kind == Kind::kBit) {
      result = bit_node(n.var, go(n.lo), go(n.hi));
    } else {
      const NodeId def = go(n.lo);
      std::vector<std::pair<std::uint64_t, NodeId>> edges;
      for (const auto& e : edges_of(n)) {
        edges.emplace_back(e.first, go(e.second));
      }
      result = value_node(n.var, std::move(edges), def);
    }
    memo.emplace(id, result);
    return result;
  };
  return go(root);
}

NodeId DiagramStore::restrict_default(
    NodeId root, const std::function<bool(std::uint32_t)>& select) {
  std::unordered_map<NodeId, NodeId> memo;
  const std::function<NodeId(NodeId)> go = [&](NodeId id) -> NodeId {
    const Node& n = nodes_[id];
    if (n.kind == Kind::kLeaf) return id;
    if (const auto it = memo.find(id); it != memo.end()) return it->second;
    NodeId result = kInvalidNode;
    if (select(n.var)) {
      expects(n.kind == Kind::kValue,
              "restrict_default selected a bit variable");
      result = go(n.lo);
    } else if (n.kind == Kind::kBit) {
      result = bit_node(n.var, go(n.lo), go(n.hi));
    } else {
      const NodeId def = go(n.lo);
      std::vector<std::pair<std::uint64_t, NodeId>> edges;
      for (const auto& e : edges_of(n)) {
        edges.emplace_back(e.first, go(e.second));
      }
      result = value_node(n.var, std::move(edges), def);
    }
    memo.emplace(id, result);
    return result;
  };
  return go(root);
}

std::optional<DiagramStore::Divergence> DiagramStore::first_divergence(
    NodeId a, NodeId b) {
  if (a == b) return std::nullopt;
  Divergence out;
  std::vector<PathStep> path;
  const bool found = find_divergence(a, b, path, out);
  ensures(found, "canonical diagrams differ but no divergence found");
  return out;
}

bool DiagramStore::find_divergence(NodeId a, NodeId b,
                                   std::vector<PathStep>& path,
                                   Divergence& out) {
  if (a == b) return false;
  if (is_leaf(a) && is_leaf(b)) {
    out.path = path;
    out.left = nodes_[a].payload;
    out.right = nodes_[b].payload;
    return true;
  }
  const std::uint32_t var = std::min(var_of(a), var_of(b));
  const Kind kind = var_of(a) == var ? nodes_[a].kind : nodes_[b].kind;
  if (kind == Kind::kBit) {
    for (const std::uint64_t bit : {std::uint64_t{0}, std::uint64_t{1}}) {
      path.push_back({var, bit, false});
      if (find_divergence(cofactor(a, var, bit, false),
                          cofactor(b, var, bit, false), path, out)) {
        return true;
      }
      path.pop_back();
    }
    return false;
  }
  for (const std::uint64_t v : branch_values({a, b}, var)) {
    path.push_back({var, v, false});
    if (find_divergence(cofactor(a, var, v, false),
                        cofactor(b, var, v, false), path, out)) {
      return true;
    }
    path.pop_back();
  }
  path.push_back({var, kDefaultBranch, true});
  if (find_divergence(cofactor(a, var, 0, true), cofactor(b, var, 0, true),
                      path, out)) {
    return true;
  }
  path.pop_back();
  return false;
}

std::optional<std::uint64_t> DiagramStore::max_edge_value(
    NodeId root, std::uint32_t var) const {
  std::optional<std::uint64_t> best;
  std::vector<NodeId> stack{root};
  std::unordered_map<NodeId, bool> seen;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (seen.contains(id)) continue;
    seen.emplace(id, true);
    const Node& n = nodes_[id];
    if (n.kind == Kind::kLeaf || n.var > var) continue;  // children larger
    if (n.kind == Kind::kValue && n.var == var) {
      for (const auto& e : edges_of(n)) {
        if (!best || e.first > *best) best = e.first;
      }
      continue;
    }
    if (n.kind == Kind::kBit) {
      stack.push_back(n.lo);
      stack.push_back(n.hi);
      continue;
    }
    stack.push_back(n.lo);
    for (const auto& e : edges_of(n)) stack.push_back(e.second);
  }
  return best;
}

std::uint32_t DiagramStore::var_of(NodeId id) const noexcept {
  return nodes_[id].var;
}

NodeId DiagramStore::cofactor(NodeId id, std::uint32_t var,
                              std::uint64_t branch_value,
                              bool take_default) const {
  const Node& n = nodes_[id];
  if (n.var != var) return id;
  if (n.kind == Kind::kBit) return branch_value != 0 ? n.hi : n.lo;
  if (take_default) return n.lo;
  const auto edges = edges_of(n);
  const auto it = std::lower_bound(
      edges.begin(), edges.end(), branch_value,
      [](const auto& e, std::uint64_t v) { return e.first < v; });
  if (it != edges.end() && it->first == branch_value) return it->second;
  return n.lo;
}

std::span<const std::pair<std::uint64_t, NodeId>> DiagramStore::edges_of(
    const Node& n) const noexcept {
  return {edge_pool_.data() + n.edges_begin, n.edges_count};
}

std::vector<std::uint64_t> DiagramStore::branch_values(
    std::initializer_list<NodeId> ids, std::uint32_t var) const {
  std::vector<std::uint64_t> values;
  for (const NodeId id : ids) {
    const Node& n = nodes_[id];
    if (n.var != var || n.kind != Kind::kValue) continue;
    for (const auto& e : edges_of(n)) values.push_back(e.first);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

NodeId DiagramStore::intern(Node n) {
  std::uint64_t h = static_cast<std::uint64_t>(n.kind);
  h = mix(h, n.var);
  if (n.kind == Kind::kLeaf) {
    h = mix(h, n.payload);
  } else {
    h = mix(h, n.lo);
    h = mix(h, n.hi);
    for (std::uint32_t i = 0; i < n.edges_count; ++i) {
      const auto& e = edge_pool_[n.edges_begin + i];
      h = mix(h, e.first);
      h = mix(h, e.second);
    }
  }
  auto& bucket = unique_[h];
  for (const NodeId cand : bucket) {
    const Node& c = nodes_[cand];
    if (c.kind != n.kind || c.var != n.var) continue;
    if (n.kind == Kind::kLeaf) {
      if (c.payload == n.payload) return cand;
      continue;
    }
    if (c.lo != n.lo || c.hi != n.hi || c.edges_count != n.edges_count) {
      continue;
    }
    if (std::equal(edge_pool_.begin() + c.edges_begin,
                   edge_pool_.begin() + c.edges_begin + c.edges_count,
                   edge_pool_.begin() + n.edges_begin)) {
      return cand;
    }
  }
  check_budget();
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(n);
  ++stats_.nodes;
  bucket.push_back(id);
  return id;
}

void DiagramStore::check_budget() const {
  if (nodes_.size() >= max_nodes_) throw NodeBudgetExceeded{};
}

}  // namespace maton::analysis::symbolic
