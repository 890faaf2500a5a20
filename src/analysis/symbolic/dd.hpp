// Hash-consed decision diagrams over packet headers — the engine behind
// the symbolic equivalence checks (DESIGN.md §15).
//
// A DiagramStore interns three node kinds in one arena:
//
//   Leaf(payload)            terminal; payload meaning is the caller's
//                            (booleans, interned verdicts)
//   Bit(var, lo, hi)         binary branch on one bit of one dp field;
//                            var = field_index * 64 + MSB-first offset
//   Value(var, edges, def)   n-way branch on a whole attribute value;
//                            `def` covers every value no edge names
//
// Nodes are reduced on construction (a branch whose children coincide is
// never materialized; value edges pointing at the default child are
// dropped) and hash-consed, so diagrams are canonical by construction:
// two roots denote the same packet function iff their NodeIds are equal.
// All operators preserve the global variable order (smaller var closer
// to the root) and never mix node kinds on one variable; in particular
// ite() — the sequence/composition workhorse — interleaves its operands
// by variable rather than grafting subtrees, so composing a table with a
// successor that re-tests an already-matched field stays canonical.
//
// Every node creation checks the store's node budget; exceeding it
// throws NodeBudgetExceeded, which the engine API layer translates into
// an "unknown" outcome — the budget can cost an answer, never make one
// wrong.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace maton::analysis::symbolic {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// Branch label of a value node's default edge in diff paths.
inline constexpr std::uint64_t kDefaultBranch = ~std::uint64_t{0};

/// Internal control-flow exception for the node budget; callers of the
/// engine entry points (engine.hpp) never see it.
struct NodeBudgetExceeded {};

/// Work tallies of one store's lifetime, surfaced in engine results and
/// the maton_symbolic_* counters.
struct StoreStats {
  std::size_t nodes = 0;         ///< unique nodes interned
  std::size_t memo_hits = 0;     ///< operator cache hits
  std::size_t memo_lookups = 0;  ///< operator cache probes
};

/// One bit constraint of a ternary cube, ascending-var order.
struct CubeBit {
  std::uint32_t var = 0;
  bool one = false;
};

/// One exact value constraint of a value-universe cube, ascending-var.
struct CubeValue {
  std::uint32_t var = 0;
  std::uint64_t value = 0;
};

/// One step of a root-to-leaf path (counterexample extraction).
struct PathStep {
  std::uint32_t var = 0;
  std::uint64_t branch = 0;  ///< bit 0/1, edge value, or kDefaultBranch
  bool is_default = false;   ///< took a value node's default edge
};

class DiagramStore {
 public:
  explicit DiagramStore(std::size_t max_nodes);

  /// Reserved boolean leaves, interned by the constructor.
  [[nodiscard]] NodeId false_leaf() const noexcept { return false_; }
  [[nodiscard]] NodeId true_leaf() const noexcept { return true_; }

  [[nodiscard]] NodeId leaf(std::uint64_t payload);
  [[nodiscard]] bool is_leaf(NodeId id) const noexcept;

  /// Reduced, interned binary node; returns `lo` when lo == hi.
  [[nodiscard]] NodeId bit_node(std::uint32_t var, NodeId lo, NodeId hi);

  /// Reduced, interned n-way node. `edges` must be sorted by value with
  /// no duplicates; edges whose child equals `def` are elided, and the
  /// node collapses to `def` when no edge survives.
  [[nodiscard]] NodeId value_node(
      std::uint32_t var,
      std::vector<std::pair<std::uint64_t, NodeId>> edges, NodeId def);

  /// Predicate diagram of a ternary cube (true inside, false outside).
  [[nodiscard]] NodeId cube(std::span<const CubeBit> bits);
  /// Predicate diagram of an exact-match value cube.
  [[nodiscard]] NodeId value_cube(std::span<const CubeValue> values);

  // -- Set operators over predicate diagrams ---------------------------

  [[nodiscard]] NodeId b_and(NodeId a, NodeId b);  ///< intersect
  [[nodiscard]] NodeId b_or(NodeId a, NodeId b);   ///< union
  /// a ∩ b = ∅, for slice-region proofs.
  [[nodiscard]] bool disjoint(NodeId a, NodeId b) {
    return b_and(a, b) == false_;
  }

  // -- Composition ------------------------------------------------------

  /// If-then-else over a predicate `p` and two diagrams, interleaved in
  /// variable order. ite(cube(rule), successor, acc) over rules in
  /// reverse match-preference order builds a table's first-match
  /// composition; this is the engine's sequence operator.
  [[nodiscard]] NodeId ite(NodeId p, NodeId t, NodeId e);

  /// Left-biased union of two partial functions: wherever `a` reaches a
  /// leaf other than `identity`, `a` wins; elsewhere `b` shows through.
  /// Folding disjoint per-row diagrams (identity = the miss verdict)
  /// unions a whole exact-match table in O(result) without the
  /// per-insert edge copying a sequential ite loop would cost.
  [[nodiscard]] NodeId overlay_first(NodeId a, NodeId b, NodeId identity);

  /// Rewrites every leaf payload through `fn` (action effects on
  /// interned verdicts: output defaults, action-binding accumulation).
  [[nodiscard]] NodeId map_leaves(
      NodeId root, const std::function<std::uint64_t(std::uint64_t)>& fn);

  /// Cofactor: fixes every var for which `fixed` returns a value (the
  /// bit for bit vars, the branch value for value vars) — the effect of
  /// a set-field / metadata-write action on the downstream diagram.
  [[nodiscard]] NodeId restrict_with(
      NodeId root,
      const std::function<std::optional<std::uint64_t>(std::uint32_t)>&
          fixed);

  /// Cofactor onto the default branch of every value var selected by
  /// `select`: semantically, fixes those vars to a fresh value no edge
  /// in the diagram tests (initial metadata registers are "bound to a
  /// value no rule can match").
  [[nodiscard]] NodeId restrict_default(
      NodeId root, const std::function<bool(std::uint32_t)>& select);

  // -- Counterexample extraction ---------------------------------------

  /// First path on which two canonical diagrams (same store, same
  /// universe) reach different leaves, with the two leaf payloads.
  /// nullopt iff a == b.
  struct Divergence {
    std::vector<PathStep> path;
    std::uint64_t left = 0;
    std::uint64_t right = 0;
  };
  [[nodiscard]] std::optional<Divergence> first_divergence(NodeId a,
                                                           NodeId b);

  /// Largest edge value tested on `var` anywhere in the diagram (for
  /// materializing fresh default-branch values); nullopt when the
  /// diagram never branches on `var`.
  [[nodiscard]] std::optional<std::uint64_t> max_edge_value(
      NodeId root, std::uint32_t var) const;

  [[nodiscard]] const StoreStats& stats() const noexcept { return stats_; }

 private:
  enum class Kind : std::uint8_t { kLeaf, kBit, kValue };
  struct Node {
    Kind kind = Kind::kLeaf;
    std::uint32_t var = 0;
    NodeId lo = 0;  ///< bit: 0-branch; value: default child
    NodeId hi = 0;  ///< bit: 1-branch
    std::uint64_t payload = 0;
    std::uint32_t edges_begin = 0;
    std::uint32_t edges_count = 0;
  };
  /// Memo key of a ternary operator application: {tag, a, b, c}.
  struct OpKey {
    std::uint32_t tag = 0;
    NodeId a = 0;
    NodeId b = 0;
    NodeId c = 0;
    friend bool operator==(const OpKey&, const OpKey&) = default;
  };
  struct OpKeyHash {
    std::size_t operator()(const OpKey& k) const noexcept {
      std::uint64_t h = k.tag;
      for (const std::uint64_t v : {k.a, k.b, k.c}) {
        h = (h ^ (v + 0x9e3779b97f4a7c15ULL)) * 0xff51afd7ed558ccdULL;
      }
      return static_cast<std::size_t>(h ^ (h >> 33));
    }
  };

  [[nodiscard]] const Node& node(NodeId id) const { return nodes_[id]; }
  /// Variable of a node for ordering; leaves sort after every variable.
  [[nodiscard]] std::uint32_t var_of(NodeId id) const noexcept;
  /// Cofactor of `id` under (var = branch); `id` itself when it does not
  /// branch on `var`.
  [[nodiscard]] NodeId cofactor(NodeId id, std::uint32_t var,
                                std::uint64_t branch_value,
                                bool take_default) const;
  [[nodiscard]] std::span<const std::pair<std::uint64_t, NodeId>> edges_of(
      const Node& n) const noexcept;
  /// Sorted union of the edge values the operands test on `var`.
  [[nodiscard]] std::vector<std::uint64_t> branch_values(
      std::initializer_list<NodeId> ids, std::uint32_t var) const;
  [[nodiscard]] NodeId intern(Node n);
  void check_budget() const;

  [[nodiscard]] NodeId apply_bool(NodeId a, NodeId b, bool is_and);
  bool find_divergence(NodeId a, NodeId b, std::vector<PathStep>& path,
                       Divergence& out);

  std::size_t max_nodes_;
  std::vector<Node> nodes_;
  std::vector<std::pair<std::uint64_t, NodeId>> edge_pool_;
  /// Unique table: content hash → candidate ids (collisions verified).
  std::unordered_map<std::uint64_t, std::vector<NodeId>> unique_;
  /// Operator memo table, shared by the tagged global operators.
  std::unordered_map<OpKey, NodeId, OpKeyHash> op_memo_;
  StoreStats stats_;
  NodeId false_ = 0;
  NodeId true_ = 0;
};

}  // namespace maton::analysis::symbolic
