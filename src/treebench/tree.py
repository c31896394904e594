"""Decision-tree induction on coded categorical tables.

Four growers share one tree representation: a multiway entropy tree
(``train_c50``), a binary code-subset Gini tree (``train_cart``), a
chi-square merge tree (``train_chaid``), and a chi-square / discriminant
hybrid (``train_quest``).  Pruning replaces subtrees by leaves when a
pessimistic binomial error bound says the split does not pay for itself.

Trees are immutable after training and safe to share across threads.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping, Sequence

import numpy as np
from scipy.special import betaincinv

from .criteria import (
    DegenerateTableError,
    _check_cost,
    chi_square,
    gini_decrease,
    info_gain,
    unit_cost_matrix,
)
from .dataset import CategoricalTable

_GAIN_EPS = 1e-12


class TreeError(ValueError):
    """Raised for invalid training parameters or malformed rows."""


@dataclass(frozen=True)
class TreeParams:
    """Shared induction knobs.

    ``min_records`` is the minimum row count for every nonempty child
    branch.  ``severity`` steers pruning: confidence factor
    CF = (100 - severity) / 100, so higher severity prunes harder.
    ``alpha`` is the significance level for chi-square splitting.  ``cost``
    is an optional 2x2 misclassification cost matrix as nested tuples.
    ``min_gain`` is the smallest information gain the entropy grower will
    split on; the default demands strictly positive gain, while 0.0 splits
    on the best candidate even at zero gain (needed for targets like parity
    that no single feature improves).
    """

    min_records: int = 2
    severity: float = 75.0
    max_depth: int | None = None
    alpha: float = 0.05
    cost: tuple[tuple[float, ...], ...] | None = None
    min_gain: float = _GAIN_EPS

    def __post_init__(self):
        if self.min_records < 1:
            raise TreeError("min_records must be at least 1")
        if not 0.0 < self.severity < 100.0:
            raise TreeError("severity must lie in (0, 100)")
        if not 0.0 < self.alpha < 1.0:
            raise TreeError("alpha must lie in (0, 1)")
        if self.max_depth is not None and self.max_depth < 0:
            raise TreeError("max_depth must be non-negative")
        if self.min_gain < 0.0:
            raise TreeError("min_gain must be non-negative")
        if self.cost is not None:
            try:
                cost = _check_cost(self.cost, 2)
            except (TypeError, ValueError) as e:
                raise TreeError(f"bad cost: {e}") from None
            object.__setattr__(
                self, "cost", tuple(tuple(float(v) for v in row) for row in cost)
            )

    def cost_matrix(self) -> np.ndarray:
        return unit_cost_matrix(2) if self.cost is None else np.array(self.cost)


@dataclass(frozen=True)
class Split:
    """A node's routing rule: ``branches[k]`` is the code set for child k.

    ``arity`` tags how the branches came about: ``multiway`` (one branch per
    code), ``binary`` (code subset vs complement), or ``merged`` (chi-square
    category groups).
    """

    feature: int
    arity: str
    branches: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.arity not in ("multiway", "binary", "merged"):
            raise TreeError(f"unknown split arity {self.arity!r}")
        branches = tuple(tuple(int(c) for c in b) for b in self.branches)
        if len(branches) < 2:
            raise TreeError("a split needs at least 2 branches")
        seen: set[int] = set()
        for b in branches:
            if seen & set(b):
                raise TreeError("split branches must be disjoint")
            seen |= set(b)
        object.__setattr__(self, "branches", branches)

    def branch_for(self, code: int) -> int | None:
        for k, codes in enumerate(self.branches):
            if code in codes:
                return k
        return None


@dataclass(eq=False)
class TreeNode:
    """One node: class counts, majority label, and (if internal) the split
    plus its impurity-reduction score on this node's rows."""

    counts: np.ndarray
    prediction: int
    confidence: float
    split: Split | None = None
    children: tuple["TreeNode", ...] = ()
    score: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(eq=False)
class DecisionTree:
    root: TreeNode
    algorithm: str
    params: TreeParams
    feature_names: tuple[str, ...]
    schema_hash: str
    n_rows: int

    # -- batch prediction ----------------------------------------------------

    def _stops(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """(class, confidence) of the node where ``predict`` stops each row.

        All rows descend together.  Each node labels its rows and hands them
        on to the nonempty child their code selects, which labels them again.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != len(self.feature_names):
            raise TreeError(f"rows have shape {rows.shape}, schema expects "
                            f"{len(self.feature_names)} columns")
        labels = np.empty(rows.shape[0], dtype=np.int64)
        confidence = np.empty(rows.shape[0])
        stack = [(self.root, np.arange(rows.shape[0]))]
        while stack:
            node, idx = stack.pop()
            labels[idx] = node.prediction
            confidence[idx] = node.confidence
            if node.is_leaf:
                continue
            column = rows[idx, node.split.feature]
            for codes, child in zip(node.split.branches, node.children):
                routed = idx[(column[:, None] == codes).any(axis=1)]
                if child.total > 0 and routed.size:
                    stack.append((child, routed))
        return labels, confidence

    def predict_batch(self, rows) -> np.ndarray:
        """Leaf-majority class per row (training ties went to class 0)."""
        return self._stops(rows)[0]

    def proba_batch(self, rows) -> np.ndarray:
        """Leaf class-1 fraction per row."""
        labels, confidence = self._stops(rows)
        return np.where(labels == 1, confidence, 1.0 - confidence)

    # -- structured text serialization (nested nodes, preorder) -------------

    def to_json(self) -> str:
        def node_payload(node: TreeNode) -> dict:
            payload = {
                "counts": [int(c) for c in node.counts],
                "prediction": int(node.prediction),
                "confidence": node.confidence,
                "score": node.score,
            }
            if node.split is not None:
                payload["split"] = {
                    "feature": node.split.feature,
                    "arity": node.split.arity,
                    "branches": [list(b) for b in node.split.branches],
                }
                payload["children"] = [node_payload(c) for c in node.children]
            return payload

        return json.dumps(
            {
                "algorithm": self.algorithm,
                "params": {
                    "min_records": self.params.min_records,
                    "severity": self.params.severity,
                    "max_depth": self.params.max_depth,
                    "alpha": self.params.alpha,
                    "cost": self.params.cost,
                    "min_gain": self.params.min_gain,
                },
                "feature_names": list(self.feature_names),
                "schema_hash": self.schema_hash,
                "n_rows": self.n_rows,
                "root": node_payload(self.root),
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "DecisionTree":
        payload = json.loads(text)

        def parse_node(item: Mapping) -> TreeNode:
            split = None
            children: tuple[TreeNode, ...] = ()
            if "split" in item:
                s = item["split"]
                split = Split(
                    feature=s["feature"],
                    arity=s["arity"],
                    branches=tuple(tuple(b) for b in s["branches"]),
                )
                children = tuple(parse_node(c) for c in item["children"])
            return TreeNode(
                counts=np.array(item["counts"], dtype=np.int64),
                prediction=item["prediction"],
                confidence=item["confidence"],
                split=split,
                children=children,
                score=item.get("score", 0.0),
            )

        p = payload["params"]
        params = TreeParams(
            min_records=p["min_records"],
            severity=p["severity"],
            max_depth=p["max_depth"],
            alpha=p["alpha"],
            cost=tuple(tuple(row) for row in p["cost"]) if p["cost"] else None,
            min_gain=p.get("min_gain", _GAIN_EPS),
        )
        return cls(
            root=parse_node(payload["root"]),
            algorithm=payload["algorithm"],
            params=params,
            feature_names=tuple(payload["feature_names"]),
            schema_hash=payload["schema_hash"],
            n_rows=payload["n_rows"],
        )


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------

def iter_nodes(tree: DecisionTree | TreeNode) -> Iterator[tuple[TreeNode, int, tuple[int, ...]]]:
    """Preorder walk yielding (node, depth, branch path from root)."""
    root = tree.root if isinstance(tree, DecisionTree) else tree
    stack = [(root, 0, ())]
    while stack:
        node, depth, path = stack.pop()
        yield node, depth, path
        for k in reversed(range(len(node.children))):
            stack.append((node.children[k], depth + 1, path + (k,)))


def leaf_count(tree: DecisionTree | TreeNode) -> int:
    return sum(1 for node, _, _ in iter_nodes(tree) if node.is_leaf)


def node_count(tree: DecisionTree | TreeNode) -> int:
    return sum(1 for _ in iter_nodes(tree))


def tree_depth(tree: DecisionTree | TreeNode) -> int:
    return max(depth for _, depth, _ in iter_nodes(tree))


def node_paths(tree: DecisionTree | TreeNode) -> set[tuple[int, ...]]:
    return {path for _, _, path in iter_nodes(tree)}


def _counts_of(y: np.ndarray) -> np.ndarray:
    return np.bincount(y, minlength=2).astype(np.int64)


def _leaf(counts: np.ndarray, parent: TreeNode | None = None) -> TreeNode:
    total = counts.sum()
    if total == 0:
        # an empty branch keeps its parent's label and confidence
        if parent is None:
            raise TreeError("cannot build a leaf with no rows and no parent")
        return TreeNode(counts=counts, prediction=parent.prediction,
                        confidence=parent.confidence)
    pred = int(np.argmax(counts))
    return TreeNode(counts=counts, prediction=pred,
                    confidence=float(counts[pred] / total))


def _make_tree(root: TreeNode, algorithm: str, params: TreeParams,
               data: CategoricalTable) -> DecisionTree:
    return DecisionTree(
        root=root,
        algorithm=algorithm,
        params=params,
        feature_names=data.feature_names,
        schema_hash=data.schema_hash(),
        n_rows=data.n_rows,
    )


# ---------------------------------------------------------------------------
# Multiway entropy tree
# ---------------------------------------------------------------------------

def train_c50(data: CategoricalTable, params: TreeParams | None = None) -> DecisionTree:
    """Grow a multiway tree by information gain.

    Each split fans out one branch per code the feature shows anywhere in
    the training table; codes absent at the node become empty leaves that
    inherit the node's majority.  A feature is used at most once per path.
    Growth stops on purity, exhausted features, best gain below
    ``min_gain``, or any nonempty branch falling under ``min_records``.
    """
    params = params or TreeParams()
    X, y = data.rows, data.target
    universes = [data.observed_codes(j) for j in range(data.n_features)]

    def grow(idx: np.ndarray, available: tuple[int, ...], depth: int) -> TreeNode:
        counts = _counts_of(y[idx])
        node = _leaf(counts)
        if counts.max() == counts.sum() or not available:
            return node
        if params.max_depth is not None and depth >= params.max_depth:
            return node

        best = None  # (gain, feature, parts)
        for f in available:
            codes = universes[f]
            if len(codes) < 2:
                continue
            parts = [idx[X[idx, f] == c] for c in codes]
            sizes = [len(p) for p in parts]
            if sum(1 for s in sizes if s > 0) < 2:
                continue
            if any(0 < s < params.min_records for s in sizes):
                continue
            g = info_gain(counts, [_counts_of(y[p]) for p in parts])
            if best is None or g > best[0] + _GAIN_EPS:
                best = (g, f, parts)
        if best is None or best[0] < params.min_gain:
            return node

        best_gain, best_feature, best_parts = best
        remaining = tuple(f for f in available if f != best_feature)
        children = []
        for part in best_parts:
            if len(part) == 0:
                children.append(_leaf(np.zeros(2, dtype=np.int64), parent=node))
            else:
                children.append(grow(part, remaining, depth + 1))
        node.split = Split(
            feature=best_feature,
            arity="multiway",
            branches=tuple((c,) for c in universes[best_feature]),
        )
        node.children = tuple(children)
        node.score = best_gain
        return node

    root = grow(np.arange(data.n_rows), tuple(range(data.n_features)), 0)
    return _make_tree(root, "c50", params, data)


# ---------------------------------------------------------------------------
# Pessimistic-error pruning
# ---------------------------------------------------------------------------

def pessimistic_error_bound(errors: int, total: int, cf: float) -> float:
    """Upper confidence bound on the true error rate given ``errors``
    mistakes in ``total`` rows.

    This is the exact binomial bound: the rate at which observing this few
    errors has probability CF.  Smaller CF pushes the bound higher.
    """
    if total <= 0:
        return 0.0
    if not 0.0 < cf < 1.0:
        raise TreeError("confidence factor must lie in (0, 1)")
    if errors >= total:
        return 1.0
    return float(betaincinv(errors + 1, total - errors, 1.0 - cf))


def _predicted_errors(counts: np.ndarray, cf: float) -> float:
    total = int(counts.sum())
    if total == 0:
        return 0.0
    errors = total - int(counts.max())
    return total * pessimistic_error_bound(errors, total, cf)


def _subtree_errors(node: TreeNode, cf: float) -> float:
    if node.is_leaf:
        return _predicted_errors(node.counts, cf)
    return sum(_subtree_errors(c, cf) for c in node.children)


def _as_pruned_leaf(node: TreeNode) -> TreeNode:
    return TreeNode(counts=node.counts, prediction=node.prediction,
                    confidence=node.confidence)


def prune_c50(tree: DecisionTree, severity: float | None = None) -> DecisionTree:
    """Collapse subtrees whose pessimistic error is no better than a leaf.

    Two stages: a local bottom-up pass replaces a subtree by a leaf when the
    leaf's predicted error count does not exceed the subtree's, then a
    global top-down pass removes any surviving subtree whose aggregate
    predicted error exceeds its leaf replacement.  The result reuses no node
    objects from the input but only ever removes structure.
    """
    severity = tree.params.severity if severity is None else severity
    if not 0.0 < severity < 100.0:
        raise TreeError("severity must lie in (0, 100)")
    cf = (100.0 - severity) / 100.0

    def local(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            return _as_pruned_leaf(node)
        kept = TreeNode(
            counts=node.counts, prediction=node.prediction,
            confidence=node.confidence, split=node.split,
            children=tuple(local(c) for c in node.children), score=node.score,
        )
        if _predicted_errors(node.counts, cf) <= _subtree_errors(kept, cf) + _GAIN_EPS:
            return _as_pruned_leaf(node)
        return kept

    def global_pass(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            return node
        if _subtree_errors(node, cf) > _predicted_errors(node.counts, cf) + _GAIN_EPS:
            return _as_pruned_leaf(node)
        node.children = tuple(global_pass(c) for c in node.children)
        return node

    root = global_pass(local(tree.root))
    return DecisionTree(
        root=root,
        algorithm=tree.algorithm,
        params=tree.params,
        feature_names=tree.feature_names,
        schema_hash=tree.schema_hash,
        n_rows=tree.n_rows,
    )


# ---------------------------------------------------------------------------
# Binary Gini tree
# ---------------------------------------------------------------------------

def _binary_candidates(codes: Sequence[int]) -> list[tuple[int, ...]]:
    """Proper subsets containing the smallest code, in lexicographic order.

    Anchoring on the smallest code enumerates each subset/complement pair
    exactly once: 2^(k-1) - 1 candidates for k codes.
    """
    codes = sorted(codes)
    first, rest = codes[0], codes[1:]
    out = [
        (first,) + combo
        for r in range(len(rest))
        for combo in combinations(rest, r)
    ]
    out.sort()
    return out


def _grow_binary_gini(
    data: CategoricalTable,
    params: TreeParams,
    rng: np.random.Generator | None = None,
    features_per_split: int | None = None,
    subset_audit: list | None = None,
) -> TreeNode:
    """Shared grower for CART and forest member trees.

    When ``rng`` is given, each node draws ``features_per_split`` candidate
    features without replacement; otherwise all features are candidates.
    """
    X, y = data.rows, data.target
    m = data.n_features
    cost = params.cost_matrix()
    # for two classes with zero diagonal, gini reduces to s*p0*p1
    pair_cost = float(cost[0, 1] + cost[1, 0])

    def node_gini(n0: float, n1: float) -> float:
        total = n0 + n1
        return pair_cost * n0 * n1 / (total * total)

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        counts = _counts_of(y[idx])
        node = _leaf(counts)
        if counts.max() == counts.sum():
            return node
        if params.max_depth is not None and depth >= params.max_depth:
            return node

        if rng is None:
            candidates = range(m)
        else:
            k = min(features_per_split or m, m)
            candidates = np.sort(rng.choice(m, size=k, replace=False))

        n = int(counts.sum())
        parent_gini = node_gini(int(counts[0]), int(counts[1]))
        best = None  # (delta, feature, subset)
        for f in candidates:
            col = X[idx, f]
            codes, inverse = np.unique(col, return_inverse=True)
            if len(codes) < 2:
                continue
            per_code = np.bincount(
                inverse * 2 + y[idx], minlength=2 * len(codes)
            ).reshape(-1, 2)
            position = {int(c): i for i, c in enumerate(codes)}
            for subset in _binary_candidates([int(c) for c in codes]):
                l0 = sum(int(per_code[position[c], 0]) for c in subset)
                l1 = sum(int(per_code[position[c], 1]) for c in subset)
                nl = l0 + l1
                nr = n - nl
                if nl < params.min_records or nr < params.min_records:
                    continue
                delta = parent_gini \
                    - (nl / n) * node_gini(l0, l1) \
                    - (nr / n) * node_gini(counts[0] - l0, counts[1] - l1)
                if delta > _GAIN_EPS and (best is None or delta > best[0]):
                    best = (delta, int(f), subset)
        if best is None:
            return node

        delta, f, subset = best
        col = X[idx, f]
        mask = np.isin(col, subset)
        left, right = idx[mask], idx[~mask]
        complement = tuple(
            int(c) for c in np.unique(col) if int(c) not in subset
        )
        if subset_audit is not None:
            subset_audit.append((f, tuple(int(c) for c in candidates)
                                 if rng is not None else tuple(range(m))))
        node.split = Split(feature=f, arity="binary", branches=(subset, complement))
        node.children = (grow(left, depth + 1), grow(right, depth + 1))
        node.score = delta
        return node

    return grow(np.arange(data.n_rows), 0)


def train_cart(data: CategoricalTable, params: TreeParams | None = None) -> DecisionTree:
    """Grow a binary tree over code subsets by Gini decrease.

    Every proper code subset of every feature is a candidate; the split with
    the largest impurity decrease wins, with ties going to the lowest
    feature index and then the lexicographically smallest subset.
    """
    params = params or TreeParams()
    root = _grow_binary_gini(data, params)
    return _make_tree(root, "cart", params, data)


# ---------------------------------------------------------------------------
# Chi-square merge tree
# ---------------------------------------------------------------------------

def stirling2(n: int, k: int) -> int:
    """Number of ways to partition n labeled items into k nonempty groups."""
    if k < 0 or k > n:
        return 0
    row = [1] + [0] * k
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def _pair_p_value(a: np.ndarray, b: np.ndarray) -> float:
    try:
        return chi_square(np.vstack([a, b])).p_value
    except DegenerateTableError:
        # groups indistinguishable when a class column is empty
        return 1.0


def _merge_groups(groups: list[tuple[tuple[int, ...], np.ndarray]], alpha: float
                  ) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Greedily fuse the least-distinguishable pair until every remaining
    pair differs at level alpha or only two groups remain."""
    groups = list(groups)
    while len(groups) > 2:
        best_p, best_pair = -1.0, None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                p = _pair_p_value(groups[i][1], groups[j][1])
                if p > best_p:
                    best_p, best_pair = p, (i, j)
        if best_p < alpha:
            break
        i, j = best_pair
        merged = (
            tuple(sorted(groups[i][0] + groups[j][0])),
            groups[i][1] + groups[j][1],
        )
        groups = [g for k, g in enumerate(groups) if k not in (i, j)] + [merged]
        groups.sort(key=lambda g: g[0][0])
    return groups


def train_chaid(data: CategoricalTable, params: TreeParams | None = None) -> DecisionTree:
    """Grow a multiway tree by chi-square association after category merging.

    Per node and feature, category groups are fused pairwise (most similar
    first) until all remaining pairs differ at level alpha; the feature with
    the smallest Bonferroni-adjusted p-value over its merged grouping splits
    the node, if that p-value reaches alpha.  Each feature is used at most
    once per path.
    """
    params = params or TreeParams()
    X, y = data.rows, data.target

    def grow(idx: np.ndarray, available: tuple[int, ...], depth: int) -> TreeNode:
        counts = _counts_of(y[idx])
        node = _leaf(counts)
        if counts.max() == counts.sum() or not available:
            return node
        if params.max_depth is not None and depth >= params.max_depth:
            return node

        best = None  # (adjusted_p, feature, groups)
        for f in available:
            col = X[idx, f]
            codes = [int(c) for c in np.unique(col)]
            if len(codes) < 2:
                continue
            groups = [
                ((c,), _counts_of(y[idx[col == c]])) for c in codes
            ]
            groups = _merge_groups(groups, params.alpha)
            sizes = [int(g[1].sum()) for g in groups]
            if any(s < params.min_records for s in sizes):
                continue
            try:
                raw_p = chi_square(np.vstack([g[1] for g in groups])).p_value
            except DegenerateTableError:
                continue
            multiplier = stirling2(len(codes), len(groups))
            adjusted = min(1.0, multiplier * raw_p)
            if best is None or adjusted < best[0] - _GAIN_EPS:
                best = (adjusted, f, groups)
        if best is None or best[0] > params.alpha:
            return node

        _, f, groups = best
        remaining = tuple(g for g in available if g != f)
        branches = tuple(g[0] for g in groups)
        children = []
        for codes in branches:
            part = idx[np.isin(X[idx, f], codes)]
            children.append(grow(part, remaining, depth + 1))
        node.split = Split(feature=f, arity="merged", branches=branches)
        node.children = tuple(children)
        node.score = info_gain(counts, [c.counts for c in children])
        return node

    root = grow(np.arange(data.n_rows), tuple(range(data.n_features)), 0)
    return _make_tree(root, "chaid", params, data)


# ---------------------------------------------------------------------------
# Chi-square selection + discriminant split
# ---------------------------------------------------------------------------

def _qda_boundary(scores0: np.ndarray, scores1: np.ndarray,
                  prior0: float, prior1: float) -> float | None:
    """Boundary between two class-conditional normal fits on scalar scores.

    Returns None when the fit degenerates (zero variance in either class),
    signalling the caller to fall back to the mean threshold.
    """
    mu0, mu1 = float(scores0.mean()), float(scores1.mean())
    s0, s1 = float(scores0.std()), float(scores1.std())
    if s0 < 1e-12 or s1 < 1e-12:
        return None
    a = 0.5 / s0 ** 2 - 0.5 / s1 ** 2
    b = mu1 / s1 ** 2 - mu0 / s0 ** 2
    c = (
        mu0 ** 2 / (2 * s0 ** 2)
        - mu1 ** 2 / (2 * s1 ** 2)
        + math.log(s0 / s1)
        + math.log(prior1 / prior0)
    )
    lo, hi = min(mu0, mu1), max(mu0, mu1)
    if abs(a) < 1e-12:
        if abs(b) < 1e-12:
            return None
        return -c / b
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    roots = sorted(((-b - math.sqrt(disc)) / (2 * a), (-b + math.sqrt(disc)) / (2 * a)))
    inside = [r for r in roots if lo <= r <= hi]
    return inside[0] if inside else None


def train_quest(data: CategoricalTable, params: TreeParams | None = None) -> DecisionTree:
    """Grow a binary tree that picks the split variable by chi-square
    p-value and the split point by a quadratic discriminant over each
    code's empirical class-1 rate.

    Decoupling selection from splitting avoids the exhaustive subset search
    of the Gini grower.  Degenerate discriminants fall back to the mean
    threshold between class score means; nodes whose fallback cannot
    separate the codes become leaves.
    """
    params = params or TreeParams()
    X, y = data.rows, data.target

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        counts = _counts_of(y[idx])
        node = _leaf(counts)
        if counts.max() == counts.sum():
            return node
        if params.max_depth is not None and depth >= params.max_depth:
            return node

        # variable selection: smallest chi-square p, ties to lowest index
        best_p, best_f = None, -1
        for f in range(data.n_features):
            col = X[idx, f]
            codes = np.unique(col)
            if len(codes) < 2:
                continue
            table = np.array([_counts_of(y[idx[col == c]]) for c in codes])
            try:
                p = chi_square(table).p_value
            except DegenerateTableError:
                p = 1.0
            if best_p is None or p < best_p - _GAIN_EPS:
                best_p, best_f = p, f
        if best_f < 0:
            return node

        col = X[idx, best_f]
        codes = [int(c) for c in np.unique(col)]
        rate = {c: float(y[idx[col == c]].mean()) for c in codes}
        scores = np.array([rate[int(c)] for c in col])
        s0, s1 = scores[y[idx] == 0], scores[y[idx] == 1]
        if np.ptp(scores) < 1e-12:
            return node
        prior0 = len(s0) / len(idx)
        boundary = _qda_boundary(s0, s1, prior0, 1.0 - prior0)
        if boundary is None:
            boundary = 0.5 * (float(s0.mean()) + float(s1.mean()))
        left_codes = tuple(c for c in codes if rate[c] <= boundary)
        right_codes = tuple(c for c in codes if rate[c] > boundary)
        if not left_codes or not right_codes:
            return node

        mask = np.isin(col, left_codes)
        left, right = idx[mask], idx[~mask]
        if len(left) < params.min_records or len(right) < params.min_records:
            return node
        cost = params.cost_matrix()
        delta = gini_decrease(counts, _counts_of(y[left]), _counts_of(y[right]), cost)
        if delta <= _GAIN_EPS:
            return node

        node.split = Split(feature=best_f, arity="binary",
                           branches=(left_codes, right_codes))
        node.children = (grow(left, depth + 1), grow(right, depth + 1))
        node.score = delta
        return node

    root = grow(np.arange(data.n_rows), 0)
    return _make_tree(root, "quest", params, data)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict(tree: DecisionTree, row: Sequence[int] | np.ndarray) -> tuple[int, float]:
    """Route one row to a leaf and return (class, confidence).

    A code with no matching branch stops the descent at that node and
    returns the node's own majority; every schema-conforming row therefore
    gets a prediction.
    """
    row = np.asarray(row)
    if row.shape != (len(tree.feature_names),):
        raise TreeError(
            f"row has {row.shape} values, schema expects {len(tree.feature_names)}"
        )
    node = tree.root
    while not node.is_leaf:
        k = node.split.branch_for(int(row[node.split.feature]))
        if k is None:
            break
        child = node.children[k]
        if child.total == 0:
            break
        node = child
    return node.prediction, node.confidence


def predict_batch(tree: DecisionTree, rows: np.ndarray) -> np.ndarray:
    """Predicted classes for a row matrix."""
    return tree.predict_batch(rows)


# ---------------------------------------------------------------------------
# Importance and export
# ---------------------------------------------------------------------------

def predictor_importance(tree: DecisionTree) -> dict[str, float]:
    """Impurity-based importance: each split contributes its node's share of
    training rows times its impurity reduction; weights normalize to 1.
    Features never split on get weight 0."""
    total = tree.root.total
    raw = np.zeros(len(tree.feature_names))
    for node, _, _ in iter_nodes(tree):
        if not node.is_leaf:
            raw[node.split.feature] += (node.total / total) * node.score
    s = raw.sum()
    if s > 0:
        raw = raw / s
    return {name: float(w) for name, w in zip(tree.feature_names, raw)}


def export_dot(tree: DecisionTree, schema=None) -> str:
    """Render the tree as a DOT digraph with deterministic preorder IDs.

    Each node shows its split variable or class label, class counts, and
    share of the training rows; edges carry the branch code sets.  When
    ``schema`` (a sequence with per-feature ``label`` methods) is given,
    edge codes use its labels.
    """
    def code_label(f: int, code: int) -> str:
        if schema is not None:
            return schema[f].label(code)
        return str(code)

    total = max(tree.root.total, 1)
    ids: dict[int, str] = {}
    lines = ["digraph tree {", "  node [shape=box];"]
    order = list(iter_nodes(tree))
    for i, (node, _, path) in enumerate(order):
        ids[id(node)] = f"n{i}"
        pct = 100.0 * node.total / total
        counts = ", ".join(str(int(c)) for c in node.counts)
        if node.is_leaf:
            head = f"class {node.prediction} ({100.0 * node.confidence:.1f}%)"
        else:
            head = tree.feature_names[node.split.feature]
        lines.append(
            f'  n{i} [label="{head}\\ncounts [{counts}]\\n{pct:.1f}% of rows"];'
        )
    for node, _, _ in order:
        if node.is_leaf:
            continue
        f = node.split.feature
        for k, codes in enumerate(node.split.branches):
            label = ", ".join(code_label(f, c) for c in codes)
            lines.append(
                f'  {ids[id(node)]} -> {ids[id(node.children[k])]} [label="{label}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
