"""Decision-tree induction on coded categorical tables.

Four growers share one tree representation and one grow skeleton
(``_grow``): a multiway entropy tree (``train_c50``), a binary code-subset
Gini tree (``train_cart``), a chi-square merge tree (``train_chaid``), and a
chi-square / discriminant hybrid (``train_quest``).  Each differs only in
the chooser that picks a node's split from its per-node count cube.
Pruning replaces subtrees by leaves when a pessimistic binomial error bound
says the split does not pay for itself.

Trees are immutable after training and safe to share across threads.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
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
                "params": asdict(self.params),
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

        return cls(
            root=parse_node(payload["root"]),
            algorithm=payload["algorithm"],
            params=TreeParams(**payload["params"]),
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
# Grow skeleton
# ---------------------------------------------------------------------------

def _grow(data: CategoricalTable, params: TreeParams, choose, arity: str,
          reuse_features: bool, rng: np.random.Generator | None = None,
          features_per_split: int | None = None) -> TreeNode:
    """Grow a tree top-down; the four growers differ only in ``choose``.

    A node stays a leaf when it is pure, has no feature left, or sits at
    ``max_depth``.  Otherwise one ``np.bincount`` over densified codes
    gives the node's count cube: class counts per (feature, code).  For
    each candidate feature showing at least two codes at the node,
    ``choose(idx, counts, tables)`` gets a ``(feature, codes, class
    counts [k, 2])`` entry in ``tables`` and returns ``(score, feature,
    branches)``, or None to keep the leaf.  Each branch becomes a child;
    an empty one inherits the node's label.  Unless ``reuse_features``, a
    feature splits at most once per path.  With ``rng``, each node draws
    ``features_per_split`` candidates without replacement.
    """
    X, y = data.rows, data.target
    m = data.n_features
    k = min(features_per_split or m, m)
    # dense code: position in the feature's code universe + the feature's start
    universes = [np.unique(X[:, f]) for f in range(m)]
    starts = np.cumsum([0] + [len(u) for u in universes])
    dense = np.empty_like(X)
    for f, u in enumerate(universes):
        dense[:, f] = np.searchsorted(u, X[:, f]) + starts[f]

    def grow(idx: np.ndarray, available: tuple[int, ...], depth: int) -> TreeNode:
        counts = _counts_of(y[idx])
        node = _leaf(counts)
        if counts.max() == counts.sum() or not available:
            return node
        if params.max_depth is not None and depth >= params.max_depth:
            return node
        candidates = available if rng is None else \
            tuple(int(f) for f in np.sort(rng.choice(m, k, replace=False)))
        cube = np.bincount(
            (dense[np.ix_(idx, candidates)] * 2 + y[idx, None]).ravel(),
            minlength=2 * starts[-1]).reshape(-1, 2)
        present = cube.any(axis=1)
        tables = []
        for f in candidates:
            block = slice(starts[f], starts[f + 1])
            keep = present[block]
            if np.count_nonzero(keep) >= 2:
                tables.append((f, universes[f][keep], cube[block][keep]))
        best = choose(idx, counts, tables)
        if best is None:
            return node

        node.score, f, branches = best
        column = X[idx, f]
        if not reuse_features:
            available = tuple(g for g in available if g != f)
        children = []
        for codes in branches:
            part = idx[(column[:, None] == codes).any(axis=1)]
            children.append(grow(part, available, depth + 1) if len(part)
                            else _leaf(np.zeros(2, dtype=np.int64), parent=node))
        node.split = Split(feature=f, arity=arity, branches=branches)
        node.children = tuple(children)
        return node

    return grow(np.arange(data.n_rows), tuple(range(m)), 0)


def _train(algorithm: str, data: CategoricalTable, params: TreeParams | None,
           chooser, arity: str, reuse_features: bool) -> DecisionTree:
    params = params or TreeParams()
    root = _grow(data, params, chooser(data, params), arity, reuse_features)
    return _make_tree(root, algorithm, params, data)


# ---------------------------------------------------------------------------
# Multiway entropy tree
# ---------------------------------------------------------------------------

def _gain_chooser(data: CategoricalTable, params: TreeParams):
    universes = [np.array(data.observed_codes(f)) for f in range(data.n_features)]

    def choose(idx, counts, tables):
        best = None  # (gain, feature)
        for f, codes, table in tables:
            if table.sum(axis=1).min() < params.min_records:
                continue
            # codes absent at the node are empty parts of the table universe
            parts = np.zeros((len(universes[f]), 2), dtype=np.int64)
            parts[np.searchsorted(universes[f], codes)] = table
            g = info_gain(counts, parts)
            if best is None or g > best[0] + _GAIN_EPS:
                best = (g, f)
        if best is None or best[0] < params.min_gain:
            return None
        return best[0], best[1], tuple((int(c),) for c in universes[best[1]])

    return choose


def train_c50(data: CategoricalTable, params: TreeParams | None = None) -> DecisionTree:
    """Grow a multiway tree by information gain.

    Each split fans out one branch per code the feature shows anywhere in
    the training table; codes absent at the node become empty leaves that
    inherit the node's majority.  A feature is used at most once per path.
    Growth stops on purity, exhausted features, best gain below
    ``min_gain``, or any nonempty branch falling under ``min_records``.
    """
    return _train("c50", data, params, _gain_chooser, "multiway", False)


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

    return replace(tree, root=global_pass(local(tree.root)))


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


def _gini_chooser(data: CategoricalTable, params: TreeParams):
    """Best code subset by Gini decrease, for CART and forest member trees."""
    cost = params.cost_matrix()
    # for two classes with zero diagonal, gini reduces to s*p0*p1
    pair_cost = float(cost[0, 1] + cost[1, 0])

    def node_gini(n0: float, n1: float) -> float:
        total = n0 + n1
        return pair_cost * n0 * n1 / (total * total)

    def choose(idx, counts, tables):
        n = int(counts.sum())
        parent_gini = node_gini(int(counts[0]), int(counts[1]))
        best = None  # (delta, feature, subset, codes)
        for f, codes, per_code in tables:
            # codes are sorted, so position subsets come in code-subset order
            for subset in _binary_candidates(range(len(codes))):
                l0 = sum(int(per_code[i, 0]) for i in subset)
                l1 = sum(int(per_code[i, 1]) for i in subset)
                nl = l0 + l1
                nr = n - nl
                if nl < params.min_records or nr < params.min_records:
                    continue
                delta = parent_gini \
                    - (nl / n) * node_gini(l0, l1) \
                    - (nr / n) * node_gini(counts[0] - l0, counts[1] - l1)
                if delta > _GAIN_EPS and (best is None or delta > best[0]):
                    best = (delta, f, subset, codes)
        if best is None:
            return None
        delta, f, subset, codes = best
        left = tuple(int(codes[i]) for i in subset)
        return delta, f, (left, tuple(int(c) for c in codes if int(c) not in left))

    return choose


def train_cart(data: CategoricalTable, params: TreeParams | None = None) -> DecisionTree:
    """Grow a binary tree over code subsets by Gini decrease.

    Every proper code subset of every feature is a candidate; the split with
    the largest impurity decrease wins, with ties going to the lowest
    feature index and then the lexicographically smallest subset.
    """
    return _train("cart", data, params, _gini_chooser, "binary", True)


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


def _chaid_chooser(data: CategoricalTable, params: TreeParams):
    def choose(idx, counts, tables):
        best = None  # (adjusted_p, feature, groups)
        for f, codes, table in tables:
            groups = _merge_groups(
                [((int(c),), row) for c, row in zip(codes, table)], params.alpha)
            if any(g[1].sum() < params.min_records for g in groups):
                continue
            try:
                raw_p = chi_square(np.vstack([g[1] for g in groups])).p_value
            except DegenerateTableError:
                continue
            adjusted = min(1.0, stirling2(len(codes), len(groups)) * raw_p)
            if best is None or adjusted < best[0] - _GAIN_EPS:
                best = (adjusted, f, groups)
        if best is None or best[0] > params.alpha:
            return None
        _, f, groups = best
        return (info_gain(counts, [g[1] for g in groups]), f,
                tuple(g[0] for g in groups))

    return choose


def train_chaid(data: CategoricalTable, params: TreeParams | None = None) -> DecisionTree:
    """Grow a multiway tree by chi-square association after category merging.

    Per node and feature, category groups are fused pairwise (most similar
    first) until all remaining pairs differ at level alpha; the feature with
    the smallest Bonferroni-adjusted p-value over its merged grouping splits
    the node, if that p-value reaches alpha.  Each feature is used at most
    once per path.
    """
    return _train("chaid", data, params, _chaid_chooser, "merged", False)


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


def _quest_chooser(data: CategoricalTable, params: TreeParams):
    X, y = data.rows, data.target
    cost = params.cost_matrix()

    def choose(idx, counts, tables):
        # variable selection: smallest chi-square p, ties to lowest index
        best = None  # (p, feature, codes, table)
        for f, codes, table in tables:
            try:
                p = chi_square(table).p_value
            except DegenerateTableError:
                p = 1.0
            if best is None or p < best[0] - _GAIN_EPS:
                best = (p, f, codes, table)
        if best is None:
            return None

        _, f, codes, table = best
        rate = table[:, 1] / table.sum(axis=1)
        # per-row scores in row order, so the class moments sum as before
        scores = rate[np.searchsorted(codes, X[idx, f])]
        s0, s1 = scores[y[idx] == 0], scores[y[idx] == 1]
        if np.ptp(scores) < 1e-12:
            return None
        prior0 = len(s0) / len(idx)
        boundary = _qda_boundary(s0, s1, prior0, 1.0 - prior0)
        if boundary is None:
            boundary = 0.5 * (float(s0.mean()) + float(s1.mean()))
        left = rate <= boundary
        right = rate > boundary
        if not left.any() or not right.any():
            return None
        left_counts, right_counts = table[left].sum(axis=0), table[right].sum(axis=0)
        if min(left_counts.sum(), right_counts.sum()) < params.min_records:
            return None
        delta = gini_decrease(counts, left_counts, right_counts, cost)
        if delta <= _GAIN_EPS:
            return None
        return delta, f, (tuple(int(c) for c in codes[left]),
                          tuple(int(c) for c in codes[right]))

    return choose


def train_quest(data: CategoricalTable, params: TreeParams | None = None) -> DecisionTree:
    """Grow a binary tree that picks the split variable by chi-square
    p-value and the split point by a quadratic discriminant over each
    code's empirical class-1 rate.

    Decoupling selection from splitting avoids the exhaustive subset search
    of the Gini grower.  Degenerate discriminants fall back to the mean
    threshold between class score means; nodes whose fallback cannot
    separate the codes become leaves.
    """
    return _train("quest", data, params, _quest_chooser, "binary", True)


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
