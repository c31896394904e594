"""Decision-tree induction on coded categorical tables.

Four growers share one tree representation and one grow skeleton
(``_grow``): a multiway entropy tree (``train_c50``), a binary code-subset
Gini tree (``train_cart``), a chi-square merge tree (``train_chaid``), and a
chi-square / discriminant hybrid (``train_quest``).  Each differs only in
the chooser that picks a node's split from its count cube.  The skeleton
also grows a forest's members in lockstep, on index views of one table.
Pruning replaces subtrees by leaves when a pessimistic binomial error bound
says the split does not pay for itself.

Trees are immutable after training and safe to share across threads.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import combinations
from numbers import Integral, Real
from typing import Iterator, Mapping

import numpy as np

from .criteria import (
    _check_cost,
    chi_square_k2,
    gini_decrease,
    info_gain,
    unit_cost_matrix,
)
from .dataset import CategoricalTable

_GAIN_EPS = 1e-12

# Type of each numeric TreeParams field (never a bool); max_depth may be None.
_NUMERIC = {"min_records": Integral, "severity": Real, "max_depth": Integral,
            "alpha": Real, "min_gain": Real}


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
        for name, kind in _NUMERIC.items():
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, kind)) and not (
                    value is None and name == "max_depth"):
                noun = "an integer" if kind is Integral else "a number"
                raise TreeError(f"{name} must be {noun}, got {value!r}")
        if self.min_records < 1:
            raise TreeError("min_records must be at least 1")
        _confidence_factor(self.severity)
        if not 0.0 < self.alpha < 1.0:
            raise TreeError("alpha must lie in (0, 1)")
        if self.max_depth is not None and self.max_depth < 0:
            raise TreeError("max_depth must be non-negative")
        if not self.min_gain >= 0.0:
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


@dataclass(frozen=True, slots=True)
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


@dataclass(eq=False, slots=True)
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

    # -- Shapley view: the trees averaged, and the value of a stop ---------

    @property
    def members(self) -> tuple["DecisionTree", ...]:
        return (self,)

    @staticmethod
    def leaf_value(node: TreeNode) -> float:
        """The class-1 fraction ``proba_batch`` gives at this node."""
        return node.confidence if node.prediction == 1 else 1.0 - node.confidence

    # -- structured text serialization (nested nodes, preorder) -------------

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DecisionTree":
        return cls.from_payload(json.loads(text))

    def payload(self) -> dict:
        """The JSON object ``to_json`` writes."""
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

        return {
            "algorithm": self.algorithm,
            "params": asdict(self.params),
            "feature_names": list(self.feature_names),
            "schema_hash": self.schema_hash,
            "n_rows": self.n_rows,
            "root": node_payload(self.root),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "DecisionTree":
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
    values = counts.tolist()
    total = sum(values)
    if total == 0:
        # an empty branch keeps its parent's label and confidence
        if parent is None:
            raise TreeError("cannot build a leaf with no rows and no parent")
        return TreeNode(counts=counts, prediction=parent.prediction,
                        confidence=parent.confidence)
    pred = values.index(max(values))
    return TreeNode(counts=counts, prediction=pred,
                    confidence=values[pred] / total)


# ---------------------------------------------------------------------------
# Grow skeleton
# ---------------------------------------------------------------------------

# Most (row, candidate feature) keys one grow step gathers at a time; a step
# over more rows than this runs in several chunks, which bounds its memory.
# An elimination step grows all its forests in one batch, whose first grow
# steps hold tens of thousands of keys; chunks this small keep each gather's
# arrays near 100 KB without adding a measurable number of chunks.
_GATHER_KEYS = 1 << 13


@dataclass(eq=False)
class _Step:
    """The nodes one grow step expands, one slot each.

    ``cube[slot, class, dense code]`` counts the slot's rows by class and
    code for its candidate features; other features' codes count zero.
    """

    idx: list[np.ndarray]
    counts: np.ndarray
    cube: np.ndarray
    candidates: list[tuple[int, ...]]
    universes: list[np.ndarray]
    starts: np.ndarray

    def tables(self, slot: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(feature, codes, class counts [k, 2]) for each candidate feature
        showing at least two codes at the slot's node."""
        cube = self.cube[slot].T
        present = cube.any(axis=1)
        tables = []
        for f in self.candidates[slot]:
            block = slice(self.starts[f], self.starts[f + 1])
            keep = present[block]
            if np.count_nonzero(keep) >= 2:
                tables.append((f, self.universes[f][keep], cube[block][keep]))
        return tables


def _per_node(choose):
    """A step chooser running the one-node ``choose(idx, counts, tables)``
    on each slot in turn."""
    return lambda step: [choose(step.idx[i], step.counts[i], step.tables(i))
                         for i in range(len(step.idx))]


def _grow(data: CategoricalTable, params: TreeParams, chooser, arity: str,
          reuse_features: bool, members, features_per_split: int | None = None
          ) -> list[TreeNode]:
    """Grow one tree per member top-down, all members in lockstep; the four
    growers differ only in ``chooser``.

    A member is (root row indices, generator or None).  The indices point
    into ``data`` and may repeat, as a bootstrap bag does.  A node stays a
    leaf when it is pure, has no feature left, or sits at ``max_depth``.
    Unless ``reuse_features``, a feature splits at most once per path.

    Each member keeps a stack of the nodes it may still split.  A member
    with a generator gives each step its next node in preorder, which draws
    ``features_per_split`` candidates without replacement, so the draws
    come in the order a lone tree makes them.  A member without one gives
    every node on its stack, one level of the tree per step, and each node
    takes every available feature as a candidate.  One ``np.bincount`` over
    (slot, class, dense code) counts the rows of all the step's nodes.
    ``chooser(data, params, universes)`` returns a function that maps the
    ``_Step`` to one ``(score, feature, branches)`` or None per slot.  Each
    branch becomes a child, counted from its parent's cube; an empty one
    inherits the node's label.
    """
    X, y = data.rows, data.target
    m = data.n_features
    k = min(features_per_split or m, m)
    # dense code: position in the feature's code universe + the feature's start
    universes = [np.unique(X[:, f]) for f in range(m)]
    starts = np.cumsum([0] + [len(u) for u in universes])
    width = int(starts[-1])
    dense = np.empty(X.shape, dtype=np.int32)
    for f, u in enumerate(universes):
        dense[:, f] = np.searchsorted(u, X[:, f]) + starts[f]
    y32 = y.astype(np.int32)
    position = [{c: starts[f] + p for p, c in enumerate(u.tolist())}
                for f, u in enumerate(universes)]
    choose = chooser(data, params, universes)

    def splittable(node: TreeNode, available: tuple[int, ...], depth: int) -> bool:
        """Impure, with a feature left, above ``max_depth``."""
        counts = node.counts.tolist()
        return max(counts) < sum(counts) and bool(available) and (
            params.max_depth is None or depth < params.max_depth)

    roots = [_leaf(_counts_of(y[idx])) for idx, _ in members]
    # per member, a preorder stack of the (node, row indices, features,
    # depth) that may split
    features = tuple(range(m))
    stacks = [[(root, idx, features, 0)] if splittable(root, features, 0) else []
              for root, (idx, _) in zip(roots, members)]

    def expand(batch):
        """Choose and apply the splits of a step's (stack, node, row
        indices, available features, depth, candidates) entries."""
        idxs = [entry[2] for entry in batch]
        candidates = [entry[5] for entry in batch]
        rows = np.concatenate(idxs)
        slot = np.repeat(np.arange(len(batch), dtype=np.int32),
                         [len(i) for i in idxs])
        row_class = slot * 2 + y32[rows]
        # every slot has as many candidates: k with a generator, else the
        # features left at the one depth all the step's nodes share
        key = dense[rows[:, None], np.array(candidates)[slot]]
        key += (row_class * np.int32(width))[:, None]
        cube = np.bincount(key.ravel(), minlength=len(batch) * 2 * width
                           ).reshape(len(batch), 2, width)
        counts = np.array([entry[1].counts for entry in batch])
        chosen = choose(_Step(idxs, counts, cube, candidates, universes, starts))
        split = [i for i, best in enumerate(chosen) if best is not None]
        if not split:
            return
        # route[slot, dense code] = 1 + the branch that takes the code's rows
        fan = 1 + max(len(chosen[i][2]) for i in split)
        feature = np.zeros(len(batch), dtype=np.intp)
        at, code, branch = [], [], []
        for i in split:
            _, f, branches = chosen[i]
            feature[i] = f
            for b, codes in enumerate(branches, 1):
                for c in codes:
                    at.append(i)
                    code.append(position[f][c])
                    branch.append(b)
        at, code, branch = np.array(at), np.array(code), np.array(branch)
        route = np.zeros((len(batch), width), dtype=np.intp)
        route[at, code] = branch
        child_counts = np.zeros((len(batch), fan, 2), dtype=np.int64)
        np.add.at(child_counts, (at, branch), cube[at, :, code])
        # one stable sort splits every slot's rows by branch, in row order
        part = slot * fan + route[slot, dense[rows, feature[slot]]]
        rows = rows[np.argsort(part, kind="stable")]
        ends = np.cumsum(np.bincount(part, minlength=len(batch) * fan)).tolist()
        totals = child_counts.sum(axis=2).tolist()
        for i in split:
            stack, node, _, available, depth, _ = batch[i]
            node.score, f, branches = chosen[i]
            if not reuse_features:
                available = tuple(g for g in available if g != f)
            children, grown = [], []
            for b in range(1, len(branches) + 1):
                # its own array: a view would keep the step's arrays alive
                counts = child_counts[i, b].copy()
                if totals[i][b]:
                    children.append(_leaf(counts))
                    if splittable(children[-1], available, depth + 1):
                        j = i * fan + b
                        grown.append((children[-1], rows[ends[j - 1]:ends[j]],
                                      available, depth + 1))
                else:
                    children.append(_leaf(counts, parent=node))
            node.split = Split(feature=f, arity=arity, branches=branches)
            node.children = tuple(children)
            stack.extend(reversed(grown))

    while True:
        batch = []
        for stack, (_, rng) in zip(stacks, members):
            while stack:
                node, idx, available, depth = stack.pop()
                candidates = available if rng is None else \
                    tuple(sorted(rng.choice(m, k, replace=False).tolist()))
                batch.append((stack, node, idx, available, depth, candidates))
                if rng is not None:
                    break
        if not batch:
            return roots
        start = gathered = 0
        for i, entry in enumerate(batch):
            gathered += len(entry[2]) * len(entry[5])
            if gathered > _GATHER_KEYS and i > start:
                expand(batch[start:i])
                start, gathered = i, len(entry[2]) * len(entry[5])
        expand(batch[start:])


def _train(algorithm: str, data: CategoricalTable, params: TreeParams | None,
           chooser, arity: str, reuse_features: bool) -> DecisionTree:
    params = params or TreeParams()
    [root] = _grow(data, params, chooser, arity, reuse_features,
                   [(np.arange(data.n_rows), None)])
    return DecisionTree(root=root, algorithm=algorithm, params=params,
                        feature_names=data.feature_names,
                        schema_hash=data.schema_hash(), n_rows=data.n_rows)


# ---------------------------------------------------------------------------
# Multiway entropy tree
# ---------------------------------------------------------------------------

def _gain_chooser(data: CategoricalTable, params: TreeParams, universes):
    """Largest information gain over the candidate features, for C5.0.

    Every (slot, candidate) partition of a step comes straight from the
    cube, one child per code of the feature's table universe and zero-count
    children past its end, and one ``info_gain`` call scores them all.  A
    candidate needs at least two codes present at the node, each with
    ``min_records`` rows.  Scanning in candidate order, a gain must beat the
    best so far by more than ``_GAIN_EPS`` to take its place.
    """
    sizes = [len(u) for u in universes]
    starts = np.cumsum([0] + sizes)
    # gather[f, j]: the cube column of feature f's j-th code, or past the
    # feature's universe the zero column appended after the last feature
    gather = np.full((len(sizes), max(sizes, default=0)), starts[-1])
    for f, size in enumerate(sizes):
        gather[f, :size] = np.arange(starts[f], starts[f + 1])
    branches = [tuple((int(c),) for c in u) for u in universes]

    def choose(step):
        cube = np.pad(step.cube, ((0, 0), (0, 0), (0, 1)))
        slots = np.arange(len(cube))[:, None, None]
        parts = cube[slots, :, gather[np.array(step.candidates)]]  # [s, c, u, 2]
        gains = info_gain(np.broadcast_to(step.counts[:, None], parts.shape[:2] + (2,)),
                          parts)
        n = parts.sum(axis=3)  # rows per code
        present = n > 0
        valid = (present.sum(axis=2) >= 2) \
            & (np.where(present, n, params.min_records).min(axis=2)
               >= params.min_records)
        chosen = []
        for features, slot_gains, ok in zip(step.candidates, gains.tolist(),
                                            valid.tolist()):
            best = None  # (gain, feature)
            for f, g, v in zip(features, slot_gains, ok):
                if v and (best is None or g > best[0] + _GAIN_EPS):
                    best = (g, f)
            if best is None or best[0] < params.min_gain:
                chosen.append(None)
            else:
                chosen.append((*best, branches[best[1]]))
        return chosen

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

def _confidence_factor(severity: float) -> float:
    """Pruning confidence factor CF = (100 - severity) / 100, which must lie
    strictly inside (0, 1); a severity within about 7e-15 of 0 rounds CF to
    1."""
    if not 0.0 < severity < 100.0:
        raise TreeError("severity must lie in (0, 100)")
    cf = (100.0 - severity) / 100.0
    if not cf < 1.0:
        raise TreeError(f"severity {severity!r} is too small: the confidence "
                        f"factor (100 - severity) / 100 rounds to 1")
    return cf


def pessimistic_error_bound(errors, total, cf: float):
    """Upper confidence bound on the true error rate given ``errors``
    mistakes in ``total`` rows.

    This is the exact binomial bound: the rate at which observing this few
    errors has probability CF.  Smaller CF pushes the bound higher.  Scalar
    counts give a float; arrays give an array, from one ``betaincinv``
    call.  No rows give 0, and errors on every row give 1.
    """
    errors, total = np.asarray(errors), np.asarray(total)
    inside = (total > 0) & (errors < total)
    if (total > 0).any() and not 0.0 < cf < 1.0:
        raise TreeError("confidence factor must lie in (0, 1)")
    bound = np.where(total > 0, 1.0, 0.0)
    if inside.any():
        from scipy.special import betaincinv  # lazy, as in criteria.chi_square_sf

        bound[inside] = betaincinv(errors[inside] + 1, (total - errors)[inside],
                                   1.0 - cf)
    return float(bound) if bound.ndim == 0 else bound


def _as_pruned_leaf(node: TreeNode) -> TreeNode:
    return TreeNode(counts=node.counts, prediction=node.prediction,
                    confidence=node.confidence)


def prune_c50(tree: DecisionTree, severity: float | None = None) -> DecisionTree:
    """Collapse subtrees whose pessimistic error is no better than a leaf.

    A node's predicted errors are its row count times the bound on its
    error rate; all the tree's nodes get theirs from one vector call.  One
    bottom-up pass, children before parents, replaces a subtree by a leaf
    when the leaf's predicted errors do not exceed the sum of its (already
    pruned) children's by more than ``_GAIN_EPS``.  A kept subtree's sum is
    therefore below its leaf's, so no top-down pass could collapse it
    afterwards.  The result reuses no node objects from the input but only
    ever removes structure.
    """
    cf = _confidence_factor(tree.params.severity if severity is None else severity)
    nodes = [node for node, _, _ in iter_nodes(tree)]  # preorder
    counts = np.array([node.counts for node in nodes], dtype=np.int64)
    total = counts.sum(axis=1)
    leaf_errors = total * pessimistic_error_bound(total - counts.max(axis=1), total, cf)
    # children follow their parent in preorder, so a reverse walk meets
    # them first; subtree holds each node's predicted errors once pruned
    subtree, collapse = {}, set()
    for node, leaf in zip(reversed(nodes), reversed(leaf_errors.tolist())):
        below = 0
        for child in node.children:
            below += subtree[id(child)]
        if node.is_leaf or leaf <= below + _GAIN_EPS:
            collapse.add(id(node))
            below = leaf
        subtree[id(node)] = below

    def rebuild(node: TreeNode) -> TreeNode:
        if id(node) in collapse:
            return _as_pruned_leaf(node)
        return TreeNode(counts=node.counts, prediction=node.prediction,
                        confidence=node.confidence, split=node.split,
                        children=tuple(rebuild(c) for c in node.children),
                        score=node.score)

    return replace(tree, root=rebuild(tree.root))


# ---------------------------------------------------------------------------
# Binary Gini tree
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _subset_bits(k: int) -> np.ndarray:
    """Bitmasks of the nonempty proper subsets of k code positions, ordered
    as their sorted position tuples compare."""
    subsets = sorted(c for r in range(1, k) for c in combinations(range(k), r))
    bits = np.array([sum(1 << p for p in c) for c in subsets], dtype=np.int64)
    bits.setflags(write=False)  # shared by every caller through the cache
    return bits


# (slot, candidate) cells one Gini pass scores at once; more slots than this
# allows are scored in blocks, which bounds the pass's arrays
_SCORE_CELLS = 1 << 16


def _gini_chooser(data: CategoricalTable, params: TreeParams, universes):
    """Best code subset by Gini decrease, for CART and forest member trees.

    Candidate j is a nonempty proper subset of one feature's code universe,
    ordered by feature, then lexicographically.  A node may split on it when
    it lies within the codes present at the node, holds the smallest of them
    and is not all of them; anchoring on the smallest code counts each
    subset/complement pair once.  The left counts of every (slot,
    candidate) come from integer products of the step's cube with a cached
    subset-membership matrix, one per code count; the deltas follow
    elementwise in float64, in the order of the scalar ``node_gini``
    formula.  The first maximum wins, so ties go to the lowest feature,
    then the smallest subset.
    """
    cost = params.cost_matrix()
    # for two classes with zero diagonal, gini reduces to s*p0*p1
    pair_cost = float(cost[0, 1] + cost[1, 0])
    sizes = [len(u) for u in universes]
    starts = np.cumsum([0] + sizes)
    bits = [_subset_bits(k) for k in sizes]
    none = np.zeros(0, dtype=np.int64)  # a table with no features has no candidate
    subset = np.concatenate([none, *bits])
    feature = np.repeat(np.arange(len(sizes)), [len(b) for b in bits])
    firsts = np.cumsum([0] + [len(b) for b in bits])
    # features with k codes share one membership matrix [code, subset]:
    # (their dense codes, their candidate columns, the matrix) per k
    groups = []
    for k in sorted(set(sizes) - {1}):
        same = [f for f, size in enumerate(sizes) if size == k]
        groups.append((
            np.concatenate([np.arange(starts[f], starts[f + 1]) for f in same]),
            np.concatenate([np.arange(firsts[f], firsts[f + 1]) for f in same]),
            _subset_bits(k) >> np.arange(k)[:, None] & 1))
    # a dense code's bit in its feature's present-code mask
    place = np.concatenate([none] + [1 << np.arange(k, dtype=np.int64) for k in sizes])
    # the subset's bits and every bit below its lowest: a node's present
    # codes hold the subset and its smallest code when they agree with it here
    anchor = subset | ((subset & -subset) - 1)
    candidate = list(zip(feature.tolist(), subset.tolist()))

    @lru_cache(maxsize=None)
    def code_set(f: int, mask: int) -> tuple[int, ...]:
        return tuple(int(c) for p, c in enumerate(universes[f]) if mask >> p & 1)

    def node_gini(n0, n1, total):
        # total is n0 + n1, the integer the scalar formula sums
        return pair_cost * n0 * n1 / (total * total)

    def choose(step):
        if not subset.size:
            return [None] * len(step.idx)
        block = max(1, _SCORE_CELLS // len(subset))
        return [best for lo in range(0, len(step.idx), block)
                for best in score(step.counts[lo:lo + block], step.cube[lo:lo + block])]

    def score(counts, cube):
        n0, n1 = counts[:, :1], counts[:, 1:]
        n = n0 + n1
        present = np.add.reduceat(cube.any(axis=1) * place, starts[:-1],
                                  axis=1)[:, feature]
        by_class = cube.reshape(-1, len(place))
        left = np.empty((len(by_class), len(subset)), dtype=np.int64)
        for codes, columns, member in groups:
            left[:, columns] = (by_class[:, codes].reshape(
                len(by_class), -1, len(member)) @ member).reshape(len(by_class), -1)
        l0, l1 = left[0::2], left[1::2]
        nl = l0 + l1
        nr = n - nl
        # a whole present set sends no row right, so min_records rejects it
        valid = (present & anchor == subset) \
            & (np.minimum(nl, nr) >= params.min_records)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = node_gini(n0, n1, n) \
                - (nl / n) * node_gini(l0, l1, nl) \
                - (nr / n) * node_gini(n0 - l0, n1 - l1, nr)
        delta = np.where(valid, delta, -np.inf)
        best = delta.argmax(axis=1)
        slots = np.arange(len(best))
        out = []
        for d, j, codes in zip(delta[slots, best].tolist(), best.tolist(),
                               present[slots, best].tolist()):
            if not d > _GAIN_EPS:
                out.append(None)
                continue
            f, chosen = candidate[j]
            out.append((d, f, (code_set(f, chosen), code_set(f, codes & ~chosen))))
        return out

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


@lru_cache(maxsize=64)
def _pairs(n: int) -> np.ndarray:
    """The [i, j] index pairs i < j of n items, in (i, j) order; shared,
    so read-only."""
    pairs = np.array(list(combinations(range(n), 2)), dtype=np.intp)
    pairs.setflags(write=False)
    return pairs


def _merge_groups(groups: list[tuple[tuple[int, ...], np.ndarray]], alpha: float
                  ) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Greedily fuse the least-distinguishable pair until every remaining
    pair differs at level alpha or only two groups remain.

    Each round scores all pairs in one ``chi_square_k2`` call; a pair with
    an empty class column is indistinguishable (p = 1).  ``argmax`` takes
    the first pair, in (i, j) order, of the largest p-value.
    """
    groups = list(groups)
    while len(groups) > 2:
        pairs = _pairs(len(groups))
        p, degenerate = chi_square_k2(np.array([g[1] for g in groups])[pairs])
        p[degenerate] = 1.0
        best = int(np.argmax(p))
        if p[best] < alpha:
            break
        i, j = pairs[best].tolist()
        merged = (
            tuple(sorted(groups[i][0] + groups[j][0])),
            groups[i][1] + groups[j][1],
        )
        groups = [g for k, g in enumerate(groups) if k not in (i, j)] + [merged]
        groups.sort(key=lambda g: g[0][0])
    return groups


def _chaid_chooser(data: CategoricalTable, params: TreeParams, universes):
    def choose(idx, counts, tables):
        merged = []  # (feature, codes present, groups), groups >= min_records
        for f, codes, table in tables:
            groups = _merge_groups(
                [((int(c),), row) for c, row in zip(codes, table)], params.alpha)
            if all(g[1].sum() >= params.min_records for g in groups):
                merged.append((f, codes, groups))
        raw_p, degenerate = chi_square_k2(
            [np.vstack([g[1] for g in groups]) for _, _, groups in merged])
        best = None  # (adjusted_p, feature, groups)
        for (f, codes, groups), p, flat in zip(merged, raw_p.tolist(), degenerate):
            if flat:
                continue
            adjusted = min(1.0, stirling2(len(codes), len(groups)) * p)
            if best is None or adjusted < best[0] - _GAIN_EPS:
                best = (adjusted, f, groups)
        if best is None or best[0] > params.alpha:
            return None
        _, f, groups = best
        return (info_gain(counts, [g[1] for g in groups]), f,
                tuple(g[0] for g in groups))

    return _per_node(choose)


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


def _quest_chooser(data: CategoricalTable, params: TreeParams, universes):
    X, y = data.rows, data.target
    cost = params.cost_matrix()

    def choose(idx, counts, tables):
        # variable selection: smallest chi-square p, ties to lowest index
        p, degenerate = chi_square_k2([table for _, _, table in tables])
        p[degenerate] = 1.0
        best = None  # (p, feature, codes, table)
        for (f, codes, table), pf in zip(tables, p.tolist()):
            if best is None or pf < best[0] - _GAIN_EPS:
                best = (pf, f, codes, table)
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

    return _per_node(choose)


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
