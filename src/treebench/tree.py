"""Decision-tree induction on coded categorical tables.

Four growers share one tree representation and one grow skeleton
(``_grow``): a multiway entropy tree (``train_c50``), a binary code-subset
Gini tree (``train_cart``), a chi-square merge tree (``train_chaid``), and a
chi-square / discriminant hybrid (``train_quest``).  Each differs only in
the chooser, and every chooser scores a whole grow step at once: the splits
of all the nodes the step expands, from their one count cube.  The skeleton
also grows a forest's members in lockstep, on index views of one table.
Pruning replaces subtrees by leaves when a pessimistic binomial error bound
says the split does not pay for itself.

Trees are immutable after training and safe to share across threads.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .criteria import _special, chi_square_k2, gini_decrease, info_gain
from .dataset import (ANY, LIST, NAMES, NATURAL, NATURALS, OBJECT, STRING,
                      CategoricalTable, Rule, check_knobs, integer, number, optional,
                      read_fields, read_json)

_GAIN_EPS = 1e-12

# The rule of each TreeParams field
TREE_RULES = {
    "min_records": integer(1),
    "severity": number("a number in (0, 100)", lambda v: 0 < v < 100),
    "max_depth": optional(integer(0)),
    "alpha": number("a number in (0, 1)", lambda v: 0 < v < 1),
    "min_gain": number("a number >= 0", lambda v: v >= 0),
}
# The TreeParams fields each grower reads, with their rules; a grower
# refuses a change to any other field
GROWER_KNOBS = {grower: {name: TREE_RULES[name] for name in names} for grower, names in {
    "c50": ("min_records", "severity", "max_depth", "min_gain"),
    "chaid": ("min_records", "max_depth", "alpha"),
    "cart": ("min_records", "max_depth"),
    "quest": ("min_records", "max_depth"),
}.items()}
# The knobs a tree payload's algorithm takes: a forest member grows as cart
_PAYLOAD_KNOBS = {**GROWER_KNOBS, "forest_member": GROWER_KNOBS["cart"]}
_ALGORITHM = Rule("'c50', 'chaid', 'cart', 'quest' or 'forest_member'",
                  lambda v: isinstance(v, str) and v in _PAYLOAD_KNOBS)
# The rules of the values a tree payload's node and split hold
_COUNTS = Rule("a list of two integers >= 0 totalling below 2**63",
               lambda v: NATURALS.test(v) and len(v) == 2 and sum(v) < 2**63)
_SCORE = number("a finite number", lambda v: abs(v) <= sys.float_info.max)
_BRANCHES = Rule("a list of two or more disjoint lists of integers in [0, 2**63)",
                 lambda v: isinstance(v, list) and len(v) >= 2
                 and all(map(NATURALS.test, v))
                 and len(set().union(*v)) == sum(len(set(b)) for b in v))
# The fields of a tree payload and of a node; a split's are in ``from_payload``,
# as its feature's rule needs the payload's names.  A node's label and a
# split's arity, which older payloads stored, load and are ignored.
_PAYLOAD_FIELDS = {"algorithm": _ALGORITHM, "params": OBJECT, "feature_names": NAMES,
                   "schema_hash": STRING, "n_rows": integer(1), "root": OBJECT}
_NODE_FIELDS = {"counts": _COUNTS, "score": (_SCORE, 0.0), "split": (OBJECT, None),
                "children": (LIST, ()), "prediction": (ANY, None),
                "confidence": (ANY, None)}


class TreeError(ValueError):
    """Raised for invalid training parameters or malformed rows."""


@dataclass(frozen=True)
class TreeParams:
    """Induction knobs.  A grower reads only its ``GROWER_KNOBS`` and
    refuses any other field set away from its default.

    ``min_records`` is the minimum row count for every nonempty child
    branch.  ``severity`` steers pruning: confidence factor
    CF = (100 - severity) / 100, so higher severity prunes harder.
    ``alpha`` is the significance level for chi-square splitting.
    ``min_gain`` is the smallest information gain the entropy grower will
    split on; the default demands strictly positive gain, while 0.0 splits
    on the best candidate even at zero gain (needed for targets like parity
    that no single feature improves).
    """

    min_records: int = 2
    severity: float = 75.0
    max_depth: int | None = None
    alpha: float = 0.05
    min_gain: float = _GAIN_EPS

    def __post_init__(self):
        check_knobs(vars(self), TREE_RULES, "TreeParams", TreeError)
        _confidence_factor(self.severity)


class Split(NamedTuple):
    """A node's routing rule: ``branches[k]`` is the code set for child k.
    A grower's chooser hands over at least 2 disjoint, sorted tuples of int
    codes; ``DecisionTree.from_payload`` checks a loaded split's."""

    feature: int
    branches: tuple[tuple[int, ...], ...]


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
        on to the child their code selects, which labels them again; a row
        whose code no branch lists stops at the node.  An empty child is a
        leaf with its parent's label, so the rows it takes keep that label.
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
                if routed.size:
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

    def stops(self, universes, value) -> list[tuple[float, dict[int, np.ndarray]]]:
        """(``value(node)``, {feature: pass mask}) for every node where
        ``_stops`` can stop a row, in preorder, a split's stop for the codes
        no branch lists before its children's.

        A pass mask marks the codes of ``universes[f]`` (sorted codes of
        feature f) that follow the stop's path.  A stop no code reaches is
        left out, so the stops partition the rows whose codes the universes
        hold.
        """
        stops, stack = [], [(self.root, {})]
        while stack:
            node, masks = stack.pop()
            if node.is_leaf:
                stops.append((value(node), masks))
                continue
            f = node.split.feature
            universe, allowed = universes[f], masks.get(f, True)
            hits = [(universe[:, None] == branch).any(axis=1)
                    for branch in node.split.branches]
            unlisted = allowed & ~np.logical_or.reduce(hits)
            if unlisted.any():
                stops.append((value(node), {**masks, f: unlisted}))
            for hit, child in reversed(list(zip(hits, node.children))):
                mask = allowed & hit
                if mask.any():
                    stack.append((child, {**masks, f: mask}))
        return stops

    # -- structured text serialization (nested nodes, preorder) -------------

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DecisionTree":
        return cls.from_payload(read_json(text, ANY, "tree payload", TreeError))

    def payload(self) -> dict:
        """The JSON object ``to_json`` writes."""
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
        """The tree of a ``payload()`` object, each node labelled by
        ``_node_labels`` of its counts.  A payload is refused when its
        ``algorithm``'s grower ignores a knob its ``params`` set, when counts
        do not add up (children to their split, the root to ``n_rows``),
        when an empty node splits, or when it holds a field the format does
        not name (an older payload's node labels and split arity load and
        are ignored).  Splits are checked only here, their branches
        disjoint."""
        def parse_node(item, parent: TreeNode | None) -> TreeNode:
            counts, score, split, children, _, _ = read_fields(
                item, _NODE_FIELDS, "tree node", TreeError).values()
            node = TreeNode(np.array(counts, dtype=np.int64), 0, 0.0, score=score)
            # an empty node takes its parent's label; the root is never empty
            label = _node_labels(node.counts, *(
                (parent.prediction, parent.confidence) if parent else (0, 0.0)))
            node.prediction, node.confidence = label[0].item(), label[1].item()
            if split is not None:
                if not sum(counts):
                    raise TreeError("an empty node must be a leaf")
                f, branches, _ = read_fields(split, split_fields, "split",
                                             TreeError).values()
                node.split = Split(f, tuple(map(tuple, branches)))
                node.children = tuple(parse_node(c, node) for c in children)
                if len(node.children) != len(node.split.branches):
                    raise TreeError("a split needs one child per branch")
                below = [child.counts.tolist() for child in node.children]
                if list(map(sum, zip(*below))) != list(counts):
                    raise TreeError(f"a split's children's counts {below} do not "
                                    f"add up to its counts {counts}")
            return node

        try:
            algorithm, params, names, schema_hash, n_rows, root = read_fields(
                payload, _PAYLOAD_FIELDS, "tree payload", TreeError).values()
            names = tuple(names)
            split_fields = {
                "feature": Rule(f"an index into feature_names, below {len(names)}",
                                lambda v: NATURAL.test(v) and v < len(names)),
                "branches": _BRANCHES, "arity": (ANY, None)}
            check_knobs(params, TREE_RULES, "TreeParams", TreeError)
            params = TreeParams(**params)
            _check_grower_knobs(algorithm, params)
            root = parse_node(root, None)
            if root.total != n_rows:
                raise TreeError(f"the root's counts {root.counts.tolist()} do not "
                                f"total n_rows {n_rows}")
            return cls(root, algorithm, params, names, schema_hash, n_rows)
        except TreeError:
            raise
        except (TypeError, ValueError, RecursionError) as e:
            raise TreeError(f"malformed tree payload: {e}") from None


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------

def node_payload(node: TreeNode) -> dict:
    """A node's JSON object: its counts and score, and when it splits, the
    split and its children's objects.  Its label follows from its counts."""
    payload = {"counts": [int(c) for c in node.counts], "score": node.score}
    if node.split is not None:
        payload["split"] = {"feature": node.split.feature,
                            "branches": [list(b) for b in node.split.branches]}
        payload["children"] = [node_payload(c) for c in node.children]
    return payload


def iter_nodes(tree: DecisionTree) -> Iterator[tuple[TreeNode, int, tuple[int, ...]]]:
    """Preorder walk yielding (node, depth, branch path from root)."""
    stack = [(tree.root, 0, ())]
    while stack:
        node, depth, path = stack.pop()
        yield node, depth, path
        for k in reversed(range(len(node.children))):
            stack.append((node.children[k], depth + 1, path + (k,)))


def leaf_count(tree: DecisionTree) -> int:
    return sum(1 for node, _, _ in iter_nodes(tree) if node.is_leaf)


def node_count(tree: DecisionTree) -> int:
    return sum(1 for _ in iter_nodes(tree))


def tree_depth(tree: DecisionTree) -> int:
    return max(depth for _, depth, _ in iter_nodes(tree))


def node_paths(tree: DecisionTree) -> set[tuple[int, ...]]:
    return {path for _, _, path in iter_nodes(tree)}


def _node_labels(counts: np.ndarray, parent_prediction, parent_confidence
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(class, confidence, impure) of the nodes of class counts ``[..., 2]``:
    every tree's labelling rule.  A node predicts its majority class, ties
    going to class 0, with that class's share of its rows as confidence;
    an empty node takes its parent's label, broadcast against the nodes.
    A node is impure when it holds both classes."""
    total = counts.sum(axis=-1)
    empty = total == 0
    # int64 / int64 is the correctly rounded quotient, as int / int is
    share = counts.max(axis=-1) / np.maximum(total, 1)
    return (np.where(empty, parent_prediction, counts.argmax(axis=-1)),
            np.where(empty, parent_confidence, share), counts.min(axis=-1) > 0)


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

    def tables(self) -> list[list[tuple[int, np.ndarray, np.ndarray]]]:
        """Per slot, (feature, codes, class counts [k, 2]) for each candidate
        feature showing at least two codes at the slot's node.

        Only candidates count in the cube, and they come sorted, so the
        tables come in candidate order.
        """
        m = len(self.universes)
        feature = np.repeat(np.arange(m), np.diff(self.starts))
        # (slot, dense code) of each code present, slot-major, then by code
        slot, code = np.nonzero(self.cube.any(axis=1))
        cell = slot * m + feature[code]
        keep = np.bincount(cell, minlength=len(self.idx) * m)[cell] >= 2
        cell, code = cell[keep], code[keep]
        codes = np.concatenate([np.zeros(0, dtype=np.int64), *self.universes])[code]
        counts = self.cube[slot[keep], :, code]
        cells, lows = np.unique(cell, return_index=True)
        tables = [[] for _ in self.idx]
        for c, lo, hi in zip(cells.tolist(), lows.tolist(), [*lows[1:].tolist(), len(cell)]):
            tables[c // m].append((c % m, codes[lo:hi], counts[lo:hi]))
        return tables


def _grow(data: CategoricalTable, params: TreeParams, chooser, resplit: bool,
          members, features_per_split: int | None = None) -> list[TreeNode]:
    """Grow one tree per member top-down, all members in lockstep; the four
    growers differ only in ``chooser``.

    A member is (root row indices, generator or None).  The indices point
    into ``data`` and may repeat, as a bootstrap bag does.  A node stays a
    leaf when it is pure, has no feature left, or sits at ``max_depth``.
    With ``resplit`` (binary splits), a split's feature may split again
    below it; a multiway or merged split uses every code, so not below it.

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
    universes, dense = [], np.empty(X.shape, dtype=np.int32)
    for f in range(m):
        universe, dense[:, f] = np.unique(X[:, f], return_inverse=True)
        universes.append(universe)
    starts = np.cumsum([0] + [len(u) for u in universes])
    width = int(starts[-1])
    dense += starts[:-1]
    y32 = y.astype(np.int32)
    choose = chooser(data, params, universes)
    max_depth = math.inf if params.max_depth is None else params.max_depth

    counts = [np.bincount(y[idx], minlength=2) for idx, _ in members]
    # a root is never empty, so it reads no parent label
    prediction, confidence, impure = (
        a.tolist() for a in _node_labels(np.array(counts), 0, 0.0))
    roots = list(map(TreeNode, counts, prediction, confidence))
    # per member, a preorder stack of the (node, row indices, features,
    # depth) that may split: impure, with a feature left, above max_depth
    features = tuple(range(m))
    stacks = [[(root, idx, features, 0)] if mixed and features and 0 < max_depth else []
              for root, (idx, _), mixed in zip(roots, members, impure)]

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
        route = np.zeros((len(batch), width), dtype=np.intp)
        for i in split:
            _, f, branches = chosen[i]
            feature[i] = f
            branch_of = {c: b for b, codes in enumerate(branches, 1) for c in codes}
            route[i, starts[f]:starts[f + 1]] = [branch_of.get(c, 0)
                                                 for c in universes[f].tolist()]
        at, code = np.nonzero(route)
        branch = route[at, code]
        child_counts = np.zeros((len(batch), fan, 2), dtype=np.int64)
        np.add.at(child_counts, (at, branch), cube[at, :, code])
        # one stable sort splits every slot's rows by branch, in row order
        part = slot * fan + route[slot, dense[rows, feature[slot]]]
        rows = rows[np.argsort(part, kind="stable")]
        ends = np.cumsum(np.bincount(part, minlength=len(batch) * fan)).tolist()
        # every child of the step labelled at once, an empty one by its parent
        prediction, confidence, impure = (a.tolist() for a in _node_labels(
            child_counts, np.array([[entry[1].prediction] for entry in batch]),
            np.array([[entry[1].confidence] for entry in batch])))
        for i in split:
            stack, node, _, available, depth, _ = batch[i]
            node.score, f, branches = chosen[i]
            if not resplit:
                available = tuple(g for g in available if g != f)
            deeper = bool(available) and depth + 1 < max_depth
            children, grown = [], []
            for b in range(1, len(branches) + 1):
                # its own array: a view would keep the step's arrays alive
                children.append(TreeNode(child_counts[i, b].copy(), prediction[i][b],
                                         confidence[i][b]))
                if deeper and impure[i][b]:
                    j = i * fan + b
                    grown.append((children[-1], rows[ends[j - 1]:ends[j]],
                                  available, depth + 1))
            node.split = Split(f, branches)
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


def _check_grower_knobs(algorithm: str, params: TreeParams) -> None:
    """Refuse a field ``algorithm``'s grower does not read, set away from its
    default (a dataclass keeps each field's default as a class attribute)."""
    check_knobs({k: v for k, v in vars(params).items() if v != getattr(TreeParams, k)},
                _PAYLOAD_KNOBS[algorithm], algorithm, TreeError)


def _train(algorithm: str, data: CategoricalTable, params: TreeParams | None,
           chooser, resplit: bool) -> DecisionTree:
    params = params or TreeParams()
    _check_grower_knobs(algorithm, params)
    [root] = _grow(data, params, chooser, resplit, [(np.arange(data.n_rows), None)])
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
    return _train("c50", data, params, _gain_chooser, resplit=False)


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
        betaincinv = _special("betaincinv")
        bound[inside] = betaincinv(errors[inside] + 1, (total - errors)[inside],
                                   1.0 - cf)
    return float(bound) if bound.ndim == 0 else bound


def prune_c50(tree: DecisionTree, severity: float | None = None) -> DecisionTree:
    """Collapse subtrees whose pessimistic error is no better than a leaf.

    A node's predicted errors are its row count times the bound on its
    error rate; all the tree's nodes get theirs from one vector call.  One
    bottom-up pass, children before parents, builds each pruned node: a
    leaf when the leaf's predicted errors do not exceed the sum of its
    (already pruned) children's by more than ``_GAIN_EPS``, else the split
    over those children.  A kept subtree's sum is therefore below its
    leaf's, so no top-down pass could collapse it afterwards.  The result
    reuses no node objects from the input but only ever removes structure.
    """
    cf = _confidence_factor(tree.params.severity if severity is None else severity)
    nodes = [node for node, _, _ in iter_nodes(tree)]  # preorder
    counts = np.array([node.counts for node in nodes], dtype=np.int64)
    total = counts.sum(axis=1)
    leaf_errors = total * pessimistic_error_bound(total - counts.max(axis=1), total, cf)
    # children follow their parent in preorder, so a reverse walk meets them
    # first and leaves them on top of the stack, the first child topmost;
    # built holds each pruned subtree with its predicted errors
    built = []
    for node, leaf in zip(reversed(nodes), reversed(leaf_errors.tolist())):
        children = [built.pop() for _ in node.children]
        below = 0
        for _, errors in children:
            below += errors
        if node.is_leaf or leaf <= below + _GAIN_EPS:
            built.append((TreeNode(node.counts, node.prediction, node.confidence), leaf))
        else:
            built.append((TreeNode(node.counts, node.prediction, node.confidence,
                                   node.split, tuple(c for c, _ in children),
                                   node.score), below))
    [(root, _)] = built
    return replace(tree, root=root)


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
        # for two classes, gini is 2*p0*p1
        return 2.0 * n0 * n1 / (total * total)

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
    return _train("cart", data, params, _gini_chooser, resplit=True)


# ---------------------------------------------------------------------------
# Chi-square merge tree
# ---------------------------------------------------------------------------

def stirling2(n: int, k: int) -> int:
    """Number of ways to partition n labeled items into k nonempty groups:
    the surjections onto k groups, by inclusion-exclusion, over k!."""
    if k < 0:
        return 0
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n
               for j in range(k + 1)) // math.factorial(k)


@lru_cache(maxsize=64)
def _pairs(n: int) -> np.ndarray:
    """The [i, j] index pairs i < j of n items, in (i, j) order; shared,
    so read-only."""
    pairs = np.array(list(combinations(range(n), 2)), dtype=np.intp)
    pairs.setflags(write=False)
    return pairs


_Group = tuple[tuple[int, ...], np.ndarray]  # (codes, class counts [2])


def _merge_groups(groupings: list[list[_Group]], alpha: float
                  ) -> list[list[_Group]]:
    """Merge each list of category groups, all lists in lockstep: greedily
    fuse a list's least-distinguishable pair until every remaining pair
    differs at level alpha or only two groups remain.

    Each round stacks the [2, 2] pair tables of every unfinished list, in
    (i, j) order, into one ``chi_square_k2`` call; a pair with an empty
    class column is indistinguishable (p = 1).  A list fuses the first pair
    of its largest p-value, as ``argmax`` over its own segment would.
    """
    out = list(groupings)
    live = [g for g, groups in enumerate(out) if len(groups) > 2]
    while live:
        pairs = [_pairs(len(out[g])) for g in live]
        sizes = np.array([len(pair) for pair in pairs])
        starts = np.cumsum(sizes) - sizes
        p, degenerate = chi_square_k2(np.concatenate(
            [np.array([grp[1] for grp in out[g]])[pair] for g, pair in zip(live, pairs)]))
        p[degenerate] = 1.0
        top = np.maximum.reduceat(p, starts)
        # each segment's first hit of its maximum
        hits = np.flatnonzero(p == np.repeat(top, sizes))
        best = hits[np.searchsorted(hits, starts)] - starts
        merging = []
        for g, pair, b, top_p in zip(live, pairs, best.tolist(), top.tolist()):
            if top_p < alpha:
                continue
            groups = out[g]
            i, j = pair[b].tolist()
            merged = (tuple(sorted(groups[i][0] + groups[j][0])),
                      groups[i][1] + groups[j][1])
            groups = [grp for k, grp in enumerate(groups) if k not in (i, j)] + [merged]
            groups.sort(key=lambda grp: grp[0][0])
            out[g] = groups
            if len(groups) > 2:
                merging.append(g)
        live = merging
    return out


def _chaid_chooser(data: CategoricalTable, params: TreeParams, universes):
    """Smallest Bonferroni-adjusted p-value over merged code groups, for
    CHAID.

    Every (slot, candidate) table of a step merges its codes in one
    lockstep ``_merge_groups`` call.  A grouping with a group under
    ``min_records`` rows drops out, one ``chi_square_k2`` call scores the
    rest, and a grouping with an empty class column drops out too.
    Scanning each slot's candidates in order, an adjusted p-value must beat
    the best so far by more than ``_GAIN_EPS``.  A slot splits when its
    best reaches alpha, scored by the split's information gain.
    """
    def choose(step):
        cells = [(slot, f, codes, table) for slot, tables in enumerate(step.tables())
                 for f, codes, table in tables]
        groupings = _merge_groups(
            [[((int(c),), row) for c, row in zip(codes, table)]
             for _, _, codes, table in cells], params.alpha)
        merged = [(slot, f, len(codes), groups)
                  for (slot, f, codes, _), groups in zip(cells, groupings)
                  if all(g[1].sum() >= params.min_records for g in groups)]
        raw_p, degenerate = chi_square_k2(
            [np.array([g[1] for g in groups]) for *_, groups in merged])
        best = [None] * len(step.idx)  # per slot (adjusted_p, feature, groups)
        for (slot, f, n_codes, groups), p, flat in zip(merged, raw_p.tolist(),
                                                       degenerate.tolist()):
            if flat:
                continue
            adjusted = min(1.0, stirling2(n_codes, len(groups)) * p)
            if best[slot] is None or adjusted < best[slot][0] - _GAIN_EPS:
                best[slot] = (adjusted, f, groups)
        return [None if b is None or b[0] > params.alpha else
                (info_gain(counts, [g[1] for g in b[2]]), b[1], tuple(g[0] for g in b[2]))
                for counts, b in zip(step.counts, best)]

    return choose


def train_chaid(data: CategoricalTable, params: TreeParams | None = None) -> DecisionTree:
    """Grow a multiway tree by chi-square association after category merging.

    Per node and feature, category groups are fused pairwise (most similar
    first) until all remaining pairs differ at level alpha; the feature with
    the smallest Bonferroni-adjusted p-value over its merged grouping splits
    the node, if that p-value reaches alpha.  Each feature is used at most
    once per path.
    """
    return _train("chaid", data, params, _chaid_chooser, resplit=False)


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
    """Smallest chi-square p-value picks the feature, and a discriminant
    over its code rates the split point, for QUEST.

    One ``chi_square_k2`` call scores every (slot, candidate) table of a
    step; a table with an empty class column scores p = 1.  Scanning each
    slot's candidates in order, a p-value must beat the best so far by more
    than ``_GAIN_EPS``.  The split point is placed per slot, from the
    node's rows.
    """
    X, y = data.rows, data.target

    def split(idx, counts, f, codes, table):
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
        delta = gini_decrease(counts, left_counts, right_counts)
        if delta <= _GAIN_EPS:
            return None
        return delta, f, (tuple(int(c) for c in codes[left]),
                          tuple(int(c) for c in codes[right]))

    def choose(step):
        tables = step.tables()
        p, degenerate = chi_square_k2([table for slot_tables in tables
                                       for *_, table in slot_tables])
        p[degenerate] = 1.0
        p = iter(p.tolist())
        chosen = []
        for idx, counts, slot_tables in zip(step.idx, step.counts, tables):
            best = None  # (p, feature, codes, table)
            for (f, codes, table), pf in zip(slot_tables, islice(p, len(slot_tables))):
                if best is None or pf < best[0] - _GAIN_EPS:
                    best = (pf, f, codes, table)
            chosen.append(None if best is None else split(idx, counts, *best[1:]))
        return chosen

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
    return _train("quest", data, params, _quest_chooser, resplit=True)


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
    edge codes use its labels.  A ``\\`` or ``"`` in a feature name or code
    label is escaped, so the quoted DOT strings stay well formed.
    """
    def quoted(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    total = max(tree.root.total, 1)
    order = [node for node, _, _ in iter_nodes(tree)]
    ids = {id(node): f"n{i}" for i, node in enumerate(order)}
    lines = ["digraph tree {", "  node [shape=box];"]
    for node in order:
        pct = 100.0 * node.total / total
        counts = ", ".join(str(int(c)) for c in node.counts)
        if node.is_leaf:
            head = f"class {node.prediction} ({100.0 * node.confidence:.1f}%)"
        else:
            head = quoted(tree.feature_names[node.split.feature])
        lines.append(
            f'  {ids[id(node)]} [label="{head}\\ncounts [{counts}]\\n{pct:.1f}% of rows"];'
        )
    for node in order:
        if node.is_leaf:
            continue
        f = node.split.feature
        for codes, child in zip(node.split.branches, node.children):
            label = quoted(", ".join(str(c) if schema is None else schema[f].label(c)
                                     for c in codes))
            lines.append(f'  {ids[id(node)]} -> {ids[id(child)]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
