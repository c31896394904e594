"""Exact interventional Shapley attributions for trees and forests.

The value function is interventional: a coalition takes its codes from the
explained row and every other feature from a background row, and the game
value is the mean model output over the background.  For a tree this game
decomposes over leaves, which gives an exact polynomial-time algorithm; the
brute-force coalition enumeration below is the independent oracle for it.

Also here: global mean-|SHAP| importance and the backward feature
elimination loop driven by it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import CategoricalTable
from .evaluation import EvalError, _cv_result, make_folds
from .forest import Forest, ForestError, ForestParams, _require_rows, train_forests
from .tree import DecisionTree, TreeNode

__all__ = [
    "ShapError",
    "ShapAttribution",
    "BackgroundSet",
    "make_background",
    "shap_values",
    "shap_batch",
    "brute_force_shap",
    "global_importance",
    "CvSpec",
    "EliminationStep",
    "EliminationTrace",
    "backward_eliminate",
    "attribution_table",
]


class ShapError(ValueError):
    """Invalid attribution input."""


@dataclass(frozen=True)
class ShapAttribution:
    """Additive explanation of one row: base + sum of contributions = output."""

    feature_names: tuple[str, ...]
    contributions: tuple[float, ...]
    base_value: float
    model_output: float

    def __post_init__(self):
        if len(self.feature_names) != len(self.contributions):
            raise ShapError("one contribution per feature required")


@dataclass(frozen=True, eq=False)
class BackgroundSet:
    """Reference rows defining the interventional value function."""

    rows: np.ndarray

    def __post_init__(self):
        # a private copy: freezing must not reach the caller's array
        rows = np.array(self.rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ShapError("background must contain at least one row")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return self.rows.shape[0]


def make_background(data: CategoricalTable, max_rows: int = 128,
                    seed: int = 0) -> BackgroundSet:
    """Seeded downsample of the training rows (without replacement)."""
    if max_rows < 1:
        raise ShapError("background size must be at least 1")
    if data.n_rows <= max_rows:
        return BackgroundSet(data.rows)
    rng = np.random.default_rng([int(seed), 97])
    idx = np.sort(rng.choice(data.n_rows, size=max_rows, replace=False))
    return BackgroundSet(data.rows[idx])


# ---------------------------------------------------------------------------
# Leaf values: the attributed output is a lone tree's class-1 fraction and a
# forest's share of class-1 votes.


def _leaf_fraction(node: TreeNode) -> float:
    return node.confidence if node.prediction == 1 else 1.0 - node.confidence


def _leaf_vote(node: TreeNode) -> float:
    return 1.0 if node.prediction == 1 else 0.0


# ---------------------------------------------------------------------------
# Leaf-path extraction
#
# Each reachable leaf is summarized as a value plus one pass mask per path
# feature over its universe, the sorted codes of the explained rows and the
# background.  Fallback descent, where a code matches none of a split's
# branches and prediction stops at that node, passes the codes no branch lists.


def _collect_leaves(tree: DecisionTree, leaf_value, universes) -> list:
    """(value, {feature: pass mask}) for every way prediction can stop.

    A leaf with an all-False mask is left out: every row and every background
    row fails that feature, so the leaf adds exactly 0.
    """
    leaves = []

    def walk(node: TreeNode, masks: dict) -> None:
        if node.split is None or node.total == 0:
            leaves.append((leaf_value(node), masks))
            return
        f = node.split.feature
        universe, allowed = universes[f], masks.get(f, True)
        hits = [(universe[:, None] == branch).any(axis=1)
                for branch in node.split.branches]
        fallback = allowed & ~np.logical_or.reduce(hits)
        if fallback.any():
            leaves.append((leaf_value(node), {**masks, f: fallback}))
        for hit, child in zip(hits, node.children):
            mask = allowed & hit
            if mask.any():
                walk(child, {**masks, f: mask})

    walk(tree.root, {})
    return leaves


# ---------------------------------------------------------------------------
# Exact per-leaf attribution
#
# For one (row x, background z) pair and one leaf: let A hold the path
# features where x passes and z fails, B the reverse, with sizes a and b.
# If some feature fails both, no coalition reaches the leaf.  Otherwise the
# leaf adds value * (a-1)!b!/(a+b)! to each feature of A and subtracts
# value * a!(b-1)!/(a+b)! from each feature of B; features passing both
# ways contribute nothing.


@functools.lru_cache(maxsize=None)
def _weight_tables(t: int) -> tuple[np.ndarray, np.ndarray]:
    wa = np.zeros((t + 1, t + 1))
    wb = np.zeros((t + 1, t + 1))
    for a in range(t + 1):
        for b in range(t + 1 - a):
            if a >= 1:
                wa[a, b] = (math.factorial(a - 1) * math.factorial(b)
                            / math.factorial(a + b))
            if b >= 1:
                wb[a, b] = (math.factorial(a) * math.factorial(b - 1)
                            / math.factorial(a + b))
    return wa, wb


def _tree_phi(leaves, row_pos: np.ndarray, back_pos: np.ndarray,
              m: int) -> np.ndarray:
    """Contribution matrix (rows x features), averaged over the background."""
    n_rows, n_back = row_pos.shape[0], back_pos.shape[0]
    phi = np.zeros((n_rows, m))
    for value, masks in leaves:
        if not masks or value == 0.0:
            continue
        feats = sorted(masks)
        # rows with the same pass pattern share one exact per-background sum;
        # the background is not deduplicated, so that sum keeps its order
        x_all = np.stack([masks[f][row_pos[:, f]] for f in feats], axis=1)
        key = np.packbits(x_all, axis=1)
        _, first, inverse = np.unique(key.view(f"V{key.shape[1]}")[:, 0],
                                      return_index=True, return_inverse=True)
        x_pass = x_all[first]
        z_pass = np.stack([masks[f][back_pos[:, f]] for f in feats], axis=1)
        only_x = x_pass[:, None, :] & ~z_pass[None, :, :]
        only_z = ~x_pass[:, None, :] & z_pass[None, :, :]
        dead = (~x_pass[:, None, :] & ~z_pass[None, :, :]).any(axis=2)
        a = only_x.sum(axis=2)
        b = only_z.sum(axis=2)
        wa, wb = _weight_tables(len(feats))
        gain = np.where(dead, 0.0, wa[a, b])
        loss = np.where(dead, 0.0, wb[a, b])
        per_pair = (only_x * gain[:, :, None]).sum(axis=1) \
            - (only_z * loss[:, :, None]).sum(axis=1)
        phi[:, feats] += (value * per_pair / n_back)[inverse]
    return phi


def _as_background(background) -> np.ndarray:
    if not isinstance(background, BackgroundSet):
        background = BackgroundSet(background)
    return background.rows


def _phi_matrix(model, rows: np.ndarray, back: np.ndarray) -> np.ndarray:
    """Contribution matrix shared by single-row, batch, and ranking paths."""
    if isinstance(model, Forest):
        trees, leaf_value = model.trees, _leaf_vote
    else:
        trees, leaf_value = (model,), _leaf_fraction
    if not all(isinstance(tree, DecisionTree) for tree in trees):
        raise ShapError(f"cannot attribute model type {type(model).__name__}")
    names = model.feature_names
    if rows.shape[1] != len(names) or back.shape[1] != len(names):
        raise ShapError("row width does not match the model")
    # codes as positions in each feature's universe, the masks' index
    both = np.concatenate([rows, back])
    universes, positions = [], np.empty_like(both)
    for j in range(len(names)):
        universe, positions[:, j] = np.unique(both[:, j], return_inverse=True)
        universes.append(universe)
    row_pos, back_pos = positions[:rows.shape[0]], positions[rows.shape[0]:]
    phi = np.zeros((rows.shape[0], len(names)))
    for tree in trees:
        phi += _tree_phi(_collect_leaves(tree, leaf_value, universes),
                         row_pos, back_pos, len(names))
    return phi / len(trees)


def shap_batch(model, rows, background) -> list[ShapAttribution]:
    """Exact attributions for a whole row matrix at once."""
    back = _as_background(background)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.ndim == 1:
        rows = rows[None, :]
    phi = _phi_matrix(model, rows, back)
    names = model.feature_names
    base = float(np.mean(model.proba_batch(back)))
    outputs = model.proba_batch(rows)
    return [
        ShapAttribution(names, tuple(float(v) for v in phi[i]), base,
                        float(outputs[i]))
        for i in range(rows.shape[0])
    ]


def shap_values(model, row, background) -> ShapAttribution:
    """Exact interventional Shapley attribution for one row."""
    return shap_batch(model, np.asarray(row)[None, :], background)[0]


# ---------------------------------------------------------------------------
# Brute-force oracle


def brute_force_shap(model, row, background) -> ShapAttribution:
    """Shapley values by full coalition enumeration (m <= 20)."""
    back = _as_background(background)
    row = np.asarray(row, dtype=np.int64)
    m = row.size
    if m > 20:
        raise ShapError(f"brute force limited to 20 features, got {m}")
    try:
        names, output = model.feature_names, model.proba_batch
    except AttributeError:
        raise ShapError(
            f"cannot attribute model type {type(model).__name__}") from None
    if m != len(names) or back.shape[1] != len(names):
        raise ShapError("row width does not match the model")

    values = np.empty(1 << m)
    for mask in range(1 << m):
        hybrids = np.array(back)
        for j in range(m):
            if mask >> j & 1:
                hybrids[:, j] = row[j]
        values[mask] = float(np.mean(output(hybrids)))

    phi = np.zeros(m)
    fact = [math.factorial(i) for i in range(m + 1)]
    for mask in range(1 << m):
        size = bin(mask).count("1")
        weight = fact[size] * fact[m - size - 1] / fact[m]
        for j in range(m):
            if not mask >> j & 1:
                phi[j] += weight * (values[mask | 1 << j] - values[mask])
    return ShapAttribution(names, tuple(float(v) for v in phi),
                           float(values[0]), float(values[(1 << m) - 1]))


# ---------------------------------------------------------------------------
# Global importance and backward elimination


def _mean_abs_phi(model, rows: np.ndarray, back: np.ndarray) -> np.ndarray:
    """Mean |phi| per feature over the rows: what ranking and elimination
    compare.  Each caller keeps its own tie rule."""
    return np.abs(_phi_matrix(model, rows, back)).mean(axis=0)


def global_importance(model, data: CategoricalTable, background
                      ) -> list[tuple[str, float]]:
    """Mean absolute SHAP per feature, sorted descending.

    Exact ties keep the lower feature index first.
    """
    magnitude = _mean_abs_phi(model, data.rows, _as_background(background))
    order = sorted(range(len(magnitude)), key=lambda j: (-magnitude[j], j))
    names = data.feature_names
    return [(names[j], float(magnitude[j])) for j in order]


@dataclass(frozen=True)
class CvSpec:
    """Fold count and seed for the elimination loop's accuracy estimates."""

    k: int = 10
    stratified: bool = True
    seed: int = 0


@dataclass(frozen=True)
class EliminationStep:
    active_features: tuple[str, ...]
    accuracy: float
    dropped: str


@dataclass(frozen=True)
class EliminationTrace:
    steps: tuple[EliminationStep, ...]
    selected_index: int

    def __post_init__(self):
        if not self.steps:
            raise ShapError("trace must contain at least one step")
        if not 0 <= self.selected_index < len(self.steps):
            raise ShapError("selected step out of range")
        dropped = [s.dropped for s in self.steps]
        if len(set(dropped)) != len(dropped):
            raise ShapError("dropped features must be pairwise distinct")
        for step in self.steps:
            if step.dropped not in step.active_features:
                raise ShapError("each step must drop one active feature")

    @property
    def selected_features(self) -> tuple[str, ...]:
        return self.steps[self.selected_index].active_features

    def to_json(self) -> str:
        return json.dumps(
            {
                "steps": [
                    {
                        "active_features": list(s.active_features),
                        "accuracy": s.accuracy,
                        "dropped": s.dropped,
                    }
                    for s in self.steps
                ],
                "selected_index": self.selected_index,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "EliminationTrace":
        payload = json.loads(text)
        steps = tuple(
            EliminationStep(tuple(s["active_features"]), float(s["accuracy"]),
                            s["dropped"])
            for s in payload["steps"]
        )
        return cls(steps, int(payload["selected_index"]))


def backward_eliminate(data: CategoricalTable, forest_params: ForestParams,
                       cv_spec: CvSpec, background_size: int = 128
                       ) -> EliminationTrace:
    """Drop the least-important feature one step at a time.

    Each step trains a forest on the active features, ranks them by mean
    absolute SHAP over the whole table, records the forest's cross-validated
    accuracy, and removes the weakest feature (ties drop the higher index).
    The selected step is the accuracy argmax, earliest step on ties so the
    larger feature set wins.

    A step grows the whole-table forest and every fold forest in one
    lockstep batch (``train_forests``): each fold forest's rows are an index
    view of the step table, and it is the forest ``cross_validate`` would
    train on a copy of those rows.  The fold forests label their held-out
    rows and are released before the Shapley pass.
    """
    if data.n_features < 2:
        raise ShapError("elimination needs at least 2 features")
    plan = make_folds(data.n_rows, cv_spec.k, cv_spec.stratified,
                      labels=data.target, seed=cv_spec.seed)
    row_sets = [np.arange(data.n_rows)]
    for i in range(plan.k):
        row_sets.append(plan.train_indices(i))
        try:
            _require_rows(len(row_sets[-1]))
        except ForestError as exc:
            raise EvalError(f"trainer failed on fold {i}: {exc}") from exc
    held_out = [np.array(fold) for fold in plan.folds]
    active = list(range(data.n_features))
    steps = []
    while active:
        table = data.take_features(active)
        # the last steps have fewer features than an explicit features_per_split
        params = forest_params
        if (forest_params.features_per_split or 0) > len(active):
            params = replace(forest_params, features_per_split=len(active))
        forest, *fold_forests = train_forests(table, params, row_sets)
        result = _cv_result(table, plan, [
            fold_forest.predict_batch(table.rows[held])
            for fold_forest, held in zip(fold_forests, held_out)])
        del fold_forests  # released before the Shapley pass
        background = make_background(table, background_size, cv_spec.seed)
        magnitude = _mean_abs_phi(forest, table.rows, background.rows)
        weakest = 0
        for j in range(1, len(active)):
            if magnitude[j] <= magnitude[weakest]:
                weakest = j
        steps.append(
            EliminationStep(table.feature_names, result.mean_accuracy,
                            table.feature_names[weakest])
        )
        del active[weakest]
    best = 0
    for i in range(1, len(steps)):
        if steps[i].accuracy > steps[best].accuracy:
            best = i
    return EliminationTrace(tuple(steps), best)


# ---------------------------------------------------------------------------
# Tabular export


def attribution_table(attributions, row_ids=None) -> str:
    """One line per (row id, feature, contribution), plus base and output."""
    items = list(attributions)
    if row_ids is None:
        row_ids = list(range(len(items)))
    lines = ["row\tfeature\tphi\tbase\toutput"]
    for rid, att in zip(row_ids, items):
        for name, value in zip(att.feature_names, att.contributions):
            lines.append(
                f"{rid}\t{name}\t{value:.12g}\t{att.base_value:.12g}"
                f"\t{att.model_output:.12g}"
            )
    return "\n".join(lines) + "\n"
