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
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dataset import (ANY, INTEGER, LIST, NAMES, STRING, CategoricalTable, number,
                      read_fields, read_json, rules_of, ruled)
from .evaluation import _cv_result, _fold_labels, _task_pool, make_folds
from .forest import ForestParams, train_forest, train_forests

__all__ = [
    "ShapError",
    "ShapAttribution",
    "BackgroundSet",
    "make_background",
    "shap_values",
    "shap_batch",
    "brute_force_shap",
    "global_importance",
    "explain_table",
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
# Exact per-leaf attribution
#
# For one (row x, background z) pair and one leaf: let F_x and F_z hold
# the path features x and z fail.  If they meet, no coalition reaches the
# leaf.  Otherwise, with a = |F_z| and b = |F_x|, the leaf adds
# value * (a-1)!b!/(a+b)! to each feature of F_z and subtracts
# value * a!(b-1)!/(a+b)! from each feature of F_x; features both rows
# pass contribute nothing.


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


# The kernel.  A stop's rows fall into fail patterns (bit i: the row fails
# path feature i), and the rows of one pattern share one exact sum over the
# background rows, in background order.  ``_phi_matrix`` hands the kernel a
# chunk of trees at a time.  It groups the chunk's stops by path length d
# and, per group, finds every row's pattern and every (stop, pattern) sum
# in a few array passes: all 2^d patterns of each stop when 2^d is at most
# the row count, and otherwise the distinct (stop, pattern) codes of the
# group.  Each tree's game then adds its stops in order, as the per-stop
# oracle in ``tests/oracles.py`` does, so the floats are the same.  Pattern
# 0 marks the stop a row reaches, so the game also gives the tree's value
# at each row.

_CHUNK = 1 << 15  # elements: a chunk's stop x row codes, a slice's sums


def _bits(codes: np.ndarray, d: int) -> np.ndarray:
    """Bits 0..d-1 of each code, on a new last axis (a C-ordered copy)."""
    return (codes[..., None] >> np.arange(d, dtype=codes.dtype) & 1).astype(bool)


def _fail_codes(group, pos: np.ndarray, d: int, dtype) -> np.ndarray:
    """[stops, rows]: each stop's index above bits 0..d-1 of each row's
    fail pattern."""
    passes = [masks[f] for _, path, masks in group for f in path]
    fail = ~np.concatenate(passes or [np.zeros(0, dtype=bool)])
    width = np.array([mask.size for mask in passes], dtype=np.intp)
    start = (np.cumsum(width) - width).reshape(len(group), d)
    feats = np.array([path for _, path, _ in group], dtype=np.intp)
    codes = np.empty((len(group), pos.shape[0]), dtype=dtype)
    codes[:] = np.arange(len(group), dtype=dtype)[:, None] << d
    for i in range(d):
        at = pos.T[feats[:, i]]
        at += start[:, i, None]
        codes |= fail[at].astype(dtype) << i
    return codes


def _stop_group(group, pos: np.ndarray, n_back: int):
    """(table, codes) of stops of one path length d, each given as (value,
    sorted path features, pass masks): row r's column in ``table`` is
    ``codes[s, r]``, and a column holds stop s's contribution to each path
    feature at the row's pattern and, in the last row, s's value where the
    row reaches s."""
    n_stops, n, d = len(group), pos.shape[0], len(group[0][1])
    values = np.array([value for value, _, _ in group])
    # the narrowest dtype for the codes: a Python int past 64 bits
    dtype = np.min_scalar_type(n_stops << d)
    codes = _fail_codes(group, pos, d, dtype)
    back = codes[:, n - n_back:] & (1 << d) - 1
    if 1 << d <= n:
        pairs = np.arange(n_stops << d, dtype=dtype)
    else:
        pairs, codes = np.unique(codes, return_inverse=True)
        codes = codes.astype(np.min_scalar_type(pairs.size))
    stop, pattern = (pairs >> d).astype(np.intp), pairs & (1 << d) - 1
    z_fail, x_fail = _bits(back, d), _bits(pattern, d)
    a, b = z_fail.sum(axis=2), x_fail.sum(axis=1)[:, None]
    wa, wb = _weight_tables(d)
    table = np.empty((d + 1, pairs.size))
    table[d] = np.where(b[:, 0] == 0, values[stop], 0.0)
    step = max(1, _CHUNK // max(1, n_back * d))
    for lo in range(0, pairs.size, step):
        s, x, bb = stop[lo:lo + step], x_fail[lo:lo + step], b[lo:lo + step]
        dead = pattern[lo:lo + step, None] & back[s] != 0
        gain = np.where(dead, 0.0, wa[a[s], bb])
        loss = np.where(dead, 0.0, wb[a[s], bb])
        # both sums run over the background as the oracle's [patterns,
        # background, d] sums do: in background order, pairwise when d == 1
        lost = loss.sum(axis=1) if d == 1 else np.add.accumulate(loss, axis=1)[:, -1]
        per_pair = (z_fail[s] * gain[:, :, None]).sum(axis=1) \
            - np.where(x, lost[:, None], 0.0)
        table[:d, lo:lo + step] = (values[s, None] * per_pair / n_back).T
    return table, codes


def _tree_games(stop_lists, pos: np.ndarray, n_back: int, m: int):
    """Each tree's game over the rows ``pos`` (codes as positions in the
    universes; the last ``n_back`` rows are the background), in tree order:
    [m + 1, rows], row r's contribution to feature f in [f, r] and the
    tree's value at row r in [m, r].  ``stop_lists`` holds each tree's
    ``DecisionTree.stops``; a stop worth 0.0 adds nothing."""
    work, groups = [[] for _ in stop_lists], {}
    for stops, tree_work in zip(stop_lists, work):
        for value, masks in stops:
            if value != 0.0:
                feats = sorted(masks)
                group = groups.setdefault(len(feats), [])
                tree_work.append((feats + [m], len(feats), len(group)))
                group.append((value, feats, masks))
    tables = {d: _stop_group(group, pos, n_back) for d, group in groups.items()}
    for tree_work in work:
        game = np.zeros((m + 1, pos.shape[0]))
        for cols, d, k in tree_work:
            table, codes = tables[d]
            game[cols] += table[:, codes[k]]
        yield game


def _as_background(background) -> np.ndarray:
    if not isinstance(background, BackgroundSet):
        background = BackgroundSet(background)
    return background.rows


def _phi_matrix(model, rows: np.ndarray, back: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """(contributions, outputs) shared by single-row, batch, and ranking
    paths: the mean of the games of ``model.members``, whose ``stops`` over
    the codes of ``rows`` and ``back`` are each worth ``model.leaf_value``,
    and the mean of their values at each row of ``rows`` and then ``back``,
    which is ``model.proba_batch`` of those rows."""
    try:
        trees, leaf_value = model.members, model.leaf_value
    except AttributeError:
        raise ShapError(
            f"cannot attribute model type {type(model).__name__}") from None
    names = model.feature_names
    if rows.shape[1] != len(names) or back.shape[1] != len(names):
        raise ShapError("row width does not match the model")
    # codes as positions in each feature's universe, the masks' index
    both = np.concatenate([rows, back])
    universes, positions = [], np.empty_like(both)
    for j in range(len(names)):
        universe, positions[:, j] = np.unique(both[:, j], return_inverse=True)
        universes.append(universe)
    phi = np.zeros((rows.shape[0], len(names)))
    outputs = np.zeros(both.shape[0])
    chunk, size = [], 0
    for i, tree in enumerate(trees):
        chunk.append(tree.stops(universes, leaf_value))
        size += len(chunk[-1]) * both.shape[0]
        if size >= _CHUNK or i == len(trees) - 1:
            for game in _tree_games(chunk, positions, back.shape[0], len(names)):
                phi += game[:-1, :rows.shape[0]].T
                outputs += game[-1]
            chunk, size = [], 0
    return phi / len(trees), outputs / len(trees)


def _attributions(model, phi: np.ndarray, outputs: np.ndarray,
                  base: float) -> list[ShapAttribution]:
    """One attribution per row of ``phi``, with its model output."""
    names = model.feature_names
    return [
        ShapAttribution(names, tuple(float(v) for v in phi[i]), base,
                        float(outputs[i]))
        for i in range(phi.shape[0])
    ]


def shap_batch(model, rows, background) -> list[ShapAttribution]:
    """Exact attributions for a whole row matrix at once."""
    back = _as_background(background)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.ndim == 1:
        rows = rows[None, :]
    phi, outputs = _phi_matrix(model, rows, back)
    base = float(np.mean(outputs[rows.shape[0]:]))
    return _attributions(model, phi, outputs, base)


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


def _mean_abs_phi(phi: np.ndarray) -> np.ndarray:
    """Mean |phi| per feature over the rows: what ranking and elimination
    compare.  Each caller keeps its own tie rule."""
    return np.abs(phi).mean(axis=0)


def _ranking(phi: np.ndarray, names) -> list[tuple[str, float]]:
    magnitude = _mean_abs_phi(phi)
    order = sorted(range(len(magnitude)), key=lambda j: (-magnitude[j], j))
    return [(names[j], float(magnitude[j])) for j in order]


def global_importance(model, data: CategoricalTable, background
                      ) -> list[tuple[str, float]]:
    """Mean absolute SHAP per feature, sorted descending.

    Exact ties keep the lower feature index first.
    """
    phi, _ = _phi_matrix(model, data.rows, _as_background(background))
    return _ranking(phi, data.feature_names)


def explain_table(model, data: CategoricalTable, background, row_ids
                  ) -> tuple[list[ShapAttribution], list[tuple[str, float]]]:
    """``shap_batch`` of the table rows ``row_ids`` and ``global_importance``
    of the table, bit for bit, from one pass over every row: a row's
    contributions do not depend on which other rows share the pass (a leaf
    a smaller pass skips adds an exact +0.0 here)."""
    phi, outputs = _phi_matrix(model, data.rows, _as_background(background))
    ids = list(row_ids)
    base = float(np.mean(outputs[data.n_rows:]))
    return (_attributions(model, phi[ids], outputs[ids], base),
            _ranking(phi, data.feature_names))


@dataclass(frozen=True)
class CvSpec:
    """Fold count and seed for the elimination loop's accuracy estimates."""

    k: int = 10
    stratified: bool = True
    seed: int = 0


@dataclass(frozen=True)
class EliminationStep:
    active_features: tuple[str, ...] = ruled(NAMES)
    accuracy: float = ruled(number("a number in [0, 1]", lambda v: 0 <= v <= 1))
    dropped: str = ruled(STRING)


@dataclass(frozen=True)
class EliminationTrace:
    steps: tuple[EliminationStep, ...] = ruled(LIST)
    selected_index: int = ruled(INTEGER)

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
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EliminationTrace":
        steps, selected = read_fields(read_json(text, ANY, "trace", ShapError),
                                      rules_of(cls), "trace", ShapError).values()
        for i, item in enumerate(steps):
            names, accuracy, dropped = read_fields(
                item, rules_of(EliminationStep), f"trace step {i}", ShapError).values()
            steps[i] = EliminationStep(tuple(names), float(accuracy), dropped)
        return cls(tuple(steps), selected)


def _step_params(forest_params: ForestParams, n_active: int) -> ForestParams:
    # the last steps have fewer features than an explicit features_per_split
    if (forest_params.features_per_split or 0) > n_active:
        return replace(forest_params, features_per_split=n_active)
    return forest_params


def backward_eliminate(data: CategoricalTable, forest_params: ForestParams,
                       cv_spec: CvSpec, background_size: int = 128
                       ) -> EliminationTrace:
    """Drop the least-important feature one step at a time.

    Each step trains a forest on the active features, ranks them by mean
    absolute SHAP over the whole table, records the forest's cross-validated
    accuracy, and removes the weakest feature (ties drop the higher index).
    The selected step is the accuracy argmax, earliest step on ties so the
    larger feature set wins.

    Which feature a step drops depends only on the whole-table forest, so
    the fold forests run beside that chain: as soon as a step's active set
    is known, its fold task goes to ``evaluation._task_pool`` (up to one
    forked worker per usable CPU), and this process grows the whole-table
    forest and runs the Shapley pass.  A fold task labels the step's folds
    through ``evaluation._fold_labels``, the path ``cross_validate`` and
    ``compare_models`` take, with ``train_forests`` on the step table as
    the fold-batch trainer: every fold forest grows in one lockstep batch,
    each the forest ``cross_validate`` would train on a copy of its rows,
    and only their held-out labels (or the first fold's EvalError, when
    the batch fails) come back.  The accuracies are read back in step
    order, and the first error in serial order wins: step s's fold
    forests, then its whole-table forest and Shapley pass, then step
    s + 1.  The trace is the same whatever the CPU count.
    """
    if data.n_features < 2:
        raise ShapError("elimination needs at least 2 features")
    plan = make_folds(data.n_rows, cv_spec.k, cv_spec.stratified,
                      labels=data.target, seed=cv_spec.seed)

    def fold_task(active: tuple[int, ...]) -> list:
        params = _step_params(forest_params, len(active))
        return _fold_labels(lambda table, rows: train_forests(table, params, rows),
                            data.take_features(list(active)), plan, range(plan.k))

    active = list(range(data.n_features))
    chosen, fold_labels = [], []  # per step: (active names, dropped), fold task
    with _task_pool(fold_task, len(active)) as submit:
        try:
            while active:
                fold_labels.append(submit(tuple(active)))
                table = data.take_features(active)
                forest = train_forest(table, _step_params(forest_params, len(active)))
                background = make_background(table, background_size, cv_spec.seed)
                magnitude = _mean_abs_phi(
                    _phi_matrix(forest, table.rows, background.rows)[0])
                weakest = 0
                for j in range(1, len(active)):
                    if magnitude[j] <= magnitude[weakest]:
                        weakest = j
                chosen.append((table.feature_names, table.feature_names[weakest]))
                del active[weakest]
        except Exception:
            for labels in fold_labels:  # a fold failure so far comes first
                _cv_result(data, plan, labels())
            raise
        steps = [EliminationStep(names, _cv_result(data, plan, labels()).mean_accuracy,
                                 dropped)
                 for (names, dropped), labels in zip(chosen, fold_labels)]
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
