"""Cross-validation, coincidence matrices, and the multi-model leaderboard.

A trainer here is any callable taking a CategoricalTable and returning a
fitted model; every fitted model answers ``predict_batch(rows)``, so tree,
forest, and baseline families plug into the same folds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import signal
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .dataset import CategoricalTable

__all__ = [
    "EvalError",
    "FoldPlan",
    "make_folds",
    "CvResult",
    "cross_validate",
    "CoincidenceMatrix",
    "coincidence",
    "overall_accuracy",
    "RosterEntry",
    "LeaderboardRow",
    "Leaderboard",
    "ComparisonReport",
    "compare_models",
    "predict_labels",
]


class EvalError(ValueError):
    """Invalid evaluation input or a trainer failure inside a fold."""


# ---------------------------------------------------------------------------
# Fold plans


@dataclass(frozen=True)
class FoldPlan:
    """Partition of row indices into k held-out folds."""

    k: int
    folds: tuple[tuple[int, ...], ...]
    stratified: bool
    seed: int
    n_rows: int = field(default=0)

    def __post_init__(self):
        if self.k != len(self.folds):
            raise EvalError("fold count does not match k")
        seen: list[int] = []
        for fold in self.folds:
            seen.extend(fold)
        n = self.n_rows or len(seen)
        object.__setattr__(self, "n_rows", n)
        if sorted(seen) != list(range(n)):
            raise EvalError("folds must partition the row indices")
        sizes = [len(f) for f in self.folds]
        if max(sizes) - min(sizes) > 1:
            raise EvalError("fold sizes must differ by at most 1")

    def train_indices(self, fold_index: int) -> np.ndarray:
        return np.setdiff1d(np.arange(self.n_rows), self.folds[fold_index])

    def plan_hash(self) -> str:
        payload = json.dumps(
            {
                "k": self.k,
                "seed": self.seed,
                "stratified": self.stratified,
                "folds": [list(f) for f in self.folds],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def make_folds(n: int, k: int, stratified: bool = True, labels=None,
               seed: int = 0) -> FoldPlan:
    """Seeded shuffle then round-robin assignment into k folds.

    Stratified mode walks the classes in sorted order with one shared
    cursor, so fold sizes and per-fold class counts each differ by at
    most one row.
    """
    if k < 2 or k > n:
        raise EvalError(f"fold count {k} must be in [2, {n}]")
    if stratified:
        if labels is None:
            raise EvalError("stratified folds require labels")
        y = np.asarray(labels, dtype=np.int64)
        if y.shape != (n,):
            raise EvalError("labels length does not match n")
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(k)]
    cursor = 0
    if stratified:
        for klass in np.unique(y):
            idx = np.flatnonzero(y == klass)
            rng.shuffle(idx)
            for i in idx:
                buckets[cursor % k].append(int(i))
                cursor += 1
    else:
        idx = np.arange(n)
        rng.shuffle(idx)
        for i in idx:
            buckets[cursor % k].append(int(i))
            cursor += 1
    folds = tuple(tuple(sorted(b)) for b in buckets)
    return FoldPlan(k, folds, stratified, int(seed), n)


# ---------------------------------------------------------------------------
# Label prediction dispatch


def predict_labels(model, rows) -> np.ndarray:
    """Hard 0/1 labels from any fitted model (its ``predict_batch``) or from
    a callable mapping a row matrix to labels."""
    rows = np.asarray(rows, dtype=np.int64)
    if hasattr(model, "predict_batch"):
        return model.predict_batch(rows)
    if callable(model):
        return np.asarray(model(rows), dtype=np.int64)
    raise EvalError(f"cannot predict with model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# Cross-validation


@dataclass(frozen=True)
class CvResult:
    """Per-fold accuracies plus pooled out-of-fold predictions."""

    fold_accuracies: tuple[float, ...]
    truth: tuple[int, ...]
    predicted: tuple[int, ...]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))

    @property
    def pooled_accuracy(self) -> float:
        t = np.array(self.truth)
        p = np.array(self.predicted)
        return float(np.mean(t == p))


def _check_plan(data: CategoricalTable, plan: FoldPlan) -> None:
    if plan.n_rows != data.n_rows:
        raise EvalError("fold plan does not match table size")


def _fold_labels(trainer, data: CategoricalTable, plan: FoldPlan,
                 fold_index: int) -> np.ndarray:
    """Train on the complement of one fold and label its held-out rows."""
    try:
        model = trainer(data.take_rows(plan.train_indices(fold_index)))
        return predict_labels(model, data.rows[list(plan.folds[fold_index])])
    except EvalError:
        raise
    except Exception as exc:
        raise EvalError(f"trainer failed on fold {fold_index}: {exc}") from exc


def _cv_result(data: CategoricalTable, plan: FoldPlan, fold_labels) -> CvResult:
    """Per-fold accuracies and pooled predictions from each fold's labels."""
    predicted = np.full(data.n_rows, -1, dtype=np.int64)
    accuracies = []
    for held, labels in zip(plan.folds, fold_labels):
        held_arr = np.array(held)
        predicted[held_arr] = labels
        accuracies.append(float(np.mean(labels == data.target[held_arr])))
    return CvResult(tuple(accuracies), tuple(int(t) for t in data.target),
                    tuple(int(p) for p in predicted))


def cross_validate(trainer, data: CategoricalTable, plan: FoldPlan) -> CvResult:
    """Train on each fold complement and score the held-out rows."""
    _check_plan(data, plan)
    return _cv_result(data, plan, [_fold_labels(trainer, data, plan, i)
                                   for i in range(plan.k)])


# ---------------------------------------------------------------------------
# Coincidence matrix and accuracy


@dataclass(frozen=True)
class CoincidenceMatrix:
    """2x2 counts, rows = truth 0/1, columns = predicted 0/1."""

    counts: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        flat = [c for row in self.counts for c in row]
        if len(flat) != 4 or any(c < 0 for c in flat):
            raise EvalError("coincidence counts must be a 2x2 non-negative grid")

    @property
    def total(self) -> int:
        return sum(c for row in self.counts for c in row)

    @property
    def row_percentages(self) -> tuple[float, float]:
        out = []
        for i, row in enumerate(self.counts):
            s = sum(row)
            out.append(100.0 * row[i] / s if s else 0.0)
        return tuple(out)

    def render(self) -> str:
        lines = ["truth  pred=0  pred=1  correct%"]
        for i, row in enumerate(self.counts):
            pct = self.row_percentages[i]
            lines.append(f"{i:<5}  {row[0]:>6}  {row[1]:>6}  {round(pct):>7}")
        return "\n".join(lines)


def coincidence(truth, predicted) -> CoincidenceMatrix:
    t = np.asarray(truth, dtype=np.int64)
    p = np.asarray(predicted, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise EvalError("truth and predicted must be equal-length vectors")
    if not (np.isin(t, (0, 1)).all() and np.isin(p, (0, 1)).all()):
        raise EvalError("labels must be binary")
    counts = tuple(
        tuple(int(np.sum((t == i) & (p == j))) for j in (0, 1)) for i in (0, 1)
    )
    return CoincidenceMatrix(counts)


def overall_accuracy(matrix) -> float:
    """Percentage of diagonal mass; accepts a CoincidenceMatrix or 2x2 grid."""
    if isinstance(matrix, CoincidenceMatrix):
        counts = matrix.counts
    else:
        arr = np.asarray(matrix)
        if arr.shape != (2, 2):
            raise EvalError("matrix must be 2x2")
        counts = tuple(tuple(int(v) for v in row) for row in arr)
    total = sum(c for row in counts for c in row)
    if total <= 0:
        raise EvalError("matrix is empty")
    return 100.0 * (counts[0][0] + counts[1][1]) / total


# ---------------------------------------------------------------------------
# Multi-model leaderboard


@dataclass(frozen=True)
class RosterEntry:
    """One model family: display name, trainer, and its parameter record."""

    name: str
    trainer: object
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LeaderboardRow:
    name: str
    accuracy_pct: float
    pooled_accuracy_pct: float
    params: dict
    fold_accuracies: tuple[float, ...]


@dataclass(frozen=True)
class Leaderboard:
    rows: tuple[LeaderboardRow, ...]
    fold_plan_hash: str

    def __post_init__(self):
        keys = [(-r.accuracy_pct, r.name) for r in self.rows]
        if keys != sorted(keys):
            raise EvalError("leaderboard rows must be sorted")


@dataclass(frozen=True)
class ComparisonReport:
    """Leaderboard plus per-family coincidence matrices on shared folds."""

    leaderboard: Leaderboard
    coincidence: dict
    fold_plan_hash: str

    def render(self) -> str:
        lines = [
            f"fold plan {self.fold_plan_hash}",
            "",
            f"{'model':<20} {'accuracy%':>9}  {'pooled%':>8}",
        ]
        for row in self.leaderboard.rows:
            lines.append(
                f"{row.name:<20} {row.accuracy_pct:>9.3f}  "
                f"{row.pooled_accuracy_pct:>8.3f}"
            )
        for row in self.leaderboard.rows:
            lines.append("")
            lines.append(f"coincidence: {row.name}")
            lines.append(self.coincidence[row.name].render())
        return "\n".join(lines) + "\n"


def _fit_task(job, task: int):
    """Fit (family, fold) number ``task`` of ``job`` = (entries, data, plan),
    family-major: the held-out labels, or None and the EvalError that
    stopped the fit."""
    entries, data, plan = job
    entry = entries[task // plan.k]
    try:
        return _fold_labels(entry.trainer, data, plan, task % plan.k), None
    except EvalError as exc:
        return None, exc


_worker_job = None  # set once in each pool worker by _adopt_job


def _adopt_job(job) -> None:
    global _worker_job
    _worker_job = job
    # Ctrl-C reaches the whole process group: the parent alone handles it,
    # and leaving the pool's block winds the workers down
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _worker_fit(task: int):
    """``_fit_task`` in a pool worker, plus the warnings it raised as
    (message, category, filename, lineno) for the parent to re-issue."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        labels, error = _fit_task(_worker_job, task)
    return labels, error, [(w.message, w.category, w.filename, w.lineno)
                           for w in caught]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform: stay in-process
        return 1


@contextmanager
def _fit_outcomes(job, n_tasks: int):
    """Yield an iterator over (labels, error, warnings to re-issue) for tasks
    0..n_tasks-1 in task order.

    With more than one usable CPU the fits run in a pool of forked workers,
    which inherit ``job`` (trainer closures included) instead of receiving
    it pickled.  Leaving the block cancels the fits not started and waits
    for the workers to exit; a worker that dies (killed for memory, say)
    fails the comparison rather than leaving it waiting.  In this process a
    fit's warnings go out as it raises them: recording them here would
    change the warning filters, which resets the once-per-location registry
    the re-issued warnings rely on.
    """
    workers = min(_usable_cpus(), n_tasks)
    if workers < 2 or not hasattr(os, "fork"):
        yield ((*_fit_task(job, task), ()) for task in range(n_tasks))
        return
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               _adopt_job, (job,))
    try:
        yield pool.map(_worker_fit, range(n_tasks))
    except BrokenProcessPool as exc:
        raise EvalError(f"a worker process stopped: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def compare_models(data: CategoricalTable, roster, plan: FoldPlan
                   ) -> ComparisonReport:
    """Evaluate every roster family on one shared fold plan.

    The (family, fold) fits run family-major; their results, warnings and
    failures are taken in that order, so the report, the warnings re-issued
    here and the error raised are the same whether the fits ran in this
    process or in forked workers.
    """
    entries = tuple(roster)
    if not entries:
        raise EvalError("roster is empty")
    _check_plan(data, plan)
    rows = []
    matrices = {}
    registries: dict = {}  # per warning file, as each module keeps one
    with _fit_outcomes((entries, data, plan), len(entries) * plan.k) as outcomes:
        for entry in entries:
            fold_labels = []
            for labels, error, caught in itertools.islice(outcomes, plan.k):
                for message, category, filename, lineno in caught:
                    warnings.warn_explicit(message, category, filename, lineno,
                                           registry=registries.setdefault(filename, {}))
                if error is not None:
                    raise EvalError(f"{entry.name}: {error}") from error
                fold_labels.append(labels)
            result = _cv_result(data, plan, fold_labels)
            rows.append(
                LeaderboardRow(
                    entry.name,
                    100.0 * result.mean_accuracy,
                    100.0 * result.pooled_accuracy,
                    dict(entry.params),
                    result.fold_accuracies,
                )
            )
            matrices[entry.name] = coincidence(result.truth, result.predicted)
    rows.sort(key=lambda r: (-r.accuracy_pct, r.name))
    board = Leaderboard(tuple(rows), plan.plan_hash())
    return ComparisonReport(board, matrices, plan.plan_hash())
