"""Cross-validation, coincidence matrices, and the multi-model leaderboard.

A trainer here is any callable taking a CategoricalTable and returning a
fitted model; every fitted model answers ``predict_batch(rows)``, so tree,
forest, and baseline families plug into the same folds.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import signal
import threading
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

    The shuffled rows (stratified: each class shuffled on its own, the
    classes in sorted order, one after another) are dealt out so that fold
    j takes positions j, j+k, ...; fold sizes and per-fold class counts
    each differ by at most one row.
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
    runs = ([np.flatnonzero(y == klass) for klass in np.unique(y)]
            if stratified else [np.arange(n)])
    for run in runs:
        rng.shuffle(run)
    order = np.concatenate(runs)
    folds = tuple(tuple(sorted(order[j::k].tolist())) for j in range(k))
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


def _fold_labels(fit, data: CategoricalTable, plan: FoldPlan, folds) -> list:
    """The held-out labels of each of ``folds`` in turn, from one call of the
    fold-batch trainer ``fit(data, complements)``, up to the first fold whose
    fit fails: then the list ends with that fold's EvalError.

    ``fit`` gives, for each complement (index arrays into ``data``), the
    model fitted on those rows or the exception its fit raised.  An
    exception it raises belongs to the fold it has reached (the first fold,
    when the call itself raises), and an EvalError passes through as it is.
    """
    outcomes = []
    try:
        for i, model in zip(folds, fit(data, [plan.train_indices(i) for i in folds])):
            if isinstance(model, Exception):
                raise model
            outcomes.append(predict_labels(model, data.rows[list(plan.folds[i])]))
    except EvalError as error:
        outcomes.append(error)
    except Exception as exc:
        outcomes.append(EvalError(f"trainer failed on fold {folds[len(outcomes)]}: "
                                  f"{str(exc) or type(exc).__name__}"))
        outcomes[-1].__cause__ = exc
    return outcomes


def _per_fold(trainer):
    """The fold-batch trainer that fits ``trainer`` on each complement's rows,
    one fold at a time as its model is taken, so no fold after a failing
    one is fitted."""
    return lambda data, complements: (trainer(data.take_rows(rows))
                                      for rows in complements)


def _cv_result(data: CategoricalTable, plan: FoldPlan, fold_labels) -> CvResult:
    """Per-fold accuracies and pooled predictions from each fold's labels,
    taken in fold order: the first fold whose outcome is an EvalError
    raises it."""
    predicted = np.full(data.n_rows, -1, dtype=np.int64)
    accuracies = []
    for held, labels in zip(plan.folds, fold_labels):
        if isinstance(labels, EvalError):
            raise labels
        held_arr = np.array(held)
        predicted[held_arr] = labels
        accuracies.append(float(np.mean(labels == data.target[held_arr])))
    return CvResult(tuple(accuracies), tuple(int(t) for t in data.target),
                    tuple(int(p) for p in predicted))


def cross_validate(trainer, data: CategoricalTable, plan: FoldPlan) -> CvResult:
    """Train on each fold complement and score the held-out rows; the first
    failing fit raises."""
    _check_plan(data, plan)
    return _cv_result(data, plan, _fold_labels(_per_fold(trainer), data, plan,
                                               range(plan.k)))


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
    """One model family: display name, trainer, and its parameter record.

    ``trainer`` fits one table.  ``fold_trainer``, when set, is the
    family's fold-batch trainer, which fits every fold at once: called with
    the table and the list of fold complements (index arrays), it returns
    for each the model ``trainer`` gives on ``data.take_rows(complement)``,
    or the exception it raises.  Without one, the folds are fitted one by
    one through ``trainer``."""

    name: str
    trainer: object
    params: dict = field(default_factory=dict)
    fold_trainer: object = None


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


_worker_run = None  # set once in each pool worker by _adopt


def _adopt(run, read_end: int, write_end: int) -> None:
    global _worker_run
    _worker_run = run
    # Ctrl-C reaches the whole process group: the parent alone handles it,
    # and leaving the pool's block winds the workers down
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # once the parent holds the pipe's only write end, end of file on the
    # read end means the parent is gone (killed, say): exit with it
    os.close(write_end)
    threading.Thread(target=_exit_at_eof, args=(read_end,), daemon=True).start()


def _exit_at_eof(read_end: int) -> None:
    os.read(read_end, 1)
    os._exit(1)


def _worker_task(task):
    """``run(task)`` in a pool worker: its value or the exception it raised,
    plus the warnings it raised as (message, category, filename, lineno)
    for the parent to re-issue."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, error = _worker_run(task), None
        except Exception as exc:  # raised again where the parent reads it
            value, error = None, exc
    return value, error, [(w.message, w.category, w.filename, w.lineno)
                          for w in caught]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform: stay in-process
        return 1


@contextmanager
def _task_pool(run, n_tasks: int):
    """Yield ``submit``: ``submit(task)`` schedules ``run(task)`` and returns
    a function of no arguments that gives its value or raises its error.
    Read each result once.

    With more than one usable CPU the tasks run in a pool of
    ``min(usable CPUs, n_tasks)`` workers, forked at the first submit, which
    inherit ``run`` (closures and the data they hold included) instead of
    receiving it pickled: only ``task`` and the result cross the pipe.  A
    task's warnings are re-issued here when its result is read.  Otherwise,
    or without ``fork``, ``run(task)`` runs in this process when its result
    is read, and its warnings go out as it raises them: recording them here
    would change the warning filters, which resets the once-per-location
    registry the re-issued warnings rely on.  So a caller that reads its
    results in task order gets the same values, warnings and first error
    either way.  Leaving the block cancels the tasks not started and waits
    for the workers to exit; a worker that dies (killed for memory, say)
    raises EvalError rather than leaving the caller waiting, and the
    workers exit when this process dies, however it dies.
    """
    workers = min(_usable_cpus(), n_tasks)
    if workers < 2 or not hasattr(os, "fork"):
        yield lambda task: functools.partial(run, task)
        return
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    registries: dict = {}  # per warning file, as each module keeps one

    def submit(task):
        future = pool.submit(_worker_task, task)

        def result():
            value, error, caught = future.result()
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno,
                                       registry=registries.setdefault(filename, {}))
            if error is not None:
                raise error
            return value

        return result

    pipe = os.pipe()  # nothing is written: its close tells the workers
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               _adopt, (run, *pipe))
    try:
        yield submit
    except BrokenProcessPool as exc:
        raise EvalError(f"a worker process stopped: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)
        for end in pipe:
            os.close(end)


def compare_models(data: CategoricalTable, roster, plan: FoldPlan
                   ) -> ComparisonReport:
    """Evaluate every roster family on one shared fold plan.

    Each pool task labels some folds of one family through ``_fold_labels``:
    all of them, in one call of its ``fold_trainer``, for a family that has
    one (these tasks are submitted first, as they run longest), and one
    fold otherwise.  Results, warnings and failures are taken family-major,
    fold by fold, so the report, the warnings re-issued here and the error
    raised are the same whether the fits ran in this process or in forked
    workers.
    """
    entries = tuple(roster)
    if not entries:
        raise EvalError("roster is empty")
    _check_plan(data, plan)
    rows = []
    matrices = {}

    def fit_task(task: tuple) -> list:  # task = (family, folds)
        entry = entries[task[0]]
        return _fold_labels(entry.fold_trainer or _per_fold(entry.trainer), data,
                            plan, task[1])

    tasks = ([(i, tuple(range(plan.k))) for i, e in enumerate(entries) if e.fold_trainer]
             + [(i, (fold,)) for i, e in enumerate(entries) if not e.fold_trainer
                for fold in range(plan.k)])
    with _task_pool(fit_task, len(tasks)) as submit:
        outcomes = {task: submit(task) for task in tasks}
        for i, entry in enumerate(entries):
            try:
                result = _cv_result(data, plan, (
                    labels for task in tasks if task[0] == i
                    for labels in outcomes[task]()))
            except EvalError as error:
                raise EvalError(f"{entry.name}: {error}") from error
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
