"""Split-quality kernels: entropy, information gain, Gini impurity,
Gini decrease, and chi-square statistics, one table at a time or a batch of
k x 2 tables at once.

All functions are pure and operate on plain count vectors / matrices, so they
are safe to call from any number of threads.  Class counts are non-negative
integers; proportions are always re-derived from the counts.
"""
from __future__ import annotations

import importlib.util
import sys
import types
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np


class DegenerateTableError(ValueError):
    """Raised when a contingency table has fewer than two informative rows
    or columns (zero marginals carry no association information)."""


def _as_counts(counts: Sequence[int] | np.ndarray, stacked: bool = False
               ) -> np.ndarray:
    """Counts as float64: one vector, or with ``stacked`` any stack of
    vectors along the last axis."""
    c = np.asarray(counts, dtype=float)
    if stacked:
        if c.ndim == 0 or c.shape[-1] == 0:
            raise ValueError("class counts must be stacks of non-empty vectors")
    elif c.ndim != 1 or c.size == 0:
        raise ValueError("class counts must be a non-empty 1-D vector")
    # NaN fails both comparisons, so this rejects it too
    if not ((c >= 0) & (c < np.inf)).all():
        raise ValueError("class counts must be finite and non-negative")
    return c


def entropy(counts: Sequence[int] | np.ndarray) -> float:
    """Shannon entropy of a class-count vector, in bits.

    Zero-count classes contribute nothing (0 * log 0 taken as 0 by
    continuity).  Raises on an all-zero vector.
    """
    c = _as_counts(counts)
    total = c.sum()
    if total <= 0:
        raise ValueError("entropy undefined for an empty node")
    p = c[c > 0] / total
    return float(-(p * np.log2(p)).sum())


def info_gain(
    parent: Sequence[int] | np.ndarray,
    children: Sequence[Sequence[int] | np.ndarray] | np.ndarray,
) -> float | np.ndarray:
    """Information gain of a partition: parent entropy minus the
    size-weighted entropy of the children.

    One partition is a parent [m] over its children [k, m] and gives a
    float.  Stacks ``parent [..., m]`` and ``children [..., k, m]`` score
    many partitions at once and give a float64 array.  Children with zero
    rows carry zero weight.  Child totals must sum to the parent total.

    Each partition takes the float operations of the entropy formula one at
    a time: class terms summed left to right (numpy's own sum does the same
    below 8 classes), zero classes and empty children adding an exact zero,
    and children weighted in order.
    """
    p = _as_counts(parent, stacked=True)
    kids = _as_counts(children, stacked=True)
    if kids.shape[:-2] != p.shape[:-1] or kids.shape[-1:] != p.shape[-1:] \
            or kids.ndim != p.ndim + 1:
        raise ValueError(f"children of shape {kids.shape} do not partition "
                         f"parents of shape {p.shape}")
    total = p.sum(axis=-1)
    if not (total > 0).all():
        raise ValueError("info_gain undefined for an empty parent")
    sizes = kids.sum(axis=-1)
    child_total = np.zeros_like(total)
    for j in range(sizes.shape[-1]):
        child_total += sizes[..., j]
    wrong = (child_total != total).ravel()
    if wrong.any():
        i = int(wrong.argmax())
        raise ValueError(
            f"partition totals ({child_total.flat[i]:g}) do not match parent "
            f"({total.flat[i]:g})"
        )
    entropies = _entropies(kids, sizes)
    weighted = np.zeros_like(total)
    for j in range(sizes.shape[-1]):
        # an empty child weighs 0, so it adds an exact zero
        weighted += (sizes[..., j] / total) * entropies[..., j]
    gain = _entropies(p, total) - weighted
    return float(gain) if p.ndim == 1 else gain


def _entropies(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Entropy in bits of each count vector along the last axis; an
    all-zero vector gives -0.0, as a pure one does."""
    q = np.where(counts > 0, counts / np.where(totals > 0, totals, 1.0)[..., None],
                 1.0)
    terms = q * np.log2(q)  # zero classes: 1 * log2 1 = 0
    acc = np.zeros(counts.shape[:-1])
    for j in range(counts.shape[-1]):
        acc += terms[..., j]
    return -acc


def gini(counts: Sequence[int] | np.ndarray) -> float:
    """Gini impurity sum_{i != j} p_i p_j; with two classes, 2p(1-p)."""
    c = _as_counts(counts)
    if c.sum() <= 0:
        raise ValueError("gini undefined for an empty node")
    return _gini(c, _off_diagonal(c.size))


def _off_diagonal(m: int) -> np.ndarray:
    return np.ones((m, m)) - np.eye(m)


def _gini(c: np.ndarray, off: np.ndarray) -> float:
    """``gini`` of nonempty float counts, as p @ ``_off_diagonal`` @ p."""
    p = c / c.sum()
    return float(p @ off @ p)


def gini_decrease(
    parent: Sequence[int] | np.ndarray,
    left: Sequence[int] | np.ndarray,
    right: Sequence[int] | np.ndarray,
) -> float:
    """Impurity decrease of a binary split: Gini(parent) minus the
    probability-weighted child Ginis.  An empty child contributes weight 0.
    """
    p = _as_counts(parent)
    l, r = _as_counts(left), _as_counts(right)
    total = p.sum()
    if total <= 0:
        raise ValueError("gini_decrease undefined for an empty parent")
    if l.sum() + r.sum() != total:
        raise ValueError("left + right totals must equal the parent total")
    if l.shape != p.shape or r.shape != p.shape:
        raise ValueError("left and right must count the parent's classes")
    off = _off_diagonal(p.size)
    delta = _gini(p, off)
    for child in (l, r):
        n = child.sum()
        if n > 0:
            delta -= (n / total) * _gini(child, off)
    return float(delta)


@lru_cache(maxsize=None)
def _special(name: str):
    """The scipy.special ufunc ``name`` (``gammaincc`` or ``betaincinv``),
    loaded on first use so commands that need neither never pay for it.

    ``import scipy.special`` runs its array-API layer, which imports
    numpy.testing, numpy.f2py, unittest and numpy.ma (0.2-0.4 s and 18 MB
    after numpy), none of which the chi-square p-values and the pruning
    bound use.  The ufuncs live in the private ``scipy.special._ufuncs``
    (checked on scipy 1.17.1), the very objects the package exports, so it
    is loaded under a bare ``scipy.special`` package with scipy's own
    ``__path__``, which leaves ``sys.modules`` again at once: a later
    ``import scipy.special`` runs the real ``__init__``.  A package already
    loaded is used as it is, and any failure falls back to it.
    """
    special = sys.modules.get("scipy.special")
    if special is None:
        try:
            special = _load_ufuncs()
        except Exception:
            import scipy.special as special
    return getattr(special, name)


def _load_ufuncs() -> types.ModuleType:
    path = importlib.util.find_spec("scipy.special").submodule_search_locations
    bare = types.ModuleType("scipy.special")
    bare.__path__ = list(path)
    sys.modules["scipy.special"] = bare
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        if sys.modules.get("scipy.special") is bare:
            del sys.modules["scipy.special"]


def chi_square_sf(statistic: float, dof: int) -> float:
    """Survival function of the chi-square distribution (the p-value for a
    given statistic), via the regularized upper incomplete gamma function."""
    if not 0 <= statistic < np.inf:
        raise ValueError("chi-square statistic must be finite and non-negative")
    if dof < 1:
        raise ValueError("degrees of freedom must be at least 1")
    return float(_special("gammaincc")(dof / 2.0, statistic / 2.0))


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float


def chi_square(table: Sequence[Sequence[int]] | np.ndarray) -> ChiSquareResult:
    """Pearson chi-square test of independence on an r x c contingency table.

    The statistic is sum (O-E)^2/E.  Rows and columns whose marginal is zero
    are dropped before computing; if fewer than two rows or columns remain
    the table is degenerate and an error is raised.  The p-value is the
    chi-square survival function, evaluated through the regularized upper
    incomplete gamma function.
    """
    obs = np.asarray(table, dtype=float)
    if obs.ndim != 2:
        raise ValueError("contingency table must be 2-D")
    if not ((obs >= 0) & (obs < np.inf)).all():
        raise ValueError("contingency counts must be finite and non-negative")
    row_sums = obs.sum(axis=1)
    col_sums = obs.sum(axis=0)
    obs = obs[row_sums > 0][:, col_sums > 0]
    r, c = obs.shape
    if r < 2 or c < 2:
        raise DegenerateTableError(
            "need at least 2 rows and 2 columns with positive marginals"
        )
    total = obs.sum()
    expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / total
    stat = float(((obs - expected) ** 2 / expected).sum())
    dof = (r - 1) * (c - 1)
    return ChiSquareResult(statistic=stat, dof=dof, p_value=chi_square_sf(stat, dof))


def chi_square_k2(tables: Sequence[np.ndarray] | np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Pearson p-values of a batch of k x 2 tables with positive row sums.

    ``tables`` is a sequence of [k, 2] count tables, k >= 2 and free to vary
    (a [n, k, 2] array is n tables of one k).  Returns ``(p_values,
    degenerate)``: ``degenerate`` marks the tables with an empty class
    column, where ``chi_square`` raises ``DegenerateTableError``; their
    p-value is NaN.  Every other p-value equals ``chi_square(t).p_value``
    bit for bit.  The tables' rows are stacked, sorted by k, and go through
    the float operations of ``chi_square`` row by row; only the statistic's
    sum runs per k, because its summation order depends on the length.
    """
    if isinstance(tables, np.ndarray) and tables.ndim == 3:
        sizes = np.full(len(tables), tables.shape[1])
        order = slice(None)
        obs = tables.reshape(-1, tables.shape[2])
    else:
        sizes = np.array([len(t) for t in tables], dtype=np.intp)
        order = np.argsort(sizes, kind="stable")
        sizes = sizes[order]
        obs = np.concatenate([tables[i] for i in order]) if len(sizes) else \
            np.zeros((0, 2))
    obs = np.asarray(obs, dtype=float)
    if obs.ndim != 2 or obs.shape[1] != 2 or (sizes < 2).any():
        raise ValueError("tables must be k x 2 with k >= 2")
    if not ((obs >= 0) & (obs < np.inf)).all():
        raise ValueError("contingency counts must be finite and non-negative")
    rows = obs.sum(axis=1)
    if not (rows > 0).all():
        raise ValueError("k x 2 tables need positive row sums")
    p = np.full(len(sizes), np.nan)
    degenerate = np.zeros(len(sizes), dtype=bool)
    if not len(sizes):
        return p, degenerate
    ends = np.cumsum(sizes)
    # integer-valued, so these sums are exact in any order
    cols = np.add.reduceat(obs, ends - sizes, axis=0)
    total = cols.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = rows[:, None] * np.repeat(cols, sizes, axis=0) \
            / np.repeat(total, sizes)[:, None]
        terms = (obs - expected) ** 2 / expected
    stat = np.empty(len(sizes))
    # sorted by k: each k is one run of tables and one block of rows
    bounds = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), len(sizes)]
    for lo, hi in zip(bounds, bounds[1:]):
        k = int(sizes[lo])
        block = terms[ends[lo] - k:ends[hi - 1]]
        stat[lo:hi] = block.reshape(hi - lo, 2 * k).sum(axis=1)
    flat = ~(cols > 0).all(axis=1)
    gammaincc = _special("gammaincc")
    p[order] = np.where(flat, np.nan, gammaincc((sizes - 1) / 2.0, stat / 2.0))
    degenerate[order] = flat
    return p, degenerate
