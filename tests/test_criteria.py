"""Split-quality kernel checks against independent direct-formula oracles."""
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treebench
from treebench.criteria import (
    ChiSquareResult,
    DegenerateTableError,
    chi_square,
    chi_square_k2,
    chi_square_sf,
    entropy,
    gini,
    gini_decrease,
    info_gain,
)

import oracles


# Pure-python oracles, written straight off the defining formulas.  They share
# no code with the implementation.

def entropy_oracle(counts):
    total = sum(counts)
    out = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            out -= p * math.log2(p)
    return out


def info_gain_oracle(parent, children):
    total = sum(parent)
    weighted = sum(
        (sum(k) / total) * entropy_oracle(k) for k in children if sum(k) > 0
    )
    return entropy_oracle(parent) - weighted


def pearson_oracle(table):
    table = [list(map(float, row)) for row in table]
    total = sum(sum(row) for row in table)
    row_sums = [sum(row) for row in table]
    col_sums = [sum(row[j] for row in table) for j in range(len(table[0]))]
    stat = 0.0
    for i, row in enumerate(table):
        for j, o in enumerate(row):
            e = row_sums[i] * col_sums[j] / total
            stat += (o - e) ** 2 / e
    return stat


class TestEntropy:
    def test_pure_node(self):
        assert entropy([10, 0]) == 0.0

    def test_uniform_binary(self):
        assert entropy([5, 5]) == pytest.approx(1.0, abs=1e-12)

    def test_cohort_class_balance(self):
        # 346 vehicles without injury, 394 with, out of 740
        assert entropy([346, 394]) == pytest.approx(0.9969629, abs=1e-6)

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            m = rng.integers(2, 6)
            counts = rng.integers(0, 50, size=m)
            if counts.sum() == 0:
                counts[0] = 1
            assert entropy(counts) == pytest.approx(
                entropy_oracle(counts.tolist()), abs=1e-12
            )

    def test_permutation_invariant(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            counts = rng.integers(1, 40, size=4)
            shuffled = rng.permutation(counts)
            assert entropy(counts) == pytest.approx(entropy(shuffled), abs=1e-12)

    def test_uniform_is_maximal(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            m = int(rng.integers(2, 6))
            counts = rng.integers(1, 40, size=m)
            assert entropy(counts) <= math.log2(m) + 1e-12
        assert entropy([7] * 5) == pytest.approx(math.log2(5), abs=1e-12)

    def test_empty_counts_error(self):
        with pytest.raises(ValueError):
            entropy([0, 0])
        with pytest.raises(ValueError):
            entropy([])


class TestInfoGain:
    def test_no_split_is_zero(self):
        assert info_gain([6, 4], [[6, 4]]) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_split(self):
        assert info_gain([5, 5], [[5, 0], [0, 5]]) == pytest.approx(1.0, abs=1e-12)

    def test_worked_partition(self):
        got = info_gain([6, 4], [[4, 1], [2, 3]])
        assert got == pytest.approx(0.124511, abs=1e-6)
        assert got == pytest.approx(info_gain_oracle([6, 4], [[4, 1], [2, 3]]), abs=1e-12)

    def test_matches_oracle_on_random_partitions(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            m = int(rng.integers(2, 5))
            k = int(rng.integers(2, 5))
            children = rng.integers(0, 20, size=(k, m))
            if children.sum() == 0:
                children[0, 0] = 1
            parent = children.sum(axis=0)
            assert info_gain(parent, list(children)) == pytest.approx(
                info_gain_oracle(parent.tolist(), children.tolist()), abs=1e-12
            )

    def test_bounds(self):
        rng = np.random.default_rng(45)
        for _ in range(300):
            children = rng.integers(0, 20, size=(3, 2))
            if children.sum() == 0:
                children[0, 0] = 1
            parent = children.sum(axis=0)
            g = info_gain(parent, list(children))
            assert -1e-12 <= g <= entropy(parent) + 1e-12

    def test_total_mismatch_error(self):
        with pytest.raises(ValueError):
            info_gain([6, 4], [[4, 1], [2, 2]])


@st.composite
def partition_stacks(draw):
    """(parents [..., m], children [..., k, m]) for m = 2..7 classes and
    k = 1..8 children, with empty children, pure nodes and classes absent
    from a parent."""
    m, k = draw(st.integers(2, 7)), draw(st.integers(1, 8))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = draw(st.sampled_from([2, 4, 50, 10**6]))
    kids = rng.integers(0, high, size=lead + (k, m))
    kids *= rng.random(lead + (k, 1)) < 0.7  # empty children
    kids *= rng.random(lead + (1, m)) < 0.8  # classes absent from the parent
    pure = (rng.random(lead + (1, 1)) < 0.2) & (np.arange(m) != rng.integers(m))
    kids[np.broadcast_to(pure, kids.shape)] = 0
    kids[..., 0, 0] += kids.sum(axis=(-2, -1)) == 0  # no empty parent
    return kids.sum(axis=-2), kids


class TestInfoGainStacks:
    @settings(max_examples=300, deadline=None)
    @given(stack=partition_stacks())
    def test_matches_scalar_oracle_bit_for_bit(self, stack):
        parents, kids = stack
        got = info_gain(parents, kids)
        if parents.ndim == 1:
            assert type(got) is float
            got = np.array(got)
        assert got.dtype == np.float64 and got.shape == parents.shape[:-1]
        for at in np.ndindex(got.shape):
            expected = oracles.info_gain(parents[at], kids[at])
            assert float(got[at]).hex() == float(expected).hex()

    def test_stacks_raise_no_runtime_warning(self):
        kids = np.array([[[0, 0, 0], [5, 0, 0], [0, 0, 3]],
                         [[0, 0, 0], [0, 0, 0], [4, 0, 4]],
                         [[2, 0, 0], [0, 0, 0], [7, 0, 0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gains = info_gain(kids.sum(axis=1), kids)
        assert gains[1] == 0.0 and gains[2] == 0.0 and gains[0] > 0.0

    @pytest.mark.parametrize("spoil", ["mismatch", "empty", "nan", "negative"])
    def test_one_bad_partition_fails_the_stack(self, spoil):
        kids = np.array([[[3, 1], [0, 2]], [[1, 1], [2, 0]], [[4, 0], [0, 0]]],
                        dtype=float)
        parents = kids.sum(axis=1)
        if spoil == "mismatch":
            parents[1] = [3, 2]
        elif spoil == "empty":
            parents[1] = kids[1] = 0
        elif spoil == "nan":
            kids[1, 0, 1] = np.nan
        else:
            kids[1, 1, 0] = -2
        with pytest.raises(ValueError) as stacked:
            info_gain(parents, kids)
        with pytest.raises(ValueError) as single:
            oracles.info_gain(parents[1], kids[1])
        assert str(stacked.value) == str(single.value)
        assert "\n" not in str(stacked.value)

    def test_children_must_stack_under_the_parents(self):
        with pytest.raises(ValueError, match="partition"):
            info_gain([[3, 1], [1, 1]], [[3, 1], [1, 1]])
        with pytest.raises(ValueError, match="partition"):
            info_gain([3, 1], [[3, 1, 0]])


class TestGini:
    def test_pure_node(self):
        assert gini([10, 0]) == 0.0

    def test_uniform_binary(self):
        assert gini([5, 5]) == pytest.approx(0.5, abs=1e-12)

    def test_unit_cost_identity(self):
        # with unit cost, gini = 1 - sum p_i^2
        rng = np.random.default_rng(46)
        for _ in range(1000):
            m = int(rng.integers(2, 6))
            counts = rng.integers(0, 50, size=m)
            if counts.sum() == 0:
                counts[0] = 1
            p = counts / counts.sum()
            assert gini(counts) == pytest.approx(1.0 - (p ** 2).sum(), abs=1e-12)

    def test_empty_counts_error(self):
        with pytest.raises(ValueError):
            gini([0, 0])


class TestGiniDecrease:
    def test_vacuous_split(self):
        assert gini_decrease([5, 5], [5, 5], [0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_split(self):
        assert gini_decrease([5, 5], [5, 0], [0, 5]) == pytest.approx(0.5, abs=1e-12)

    def test_worked_split(self):
        # 0.48 - 0.5*0.32 - 0.5*0.48 = 0.08
        assert gini_decrease([6, 4], [4, 1], [2, 3]) == pytest.approx(0.08, abs=1e-12)

    def test_nonnegative_under_unit_cost(self):
        rng = np.random.default_rng(48)
        for _ in range(1000):
            left = rng.integers(0, 30, size=2)
            right = rng.integers(0, 30, size=2)
            parent = left + right
            if parent.sum() == 0:
                continue
            assert gini_decrease(parent, left, right) >= -1e-12

    def test_total_mismatch_error(self):
        with pytest.raises(ValueError):
            gini_decrease([6, 4], [4, 1], [2, 2])

    def test_equals_public_gini_terms_bit_for_bit(self):
        """The decrease is the float of a public ``gini`` call per node."""
        rng = np.random.default_rng(49)
        for _ in range(200):
            left, right = rng.integers(0, 30, size=2), rng.integers(0, 30, size=2)
            parent = left + right
            if parent.sum() == 0:
                continue
            expected = gini(parent)
            for child in (left, right):
                if child.sum() > 0:
                    expected -= (child.sum() / parent.sum()) * gini(child)
            got = gini_decrease(parent, left, right)
            assert got.hex() == float(expected).hex()

    def test_children_must_count_the_parents_classes(self):
        with pytest.raises(ValueError, match="parent's classes"):
            gini_decrease([6, 4], [4, 1, 0], [2, 3])


class TestChiSquare:
    def test_perfect_independence(self):
        res = chi_square([[10, 10], [10, 10]])
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0, abs=1e-12)
        assert res.dof == 1

    def test_perfect_association(self):
        res = chi_square([[20, 0], [0, 20]])
        assert res.statistic == pytest.approx(40.0, abs=1e-12)
        assert res.dof == 1

    def test_critical_value_lookup(self):
        assert chi_square_sf(3.841, 1) == pytest.approx(0.0500, abs=1e-4)

    def test_dof_for_larger_tables(self):
        rng = np.random.default_rng(49)
        table = rng.integers(1, 30, size=(4, 3))
        assert chi_square(table).dof == 6

    def test_matches_pearson_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(300):
            table = rng.integers(1, 40, size=(rng.integers(2, 5), rng.integers(2, 5)))
            got = chi_square(table).statistic
            assert got == pytest.approx(pearson_oracle(table.tolist()), abs=1e-10)

    def test_zero_marginals_dropped(self):
        res = chi_square([[20, 0, 10], [0, 0, 0], [5, 0, 15]])
        kept = chi_square([[20, 10], [5, 15]])
        assert res.statistic == pytest.approx(kept.statistic, abs=1e-12)
        assert res.dof == kept.dof

    def test_degenerate_table_error(self):
        with pytest.raises(DegenerateTableError):
            chi_square([[5, 5]])
        with pytest.raises(DegenerateTableError):
            chi_square([[5, 0], [7, 0]])

    def test_result_is_frozen(self):
        res = chi_square([[1, 2], [3, 4]])
        assert isinstance(res, ChiSquareResult)
        with pytest.raises(AttributeError):
            res.statistic = 0.0


@st.composite
def k2_tables(draw):
    """A k x 2 table, k = 2-13, with positive row sums; a quarter of them
    have an empty class column."""
    k = draw(st.integers(2, 13))
    scale = draw(st.sampled_from([2, 30, 5000]))
    table = np.array(draw(st.lists(st.tuples(st.integers(0, scale),
                                             st.integers(0, scale)),
                                   min_size=k, max_size=k)), dtype=np.int64)
    empty = draw(st.sampled_from([None, None, None, 0, 1]))
    if empty is not None:
        table[:, empty] = 0
    table[table.sum(axis=1) == 0, 1 if empty == 0 else 0] = 1
    return table


class TestChiSquareK2:
    @settings(max_examples=300, deadline=None)
    @given(tables=st.lists(k2_tables(), min_size=1, max_size=12))
    def test_matches_chi_square_bit_for_bit(self, tables):
        p, degenerate = chi_square_k2(tables)
        for table, got, flat in zip(tables, p.tolist(), degenerate.tolist()):
            try:
                expected = chi_square(table).p_value
            except DegenerateTableError:
                assert flat and math.isnan(got)
                continue
            assert not flat
            assert got.hex() == expected.hex()

    def test_stack_of_one_k_equals_the_sequence(self):
        rng = np.random.default_rng(52)
        stack = rng.integers(1, 9, size=(40, 3, 2))
        stack[:5, :, 1] = 0
        p, degenerate = chi_square_k2(stack)
        q, flagged = chi_square_k2(list(stack))
        assert np.array_equal(p, q, equal_nan=True)
        assert np.array_equal(degenerate, flagged)
        assert degenerate.tolist() == [True] * 5 + [False] * 35

    def test_empty_batch(self):
        p, degenerate = chi_square_k2([])
        assert p.shape == degenerate.shape == (0,)

    def test_zero_row_sum_rejected(self):
        with pytest.raises(ValueError, match="positive row sums"):
            chi_square_k2([np.array([[3, 4], [0, 0]])])

    @pytest.mark.parametrize("bad", [[[5, 5]], [[1, 2, 3], [4, 5, 6]],
                                     [[1, -2], [3, 4]], [[1, np.nan], [3, 4]],
                                     [[1, np.inf], [3, 4]]])
    def test_bad_tables_rejected(self, bad):
        with pytest.raises(ValueError):
            chi_square_k2([np.array(bad, dtype=float)])


class TestNonFiniteCounts:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_vector_kernels_reject(self, bad):
        for call in (lambda: entropy([bad, 1]),
                     lambda: gini([bad, 1]),
                     lambda: info_gain([bad, 1], [[bad, 1]]),
                     lambda: info_gain([2, 1], [[1, 1], [1, bad]]),
                     lambda: gini_decrease([bad, 1], [bad, 0], [0, 1])):
            with pytest.raises(ValueError, match="finite") as info:
                call()
            assert "\n" not in str(info.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_chi_square_rejects(self, bad):
        with pytest.raises(ValueError, match="finite"):
            chi_square([[1, bad], [3, 4]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_chi_square_sf_rejects(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            chi_square_sf(bad, 1)


# ---------------------------------------------------------------------------
# Where gammaincc and betaincinv come from

_SPECIAL_PROBE = """
import importlib.util, sys
from treebench import criteria

case = sys.argv[1]
if case == "fallback":
    def refuse(*args, **kwargs):
        raise ImportError("refused")
    importlib.util.find_spec = refuse
if case == "package-first":
    import scipy.special
got = [criteria._special(name) for name in ("gammaincc", "betaincinv")]
print("scipy.special" in sys.modules)
import scipy.special
assert got[0] is scipy.special.gammaincc and got[1] is scipy.special.betaincinv
assert scipy.special._ufuncs.gammaincc is got[0]
# the real package, with its Python-level functions and array-API layer
assert scipy.special.__spec__ is not None and scipy.special.logsumexp([0.0]) == 0.0
assert "scipy.special._support_alternative_backends" in sys.modules
"""


@pytest.mark.parametrize("case, package_loaded", [
    ("helper-first", False), ("package-first", True), ("fallback", True)])
def test_special_gives_the_packages_own_ufuncs(case, package_loaded):
    """``_special`` hands out the very ufunc objects that scipy.special
    exports, so every p-value and pruning bound is the package's.  Called
    first, it loads them without the package, which a later
    ``import scipy.special`` then loads as usual; with the package already
    loaded, or when the private load fails, it takes them from the
    package."""
    env = dict(os.environ, PYTHONPATH=str(Path(treebench.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _SPECIAL_PROBE, case], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(package_loaded)]
