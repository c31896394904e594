import itertools
import json
import math
import multiprocessing
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treebench.dataset import (
    CategoricalTable,
    SyntheticRules,
    binary_schema,
    feature,
    generate_synthetic,
)
from treebench import shapley
from treebench.evaluation import EvalError, _cv_result, cross_validate, make_folds
from treebench.forest import ForestParams, train_forest, train_forests
from treebench.shapley import (
    BackgroundSet,
    CvSpec,
    EliminationStep,
    EliminationTrace,
    ShapAttribution,
    ShapError,
    attribution_table,
    backward_eliminate,
    brute_force_shap,
    explain_table,
    global_importance,
    make_background,
    shap_batch,
    shap_values,
    _weight_tables,
)
from treebench.tree import (
    DecisionTree,
    Split,
    TreeNode,
    TreeParams,
    train_c50,
    train_cart,
    train_chaid,
    train_quest,
)

from oracles import predict, with_cpus


def random_table(n, m, codes=3, seed=0):
    rng = np.random.default_rng(seed)
    schema = [feature(f"f{j}", range(codes)) for j in range(m)]
    rows = rng.integers(0, codes, size=(n, m))
    target = rng.integers(0, 2, size=n)
    return CategoricalTable(schema, rows, target)


def model_output(model, row):
    if isinstance(model, DecisionTree):
        klass, confidence = predict(model, row)
        return confidence if klass == 1 else 1.0 - confidence
    return float(model.proba_batch(np.asarray(row)[None])[0])


def permutation_shap(model, row, background):
    """Independent oracle: average marginal contributions over orderings."""
    row = np.asarray(row)
    background = np.asarray(background)
    m = row.size

    def value(coalition):
        total = 0.0
        for z in background:
            hybrid = np.array(z)
            for j in coalition:
                hybrid[j] = row[j]
            total += model_output(model, hybrid)
        return total / len(background)

    phi = np.zeros(m)
    for order in itertools.permutations(range(m)):
        seen = []
        before = value(seen)
        for j in order:
            seen.append(j)
            after = value(seen)
            phi[j] += after - before
            before = after
    return phi / math.factorial(m)


def max_gap(attribution, reference):
    return max(
        abs(a - b)
        for a, b in zip(attribution.contributions, reference.contributions)
    )


def local_accuracy_gap(attribution):
    return abs(
        attribution.base_value
        + sum(attribution.contributions)
        - attribution.model_output
    )


def indicator_tree(m, target_feature, schema_hash="x" * 16):
    """Hand-built stump: predicts 1 exactly when the feature's code is 1."""
    zero = TreeNode(counts=np.array([4, 0]), prediction=0, confidence=1.0)
    one = TreeNode(counts=np.array([0, 4]), prediction=1, confidence=1.0)
    root = TreeNode(
        counts=np.array([4, 4]), prediction=0, confidence=0.5,
        split=Split(feature=target_feature, arity="binary",
                    branches=((0,), (1,))),
        children=(zero, one),
    )
    return DecisionTree(
        root=root, algorithm="cart", params=TreeParams(),
        feature_names=tuple(f"f{j}" for j in range(m)),
        schema_hash=schema_hash, n_rows=8,
    )


# ---------------------------------------------------------------------------
# Shapley kernel arithmetic


def test_kernel_weights_telescope():
    for m in range(1, 10):
        total = sum(
            math.comb(m - 1, k)
            * math.factorial(k) * math.factorial(m - k - 1) / math.factorial(m)
            for k in range(m)
        )
        assert abs(total - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Trivial models


def test_single_leaf_tree_all_zero():
    table = CategoricalTable(
        [feature("f0", (0, 1))], np.array([[0], [1], [0]]), np.array([1, 1, 1])
    )
    tree = train_c50(table)
    att = shap_values(tree, [0], table.rows)
    assert att.contributions == (0.0,)
    assert att.base_value == 1.0
    assert att.model_output == 1.0


def test_indicator_concentrates_on_its_feature():
    tree = indicator_tree(3, target_feature=1)
    background = np.array([[0, 0, 0], [1, 0, 1], [0, 0, 1]])
    att = shap_values(tree, [1, 1, 0], background)
    assert att.contributions[0] == 0.0
    assert att.contributions[2] == 0.0
    assert abs(att.contributions[1] - (1.0 - att.base_value)) < 1e-12
    assert att.model_output == 1.0


def test_single_feature_game():
    tree = indicator_tree(1, target_feature=0)
    background = np.array([[0], [0], [1]])
    att = shap_values(tree, [1], background)
    brute = brute_force_shap(tree, [1], background)
    expected = att.model_output - att.base_value
    assert abs(att.contributions[0] - expected) < 1e-12
    assert abs(brute.contributions[0] - expected) < 1e-12


def test_symmetry_for_identical_features():
    # model counts agreements of f0 and f1 with code 1 symmetrically
    table = CategoricalTable(
        [feature("f0", (0, 1)), feature("f1", (0, 1))],
        np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 3),
        np.array([0, 0, 0, 1] * 3),
    )
    tree = train_cart(table, TreeParams(min_records=1))
    background = np.array([[0, 0]])
    att = shap_values(tree, [1, 1], background)
    assert abs(att.contributions[0] - att.contributions[1]) < 1e-12


# ---------------------------------------------------------------------------
# Oracle equivalence


def test_matches_permutation_oracle_small():
    rng = np.random.default_rng(7)
    for trial in range(8):
        m = 3
        table = random_table(30, m, codes=3, seed=50 + trial)
        trainer = (train_c50, train_cart, train_chaid, train_quest)[trial % 4]
        tree = trainer(table, TreeParams(min_records=2, max_depth=3))
        background = table.rows[:4]
        row = rng.integers(0, 3, size=m)
        att = shap_values(tree, row, background)
        reference = permutation_shap(tree, row, background)
        assert max(abs(a - b) for a, b in
                   zip(att.contributions, reference)) < 1e-9


def test_brute_force_matches_permutation_oracle():
    rng = np.random.default_rng(8)
    table = random_table(30, 3, codes=3, seed=77)
    tree = train_cart(table, TreeParams(min_records=2, max_depth=3))
    background = table.rows[:3]
    row = rng.integers(0, 3, size=3)
    brute = brute_force_shap(tree, row, background)
    reference = permutation_shap(tree, row, background)
    assert max(abs(a - b) for a, b in
               zip(brute.contributions, reference)) < 1e-9


def test_matches_brute_force_on_random_trees():
    rng = np.random.default_rng(21)
    worst = 0.0
    for trial in range(16):
        m = int(rng.integers(2, 7))
        table = random_table(40, m, codes=3, seed=200 + trial)
        trainer = (train_c50, train_cart, train_chaid, train_quest)[trial % 4]
        tree = trainer(table, TreeParams(min_records=2, max_depth=4))
        background = table.rows[rng.choice(40, size=5, replace=False)]
        for _ in range(2):
            row = rng.integers(0, 4, size=m)  # code 3 exercises fallbacks
            att = shap_values(tree, row, background)
            worst = max(worst, max_gap(att, brute_force_shap(tree, row, background)))
            worst = max(worst, local_accuracy_gap(att))
    assert worst < 1e-9


def test_matches_brute_force_on_random_forests():
    rng = np.random.default_rng(22)
    worst = 0.0
    for trial in range(6):
        m = int(rng.integers(2, 6))
        table = random_table(50, m, codes=3, seed=400 + trial)
        forest = train_forest(
            table, ForestParams(n_trees=10, seed=trial, max_depth=4)
        )
        background = table.rows[rng.choice(50, size=5, replace=False)]
        row = rng.integers(0, 3, size=m)
        att = shap_values(forest, row, background)
        worst = max(worst, max_gap(att, brute_force_shap(forest, row, background)))
        worst = max(worst, local_accuracy_gap(att))
    assert worst < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    grower=st.sampled_from(["c50", "cart", "chaid", "quest", "forest"]),
)
def test_batch_matches_brute_force_on_sparse_codes(seed, grower):
    """Sparse, non-contiguous codes, with the explained rows and the
    background drawn apart.  Code 150 is absent from every training table,
    code 1 appears only in the rows and code 2 only in the background, so a
    feature's universe is neither the training domain nor either matrix's."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    schema, columns = [], []
    for j in range(m):
        codes = np.sort(rng.choice([0, 5, 97, 3, 64], size=int(rng.integers(2, 5)),
                                   replace=False))
        schema.append(feature(f"f{j}", codes.tolist()))
        columns.append(rng.choice(codes, size=40))
    table = CategoricalTable(schema, np.stack(columns, axis=1),
                             rng.integers(0, 2, size=40))
    rows = rng.choice([0, 5, 97, 3, 64, 1, 150], size=(4, m))
    background = rng.choice([0, 5, 97, 3, 64, 2, 150], size=(5, m))
    rows[0, 0], background[0, 0] = 1, 2
    if grower == "forest":
        model = train_forest(table, ForestParams(n_trees=3, min_records=1,
                                                 max_depth=3, seed=seed))
    else:
        trainer = {"c50": train_c50, "cart": train_cart, "chaid": train_chaid,
                   "quest": train_quest}[grower]
        # only the entropy grower reads min_gain
        model = trainer(table, TreeParams(min_records=1, max_depth=3, **(
            {"min_gain": 0.0} if grower == "c50" else {})))
    for row, att in zip(rows, shap_batch(model, rows, background)):
        assert max_gap(att, brute_force_shap(model, row, background)) < 1e-9
        assert local_accuracy_gap(att) < 1e-9


def _pairwise_tree_phi(leaves, row_pos: np.ndarray, back_pos: np.ndarray,
                       m: int) -> np.ndarray:
    """Second oracle: the per-leaf kernel over every (row, background) pair,
    with no pass-pattern compression."""
    n_rows, n_back = row_pos.shape[0], back_pos.shape[0]
    phi = np.zeros((n_rows, m))
    for value, masks in leaves:
        if not masks or value == 0.0:
            continue
        feats = sorted(masks)
        x_pass = np.stack([masks[f][row_pos[:, f]] for f in feats], axis=1)
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
        phi[:, feats] += value * per_pair / n_back
    return phi


_POOL = np.array([0, 5, 97, 3, 64])
_EXTRA = np.append(_POOL, [1, 150])  # 1 and 150 are in no training table


def sparse_table(rng, m, n=60):
    """m features of 2-5 sparse codes from the pool, random target."""
    schema, columns = [], []
    for j in range(m):
        codes = np.sort(rng.choice(_POOL, size=int(rng.integers(2, 6)),
                                   replace=False))
        schema.append(feature(f"f{j}", codes.tolist()))
        columns.append(rng.choice(codes, size=n))
    return CategoricalTable(schema, np.stack(columns, axis=1),
                            rng.integers(0, 2, size=n))


def fit(grower, table, seed, max_depth):
    if grower == "forest":
        return train_forest(table, ForestParams(n_trees=3, min_records=1,
                                                max_depth=max_depth, seed=seed))
    trainer = {"c50": train_c50, "cart": train_cart, "chaid": train_chaid,
               "quest": train_quest}[grower]
    # only the entropy grower reads min_gain
    return trainer(table, TreeParams(min_records=1, max_depth=max_depth, **(
        {"min_gain": 0.0} if grower == "c50" else {})))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    grower=st.sampled_from(["c50", "cart", "chaid", "quest", "forest"]),
    max_depth=st.sampled_from([None, 1, 2, 3]),
    n_back=st.sampled_from([1, 8, 13]),
)
def test_tree_phi_bit_identical_to_pairwise_kernel(seed, grower, max_depth, n_back):
    """The pattern-compressed kernel gives every tree of the model exactly
    the floats of the pairwise kernel.  Many explained rows share a pass
    pattern; codes are sparse, some unseen in training, and one-feature
    tables make every path a one-feature path."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    table = sparse_table(rng, m)
    rows = np.concatenate([table.rows, rng.choice(_EXTRA, size=(20, m))])
    background = rng.choice(_EXTRA, size=(n_back, m))
    model = fit(grower, table, seed, max_depth)
    kernel, calls = shapley._tree_phi, []

    def both(leaves, row_pos, back_pos, width):
        fast = kernel(leaves, row_pos, back_pos, width)
        calls.append(np.array_equal(
            fast, _pairwise_tree_phi(leaves, row_pos, back_pos, width)))
        return fast

    with mock.patch.object(shapley, "_tree_phi", both):
        shap_batch(model, rows, background)
    assert calls and all(calls)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    grower=st.sampled_from(["c50", "cart", "quest", "forest"]),
    n_back=st.sampled_from([1, 8, 13]),
)
def test_tree_phi_long_paths_bit_identical_to_pairwise_kernel(seed, grower, n_back):
    """Unbounded depth over 6-12 features gives paths of many lengths d.
    Each tree's kernel also runs on as many explained rows as its shortest
    path's 2^d pattern table holds, so the shortest paths take the dense
    table and every longer one the dedupe.  Both sides give exactly the
    floats of the pairwise kernel, and no pattern table is built with more
    patterns than there are rows.  (CHAID is left out: on a random target
    its significance test rarely lets it grow past the root.)"""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 13))
    table = sparse_table(rng, m)
    rows = np.concatenate([table.rows, rng.choice(_EXTRA, size=(20, m))])
    rows[-1] = 150  # falls back at every root: a one-feature path
    background = rng.choice(_EXTRA, size=(n_back, m))
    model = fit(grower, table, seed, None)
    kernel, patterns = shapley._tree_phi, shapley._patterns
    calls, built, dense = [], [], set()

    def build(d):
        built.append(d)
        return patterns(d)

    def run(leaves, row_pos, back_pos, width):
        built.clear()
        fast = kernel(leaves, row_pos, back_pos, width)
        assert all(1 << d <= len(row_pos) for d in built)
        calls.append(np.array_equal(
            fast, _pairwise_tree_phi(leaves, row_pos, back_pos, width)))
        return fast

    def both(leaves, row_pos, back_pos, width):
        lengths = [len(masks) for value, masks in leaves
                   if masks and value != 0.0]
        if lengths:
            n = 1 << min(lengths)
            dense.update(1 << d <= n for d in lengths)
            run(leaves, row_pos[:n], back_pos, width)
        return run(leaves, row_pos, back_pos, width)

    with mock.patch.object(shapley, "_tree_phi", both), \
            mock.patch.object(shapley, "_patterns", build):
        shap_batch(model, rows, background)
    assert calls and all(calls)
    assert dense == {True, False}


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    grower=st.sampled_from(["c50", "cart", "chaid", "quest", "forest"]),
    n_back=st.sampled_from([1, 8, 13]),
    row_ids=st.lists(st.integers(0, 59), min_size=1, max_size=8),
)
def test_one_pass_equals_separate_passes(seed, grower, n_back, row_ids):
    """explain_table's slices of the full-table pass are exactly shap_batch
    on those rows alone, in any order and with repeats, and its ranking is
    global_importance's.  The background holds codes the table lacks, so
    the two passes index different code universes."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    table = sparse_table(rng, m)
    background = rng.choice(_EXTRA, size=(n_back, m))
    model = fit(grower, table, seed, None)
    attributions, ranking = explain_table(model, table, background, row_ids)
    alone = shap_batch(model, table.rows[row_ids], background)
    assert np.array_equal([a.contributions for a in attributions],
                          [a.contributions for a in alone])
    assert [(a.base_value, a.model_output) for a in attributions] \
        == [(a.base_value, a.model_output) for a in alone]
    assert ranking == global_importance(model, table, background)


def test_local_accuracy_over_batch():
    table = random_table(60, 5, codes=3, seed=31)
    forest = train_forest(table, ForestParams(n_trees=15, seed=3, max_depth=5))
    background = make_background(table, max_rows=8, seed=1)
    for att in shap_batch(forest, table.rows, background):
        assert local_accuracy_gap(att) < 1e-9


def test_dummy_feature_is_exactly_zero():
    # f2 never splits: it is pure noise duplicated from f0's labels
    rng = np.random.default_rng(44)
    rows = np.zeros((40, 3), dtype=np.int64)
    rows[:, 0] = rng.integers(0, 2, size=40)
    rows[:, 1] = rng.integers(0, 2, size=40)
    rows[:, 2] = 0
    table = CategoricalTable(
        [feature("f0", (0, 1)), feature("f1", (0, 1)), feature("f2", (0, 1))],
        rows, rows[:, 0],
    )
    tree = train_c50(table)
    used = {n.split.feature for n, _, _ in tree_nodes(tree) if n.split}
    assert 2 not in used
    background = rows[:6]
    for row in ([0, 1, 1], [1, 0, 1], [1, 1, 1]):
        att = shap_values(tree, row, background)
        assert att.contributions[2] == 0.0


def tree_nodes(tree):
    from treebench.tree import iter_nodes

    return iter_nodes(tree)


def test_forest_linearity_is_mean_of_tree_games():
    from dataclasses import replace

    from treebench.forest import Forest

    table = random_table(50, 4, codes=3, seed=60)
    forest = train_forest(table, ForestParams(n_trees=9, seed=6, max_depth=4))
    background = table.rows[:5]
    row = np.array([1, 2, 0, 1])
    combined = shap_values(forest, row, background)
    single_params = replace(forest.params, n_trees=1)
    per_tree = []
    for t in forest.trees:
        one = Forest((t,), single_params, forest.feature_names,
                     forest.schema_hash, forest.n_rows)
        per_tree.append(shap_values(one, row, background).contributions)
    mean = np.mean(np.array(per_tree), axis=0)
    assert max(abs(a - b) for a, b in zip(combined.contributions, mean)) < 1e-12


def test_deterministic_rerun():
    table = random_table(40, 4, codes=3, seed=71)
    forest = train_forest(table, ForestParams(n_trees=8, seed=2, max_depth=4))
    background = make_background(table, max_rows=6, seed=4)
    first = shap_batch(forest, table.rows[:10], background)
    second = shap_batch(forest, table.rows[:10], background)
    assert [a.contributions for a in first] == [a.contributions for a in second]


# ---------------------------------------------------------------------------
# Inputs and guards


def test_empty_background_rejected():
    tree = indicator_tree(2, 0)
    with pytest.raises(ShapError):
        shap_values(tree, [0, 0], np.empty((0, 2), dtype=np.int64))
    with pytest.raises(ShapError):
        BackgroundSet(np.empty((0, 2), dtype=np.int64))


def test_background_copies_caller_rows():
    rows = np.zeros((3, 2), dtype=np.int64)
    background = BackgroundSet(rows)
    assert rows.flags.writeable
    assert not background.rows.flags.writeable
    rows[0, 0] = 1
    assert background.rows[0, 0] == 0


def test_row_width_mismatch_rejected():
    tree = indicator_tree(2, 0)
    with pytest.raises(ShapError):
        shap_values(tree, [0, 0, 0], np.array([[0, 0]]))
    with pytest.raises(ShapError):
        shap_values(tree, [0, 0], np.array([[0, 0, 1]]))


def test_unsupported_model_rejected():
    background = np.zeros((2, 1), dtype=np.int64)
    with pytest.raises(ShapError):
        shap_batch(object(), [[0]], background)
    with pytest.raises(ShapError):
        brute_force_shap(object(), [0], background)


def test_brute_force_feature_cap():
    tree = indicator_tree(21, 0)
    with pytest.raises(ShapError):
        brute_force_shap(tree, [0] * 21, np.zeros((1, 21), dtype=np.int64))


def test_attribution_shape_guard():
    with pytest.raises(ShapError):
        ShapAttribution(("a", "b"), (0.0,), 0.0, 0.0)


def test_make_background_downsamples_and_is_seeded():
    table = random_table(300, 3, seed=5)
    small = make_background(table, max_rows=16, seed=9)
    again = make_background(table, max_rows=16, seed=9)
    other = make_background(table, max_rows=16, seed=10)
    assert small.size == 16
    assert np.array_equal(small.rows, again.rows)
    assert not np.array_equal(small.rows, other.rows)
    table_rows = {tuple(r) for r in table.rows}
    assert all(tuple(r) in table_rows for r in small.rows)
    full = make_background(table, max_rows=1000)
    assert full.size == 300
    with pytest.raises(ShapError):
        make_background(table, max_rows=0)


# ---------------------------------------------------------------------------
# Global importance


def test_global_importance_constant_model_zero():
    table = CategoricalTable(
        [feature("f0", (0, 1)), feature("f1", (0, 1))],
        np.array([[0, 1], [1, 0], [0, 0]]),
        np.array([1, 1, 1]),
    )
    tree = train_c50(table)
    ranking = global_importance(tree, table, table.rows)
    assert [value for _, value in ranking] == [0.0, 0.0]
    assert [name for name, _ in ranking] == ["f0", "f1"]  # index tie-break


def test_global_importance_single_feature_model():
    tree = indicator_tree(3, target_feature=2)
    table = random_table(40, 3, codes=2, seed=15)
    ranking = global_importance(tree, table, table.rows[:8])
    assert ranking[0][0] == "f2"
    assert ranking[0][1] > 0.0
    assert ranking[1][1] == 0.0 and ranking[2][1] == 0.0


def relevance_rules():
    """Planted pair with main effects plus an interaction term."""
    return SyntheticRules(
        intercept=-0.15,
        weights={"f00": 2.0, "f01": 2.0},
        disagreements=(("f00", "f01", -2.5),),
    )


def test_global_importance_finds_planted_pair():
    schema = binary_schema(6)
    hits = 0
    for seed in range(10):
        data = generate_synthetic(schema, 300, seed=500 + seed,
                                  rules=relevance_rules())
        forest = train_forest(
            data, ForestParams(n_trees=12, seed=seed, max_depth=4)
        )
        ranking = global_importance(
            forest, data, make_background(data, 16, seed)
        )
        top2 = {name for name, _ in ranking[:2]}
        hits += top2 == {"f00", "f01"}
    assert hits >= 9


# ---------------------------------------------------------------------------
# Backward elimination


def test_trace_validation():
    step = EliminationStep(("a", "b"), 0.5, "a")
    with pytest.raises(ShapError):
        EliminationTrace((), 0)
    with pytest.raises(ShapError):
        EliminationTrace((step,), 5)
    with pytest.raises(ShapError):
        EliminationTrace((step, EliminationStep(("b",), 0.4, "a")), 0)
    with pytest.raises(ShapError):
        EliminationTrace((EliminationStep(("a", "b"), 0.5, "c"),), 0)


def test_trace_json_round_trip():
    trace = EliminationTrace(
        (
            EliminationStep(("a", "b"), 0.625, "b"),
            EliminationStep(("a",), 0.5, "a"),
        ),
        0,
    )
    back = EliminationTrace.from_json(trace.to_json())
    assert back == trace
    assert back.selected_features == ("a", "b")


_TRACE = {"steps": [{"active_features": ["a", "b"], "accuracy": 0.5, "dropped": "b"}],
          "selected_index": 0}


@pytest.mark.parametrize("text", [
    "{}", "[]", "null",
    json.dumps({"steps": _TRACE["steps"]}),
    json.dumps({**_TRACE, "steps": {"a": 1}}),
    json.dumps({**_TRACE, "steps": ["a"]}),
    json.dumps({**_TRACE, "steps": [{"accuracy": 0.5, "dropped": "b"}]}),
    json.dumps({**_TRACE, "steps": [{**_TRACE["steps"][0], "accuracy": "x"}]}),
    json.dumps({**_TRACE, "steps": [{**_TRACE["steps"][0], "accuracy": "0.5"}]}),
    json.dumps({**_TRACE, "steps": [{**_TRACE["steps"][0], "active_features": "ab"}]}),
    json.dumps({**_TRACE, "steps": [{"active_features": [1, 2], "accuracy": 0.5,
                                     "dropped": 1}]}),
    json.dumps({**_TRACE, "selected_index": "0"}),
], ids=["empty", "list", "null", "no-selected-index", "steps-object", "step-text",
        "no-active-features", "accuracy-text", "accuracy-number-text",
        "active-features-text", "names-numbers", "selected-index-text"])
def test_malformed_trace_is_shap_error(text):
    """The trace loader raises its own error, never a bare KeyError,
    TypeError or ValueError, and takes no value of the wrong type."""
    assert EliminationTrace.from_json(json.dumps(_TRACE)).selected_features == ("a", "b")
    with pytest.raises(ShapError):
        EliminationTrace.from_json(text)


def test_two_feature_trace_shape():
    schema = binary_schema(2)
    data = generate_synthetic(schema, 120, seed=3, rules=relevance_rules())
    trace = backward_eliminate(
        data, ForestParams(n_trees=5, seed=1, max_depth=3),
        CvSpec(k=5, seed=1), background_size=8,
    )
    assert len(trace.steps) == 2
    assert len(trace.steps[0].active_features) == 2
    assert len(trace.steps[1].active_features) == 1
    assert len({s.dropped for s in trace.steps}) == 2
    assert all(0.0 <= s.accuracy <= 1.0 for s in trace.steps)


def test_elimination_caps_features_per_split():
    """An explicit features_per_split above the active count of the last
    steps is capped there, not rejected."""
    schema = binary_schema(4)
    data = generate_synthetic(schema, 120, seed=5, rules=relevance_rules())
    trace = backward_eliminate(
        data, ForestParams(n_trees=4, seed=1, max_depth=3, features_per_split=2),
        CvSpec(k=5, seed=1), background_size=8,
    )
    assert [len(s.active_features) for s in trace.steps] == [4, 3, 2, 1]


def test_elimination_requires_two_features():
    schema = binary_schema(1)
    data = generate_synthetic(schema, 50, seed=3,
                              rules=SyntheticRules(weights={"f00": 1.0}))
    with pytest.raises(ShapError):
        backward_eliminate(data, ForestParams(n_trees=3, seed=0),
                           CvSpec(k=5, seed=0))


def test_elimination_names_a_fold_too_small_to_train():
    """Three rows in two folds leave fold 0 one training row: the error
    names the fold, as cross-validation's does."""
    data = random_table(3, 2, seed=4)
    with pytest.raises(EvalError, match="^trainer failed on fold 0: forest "
                                        "training needs at least 2 rows$"):
        backward_eliminate(data, ForestParams(n_trees=2, seed=0),
                           CvSpec(k=2, seed=0))


def test_elimination_deterministic():
    schema = binary_schema(4)
    data = generate_synthetic(schema, 150, seed=12, rules=relevance_rules())
    params = ForestParams(n_trees=6, seed=2, max_depth=3)
    first = backward_eliminate(data, params, CvSpec(k=5, seed=2), 8)
    second = backward_eliminate(data, params, CvSpec(k=5, seed=2), 8)
    assert first.to_json() == second.to_json()


@st.composite
def elimination_cases(draw):
    """A small table whose features have 2-5 codes, one of them held by a
    single row of feature 0 (and maybe others), so the fold holding that row
    trains on fewer codes than the step table has; forest knobs that reach
    every branch of the grower; a fold count that leaves 2 training rows."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(8, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    schema, columns = [], []
    for j in range(m):
        codes = np.sort(rng.choice(np.arange(9), size=draw(st.integers(2, 5)),
                                   replace=False))
        column = rng.choice(codes[1:], size=n)
        rare = rng.choice(n, size=1 if j == 0 else int(rng.integers(0, 3)),
                          replace=False)
        column[rare] = codes[0]
        schema.append(feature(f"f{j}", codes.tolist()))
        columns.append(column)
    data = CategoricalTable(schema, np.stack(columns, axis=1),
                            (rng.random(n) < rng.random()).astype(int))
    bootstrap = draw(st.booleans())
    params = ForestParams(
        n_trees=draw(st.integers(1, 3)),
        features_per_split=draw(st.one_of(st.none(), st.integers(1, m))),
        # the identity sample takes no sample_size
        sample_size=draw(st.one_of(st.none(), st.integers(1, 2 * n))) if bootstrap else None,
        bootstrap=bootstrap,
        min_records=draw(st.integers(1, 4)),
        max_depth=draw(st.sampled_from([None, 0, 1, 3])),
        seed=draw(st.integers(0, 1000)))
    k = draw(st.integers(2, min(5, n // 3)))
    return data, params, CvSpec(k=k, stratified=draw(st.booleans()),
                                seed=draw(st.integers(0, 1000)))


@settings(max_examples=60, deadline=None)
@given(case=elimination_cases())
def test_elimination_step_equals_separate_forests(case):
    """Each step grows the forests that separate training gives: the
    whole-table forest equals ``train_forest`` on the step table, the step's
    one fold batch gives each fold forest equal to ``train_forest`` on a
    copy of its training rows (by ``to_json``), and the step's
    cross-validation result, fold accuracies included, equals
    ``cross_validate``'s exactly.  On one CPU, so the mocks see the fold
    tasks: they cannot look into a forked worker."""
    data, params, cv = case
    wholes, batches, scored = [], [], []

    def grow_one(table, step_params):
        forest = train_forest(table, step_params)
        wholes.append((table, step_params, forest.to_json()))
        return forest

    def grow(table, step_params, row_sets):
        forests = train_forests(table, step_params, row_sets)
        batches.append((table, step_params, [f.to_json() for f in forests]))
        return forests

    def score(table, plan, fold_labels):
        scored.append(_cv_result(table, plan, fold_labels))
        return scored[-1]

    with mock.patch.object(shapley, "train_forest", grow_one), \
            mock.patch.object(shapley, "train_forests", grow), \
            mock.patch.object(shapley, "_cv_result", score):
        trace = with_cpus(1, backward_eliminate, data, params, cv, 4)
    plan = make_folds(data.n_rows, cv.k, cv.stratified, labels=data.target,
                      seed=cv.seed)
    universe = set(data.rows[:, 0].tolist())
    assert any(set(data.rows[plan.train_indices(i), 0].tolist()) != universe
               for i in range(plan.k))
    assert len(wholes) == len(batches)
    grown = []
    for (table, step_params, whole), (fold_table, fold_params, folds) in zip(
            wholes, batches):
        assert fold_table.feature_names == table.feature_names
        assert fold_params == step_params
        grown.append((table, step_params, [whole, *folds]))
    assert len(grown) == len(scored) == len(trace.steps) == data.n_features
    for step, (table, step_params, forests), result in zip(trace.steps, grown, scored):
        assert table.feature_names == step.active_features
        if (params.features_per_split or 0) > table.n_features:
            assert step_params == replace(params, features_per_split=table.n_features)
        else:
            assert step_params == params
        assert forests[0] == train_forest(table, step_params).to_json()
        assert forests[1:] == [
            train_forest(table.take_rows(plan.train_indices(i)), step_params).to_json()
            for i in range(plan.k)]
        expected = cross_validate(lambda t: train_forest(t, step_params), table, plan)
        assert result == expected
        assert step.accuracy == expected.mean_accuracy


def elimination_outcome(data, params, cv):
    try:
        return backward_eliminate(data, params, cv, background_size=4).to_json()
    except (EvalError, ShapError) as exc:
        return type(exc), str(exc)


@settings(max_examples=15, deadline=None)
@given(case=elimination_cases())
def test_elimination_same_on_one_cpu_and_two(case):
    """The fold tasks give the same trace in this process and in forked
    workers."""
    inline = with_cpus(1, elimination_outcome, *case)
    pooled = with_cpus(2, elimination_outcome, *case)
    assert pooled == inline
    assert multiprocessing.active_children() == []


def test_elimination_fold_tasks_run_in_forked_workers():
    parent = os.getpid()

    def where(table, params, row_sets):  # labels 1 for a fold fit outside this process
        label = int(os.getpid() != parent)
        return [lambda rows: np.full(len(rows), label) for _ in row_sets]

    rng = np.random.default_rng(4)
    data = CategoricalTable(binary_schema(3), rng.integers(0, 2, size=(60, 3)),
                            np.repeat([1, 0], [40, 20]))
    cv = CvSpec(k=5, seed=1)
    plan = make_folds(data.n_rows, cv.k, cv.stratified, labels=data.target,
                      seed=cv.seed)
    accuracy = [_cv_result(data, plan, [np.full(len(f), label) for f in plan.folds]
                           ).mean_accuracy for label in (0, 1)]
    assert accuracy[0] != accuracy[1]
    with mock.patch.object(shapley, "train_forests", where):
        for n_cpus, label in ((1, 0), (2, 1)):
            trace = with_cpus(n_cpus, backward_eliminate, data,
                              ForestParams(n_trees=3, seed=0, max_depth=2), cv, 8)
            assert [s.accuracy for s in trace.steps] == [accuracy[label]] * 3
            assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fold_fails, shapley_fails, expected", [
    ({1}, {1}, (EvalError, "trainer failed on fold 0: fold batch failed at step 1")),
    ({1, 2}, set(), (EvalError, "trainer failed on fold 0: fold batch failed at step 1")),
    ({1}, {2}, (EvalError, "trainer failed on fold 0: fold batch failed at step 1")),
    ({2}, {1}, (ShapError, "Shapley pass failed at step 1")),
    ({0, 3}, {0}, (EvalError, "trainer failed on fold 0: fold batch failed at step 0")),
], ids=["folds-before-own-shapley", "folds-before-next-folds",
        "folds-before-next-shapley", "shapley-before-next-folds", "first-step"])
def test_elimination_first_error_in_serial_order_wins(fold_fails, shapley_fails,
                                                     expected):
    """Step s's fold forests come before its Shapley pass, which comes
    before anything of step s + 1.  A fold batch that raises fails on fold
    0, as in ``compare_models``.  The patches are made before the pool
    forks, so its workers inherit them."""
    m = 4
    schema = binary_schema(m)
    data = generate_synthetic(schema, 80, seed=9, rules=relevance_rules())

    def failing_folds(table, params, row_sets):
        if m - table.n_features in fold_fails:
            raise RuntimeError(f"fold batch failed at step {m - table.n_features}")
        return train_forests(table, params, row_sets)

    def failing_shapley(model, rows, back):
        if m - rows.shape[1] in shapley_fails:
            raise ShapError(f"Shapley pass failed at step {m - rows.shape[1]}")
        return phi_matrix(model, rows, back)

    phi_matrix = shapley._phi_matrix
    with mock.patch.object(shapley, "train_forests", failing_folds), \
            mock.patch.object(shapley, "_phi_matrix", failing_shapley):
        for n_cpus in (1, 2):
            with pytest.raises(expected[0]) as info:
                with_cpus(n_cpus, backward_eliminate, data,
                          ForestParams(n_trees=2, seed=0, max_depth=2),
                          CvSpec(k=4, seed=0), 8)
            assert str(info.value) == expected[1]
            assert multiprocessing.active_children() == []


def test_elimination_selects_planted_features():
    schema = binary_schema(6)
    hits = 0
    for seed in range(5):
        data = generate_synthetic(schema, 300, seed=700 + seed,
                                  rules=relevance_rules())
        trace = backward_eliminate(
            data, ForestParams(n_trees=8, seed=seed, max_depth=4,
                               sample_size=150),
            CvSpec(k=5, seed=seed), background_size=8,
        )
        drops = [s.dropped for s in trace.steps]
        assert len(drops) == 6 and len(set(drops)) == 6
        hits += {"f00", "f01"} <= set(trace.selected_features)
    assert hits >= 4


# ---------------------------------------------------------------------------
# Export


def test_attribution_table_format():
    tree = indicator_tree(2, 0)
    background = np.array([[0, 0], [1, 1]])
    atts = shap_batch(tree, np.array([[1, 0], [0, 1]]), background)
    text = attribution_table(atts, row_ids=[10, 11])
    lines = text.strip().split("\n")
    assert lines[0] == "row\tfeature\tphi\tbase\toutput"
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split("\t")
    assert first[0] == "10" and first[1] == "f0"
    float(first[2]), float(first[3]), float(first[4])
