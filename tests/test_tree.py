"""Tree induction, pruning, prediction, importance, and DOT export."""
import json
import math
from dataclasses import asdict, replace
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treebench.criteria import DegenerateTableError, chi_square, info_gain
from treebench.dataset import (
    CategoricalTable,
    FeatureSpec,
    binary_schema,
    feature,
    generate_synthetic,
    planted_relevance_rules,
)
from treebench.tree import (
    GROWER_KNOBS,
    TREE_RULES,
    DecisionTree,
    Split,
    TreeError,
    TreeParams,
    export_dot,
    iter_nodes,
    leaf_count,
    node_count,
    node_paths,
    pessimistic_error_bound,
    predict_batch,
    predictor_importance,
    prune_c50,
    stirling2,
    train_c50,
    train_cart,
    train_chaid,
    train_quest,
    tree_depth,
)
from treebench import tree as tree_module
from treebench.tree import _gini_chooser, _quest_chooser, _Step
from treebench.forest import ForestParams, train_forest

import oracles
from oracles import predict

ALL_TRAINERS = [train_c50, train_cart, train_chaid, train_quest]


def params_for(train, **knobs) -> TreeParams:
    """TreeParams of the ``knobs`` that ``train``'s grower reads: a grower
    refuses the others."""
    reads = GROWER_KNOBS[train.__name__.removeprefix("train_")]
    return TreeParams(**{k: v for k, v in knobs.items() if k in reads})


def make_table(rows, n_codes=None):
    """Rows of (f..., y) tuples to a CategoricalTable."""
    arr = np.array(rows, dtype=np.int64)
    X, y = arr[:, :-1], arr[:, -1]
    m = X.shape[1]
    if n_codes is None:
        n_codes = [int(X[:, j].max()) + 1 for j in range(m)]
    schema = tuple(
        FeatureSpec(f"f{j:02d}", tuple(range(max(2, n_codes[j])))) for j in range(m)
    )
    return CategoricalTable(schema, X, y)


def xor_table():
    return make_table([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])


# parity needs a zero-gain root split, so XOR trees train in the
# any-candidate mode with single-row branches allowed
XOR_PARAMS = TreeParams(min_records=1, min_gain=0.0)


def random_table(rng, n=None, m=None, codes=None):
    n = n or int(rng.integers(12, 40))
    m = m or int(rng.integers(2, 5))
    codes = codes or int(rng.integers(2, 4))
    X = rng.integers(0, codes, size=(n, m))
    y = rng.integers(0, 2, size=n)
    schema = tuple(FeatureSpec(f"f{j:02d}", tuple(range(codes))) for j in range(m))
    return CategoricalTable(schema, X, y)


def training_accuracy(tree, table):
    return float((predict_batch(tree, table.rows) == table.target).mean())


class TestTreeParams:
    def test_defaults(self):
        p = TreeParams()
        assert p.min_records == 2
        assert p.severity == 75.0
        assert p.alpha == 0.05
        assert p.max_depth is None

    def test_validation(self):
        with pytest.raises(TreeError):
            TreeParams(min_records=0)
        with pytest.raises(TreeError):
            TreeParams(severity=0.0)
        with pytest.raises(TreeError):
            TreeParams(severity=100.0)
        with pytest.raises(TreeError):
            TreeParams(alpha=1.0)

    def test_severity_whose_confidence_factor_rounds_to_one(self):
        # (100 - 5e-15) / 100 rounds to 1.0, where no pruning bound exists
        with pytest.raises(TreeError, match="severity 5e-15 is too small"):
            TreeParams(severity=5e-15)
        assert TreeParams(severity=1e-13).severity == 1e-13
        tree = train_c50(xor_table(), XOR_PARAMS)
        with pytest.raises(TreeError, match="too small"):
            prune_c50(tree, severity=5e-15)

    @pytest.mark.parametrize("field, value", [
        ("min_records", "x"), ("min_records", True), ("min_records", 2.0),
        ("severity", "75"), ("severity", True), ("max_depth", 1.5),
        ("max_depth", [3]), ("alpha", None), ("min_gain", "0"),
        ("min_gain", float("nan")),
    ])
    def test_field_types(self, field, value):
        with pytest.raises(TreeError, match=field):
            TreeParams(**{field: value})

    def test_numpy_numbers_accepted(self):
        p = TreeParams(min_records=np.int64(3), severity=np.float64(50.0),
                       max_depth=np.int32(2))
        assert (p.min_records, p.severity, p.max_depth) == (3, 50.0, 2)


class TestGrowerKnobs:
    # a value away from the default for each TreeParams field
    SET = {"min_records": 3, "severity": 50.0, "max_depth": 2, "alpha": 0.1,
           "min_gain": 0.5}

    def test_every_field_has_a_value(self):
        assert set(self.SET) == set(TREE_RULES)
        # 20 (grower, field) pairs, 9 of which no grower reads
        assert sum(len(TREE_RULES) - len(knobs) for knobs in GROWER_KNOBS.values()) == 9

    @pytest.mark.parametrize("train", ALL_TRAINERS)
    @pytest.mark.parametrize("knob", sorted(TREE_RULES))
    def test_grower_refuses_the_knobs_it_does_not_read(self, train, knob):
        grower = train.__name__.removeprefix("train_")
        table = random_table(np.random.default_rng(5))
        params = TreeParams(**{knob: self.SET[knob]})
        if knob in GROWER_KNOBS[grower]:
            assert train(table, params).params == params
        else:
            with pytest.raises(TreeError, match=f"^unknown knob '{knob}'; {grower} takes "):
                train(table, params)
            # set to its default, it changes nothing and passes
            default = TreeParams(**{knob: getattr(TreeParams(), knob)})
            assert train(table, default).to_json() == train(table).to_json()

    def test_refusal_names_the_knobs_taken(self):
        table = random_table(np.random.default_rng(5))
        with pytest.raises(TreeError) as info:
            train_quest(table, TreeParams(alpha=0.01, max_depth=3))
        assert str(info.value) == "unknown knob 'alpha'; quest takes min_records, max_depth"

    @pytest.mark.parametrize("algorithm", [*GROWER_KNOBS, "forest_member"])
    @pytest.mark.parametrize("knob", sorted(TREE_RULES))
    def test_payload_refuses_the_knobs_its_grower_does_not_read(self, algorithm, knob):
        """A loaded tree takes the knobs its algorithm's grower takes; a
        forest member grows as cart does."""
        payload = {"algorithm": algorithm, "params": {knob: self.SET[knob]},
                   "feature_names": ["f0"], "schema_hash": "x", "n_rows": 1,
                   "root": {"counts": [1, 0]}}
        reads = GROWER_KNOBS["cart" if algorithm == "forest_member" else algorithm]
        if knob in reads:
            params = DecisionTree.from_payload(payload).params
            assert params == TreeParams(**{knob: self.SET[knob]})
        else:
            with pytest.raises(TreeError, match=f"unknown knob '{knob}'; {algorithm} "
                                                f"takes {', '.join(reads)}$"):
                DecisionTree.from_payload(payload)

    def test_payload_refuses_an_unknown_algorithm(self):
        payload = train_cart(random_table(np.random.default_rng(5))).payload()
        for algorithm in ("id3", None, ["cart"]):
            payload["algorithm"] = algorithm
            with pytest.raises(TreeError, match="'algorithm' is not 'c50', 'chaid', "
                                                "'cart', 'quest' or 'forest_member'"):
                DecisionTree.from_payload(payload)


class TestC50:
    def test_pure_target_single_leaf(self):
        table = make_table([(0, 1, 1), (1, 0, 1), (1, 1, 1)])
        tree = train_c50(table)
        assert tree.root.is_leaf
        assert tree_depth(tree) == 0
        assert tree.root.prediction == 1

    def test_perfect_binary_predictor(self):
        table = make_table([(0, 0), (0, 0), (1, 1), (1, 1)])
        tree = train_c50(table)
        assert tree.root.split.feature == 0
        assert all(c.is_leaf for c in tree.root.children)
        assert training_accuracy(tree, table) == 1.0

    def test_xor_needs_depth_two(self):
        table = xor_table()
        tree = train_c50(table, XOR_PARAMS)
        assert tree_depth(tree) == 2
        assert leaf_count(tree) == 4
        assert training_accuracy(tree, table) == 1.0
        # no single-feature multiway tree separates XOR
        y = table.target
        for j in range(2):
            for labels in ([0, 0], [0, 1], [1, 0], [1, 1]):
                pred = np.array([labels[c] for c in table.rows[:, j]])
                assert (pred == y).mean() < 1.0

    def test_positive_gain_everywhere(self):
        rng = np.random.default_rng(60)
        for _ in range(30):
            tree = train_c50(random_table(rng), TreeParams(min_records=1))
            for node, _, _ in iter_nodes(tree):
                if not node.is_leaf:
                    assert node.score > 0.0

    def test_children_counts_sum_to_parent(self):
        rng = np.random.default_rng(61)
        for trainer in ALL_TRAINERS:
            tree = trainer(random_table(rng, n=60), TreeParams(min_records=1))
            for node, _, _ in iter_nodes(tree):
                if not node.is_leaf:
                    total = sum(c.counts for c in node.children)
                    assert np.array_equal(total, node.counts)

    def test_feature_used_once_per_path(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            tree = train_c50(random_table(rng, m=4), TreeParams(min_records=1))

            def walk(node, used):
                if node.is_leaf:
                    return
                assert node.split.feature not in used
                for child in node.children:
                    walk(child, used | {node.split.feature})

            walk(tree.root, set())

    def test_empty_branch_inherits_parent_majority(self):
        # code 2 of f01 exists only under f00=1, so the f01 split under
        # f00=0 has an empty branch for it
        table = make_table([
            (0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 1, 1),
            (1, 0, 1), (1, 1, 1), (1, 2, 1), (1, 2, 1),
        ])
        tree = train_c50(table)
        assert tree.root.split.feature == 0
        inner = tree.root.children[0]
        assert inner.split.feature == 1
        empty = inner.children[2]
        assert empty.total == 0
        assert empty.prediction == inner.prediction == 0
        assert empty.confidence == inner.confidence == 0.75
        # tie leaf under f01=1 goes to the lower class code
        assert inner.children[1].prediction == 0
        # fallback prediction matches the structural story
        assert predict(tree, (0, 2)) == (0, 0.75)
        # batch routing stops at the same nodes; the tie leaf keeps class 0
        # although its class-1 fraction is 0.5
        rows = np.array([(0, 2), (0, 1)])
        assert tree.predict_batch(rows).tolist() == [0, 0]
        assert tree.proba_batch(rows).tolist() == [0.25, 0.5]

    def test_no_features_single_leaf(self):
        table = CategoricalTable((), np.zeros((4, 0), dtype=np.int64),
                                 np.array([0, 1, 1, 0]))
        tree = train_c50(table)
        assert tree.root.is_leaf and tree.root.counts.tolist() == [2, 2]

    def test_min_records_blocks_small_branches(self):
        table = xor_table()
        # root children hold 2 rows each; their sub-branches would hold 1
        tree = train_c50(table, TreeParams(min_records=2, min_gain=0.0))
        assert tree_depth(tree) == 1

    def test_zero_gain_split_needs_opt_in(self):
        # parity has no single feature with positive gain, so the default
        # threshold stops at the root
        tree = train_c50(xor_table(), TreeParams(min_records=1))
        assert tree.root.is_leaf

    def test_determinism_and_json_round_trip(self):
        rng = np.random.default_rng(63)
        table = random_table(rng, n=50)
        a = train_c50(table)
        b = train_c50(table)
        assert a.to_json() == b.to_json()
        back = DecisionTree.from_json(a.to_json())
        assert back.to_json() == a.to_json()
        assert np.array_equal(
            predict_batch(back, table.rows), predict_batch(a, table.rows)
        )


def scalar_gain_chooser(data, params, universes):
    """Oracle for ``_gain_chooser``: one scalar ``info_gain`` per (node,
    feature), as before batching."""
    def choose(idx, counts, tables):
        best = None  # (gain, feature)
        for f, codes, table in tables:
            if table.sum(axis=1).min() < params.min_records:
                continue
            # codes absent at the node are empty parts of the table universe
            parts = np.zeros((len(universes[f]), 2), dtype=np.int64)
            parts[np.searchsorted(universes[f], codes)] = table
            g = oracles.info_gain(counts, parts)
            if best is None or g > best[0] + 1e-12:
                best = (g, f)
        if best is None or best[0] < params.min_gain:
            return None
        return best[0], best[1], tuple((int(c),) for c in universes[best[1]])

    return oracles.per_node(choose)


def skewed_table(rng):
    """Features of 2-7 codes, some rare, so that many nodes lack codes
    (empty branches) and pure nodes come early; the target leans on one
    feature."""
    n, m = int(rng.integers(8, 120)), int(rng.integers(1, 6))
    codes = rng.integers(2, 8, size=m)
    X = np.column_stack([rng.choice(c, size=n, p=rng.dirichlet(np.full(c, 0.5)))
                         for c in codes])
    y = (X[:, rng.integers(m)] % 2) ^ (rng.random(n) < rng.uniform(0.0, 0.5))
    schema = tuple(FeatureSpec(f"f{j:02d}", tuple(range(c))) for j, c in enumerate(codes))
    return CategoricalTable(schema, X, y.astype(np.int64))


class TestC50Oracles:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), min_records=st.integers(1, 4),
           min_gain=st.sampled_from([1e-12, 0.0, 0.05]),
           max_depth=st.sampled_from([None, 1, 3]))
    def test_tree_matches_scalar_chooser(self, seed, min_records, min_gain, max_depth):
        """The step chooser grows the tree a per-node chooser with one
        scalar ``info_gain`` per feature grows, gains bit for bit."""
        table = skewed_table(np.random.default_rng(seed))
        params = TreeParams(min_records=min_records, min_gain=min_gain,
                            max_depth=max_depth)
        batched = train_c50(table, params).to_json()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_module, "_gain_chooser", scalar_gain_chooser)
            assert train_c50(table, params).to_json() == batched

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), min_records=st.integers(1, 3),
           min_gain=st.sampled_from([1e-12, 0.0]),
           severity=st.one_of(st.sampled_from([1e-13, 0.001, 25.0, 75.0, 99.9]),
                              st.floats(0.01, 99.99)))
    def test_pruning_matches_recursive_oracle(self, seed, min_records, min_gain,
                                              severity):
        """One bound call per tree and one bottom-up pass prune as the
        recursive two-pass oracle does, on trees with empty branches and
        zero-gain splits; the input tree is left as it was."""
        table = skewed_table(np.random.default_rng(seed))
        tree = train_c50(table, TreeParams(min_records=min_records, min_gain=min_gain))
        before = tree.to_json()
        got = prune_c50(tree, severity).to_json()
        assert tree.to_json() == before
        assert got == oracles.prune_c50(tree, severity).to_json()
        params = replace(tree.params, severity=severity)
        assert prune_c50(replace(tree, params=params)).to_json() == \
            oracles.prune_c50(replace(tree, params=params)).to_json()


class TestPruningBound:
    def test_zero_error_closed_form(self):
        # with no observed errors the bound solves (1-U)^N = CF exactly
        for n in (1, 2, 5, 20, 100):
            for cf in (0.1, 0.25, 0.5, 0.9):
                assert pessimistic_error_bound(0, n, cf) == pytest.approx(
                    1.0 - cf ** (1.0 / n), abs=1e-12
                )

    def test_inverts_binomial_cdf(self):
        # independent oracle: at the bound, P(X <= E) equals CF exactly
        def binom_cdf(e, n, p):
            return sum(comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(e + 1))

        rng = np.random.default_rng(64)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            e = int(rng.integers(0, n))
            cf = float(rng.uniform(0.05, 0.95))
            u = pessimistic_error_bound(e, n, cf)
            assert binom_cdf(e, n, u) == pytest.approx(cf, abs=1e-9)

    def test_monotone_and_bounded(self):
        cf = 0.25
        prev = 0.0
        for e in range(0, 10):
            u = pessimistic_error_bound(e, 10, cf)
            assert e / 10 < u <= 1.0
            assert u > prev
            prev = u
        assert pessimistic_error_bound(10, 10, cf) == 1.0
        assert pessimistic_error_bound(0, 0, cf) == 0.0

    def test_arrays_match_scalars(self):
        errors = np.array([0, 3, 10, 0, 7, 12])
        total = np.array([0, 10, 10, 1, 40, 9])
        for cf in (0.01, 0.25, 0.75):
            bounds = pessimistic_error_bound(errors, total, cf)
            assert bounds.dtype == np.float64 and bounds.shape == (6,)
            assert [b.hex() for b in bounds.tolist()] == [
                pessimistic_error_bound(int(e), int(n), cf).hex()
                for e, n in zip(errors, total)]
        assert type(pessimistic_error_bound(3, 10, 0.25)) is float
        with pytest.raises(TreeError, match="confidence factor"):
            pessimistic_error_bound(errors, total, 1.0)


class TestPruneC50:
    def dominated_table(self):
        # a split whose children both predict the parent majority
        rows = []
        rows += [(0, 0)] * 6 + [(0, 1)] * 2
        rows += [(1, 0)] * 5 + [(1, 1)] * 3
        return make_table(rows)

    def test_dominated_subtree_collapses(self):
        table = self.dominated_table()
        tree = train_c50(table)
        assert not tree.root.is_leaf
        pruned = prune_c50(tree)
        assert pruned.root.is_leaf
        assert pruned.root.prediction == 0

    def test_low_severity_keeps_error_reducing_splits(self):
        # as severity falls toward 0, any subtree that strictly reduces the
        # observed error count survives; only splits with no error
        # reduction can still collapse
        def observed_errors(node):
            return node.total - int(node.counts.max())

        def subtree_observed_errors(node):
            if node.is_leaf:
                return observed_errors(node)
            return sum(subtree_observed_errors(c) for c in node.children)

        def node_at(tree, path):
            n = tree.root
            for k in path:
                n = n.children[k]
            return n

        rng = np.random.default_rng(65)
        for _ in range(15):
            tree = train_c50(random_table(rng, n=50), TreeParams(min_records=1))
            pruned = prune_c50(tree, severity=0.001)
            assert node_paths(pruned) <= node_paths(tree)
            for _, _, path in iter_nodes(pruned):
                before = node_at(tree, path)
                after = node_at(pruned, path)
                if after.is_leaf and not before.is_leaf:
                    assert subtree_observed_errors(before) == observed_errors(before)

    def test_low_severity_keeps_perfect_splits(self):
        clean = make_table([(0, 0)] * 5 + [(1, 1)] * 5)
        tree = train_c50(clean)
        pruned = prune_c50(tree, severity=0.001)
        assert node_paths(pruned) == node_paths(tree)
        parity = train_c50(xor_table(), XOR_PARAMS)
        assert node_paths(prune_c50(parity, severity=0.001)) == node_paths(parity)

    def test_node_set_shrinks(self):
        rng = np.random.default_rng(66)
        for _ in range(20):
            tree = train_c50(random_table(rng, n=60), TreeParams(min_records=1))
            pruned = prune_c50(tree)
            assert node_paths(pruned) <= node_paths(tree)
            assert node_count(pruned) <= node_count(tree)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        severity=st.sampled_from([0.001, 25.0, 75.0, 99.9]),
        min_records=st.integers(1, 3),
    )
    def test_only_removes_structure(self, seed, severity, min_records):
        """Every pruned node sits at the same path in the input with the same
        counts, prediction and split; a collapsed subtree becomes a leaf with
        its root's counts.  The input tree is left as it was."""
        rng = np.random.default_rng(seed)
        table = random_table(rng, n=int(rng.integers(12, 80)), codes=int(rng.integers(2, 5)))
        tree = train_c50(table, TreeParams(min_records=min_records))
        before = tree.to_json()
        original = {path: node for node, _, path in iter_nodes(tree)}
        for node, _, path in iter_nodes(prune_c50(tree, severity)):
            source = original[path]
            assert node.counts.tolist() == source.counts.tolist()
            assert (node.prediction, node.confidence) == (source.prediction,
                                                          source.confidence)
            if not node.is_leaf:
                assert node.split == source.split
                assert len(node.children) == len(source.children)
        assert tree.to_json() == before

    def test_noisy_data_prunes_without_accuracy_loss(self):
        schema = binary_schema(6)
        rules = planted_relevance_rules()
        clean = generate_synthetic(schema, 200, seed=70, rules=rules)
        rng = np.random.default_rng(71)
        noisy_y = clean.target.copy()
        flip = rng.random(200) < 0.1
        noisy_y[flip] = 1 - noisy_y[flip]
        noisy = CategoricalTable(schema, clean.rows, noisy_y)

        tree = train_c50(noisy)
        pruned = prune_c50(tree)
        assert leaf_count(pruned) < leaf_count(tree)

        holdout = generate_synthetic(schema, 10_000, seed=72, rules=rules)
        acc_before = training_accuracy(tree, holdout)
        acc_after = training_accuracy(pruned, holdout)
        assert acc_after >= acc_before - 0.01

    def test_equal_predicted_errors_collapse(self):
        """A leaf that predicts no more errors than its subtree replaces it;
        here the subtree's one nonempty leaf holds every row, so the two are
        equal to the bit."""
        leaf = {"counts": [6, 2], "score": 0.0}
        empty = {**leaf, "counts": [0, 0]}
        split = {"feature": 0, "branches": [[0], [1]]}
        tree = DecisionTree.from_payload({
            "algorithm": "c50", "params": asdict(TreeParams()),
            "feature_names": ["f00"], "schema_hash": "", "n_rows": 8,
            "root": {**leaf, "split": split, "children": [leaf, empty]},
        })
        assert prune_c50(tree).root.is_leaf
        assert oracles.prune_c50(tree).root.is_leaf

    def test_bad_severity(self):
        tree = train_c50(self.dominated_table())
        with pytest.raises(TreeError):
            prune_c50(tree, severity=100.0)


def cart_root_oracle(table, params):
    """Exhaustive argmax over (feature, code subset) with the documented
    tie order, using direct proportion arithmetic."""
    y = table.target
    n = table.n_rows
    p = np.bincount(y, minlength=2) / n

    def plain_gini(sub_y):
        if len(sub_y) == 0:
            return 0.0
        q = np.bincount(sub_y, minlength=2) / len(sub_y)
        return 1.0 - float((q ** 2).sum())

    parent = 1.0 - float((p ** 2).sum())
    best = None
    for f in range(table.n_features):
        col = table.rows[:, f]
        codes = sorted(int(c) for c in np.unique(col))
        if len(codes) < 2:
            continue
        first, rest = codes[0], codes[1:]
        cands = sorted(
            (first,) + c for r in range(len(rest)) for c in combinations(rest, r)
        )
        for subset in cands:
            mask = np.isin(col, subset)
            nl, nr = int(mask.sum()), int((~mask).sum())
            if nl < params.min_records or nr < params.min_records:
                continue
            delta = (
                parent
                - (nl / n) * plain_gini(y[mask])
                - (nr / n) * plain_gini(y[~mask])
            )
            if delta > 1e-12 and (best is None or delta > best[0]):
                best = (delta, f, subset)
    return best


def _binary_candidates(codes):
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


def scalar_gini_choice(params, counts, tables):
    """Oracle for the batched Gini chooser: the per-node loop it replaced,
    one candidate subset at a time over the node's ``(feature, codes,
    class counts)`` tables.  Returns ``(delta, feature, branches)`` or None.
    """
    def node_gini(n0, n1):
        total = n0 + n1
        return 2.0 * n0 * n1 / (total * total)

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
            if delta > 1e-12 and (best is None or delta > best[0]):
                best = (delta, f, subset, codes)
    if best is None:
        return None
    delta, f, subset, codes = best
    left = tuple(int(codes[i]) for i in subset)
    return delta, f, (left, tuple(int(c) for c in codes if int(c) not in left))


def random_step(rng):
    """A grow step of 1-6 nodes over 1-4 features with 2-6 codes each.

    Each node draws the same number of candidate features, shows only some
    of each feature's codes, and may be nearly pure.
    """
    m = int(rng.integers(1, 5))
    universes = [np.sort(rng.choice(np.arange(1, 40), size=int(rng.integers(2, 7)),
                                    replace=False)) for _ in range(m)]
    starts = np.cumsum([0] + [len(u) for u in universes])
    k = int(rng.integers(1, m + 1))
    slots = int(rng.integers(1, 7))
    cube = np.zeros((slots, 2, starts[-1]), dtype=np.int64)
    counts, candidates, idx = [], [], []
    for s in range(slots):
        n = int(rng.integers(1, 40))
        y = (rng.random(n) < rng.random()).astype(np.int64)
        chosen = tuple(sorted(rng.choice(m, k, replace=False).tolist()))
        for f in chosen:
            shown = rng.choice(len(universes[f]), size=int(rng.integers(1, len(universes[f]) + 1)),
                               replace=False)
            np.add.at(cube[s], (y, starts[f] + rng.choice(shown, size=n)), 1)
        counts.append(np.bincount(y, minlength=2))
        candidates.append(chosen)
        idx.append(np.arange(n))
    return _Step(idx, np.array(counts), cube, candidates, universes, starts)


def strip_slots(step):
    """A copy of the step whose first slot shows one code per candidate
    feature (so it has no candidate table) and whose last slot is pure (so
    every pair table there has an empty class column)."""
    cube, counts = step.cube.copy(), step.counts.copy()
    for f in step.candidates[0]:
        block = cube[0, :, step.starts[f]:step.starts[f + 1]]
        block[:, 0] = block.sum(axis=1)
        block[:, 1:] = 0
    cube[-1, 0] += cube[-1, 1]
    cube[-1, 1] = 0
    counts[-1] = [counts[-1].sum(), 0]
    return replace(step, cube=cube, counts=counts)


def step_table(step):
    """A table whose rows realize the step's cube, and the step with each
    slot's indices pointing at its own rows.

    A slot's rows come class 0 first, each candidate feature's codes in
    ascending order within a class; other features take their first code.
    """
    rows, target, idx = [], [], []
    for slot, n in enumerate(step.counts.sum(axis=1).tolist()):
        X = np.array([u[:1] for u in step.universes] * n).reshape(n, -1)
        for f in step.candidates[slot]:
            block = step.cube[slot, :, step.starts[f]:step.starts[f + 1]]
            X[:, f] = np.concatenate([np.repeat(step.universes[f], c) for c in block])
        idx.append(np.arange(n) + sum(len(r) for r in rows))
        rows.append(X)
        target.append(np.repeat([0, 1], step.counts[slot]))
    schema = tuple(FeatureSpec(f"f{j:02d}", tuple(range(40)))
                   for j in range(len(step.universes)))
    table = CategoricalTable(schema, np.concatenate(rows), np.concatenate(target))
    return table, replace(step, idx=idx)


class TestCart:
    def test_perfect_split_delta(self):
        table = make_table([(0, 0), (0, 0), (1, 1), (1, 1)])
        tree = train_cart(table)
        assert tree.root.split.feature == 0
        assert tree.root.score == pytest.approx(0.5, abs=1e-12)
        assert training_accuracy(tree, table) == 1.0

    def test_no_features_single_leaf(self):
        table = CategoricalTable((), np.zeros((12, 0), dtype=np.int64),
                                 np.array([0, 1, 1] * 4))
        tree = train_cart(table)
        assert tree.root.is_leaf and tree.root.counts.tolist() == [4, 8]
        assert tree.predict_batch(table.rows).tolist() == [1] * 12

    def test_three_code_candidates(self):
        assert _binary_candidates([0, 1, 2]) == [(0,), (0, 1), (0, 2)]
        assert len(_binary_candidates([0, 1, 2, 3])) == 2 ** 3 - 1

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), min_records=st.integers(1, 4),
           score_cells=st.sampled_from([None, 1]))
    def test_batched_choice_matches_scalar_oracle(self, seed, min_records,
                                                  score_cells):
        """Every slot of a step gets the oracle's feature and branches and
        the very same float delta, ties included, whether the slots are
        scored together or one at a time."""
        step = random_step(np.random.default_rng(seed))
        params = TreeParams(min_records=min_records)
        with pytest.MonkeyPatch.context() as patch:
            if score_cells is not None:
                patch.setattr(tree_module, "_SCORE_CELLS", score_cells)
            batched = _gini_chooser(None, params, step.universes)(step)
        assert len(batched) == len(step.idx)
        for slot, got in enumerate(batched):
            expected = scalar_gini_choice(params, step.counts[slot],
                                          oracles.slot_tables(step, slot))
            if expected is None:
                assert got is None
                continue
            assert got is not None
            assert got[1:] == expected[1:]
            assert float(got[0]).hex() == float(expected[0]).hex()

    def test_root_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(67)
        params = TreeParams(min_records=2)
        for _ in range(40):
            table = random_table(rng, n=int(rng.integers(10, 60)),
                                 m=int(rng.integers(2, 6)),
                                 codes=int(rng.integers(2, 5)))
            tree = train_cart(table, params)
            expected = cart_root_oracle(table, params)
            if expected is None:
                assert tree.root.is_leaf
            else:
                _, f, subset = expected
                assert not tree.root.is_leaf
                assert tree.root.split.feature == f
                assert tree.root.split.branches[0] == subset

    def test_duplicate_feature_tie_goes_low(self):
        X = np.array([[0, 0], [0, 0], [1, 1], [1, 1], [0, 0], [1, 1]])
        y = np.array([0, 0, 1, 1, 0, 1])
        table = CategoricalTable(binary_schema(2), X, y)
        tree = train_cart(table)
        assert tree.root.split.feature == 0

    def test_binary_arity_and_disjoint_branches(self):
        rng = np.random.default_rng(68)
        tree = train_cart(random_table(rng, n=60, codes=4), TreeParams(min_records=1))
        for node, _, _ in iter_nodes(tree):
            if not node.is_leaf:
                assert len(node.split.branches) == 2
                left, right = map(set, node.split.branches)
                assert not left & right


def scalar_pair_p_value(a, b):
    """Oracle: one ``chi_square`` per pair; a pair with an empty class
    column is indistinguishable."""
    try:
        return chi_square(np.vstack([a, b])).p_value
    except DegenerateTableError:
        return 1.0


def scalar_merge_groups(groups, alpha):
    """Oracle for the batched ``_merge_groups``: the pairwise loop it
    replaced, the first pair with the largest p-value winning."""
    groups = list(groups)
    while len(groups) > 2:
        best_p, best_pair = -1.0, None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                p = scalar_pair_p_value(groups[i][1], groups[j][1])
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


def scalar_chaid_chooser(data, params, universes):
    """Oracle for ``_chaid_chooser``: scalar merging and one
    ``chi_square`` per feature, as before batching."""
    def choose(idx, counts, tables):
        best = None  # (adjusted_p, feature, groups)
        for f, codes, table in tables:
            groups = scalar_merge_groups(
                [((int(c),), row) for c, row in zip(codes, table)], params.alpha)
            if any(g[1].sum() < params.min_records for g in groups):
                continue
            try:
                raw_p = chi_square(np.vstack([g[1] for g in groups])).p_value
            except DegenerateTableError:
                continue
            adjusted = min(1.0, stirling2(len(codes), len(groups)) * raw_p)
            if best is None or adjusted < best[0] - 1e-12:
                best = (adjusted, f, groups)
        if best is None or best[0] > params.alpha:
            return None
        _, f, groups = best
        return (info_gain(counts, [g[1] for g in groups]), f,
                tuple(g[0] for g in groups))

    return oracles.per_node(choose)


def scalar_quest_chooser(data, params, universes):
    """Oracle for ``_quest_chooser``: one ``chi_square`` per feature in the
    variable selection, as before batching; the split point is the
    chooser's own."""
    split_point = _quest_chooser(data, params, universes)

    def choose(step):
        out = []
        for slot in range(len(step.idx)):
            best = None  # (p, feature)
            for f, codes, table in oracles.slot_tables(step, slot):
                try:
                    p = chi_square(table).p_value
                except DegenerateTableError:
                    p = 1.0
                if best is None or p < best[0] - 1e-12:
                    best = (p, f)
            if best is None:
                out.append(None)
                continue
            # the chooser on a step that offers only the selected feature
            one = replace(step, candidates=[(best[1],)], idx=[step.idx[slot]],
                          counts=step.counts[slot:slot + 1],
                          cube=step.cube[slot:slot + 1])
            out.extend(split_point(one))
        return out

    return choose


@st.composite
def code_groups(draw, min_size=2):
    """``min_size``-10 one-code groups with positive class counts [n0, n1];
    repeated rows make exact p-value ties, pure rows make degenerate
    pairs."""
    pool = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12))
                         .filter(lambda r: r[0] + r[1] > 0),
                         min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=10))
    return [((code,), np.array(row, dtype=np.int64))
            for code, row in enumerate(rows)]


class TestChaid:
    @settings(max_examples=300, deadline=None)
    @given(groups=code_groups(),
           alpha=st.sampled_from([0.0, 0.01, 0.05, 0.3, 0.9, 1.0]))
    def test_batched_merge_matches_scalar_oracle(self, groups, alpha):
        [got] = tree_module._merge_groups([groups], alpha)
        expected = scalar_merge_groups(groups, alpha)
        assert [g[0] for g in got] == [g[0] for g in expected]
        assert [g[1].tolist() for g in got] == [g[1].tolist() for g in expected]

    @settings(max_examples=300, deadline=None)
    @given(groupings=st.lists(code_groups(min_size=1), min_size=1, max_size=6),
           alpha=st.sampled_from([0.0, 0.01, 0.05, 0.3, 0.9, 1.0]))
    def test_lockstep_merge_matches_scalar_oracle(self, groupings, alpha):
        """Lists merged together, some of them starting at two groups or
        fewer, each end as the scalar loop merges them alone."""
        before = [[(codes, row.tolist()) for codes, row in groups] for groups in groupings]
        got = tree_module._merge_groups(groupings, alpha)
        assert len(got) == len(groupings)
        for merged, groups in zip(got, groupings):
            expected = scalar_merge_groups(groups, alpha)
            assert [g[0] for g in merged] == [g[0] for g in expected]
            assert [g[1].tolist() for g in merged] == [g[1].tolist() for g in expected]
        assert [[(codes, row.tolist()) for codes, row in groups]
                for groups in groupings] == before

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), min_records=st.integers(1, 4),
           alpha=st.sampled_from([0.01, 0.05, 0.5, 0.95]), strip=st.booleans())
    def test_step_choosers_match_scalar_oracles(self, seed, min_records, alpha, strip):
        """Every slot of a multi-slot step, bare and pure slots included,
        gets the per-node oracle's tables, and its feature and branches and
        the very same float score from the CHAID and QUEST step choosers."""
        step = random_step(np.random.default_rng(seed))
        data, step = step_table(strip_slots(step) if strip else step)
        tables = step.tables()
        assert len(tables) == len(step.idx)
        for slot, got in enumerate(tables):
            expected = oracles.slot_tables(step, slot)
            assert [f for f, _, _ in got] == [f for f, _, _ in expected]
            for (_, codes, table), (_, want_codes, want_table) in zip(got, expected):
                assert codes.tolist() == want_codes.tolist()
                assert table.tolist() == want_table.tolist()
        params = TreeParams(min_records=min_records, alpha=alpha)
        for chooser, oracle in ((tree_module._chaid_chooser, scalar_chaid_chooser),
                                (tree_module._quest_chooser, scalar_quest_chooser)):
            got = chooser(data, params, step.universes)(step)
            expected = oracle(data, params, step.universes)(step)
            assert len(got) == len(expected) == len(step.idx)
            for g, e in zip(got, expected):
                if e is None:
                    assert g is None
                    continue
                assert g is not None
                assert g[1:] == e[1:]
                assert float(g[0]).hex() == float(e[0]).hex()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), grower=st.sampled_from(["chaid", "quest"]),
           min_records=st.integers(1, 4), alpha=st.sampled_from([0.05, 0.5, 0.95]))
    def test_trees_match_scalar_choosers(self, seed, grower, min_records, alpha):
        """CHAID and QUEST grow the same tree as with a scalar chooser that
        calls ``chi_square`` once per table."""
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(12, 120)), int(rng.integers(2, 6))
        codes = rng.integers(2, 8, size=m)
        X = rng.integers(0, codes, size=(n, m))
        # the target leans on one feature, so trees grow past the root
        y = (X[:, rng.integers(m)] % 2) ^ (rng.random(n) < rng.uniform(0.0, 0.5))
        schema = tuple(FeatureSpec(f"f{j:02d}", tuple(range(c))) for j, c in enumerate(codes))
        table = CategoricalTable(schema, X, y.astype(np.int64))
        train = {"chaid": train_chaid, "quest": train_quest}[grower]
        params = params_for(train, min_records=min_records, alpha=alpha)
        batched = train(table, params).to_json()
        oracle = {"chaid": scalar_chaid_chooser, "quest": scalar_quest_chooser}[grower]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_module, f"_{grower}_chooser", oracle)
            assert train(table, params).to_json() == batched

    def test_independent_feature_single_leaf(self):
        table = make_table([(0, 0), (0, 0), (0, 1), (0, 1),
                            (1, 0), (1, 0), (1, 1), (1, 1)])
        tree = train_chaid(table)
        assert tree.root.is_leaf

    def test_identical_codes_merge(self):
        rows = []
        rows += [(0, 0)] * 8
        rows += [(1, 0)] * 1 + [(1, 1)] * 7
        rows += [(2, 0)] * 1 + [(2, 1)] * 7
        table = make_table(rows)
        tree = train_chaid(table)
        assert not tree.root.is_leaf
        assert tree.root.split.branches == ((0,), (1, 2))

    def test_stirling_known_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(6, 1) == 1
        assert stirling2(6, 6) == 1
        assert stirling2(2, 3) == 0

    def test_stirling_matches_recurrence(self):
        for n in range(31):
            for k in range(-2, n + 3):
                assert stirling2(n, k) == oracles.stirling2(n, k), (n, k)

    def test_stirling_matches_partition_enumeration(self):
        def partitions(items):
            if not items:
                yield []
                return
            first, rest = items[0], items[1:]
            for part in partitions(rest):
                for i in range(len(part)):
                    yield part[:i] + [part[i] + [first]] + part[i + 1:]
                yield part + [[first]]

        for n in range(1, 7):
            counts = {}
            for part in partitions(list(range(n))):
                counts[len(part)] = counts.get(len(part), 0) + 1
            for k in range(1, n + 1):
                assert stirling2(n, k) == counts.get(k, 0)

    def test_strong_association_splits(self):
        table = make_table([(0, 0)] * 10 + [(1, 1)] * 10)
        tree = train_chaid(table)
        assert not tree.root.is_leaf
        assert training_accuracy(tree, table) == 1.0

    def test_determinism(self):
        rng = np.random.default_rng(69)
        table = random_table(rng, n=80, codes=4)
        assert train_chaid(table).to_json() == train_chaid(table).to_json()


class TestQuest:
    def test_single_predictive_feature(self):
        table = make_table([(0, 0)] * 9 + [(0, 1)] * 1 + [(1, 1)] * 9 + [(1, 0)] * 1)
        tree = train_quest(table)
        assert tree.root.split.feature == 0
        assert set(tree.root.split.branches[0]) | set(tree.root.split.branches[1]) == {0, 1}

    def test_independent_feature_not_selected(self):
        rows = []
        # f00 tracks y, f01 is balanced against y within each f00 code
        for f1 in (0, 1):
            rows += [(0, f1, 0)] * 4 + [(0, f1, 1)] * 1
            rows += [(1, f1, 0)] * 1 + [(1, f1, 1)] * 4
        table = make_table(rows)
        tree = train_quest(table)
        assert tree.root.split.feature == 0

    def test_flat_rates_become_leaf(self):
        table = make_table([(0, 0), (0, 0), (0, 1), (0, 1),
                            (1, 0), (1, 0), (1, 1), (1, 1)])
        tree = train_quest(table)
        assert tree.root.is_leaf

    def test_binary_structure(self):
        rng = np.random.default_rng(73)
        tree = train_quest(random_table(rng, n=80, codes=4), TreeParams(min_records=1))
        for node, _, _ in iter_nodes(tree):
            if not node.is_leaf:
                assert len(node.split.branches) == 2
                assert node.score > 0.0


class TestPredict:
    def test_single_leaf(self):
        table = make_table([(0, 1), (1, 1)])
        tree = train_c50(table)
        assert predict(tree, (0,)) == (1, 1.0)

    def test_xor_row(self):
        tree = train_c50(xor_table(), XOR_PARAMS)
        assert predict(tree, (0, 1)) == (1, 1.0)
        assert predict(tree, (1, 1)) == (0, 1.0)

    def test_unseen_code_falls_back_to_root(self):
        table = make_table([(0, 0)] * 3 + [(1, 1)] * 5, n_codes=[9])
        tree = train_c50(table)
        cls, conf = predict(tree, (7,))
        assert cls == 1
        assert conf == pytest.approx(5 / 8)

    def test_row_length_checked(self):
        tree = train_c50(xor_table(), XOR_PARAMS)
        with pytest.raises(TreeError):
            predict(tree, (0,))

    def test_totality_on_random_rows(self):
        rng = np.random.default_rng(74)
        for trainer in ALL_TRAINERS:
            table = random_table(rng, n=40, codes=3)
            tree = trainer(table, TreeParams(min_records=1))
            rows = rng.integers(0, 6, size=(50, table.n_features))
            for row in rows:
                cls, conf = predict(tree, row)
                assert cls in (0, 1)
                assert 0.0 < conf <= 1.0

    def test_batch_row_width_checked(self):
        tree = train_c50(xor_table(), XOR_PARAMS)
        for bad in (np.zeros((3, 1), dtype=np.int64), np.zeros(2, dtype=np.int64)):
            with pytest.raises(TreeError):
                tree.predict_batch(bad)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        grower=st.sampled_from(ALL_TRAINERS + ["pruned c50", "forest"]),
        min_records=st.integers(1, 3),
        max_depth=st.sampled_from([None, 1, 2]),
    )
    def test_batch_matches_per_row_walk(self, seed, grower, min_records, max_depth):
        """Batch routing gives the per-row walk's class and confidence on the
        training rows and on random rows.  The random rows reach code 4,
        which no training table here has, and codes a node's rows lack,
        whose branches lead to empty children."""
        rng = np.random.default_rng(seed)
        table = random_table(rng, codes=int(rng.integers(2, 5)))
        rows = np.vstack([
            table.rows, rng.integers(0, 5, size=(30, table.n_features))
        ])
        if grower == "forest":
            forest = train_forest(table, ForestParams(
                n_trees=3, min_records=min_records, max_depth=max_depth,
                seed=seed))
            trees = forest.trees
            votes = [sum(predict(t, r)[0] for t in trees) / 3 for r in rows]
            assert forest.proba_batch(rows).tolist() == votes
            assert forest.predict_batch(rows).tolist() == [int(v >= 0.5) for v in votes]
        else:
            trees = [grown_tree(grower, table, min_records, max_depth)]
        for tree in trees:
            walk = [predict(tree, r) for r in rows]
            assert tree.predict_batch(rows).tolist() == [c for c, _ in walk]
            assert predict_batch(tree, rows).tolist() == [c for c, _ in walk]
            assert tree.proba_batch(rows).tolist() == [
                conf if c == 1 else 1.0 - conf for c, conf in walk
            ]

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        grower=st.sampled_from(ALL_TRAINERS + ["pruned c50", "forest"]),
        min_records=st.integers(1, 3),
        max_depth=st.sampled_from([None, 1, 2]),
    )
    def test_stops_partition_the_rows(self, seed, grower, min_records, max_depth):
        """Over the code universes of a row set, the pass masks of ``stops``
        put each row in exactly one stop, worth what prediction gives the
        row: ``proba_batch`` for a tree, the label for a forest member.  The
        rows reach code 4, which no training table here has, and codes a
        node's rows lack, whose branches lead to empty children."""
        rng = np.random.default_rng(seed)
        table = random_table(rng, codes=int(rng.integers(2, 5)))
        rows = np.vstack([
            table.rows, rng.integers(0, 5, size=(30, table.n_features))
        ])
        universes, positions = [], np.empty_like(rows)
        for f in range(table.n_features):
            universe, positions[:, f] = np.unique(rows[:, f], return_inverse=True)
            universes.append(universe)
        if grower == "forest":
            forest = train_forest(table, ForestParams(
                n_trees=3, min_records=min_records, max_depth=max_depth,
                seed=seed))
            cases = [(t, forest.leaf_value, t.predict_batch(rows)) for t in forest.trees]
        else:
            tree = grown_tree(grower, table, min_records, max_depth)
            cases = [(tree, tree.leaf_value, tree.proba_batch(rows))]
        for tree, value, expected in cases:
            stops = tree.stops(universes, value)
            inside = np.ones((len(stops), len(rows)), dtype=bool)
            for s, (_, masks) in enumerate(stops):
                for f, mask in masks.items():
                    inside[s] &= mask[positions[:, f]]
            assert inside.sum(axis=0).tolist() == [1] * len(rows)
            values = np.array([v for v, _ in stops])
            assert values[inside.argmax(axis=0)].tolist() == expected.tolist()


def grown_tree(grower, table, min_records, max_depth):
    """The tree ``grower`` (a trainer, or "pruned c50") grows on ``table``."""
    params = TreeParams(min_records=min_records, max_depth=max_depth)
    if grower == "pruned c50":
        return prune_c50(train_c50(table, params))
    return grower(table, params)


@pytest.mark.parametrize("grow", ALL_TRAINERS + ["forest"])
def test_nodes_own_their_counts(grow):
    """No node's counts is a view, which would keep a grow step's arrays
    alive as long as the tree."""
    table = generate_synthetic(binary_schema(4), 200, seed=3,
                               rules=planted_relevance_rules())
    if grow == "forest":
        trees = train_forest(table, ForestParams(n_trees=3, seed=1)).trees
    else:
        trees = [grow(table, params_for(grow, min_records=1, min_gain=0.0))]
    nodes = [node for tree in trees for node, _, _ in iter_nodes(tree)]
    assert len(nodes) > len(trees)
    assert all(node.counts.base is None for node in nodes)


class TestGrowerInvariants:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        grower=st.sampled_from(ALL_TRAINERS),
        min_records=st.integers(1, 4),
        max_depth=st.sampled_from([None, 0, 1, 2, 3]),
        min_gain=st.sampled_from([0.0, 1e-12, 0.05]),
        alpha=st.sampled_from([0.05, 0.5]),
    )
    def test_structure(self, seed, grower, min_records, max_depth, min_gain, alpha):
        """Children partition their parent's counts, nonempty children meet
        min_records, depth stays within max_depth, and c50 and chaid never
        split twice on a feature along a path."""
        rng = np.random.default_rng(seed)
        table = random_table(rng, codes=int(rng.integers(2, 6)))
        tree = grower(table, params_for(grower, min_records=min_records, max_depth=max_depth,
                                        min_gain=min_gain, alpha=alpha))
        assert tree.root.counts.tolist() == np.bincount(table.target, minlength=2).tolist()
        once = grower in (train_c50, train_chaid)

        def check(node, depth, used):
            assert max_depth is None or depth <= max_depth
            if node.is_leaf:
                return
            assert not (once and node.split.feature in used)
            assert sum(c.counts for c in node.children).tolist() == node.counts.tolist()
            for child in node.children:
                assert child.total == 0 or child.total >= min_records
                check(child, depth + 1, used | {node.split.feature})

        check(tree.root, 0, frozenset())


class TestImportance:
    def test_single_split_weight_one(self):
        table = make_table([(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)])
        tree = train_c50(table)
        weights = predictor_importance(tree)
        assert weights["f00"] == pytest.approx(1.0, abs=1e-12)
        assert weights["f01"] == 0.0

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(75)
        for trainer in ALL_TRAINERS:
            for _ in range(5):
                tree = trainer(random_table(rng, n=60, codes=3), TreeParams(min_records=1))
                weights = predictor_importance(tree)
                total = sum(weights.values())
                if not tree.root.is_leaf:
                    assert total == pytest.approx(1.0, abs=1e-6)
                else:
                    assert total == 0.0

    def test_unused_features_zero(self):
        tree = train_c50(xor_table(), XOR_PARAMS)
        table3 = make_table([(0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 1, 0)])
        tree3 = train_c50(table3, XOR_PARAMS)
        weights = predictor_importance(tree3)
        used = {tree3.feature_names[n.split.feature]
                for n, _, _ in iter_nodes(tree3) if not n.is_leaf}
        for name, w in weights.items():
            if name not in used:
                assert w == 0.0


class TestExportDot:
    def count_nodes_edges(self, text):
        nodes = sum(1 for line in text.splitlines() if "[label=" in line and "->" not in line)
        edges = text.count("->")
        return nodes, edges

    def test_single_leaf(self):
        tree = train_c50(make_table([(0, 1), (1, 1)]))
        text = export_dot(tree)
        assert text.startswith("digraph")
        nodes, edges = self.count_nodes_edges(text)
        assert (nodes, edges) == (1, 0)

    def test_xor_shape(self):
        tree = train_c50(xor_table(), XOR_PARAMS)
        nodes, edges = self.count_nodes_edges(export_dot(tree))
        assert (nodes, edges) == (7, 6)

    def test_reexport_identical(self):
        rng = np.random.default_rng(76)
        tree = train_cart(random_table(rng, n=40))
        assert export_dot(tree) == export_dot(tree)

    def test_labels_from_schema(self):
        schema = (feature("speed", (0, 1), {0: "<46", 1: ">=46"}),)
        table = CategoricalTable(
            schema, np.array([[0]] * 4 + [[1]] * 4), np.array([0] * 4 + [1] * 4)
        )
        tree = train_c50(table)
        text = export_dot(tree, schema)
        assert "<46" in text and ">=46" in text
        assert "speed" in text

    def test_quotes_and_backslashes_are_escaped(self):
        schema = (feature('curve "R"', (0, 1), {0: '12" radius', 1: "a\\b"}),)
        table = CategoricalTable(
            schema, np.array([[0]] * 4 + [[1]] * 4), np.array([0] * 4 + [1] * 4)
        )
        assert export_dot(train_c50(table), schema) == (
            'digraph tree {\n'
            '  node [shape=box];\n'
            '  n0 [label="curve \\"R\\"\\ncounts [4, 4]\\n100.0% of rows"];\n'
            '  n1 [label="class 0 (100.0%)\\ncounts [4, 0]\\n50.0% of rows"];\n'
            '  n2 [label="class 1 (100.0%)\\ncounts [0, 4]\\n50.0% of rows"];\n'
            '  n0 -> n1 [label="12\\" radius"];\n'
            '  n0 -> n2 [label="a\\\\b"];\n'
            '}\n')


class TestSplitType:
    def test_validation(self):
        """A split is checked where a tree text comes in: a split of one
        branch, or of branches that share a code, is one line of
        ``TreeError``.  An ``arity`` that a split of an older text stores is
        ignored, even one no grower made, and the text rewrites without it."""
        payload = _one_split({"counts": [3, 1]}, {"counts": [1, 3]})
        text = DecisionTree.from_payload(payload).to_json()
        for arity in ("binary", "multiway", "ternary", 5, None):
            payload["root"]["split"]["arity"] = arity
            assert DecisionTree.from_payload(payload).to_json() == text
        for branches in ([[0]], [[0, 1], [1, 2]]):
            payload["root"]["split"]["branches"] = branches
            with pytest.raises(TreeError, match="^split 'branches' is not a list of "
                               "two or more disjoint lists") as info:
                DecisionTree.from_payload(payload)
            assert "\n" not in str(info.value)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           grower=st.sampled_from(["c50", "cart", "chaid", "quest", "forest"]))
    def test_grown_splits_need_no_checks(self, seed, grower):
        """A grown split is not checked: every chooser hands over an int
        feature and at least 2 disjoint, sorted tuples of int codes, so
        every grown tree's text passes the loader and rewrites as itself."""
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(12, 60)), int(rng.integers(1, 5))
        universes = [np.sort(rng.choice(10, size=int(rng.integers(2, 6)), replace=False))
                     for _ in range(m)]
        table = CategoricalTable(
            tuple(FeatureSpec(f"f{j}", tuple(u.tolist())) for j, u in enumerate(universes)),
            np.stack([rng.choice(u, size=n) for u in universes], axis=1),
            rng.integers(0, 2, size=n))
        knobs = dict(min_records=1, alpha=0.5)
        trees = {
            "c50": lambda: [train_c50(table, params_for(train_c50, **knobs))],
            "cart": lambda: [train_cart(table, params_for(train_cart, **knobs))],
            "chaid": lambda: [train_chaid(table, params_for(train_chaid, **knobs))],
            "quest": lambda: [train_quest(table, params_for(train_quest, **knobs))],
            "forest": lambda: train_forest(
                table, ForestParams(n_trees=3, min_records=1, seed=seed)).trees,
        }[grower]()
        for tree in trees:
            for node, _, _ in iter_nodes(tree):
                if node.is_leaf:
                    continue
                split = node.split
                assert type(split.feature) is int
                assert type(split.branches) is tuple and len(split.branches) >= 2
                codes = [c for b in split.branches for c in b]
                assert all(type(b) is tuple and list(b) == sorted(b)
                           for b in split.branches)
                assert all(type(c) is int for c in codes)
                assert len(set(codes)) == len(codes)
            text = tree.to_json()
            assert DecisionTree.from_json(text).to_json() == text

    def test_branch_lookup(self):
        s = Split(feature=2, branches=((0, 3), (1,), (2,)))
        assert oracles.branch_for(s, 3) == 0
        assert oracles.branch_for(s, 2) == 2
        assert oracles.branch_for(s, 9) is None


def test_payload_refuses_an_empty_child_that_is_not_its_parents_leaf():
    """An empty child is a leaf with its parent's prediction and confidence,
    as every grower builds it: a payload's empty child takes its parent's
    label, whatever label it stores, and one that splits is refused."""
    leaf = {"counts": [3, 1]}
    split = {"feature": 0, "branches": [[0], [1]]}
    empty = {"counts": [0, 0]}

    def load(child):
        return DecisionTree.from_payload({
            "algorithm": "cart", "params": {}, "feature_names": ["f0"],
            "schema_hash": "x", "n_rows": 4,
            "root": {**leaf, "split": split, "children": [leaf, child]},
        })

    for child in (empty, {**empty, "prediction": 1, "confidence": 0.9}):
        tree = load(child)
        assert tree.proba_batch(np.array([[1]])).tolist() == [0.25]
        assert (tree.root.children[1].prediction, tree.root.children[1].confidence) \
            == (0, 0.75)
    with pytest.raises(TreeError, match="an empty node must be a leaf"):
        load({**empty, "split": split, "children": [empty, empty]})


@settings(max_examples=200, deadline=None)
@given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=2),
       scale=st.sampled_from([1, 3, 1000, 2**40]), seed=st.integers(0, 2**32 - 1))
def test_node_labels_match_the_scalar_rule(shape, scale, seed):
    """The vectorised labelling gives every node exactly the class and
    confidence of the one-node rule, empty nodes their parent's, and calls
    a node impure when it holds both classes.  Small scales make ties and
    empty nodes common; large ones test the division."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, scale + 1, size=(*shape, 2))
    counts[rng.random(shape) < 0.3] = 0
    tied = rng.random(shape) < 0.2
    counts[tied, 1] = counts[tied, 0]
    parent_prediction = rng.integers(0, 2, size=shape)
    parent_confidence = rng.random(shape)
    prediction, confidence, impure = tree_module._node_labels(
        counts, parent_prediction, parent_confidence)
    for i in np.ndindex(*shape):
        parent = (int(parent_prediction[i]), float(parent_confidence[i]))
        expected = oracles.leaf_label(counts[i], parent)
        assert (int(prediction[i]), float(confidence[i]).hex()) == \
            (expected[0], float(expected[1]).hex())
        assert impure[i] == (min(counts[i]) > 0)


def _one_split(left, right, root=None):
    """A cart payload: a root split over the leaves ``left`` and ``right``,
    with the root's counts their sum unless ``root`` gives them."""
    counts = root or [a + b for a, b in zip(left["counts"], right["counts"])]
    return {
        "algorithm": "cart", "params": {}, "feature_names": ["f0"],
        "schema_hash": "x", "n_rows": sum(counts),
        "root": {"counts": counts,
                 "split": {"feature": 0, "branches": [[0], [1]]},
                 "children": [left, right]},
    }


def test_payload_labels_each_node_by_its_counts():
    """A non-empty node predicts its majority class, ties going to class
    0, at that class's share of its rows, whatever label its payload
    stores."""
    left, right = {"counts": [10, 1]}, {"counts": [2, 2]}
    for stored in ({}, {"prediction": 1, "confidence": 0.25}):
        root = DecisionTree.from_payload(
            _one_split({**left, **stored}, {**right, **stored})).root
        assert [(node.prediction, node.confidence) for node in (root, *root.children)] \
            == [oracles.leaf_label(node.counts) for node in (root, *root.children)] \
            == [(0, 12 / 15), (0, 10 / 11), (0, 0.5)]


def test_payload_refuses_counts_that_do_not_add_up():
    """A split's children's counts add up to its own, and the root's total
    n_rows, an integer >= 1."""
    left, right = {"counts": [50, 0]}, {"counts": [0, 70]}
    with pytest.raises(TreeError, match="do not add up to its counts"):
        DecisionTree.from_payload(_one_split(left, right, root=[3, 1]))
    assert DecisionTree.from_payload(_one_split(left, right)).n_rows == 120
    for n_rows, needle in ((119, "do not total n_rows"), (121, "do not total n_rows"),
                           *((bad, "'n_rows' is not an integer >= 1")
                             for bad in (0, "120", 120.0, True, None))):
        with pytest.raises(TreeError, match=needle):
            DecisionTree.from_payload({**_one_split(left, right), "n_rows": n_rows})


def test_serialization_round_trip_all_algorithms():
    rng = np.random.default_rng(77)
    table = random_table(rng, n=60, codes=3)
    for trainer in ALL_TRAINERS:
        tree = trainer(table, TreeParams(min_records=1))
        back = DecisionTree.from_json(tree.to_json())
        assert back.to_json() == tree.to_json()
        assert back.algorithm == tree.algorithm
        # files written before min_gain existed load with its default
        payload = json.loads(tree.to_json())
        del payload["params"]["min_gain"]
        assert DecisionTree.from_json(json.dumps(payload)).params == tree.params
        assert np.array_equal(
            predict_batch(back, table.rows), predict_batch(tree, table.rows)
        )
