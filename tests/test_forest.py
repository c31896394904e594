"""Random-forest training, voting, serialization."""
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treebench.dataset import (
    CategoricalTable,
    binary_schema,
    generate_synthetic,
    planted_relevance_rules,
)
from treebench.forest import (
    Forest,
    ForestError,
    ForestParams,
    bootstrap_indices,
    train_forest,
)
from treebench import tree as tree_module
from treebench.dataset import feature
from treebench.tree import DecisionTree, TreeNode, TreeParams, iter_nodes, train_cart

from oracles import predict


def planted_table(n=500, m=10, seed=80):
    return generate_synthetic(
        binary_schema(m), n, seed=seed, rules=planted_relevance_rules()
    )


def leaf_tree(prediction, names=("f00",)):
    counts = np.array([5, 0]) if prediction == 0 else np.array([0, 5])
    root = TreeNode(counts=counts, prediction=prediction, confidence=1.0)
    return DecisionTree(
        root=root, algorithm="forest_member", params=TreeParams(),
        feature_names=tuple(names), schema_hash="x", n_rows=5,
    )


def hand_forest(predictions):
    trees = tuple(leaf_tree(p) for p in predictions)
    params = ForestParams(n_trees=len(trees), seed=1)
    return Forest(
        trees=trees, params=params, feature_names=("f00",), schema_hash="x", n_rows=1,
    )


class TestParams:
    def test_defaults(self):
        p = ForestParams()
        assert p.n_trees == 500
        assert p.bootstrap is True
        assert p.resolve_features_per_split(10) == 4
        assert p.resolve_features_per_split(9) == 3
        assert p.resolve_features_per_split(1) == 1

    def test_validation(self):
        with pytest.raises(ForestError):
            ForestParams(n_trees=0)
        with pytest.raises(ForestError):
            ForestParams(features_per_split=0)
        with pytest.raises(ForestError):
            ForestParams(features_per_split=5).resolve_features_per_split(3)

    def test_sample_size_needs_bootstrap(self):
        # the identity sample of bootstrap false would ignore sample_size
        with pytest.raises(ForestError, match="sample_size is set with bootstrap false"):
            ForestParams(sample_size=3, bootstrap=False)
        assert ForestParams(sample_size=3).sample_size == 3
        assert ForestParams(bootstrap=False).sample_size is None

    def test_payload_with_sample_size_and_no_bootstrap_is_refused(self):
        forest = train_forest(planted_table(n=40, m=3),
                              ForestParams(n_trees=2, bootstrap=False, seed=9))
        payload = json.loads(forest.to_json())
        payload["params"]["sample_size"] = 3
        with pytest.raises(ForestError, match="^sample_size"):
            Forest.from_json(json.dumps(payload))


class TestBootstrap:
    def test_pure_function_of_seed_and_index(self):
        params = ForestParams(n_trees=3, seed=11)
        a = bootstrap_indices(params, 100, 0)
        b = bootstrap_indices(params, 100, 0)
        assert np.array_equal(a, b)
        c = bootstrap_indices(params, 100, 1)
        assert not np.array_equal(a, c)
        assert len(a) == 100
        assert a.min() >= 0 and a.max() < 100

    def test_identity_without_bootstrap(self):
        params = ForestParams(bootstrap=False, seed=11)
        assert np.array_equal(bootstrap_indices(params, 7, 0), np.arange(7))

    def test_sample_size_override(self):
        params = ForestParams(sample_size=30, seed=11)
        assert len(bootstrap_indices(params, 100, 2)) == 30


class TestTrainForest:
    def test_degenerate_forest_equals_cart(self):
        from treebench.tree import predict_batch

        table = planted_table(n=120, m=4)
        params = ForestParams(
            n_trees=1, features_per_split=4, bootstrap=False, seed=5,
            min_records=2,
        )
        forest = train_forest(table, params)
        cart = train_cart(table, TreeParams(min_records=2))
        forest_root = json.loads(forest.trees[0].to_json())["root"]
        cart_root = json.loads(cart.to_json())["root"]
        assert forest_root == cart_root
        assert np.array_equal(
            forest.predict_batch(table.rows), predict_batch(cart, table.rows)
        )

    def test_no_features_gives_one_leaf_trees(self):
        table = CategoricalTable((), np.zeros((12, 0), dtype=np.int64),
                                 np.array([0, 1, 1] * 4))
        forest = train_forest(table, ForestParams(n_trees=3, seed=2))
        assert all(t.root.is_leaf for t in forest.trees)
        assert [int(t.root.counts.sum()) for t in forest.trees] == [12] * 3
        assert forest.predict_batch(table.rows).shape == (12,)

    def test_same_seed_identical(self):
        table = planted_table(n=150, m=6)
        params = ForestParams(n_trees=5, seed=42)
        a = train_forest(table, params)
        b = train_forest(table, params)
        assert a.to_json() == b.to_json()

    def test_different_seed_differs(self):
        table = planted_table(n=150, m=6)
        a = train_forest(table, ForestParams(n_trees=5, seed=1))
        b = train_forest(table, ForestParams(n_trees=5, seed=2))
        assert a.to_json() != b.to_json()

    def test_feature_subset_rule(self):
        """Each tree's generator, replayed in preorder, draws at every impure
        node, and every split feature is in its node's draw."""
        table = planted_table(n=100, m=9)
        params = ForestParams(n_trees=3, seed=7)
        forest = train_forest(table, params)
        splits = 0
        for i, tree in enumerate(forest.trees):
            rng = np.random.default_rng([params.seed, i, 1])
            for node, _, _ in iter_nodes(tree):
                if node.counts.max() == node.total:
                    continue
                draw = rng.choice(table.n_features, 3, replace=False)
                if not node.is_leaf:
                    splits += 1
                    assert node.split.feature in draw
        assert splits

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), gather_keys=st.sampled_from([None, 1, 500]))
    def test_lockstep_members_equal_lone_growth(self, seed, gather_keys):
        """Each member of a forest equals the tree its bag and generator
        grow alone, as a one-member batch, whether the bag is an index view
        or a copy of its rows: slots of one step, split into chunks or not,
        do not leak into each other."""
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 6)), int(rng.integers(2, 80))
        schema, columns = [], []
        for j in range(m):
            codes = np.sort(rng.choice(np.arange(1, 8), size=int(rng.integers(1, 8)),
                                       replace=False))
            schema.append(feature(f"f{j}", codes.tolist()))
            columns.append(rng.choice(codes[:int(rng.integers(1, len(codes) + 1))], size=n))
        table = CategoricalTable(schema, np.stack(columns, axis=1),
                                 (rng.random(n) < rng.random()).astype(int))
        knobs = dict(
            n_trees=int(rng.integers(1, 9)),
            features_per_split=int(rng.integers(1, m + 1)),
            sample_size=int(rng.integers(1, 2 * n)) if rng.random() < 0.5 else None,
            bootstrap=bool(rng.random() < 0.8),
            min_records=int(rng.integers(1, 5)),
            max_depth=[None, 0, 1, 3][int(rng.integers(0, 4))],
            seed=int(rng.integers(0, 1000)))
        if not knobs["bootstrap"]:  # the identity sample takes no sample_size
            knobs["sample_size"] = None
        params = ForestParams(**knobs)
        with pytest.MonkeyPatch.context() as patch:
            if gather_keys is not None:
                patch.setattr(tree_module, "_GATHER_KEYS", gather_keys)
            forest = train_forest(table, params)
        k = params.resolve_features_per_split(m)
        for i, member in enumerate(forest.trees):
            bag = bootstrap_indices(params, table.n_rows, i)
            # alone on the bag as an index view, and on a copy of its rows
            for data, rows in ((table, bag), (table.take_rows(bag), np.arange(len(bag)))):
                lone = np.random.default_rng([params.seed, i, 1])
                [root] = tree_module._grow(
                    data, params.tree_params(), tree_module._gini_chooser,
                    "binary", [(rows, lone)], k)
                assert replace(member, root=root).to_json() == member.to_json()
            assert member.n_rows == len(bag)

    def test_too_few_rows(self):
        table = planted_table(n=100, m=3).take_rows([0])
        with pytest.raises(ForestError):
            train_forest(table, ForestParams(n_trees=2))

    def test_serialization_round_trip(self):
        table = planted_table(n=80, m=5)
        forest = train_forest(table, ForestParams(n_trees=4, seed=9))
        back = Forest.from_json(forest.to_json())
        assert back.to_json() == forest.to_json()
        assert np.array_equal(
            back.predict_batch(table.rows), forest.predict_batch(table.rows)
        )


def vote(forest, row):
    """(majority class, class-1 vote share) for one row."""
    rows = np.asarray(row)[None]
    return int(forest.predict_batch(rows)[0]), float(forest.proba_batch(rows)[0])


class TestVoting:
    def test_counting(self):
        forest = hand_forest([1, 1, 0])
        cls, p = vote(forest, [0])
        assert p == pytest.approx(2 / 3)
        assert cls == 1

    def test_unanimous(self):
        assert vote(hand_forest([0, 0, 0]), [0]) == (0, 0.0)
        assert vote(hand_forest([1, 1, 1]), [0]) == (1, 1.0)

    def test_tie_goes_to_class_one(self):
        cls, p = vote(hand_forest([1, 0]), [0])
        assert p == 0.5
        assert cls == 1

    def test_probability_is_mean_of_votes(self):
        table = planted_table(n=100, m=5)
        forest = train_forest(table, ForestParams(n_trees=7, seed=3))
        rng = np.random.default_rng(0)
        for row in rng.integers(0, 2, size=(20, 5)):
            votes = [predict(t, row)[0] for t in forest.trees]
            assert vote(forest, row)[1] == sum(votes) / len(votes)

