"""Property: every model's JSON round trip is exact.

``to_json -> from_json -> to_json`` gives the same text, and the restored
model gives the same probabilities and labels, for trees from the four
growers, forests, and the four baselines (``model.to_json()`` /
``model_from_json``).
"""
import warnings

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from treebench.baselines import (
    ConvergenceError,
    model_from_json,
    train_bayes_net,
    train_decision_list,
    train_logistic,
    train_mlp,
)
from treebench.dataset import CategoricalTable, feature
from treebench.forest import Forest, ForestParams, train_forest
from treebench.tree import (
    DecisionTree,
    TreeParams,
    prune_c50,
    train_c50,
    train_cart,
    train_chaid,
    train_quest,
)

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def tables(draw):
    """A table of 1-4 features with 2-5 allowed codes each, some of them
    absent, and a target that leans on the first feature or not at all."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(4, 60))
    schema, columns = [], []
    for j in range(m):
        codes = sorted(draw(st.sets(st.integers(1, 9), min_size=2, max_size=5)))
        schema.append(feature(f"f{j}", codes))
        shown = draw(st.lists(st.sampled_from(codes), min_size=1, max_size=len(codes),
                              unique=True))
        columns.append(draw(st.lists(st.sampled_from(shown), min_size=n, max_size=n)))
    rows = np.array(columns, dtype=np.int64).T
    noise = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if draw(st.booleans()):
        target = (rows[:, 0] % 2) ^ np.array(noise)
    else:
        target = np.array(noise)
    return CategoricalTable(schema, rows, target.astype(np.int64))


def assert_same_predictions(model, restored, rows):
    assert np.array_equal(model.proba_batch(rows), restored.proba_batch(rows))
    assert np.array_equal(model.predict_batch(rows), restored.predict_batch(rows))


@SETTINGS
@given(tables(), st.sampled_from([train_c50, train_cart, train_chaid, train_quest]),
       st.integers(1, 4), st.sampled_from([None, 1, 3]), st.booleans())
def test_tree_round_trip(data, grower, min_records, max_depth, prune):
    tree = grower(data, TreeParams(min_records=min_records, max_depth=max_depth))
    if prune and grower is train_c50:
        tree = prune_c50(tree)
    text = tree.to_json()
    restored = DecisionTree.from_json(text)
    assert restored.to_json() == text
    assert_same_predictions(tree, restored, data.rows)


@SETTINGS
@given(tables(), st.integers(1, 5), st.booleans(), st.integers(0, 3))
def test_forest_round_trip(data, n_trees, bootstrap, seed):
    forest = train_forest(data, ForestParams(
        n_trees=n_trees, features_per_split=1, bootstrap=bootstrap,
        min_records=1, seed=seed))
    text = forest.to_json()
    restored = Forest.from_json(text)
    assert restored.to_json() == text
    assert_same_predictions(forest, restored, data.rows)


@SETTINGS
@given(tables(), st.sampled_from(["logistic", "mlp", "bayes-naive",
                                  "bayes-greedy", "decision-list"]))
def test_baseline_round_trip(data, family):
    if family == "logistic":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                model = train_logistic(data, max_iterations=25)
            except ConvergenceError:
                assume(False)
    elif family == "mlp":
        model = train_mlp(data, widths=(4, 3), epochs=5, seed=1)
    elif family.startswith("bayes"):
        structure = "naive" if family == "bayes-naive" else "greedy-search"
        model = train_bayes_net(data, structure=structure)
    else:
        model = train_decision_list(data, min_coverage=1)
    text = model.to_json()
    restored = model_from_json(text)
    assert restored.to_json() == text
    assert_same_predictions(model, restored, data.rows)
