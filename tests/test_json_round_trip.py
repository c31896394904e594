"""Property: every model's JSON round trip is exact.

``to_json -> from_json -> to_json`` gives the same text, and the restored
model gives the same probabilities and labels, for trees from the four
growers, forests, and the four baselines (``model.to_json()`` /
``model_from_json``).  Malformed payloads, and text that is not JSON for
every JSON reader, are each reader's own one-line error.
"""
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from treebench.baselines import (
    BaselineError,
    ConvergenceError,
    model_from_json,
    train_bayes_net,
    train_decision_list,
    train_logistic,
    train_mlp,
)
from treebench.cli import ConfigError, load_config
from treebench.dataset import (
    CategoricalTable,
    DatasetError,
    RecodeRuleSet,
    feature,
    schema_from_json,
)
from treebench.forest import Forest, ForestError, ForestParams, train_forest
from treebench.shapley import EliminationTrace, ShapError
from treebench.tree import (
    DecisionTree,
    TreeError,
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


# ---------------------------------------------------------------------------
# Malformed model JSON is the model module's own error, never a bare
# KeyError or TypeError, and a split must hold one child per branch.


def _split_table() -> CategoricalTable:
    rows = np.array([[c, d] for c in (1, 2, 3) for d in (1, 2)] * 3, dtype=np.int64)
    return CategoricalTable([feature("f0", [1, 2, 3]), feature("f1", [1, 2])],
                            rows, (rows[:, 0] == 2).astype(np.int64))


def _tree_payload() -> dict:
    tree = train_cart(_split_table(), TreeParams(min_records=1))
    payload = json.loads(tree.to_json())
    assert "split" in payload["root"]
    return payload


def _drop_child(node):
    node["children"] = node["children"][:1]


def _inflate_child(payload):
    payload["root"]["children"][0]["counts"][0] += 50


_TREE_DEFECTS = {
    "no-root": lambda p: p.pop("root"),
    "unknown-param": lambda p: p["params"].update(cost=[[0, 1], [1, 0]]),
    "counts-text": lambda p: p["root"].update(counts="x"),
    "no-counts": lambda p: p["root"].pop("counts"),
    "split-without-children": lambda p: p["root"].pop("children"),
    "one-child-two-branches": lambda p: _drop_child(p["root"]),
    "extra-child": lambda p: p["root"]["children"].append(p["root"]["children"][0]),
    # a split feature outside feature_names, counts that are not two
    # non-negative integers totalling below 2**63, branch codes that are not
    # such integers, a split of one branch, a score that is no finite number, names that are not a
    # list of strings, a hash that is no string
    "feature-past-the-names": lambda p: p["root"]["split"].update(feature=2),
    "feature-negative": lambda p: p["root"]["split"].update(feature=-1),
    "counts-scalar": lambda p: p["root"].update(counts=5),
    "counts-three": lambda p: p["root"]["children"][0].update(counts=[1, 2, 0]),
    "counts-negative": lambda p: p["root"]["children"][1].update(counts=[-1, 4]),
    "counts-past-int64": lambda p: p["root"].update(counts=[2**70, 0]),
    "branch-code-fraction": lambda p: p["root"]["split"]["branches"][0].append(0.7),
    "branch-code-text": lambda p: p["root"]["split"]["branches"][0].append("0"),
    "branch-code-false": lambda p: p["root"]["split"]["branches"][0].append(False),
    "one-branch": lambda p: p["root"]["split"]["branches"].pop(),
    "score-text": lambda p: p["root"].update(score="x"),
    "score-nan": lambda p: p["root"].update(score=float("nan")),
    "feature-names-text": lambda p: p.update(feature_names="abc"),
    "feature-names-numbers": lambda p: p.update(feature_names=[1, 2, 3]),
    "schema-hash-number": lambda p: p.update(schema_hash=5),
    # counts that do not add up
    "child-counts-past-the-split": _inflate_child,
    "n_rows-off-the-root": lambda p: p.update(n_rows=p["n_rows"] + 1),
    "n_rows-text": lambda p: p.update(n_rows=str(p["n_rows"])),
}


@pytest.mark.parametrize("defect", sorted(_TREE_DEFECTS))
def test_malformed_tree_payload_is_tree_error(defect):
    payload = _tree_payload()
    _TREE_DEFECTS[defect](payload)
    with pytest.raises(TreeError):
        DecisionTree.from_json(json.dumps(payload))
    with pytest.raises(TreeError):
        DecisionTree.from_payload(payload)


def test_tree_nested_past_the_recursion_limit_is_tree_error():
    """A payload too deep to walk, though built without recursion, is one
    line of ``TreeError``, not a bare ``RecursionError``."""
    node = {"counts": [1, 0]}
    for _ in range(5000):
        node = {"counts": [1, 0], "children": [node, {"counts": [0, 0]}],
                "split": {"feature": 0, "arity": "binary", "branches": [[0], [1]]}}
    with pytest.raises(TreeError, match="maximum recursion depth"):
        DecisionTree.from_payload({"algorithm": "cart", "params": {}, "n_rows": 1,
                                   "feature_names": ["f0"], "schema_hash": "x",
                                   "root": node})


# A node's label follows from its counts; a label a node stores, as the
# format before this rule did, is ignored, even when it disagrees
_STORED_LABELS = {
    "prediction-seven": lambda p: p["root"].update(prediction=7),
    "confidence-above-one": lambda p: p["root"]["children"][0].update(confidence=1.5),
    "prediction-not-the-majority": lambda p: p["root"].update(prediction=1),
    "confidence-not-the-share": lambda p: p["root"].update(confidence=0.5),
}


@pytest.mark.parametrize("label", sorted(_STORED_LABELS))
def test_stored_labels_are_ignored(label):
    payload = _tree_payload()
    tree = DecisionTree.from_payload(payload)
    _STORED_LABELS[label](payload)
    restored = DecisionTree.from_json(json.dumps(payload))
    assert restored.to_json() == tree.to_json()
    assert_same_predictions(tree, restored, _split_table().rows)


def _forest_payload() -> dict:
    forest = train_forest(_split_table(), ForestParams(
        n_trees=2, features_per_split=2, min_records=1))
    payload = json.loads(forest.to_json())
    assert all("split" in root for root in payload["trees"])
    return payload


_FOREST_DEFECTS = {
    "no-params": lambda p: p.pop("params"),
    "unknown-param": lambda p: p["params"].update(n_tree=3),
    "no-feature-names": lambda p: p.pop("feature_names"),
    "trees-number": lambda p: p.update(trees=5),
    "trees-object": lambda p: p.update(trees={"root": p["trees"][0]}),
    "trees-text": lambda p: p.update(trees="ab"),
    "second-tree-without-counts": lambda p: p["trees"][1].pop("counts"),
    "second-tree-nested-text": lambda p: p["trees"][1]["children"][0].update(counts="x"),
    "tree-without-root": lambda p: p.update(trees=[None, *p["trees"][1:]]),
    "tree-without-counts": lambda p: p["trees"][0].pop("counts"),
    "tree-counts-text": lambda p: p["trees"][1].update(counts="x"),
    "tree-counts-past-int64": lambda p: p["trees"][1].update(counts=[2**70, 0]),
    "tree-one-child-two-branches": lambda p: _drop_child(p["trees"][0]),
    "feature-names-text": lambda p: p.update(feature_names="abc"),
    "feature-names-numbers": lambda p: p.update(feature_names=[1, 2, 3]),
    "schema-hash-number": lambda p: p.update(schema_hash=5),
    # members that are not what train_forests grows for this forest
    "n_trees-over-the-members": lambda p: p["params"].update(n_trees=5),
    "member-n_rows-not-the-bag": lambda p: p.update(n_rows=p["n_rows"] + 1),
    "sample_size-not-the-bag": lambda p: p["params"].update(sample_size=5),
    # a forest's own n_rows is an integer >= 2, also when the members' bag
    # size comes from sample_size
    "n_rows-text": lambda p: p.update(
        n_rows=str(p["n_rows"]), params={**p["params"], "sample_size": p["n_rows"]}),
}


@pytest.mark.parametrize("defect", sorted(_FOREST_DEFECTS))
def test_malformed_forest_payload_is_forest_error(defect):
    payload = _forest_payload()
    _FOREST_DEFECTS[defect](payload)
    with pytest.raises(ForestError):
        Forest.from_json(json.dumps(payload))


# a forest's error names the member that failed and wraps its error once
_FOREST_MESSAGES = {
    "trees-number": "forest payload 'trees' is not a JSON list: 5",
    "trees-text": "forest payload 'trees' is not a JSON list: 'ab'",
    "tree-without-root": "forest member 0: malformed tree payload: ",
    "tree-without-counts": "forest member 0: tree node has no 'counts' key",
    "second-tree-without-counts": "forest member 1: tree node has no 'counts' key",
    "second-tree-nested-text": "forest member 1: tree node 'counts' is not ",
}


@pytest.mark.parametrize("defect", sorted(_FOREST_MESSAGES))
def test_forest_payload_error_names_the_member(defect):
    payload = _forest_payload()
    _FOREST_DEFECTS[defect](payload)
    with pytest.raises(ForestError) as caught:
        Forest.from_json(json.dumps(payload))
    message = str(caught.value)
    assert message.startswith(_FOREST_MESSAGES[defect])
    assert "malformed forest payload" not in message
    assert message.count("malformed") <= 1


def _baseline_payloads() -> dict:
    data = _split_table()
    models = {
        "logistic": train_logistic(data, l2=0.1),
        "mlp": train_mlp(data, widths=(3,), epochs=2, seed=1),
        "bayes_net": train_bayes_net(data),
        "decision_list": train_decision_list(data, min_coverage=1),
    }
    return {kind: json.loads(m.to_json()) for kind, m in models.items()}


# defect -> (edit of a payload, the error it gives)
_BASELINE_DEFECTS = {
    "unknown-field": (lambda p: p.update(bogus=1), "bogus"),
    "missing-field": (lambda p: p.pop("schema_hash"), "schema_hash"),
    "kind-object": (lambda p: p.update(kind={}),
                    r"^model 'kind' is not one of logistic, mlp, bayes_net, "
                    r"decision_list: \{\}$"),
    "no-kind": (lambda p: p.pop("kind"), "^model has no 'kind' key$"),
}


@pytest.mark.parametrize("kind", ["logistic", "mlp", "bayes_net", "decision_list"])
@pytest.mark.parametrize("defect", sorted(_BASELINE_DEFECTS))
def test_malformed_baseline_payload_is_baseline_error(kind, defect):
    payload = _baseline_payloads()[kind]
    assert payload["kind"] == kind
    edit, needle = _BASELINE_DEFECTS[defect]
    edit(payload)
    with pytest.raises(BaselineError, match=needle):
        model_from_json(json.dumps(payload))


def test_decision_rule_without_literals_is_baseline_error():
    payload = _baseline_payloads()["decision_list"]
    assert payload["rules"]
    del payload["rules"][0]["literals"]
    with pytest.raises(BaselineError, match="literals"):
        model_from_json(json.dumps(payload))


@pytest.mark.parametrize("text", ["[]", "3", '"model"', "null"])
@pytest.mark.parametrize("load, error", [
    (DecisionTree.from_json, TreeError),
    (Forest.from_json, ForestError),
    (model_from_json, BaselineError),
], ids=["tree", "forest", "baseline"])
def test_non_object_payload_is_the_loaders_error(load, error, text):
    with pytest.raises(error):
        load(text)


def _read_config(text, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(text)
    return load_config(path)


@pytest.mark.parametrize("text", ["{", "[" * 100_000], ids=["truncated", "deep"])
@pytest.mark.parametrize("read, error", [
    (_read_config, ConfigError),
    (lambda text, _: schema_from_json(text), DatasetError),
    (lambda text, _: RecodeRuleSet.from_json(text), DatasetError),
    (lambda text, _: DecisionTree.from_json(text), TreeError),
    (lambda text, _: Forest.from_json(text), ForestError),
    (lambda text, _: EliminationTrace.from_json(text), ShapError),
    (lambda text, _: model_from_json(text), BaselineError),
], ids=["config", "schema", "rules", "tree", "forest", "trace", "baseline"])
def test_text_that_is_not_json_is_the_readers_error(read, error, text, tmp_path):
    """A truncated text, and one nested too deep for the parser, are each
    one line of the reader's own error, never a bare ``JSONDecodeError`` or
    ``RecursionError``."""
    with pytest.raises(error, match="bad JSON") as info:
        read(text, tmp_path)
    assert type(info.value) is error and "\n" not in str(info.value)
