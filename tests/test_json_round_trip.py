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
    "params-list-of-a-long-int": lambda p: p.update(params=[10**400]),
    "counts-text": lambda p: p["root"].update(counts="x"),
    "no-counts": lambda p: p["root"].pop("counts"),
    "split-without-children": lambda p: p["root"].pop("children"),
    "one-child-two-branches": lambda p: _drop_child(p["root"]),
    "extra-child": lambda p: p["root"]["children"].append(p["root"]["children"][0]),
    # a split feature outside feature_names, counts that are not two
    # non-negative integers totalling below 2**63, branch codes that are not
    # such integers, a split of one branch or of branches that share a code,
    # a score that is no finite float, names that are not a list of strings,
    # a hash that is no string
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
    "branches-overlap": lambda p: p["root"]["split"]["branches"][1].append(
        p["root"]["split"]["branches"][0][0]),
    "score-text": lambda p: p["root"].update(score="x"),
    "score-nan": lambda p: p["root"].update(score=float("nan")),
    "score-past-float": lambda p: p["root"].update(score=10**400),
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
    """Each defect is one line of ``TreeError``, of at most 300 characters."""
    payload = _tree_payload()
    _TREE_DEFECTS[defect](payload)
    with pytest.raises(TreeError) as info:
        DecisionTree.from_json(json.dumps(payload))
    assert "\n" not in str(info.value) and len(str(info.value)) <= 300
    with pytest.raises(TreeError):
        DecisionTree.from_payload(payload)


def test_tree_nested_past_the_recursion_limit_is_tree_error():
    """A payload too deep to walk, though built without recursion, is one
    line of ``TreeError``, not a bare ``RecursionError``."""
    node = {"counts": [1, 0]}
    for _ in range(5000):
        node = {"counts": [1, 0], "children": [node, {"counts": [0, 0]}],
                "split": {"feature": 0, "branches": [[0], [1]]}}
    with pytest.raises(TreeError, match="maximum recursion depth"):
        DecisionTree.from_payload({"algorithm": "cart", "params": {}, "n_rows": 1,
                                   "feature_names": ["f0"], "schema_hash": "x",
                                   "root": node})


# a field the format does not name, at each level of a tree payload
_TREE_UNKNOWN = {
    "payload": lambda p: p.update(k=1),
    "long-name": lambda p: p.update({"k" * 500: 1}),
    "root": lambda p: p["root"].update(label=1),
    "child": lambda p: p["root"]["children"][1].update(weight=0.5),
    "split": lambda p: p["root"]["split"].update(threshold=2),
}


@pytest.mark.parametrize("where", sorted(_TREE_UNKNOWN))
def test_tree_payload_with_an_unknown_field_is_tree_error(where):
    """An unknown field is refused in one line that names it; a node's stored
    label and a split's arity are the fields older payloads held, and still
    load (``test_stored_labels_are_ignored``, ``test_pinned_payloads``)."""
    payload = _tree_payload()
    _TREE_UNKNOWN[where](payload)
    with pytest.raises(TreeError, match="has an unknown field '") as info:
        DecisionTree.from_json(json.dumps(payload))
    assert "\n" not in str(info.value) and len(str(info.value)) <= 300


@pytest.mark.parametrize("where", ["payload", "member"])
def test_forest_payload_with_an_unknown_field_is_forest_error(where):
    payload = _forest_payload()
    (payload if where == "payload" else payload["trees"][1]).update(k=1)
    with pytest.raises(ForestError, match="unknown field 'k'$") as info:
        Forest.from_json(json.dumps(payload))
    assert "\n" not in str(info.value)


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
    "tree-without-root": "forest member 0: tree payload 'root' is not a JSON object: None",
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


_BASELINE_KINDS = ("logistic", "mlp", "bayes_net", "decision_list")
# defect -> (edit of a payload, the error it gives, the kinds it applies to)
_BASELINE_DEFECTS = {
    "unknown-field": (lambda p: p.update(bogus=1), "bogus", _BASELINE_KINDS),
    "unknown-long-field": (lambda p: p.update({"k" * 500: 1}), "^malformed \\w+ model: ",
                           _BASELINE_KINDS),
    "missing-field": (lambda p: p.pop("schema_hash"), "schema_hash", _BASELINE_KINDS),
    "kind-object": (lambda p: p.update(kind={}),
                    r"^model 'kind' is not one of logistic, mlp, bayes_net, "
                    r"decision_list: \{\}$", _BASELINE_KINDS),
    "no-kind": (lambda p: p.pop("kind"), "^model has no 'kind' key$", _BASELINE_KINDS),
    # the fields every baseline has are checked by rule
    "feature-names-text": (lambda p: p.update(feature_names="abc"),
                           r"^\w+ model 'feature_names' is not a JSON list of "
                           r"strings: 'abc'$", _BASELINE_KINDS),
    "levels-text": (lambda p: p.update(levels="x"),
                    r"^\w+ model 'levels' is not one list of integers in "
                    r"\[0, 2\*\*63\) per feature name: 'x'$", _BASELINE_KINDS),
    "levels-one-short": (lambda p: p["levels"].pop(), r"^\w+ model 'levels' is not ",
                         _BASELINE_KINDS),
    # any other fault of a field is one line naming the kind, and the
    # models' own errors pass through as they are
    "cpts-null": (lambda p: p.update(cpts=None), "^malformed bayes_net model: ",
                  ("bayes_net",)),
    "weights-text": (lambda p: p.update(weights="x"), "^malformed mlp model: ", ("mlp",)),
    "biases-ragged": (lambda p: p["biases"][0].append([0.5]), "^malformed mlp model: ",
                      ("mlp",)),
    "intercept-past-float": (lambda p: p.update(intercept=10**400),
                             "^malformed logistic model: ", ("logistic",)),
    "activation-unknown": (lambda p: p.update(activation="relu"),
                           "^mlp activation is not 'tanh': 'relu'$", ("mlp",)),
    # what prediction reads is checked by rule as well, so a model that loads
    # predicts: each of these loaded before, and then raised a bare numpy error
    "levels-empty": (lambda p: p["levels"][1].clear(),
                     r"^\w+ model 'levels' holds a feature with no codes$", _BASELINE_KINDS),
    "literal-feature-99": (lambda p: p["rules"][0].update(literals=[[99, 1]]),
                           r"^decision rule 0 literal is not a \[feature index, code\] "
                           r"pair naming one of the feature's levels: \(99, 1\)$",
                           ("decision_list",)),
    "literal-code-outside-levels": (lambda p: p["rules"][1].update(literals=[[1, 3]]),
                                    r"^decision rule 1 literal is not .*: \(1, 3\)$",
                                    ("decision_list",)),
    "rule-class-two": (lambda p: p["rules"][0].update({"class": 2}),
                       "^decision rule 0 class is not 0 or 1: 2$", ("decision_list",)),
    # a rule record is read by its field table
    "rule-unknown-field": (lambda p: p["rules"][0].update(weight=1),
                           "^decision rule 0 has an unknown field 'weight'$",
                           ("decision_list",)),
    "rule-coverage-text": (lambda p: p["rules"][0].update(coverage="x"),
                           r"^decision rule 0 'coverage' is not an integer in "
                           r"\[0, 2\*\*63\): 'x'$", ("decision_list",)),
    "default-precision-above-one": (lambda p: p.update(default_precision=1.5),
                                    r"^decision list default precision is not a number "
                                    r"in \[0, 1\]: 1.5$", ("decision_list",)),
    "cpt-flat": (lambda p: p["cpts"].update(f0=[0.5, 0.5]),
                 r"^CPT for 'f0' has shape \(2,\), its parents' and its own levels "
                 r"give \(2, 3\)$", ("bayes_net",)),
    "cpt-zero": (lambda p: p["cpts"].update(f1=[[1.0, 0.0], [0.5, 0.5]]),
                 "^CPT for 'f1' has an entry <= 0$", ("bayes_net",)),
    "cpt-missing": (lambda p: p["cpts"].pop("f1"),
                    "^bayes net nodes must be features or the target, each with one CPT, "
                    "and every parent a node$", ("bayes_net",)),
    "parent-unknown": (lambda p: p["parents"]["f0"].append("zz"),
                       "^bayes net nodes must be features or the target", ("bayes_net",)),
    "node-unknown": (lambda p: (p["parents"].update(g=[]), p["cpts"].update(g=[1.0])),
                     "^bayes net nodes must be features or the target", ("bayes_net",)),
    "coefficients-one-short": (lambda p: p["coefficients"].pop(),
                               "^logistic model has 2 coefficients, its levels give 3$",
                               ("logistic",)),
    "coefficients-overflow": (lambda p: p.update(coefficients=[1e308, 1e308, 0.0]),
                              "^logistic coefficients must be finite, and so must",
                              ("logistic",)),
    "first-layer-narrow": (lambda p: [row.pop() for row in p["weights"][0]],
                           "^layer dimensions do not chain$", ("mlp",)),
    "bias-one-short": (lambda p: p["biases"][0].pop(), "^layer dimensions do not chain$",
                       ("mlp",)),
    "weights-overflow": (lambda p: p["weights"][1][0].__setitem__(0, 1.7e308) or
                         p["weights"][1][0].__setitem__(1, 1.7e308),
                         "^mlp weights and biases must be finite", ("mlp",)),
    "no-layers": (lambda p: p.update(weights=[], biases=[]),
                  "^mlp needs one or more layers", ("mlp",)),
}


@pytest.mark.parametrize("defect, kind", [
    (defect, kind) for defect in sorted(_BASELINE_DEFECTS)
    for kind in _BASELINE_DEFECTS[defect][2]])
def test_malformed_baseline_payload_is_baseline_error(kind, defect):
    payload = _baseline_payloads()[kind]
    assert payload["kind"] == kind
    edit, needle, _ = _BASELINE_DEFECTS[defect]
    edit(payload)
    with pytest.raises(BaselineError, match=needle) as info:
        model_from_json(json.dumps(payload))
    assert "\n" not in str(info.value) and len(str(info.value)) <= 300


def test_decision_rule_without_literals_is_baseline_error():
    payload = _baseline_payloads()["decision_list"]
    assert payload["rules"]
    del payload["rules"][0]["literals"]
    with pytest.raises(BaselineError, match="^decision rule 0 has no 'literals' key$"):
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
