"""Property: no edit of one field of a model text gets past its reader.

One field, at any depth, of a valid text from each tree grower, a forest
and each baseline is replaced by an arbitrary JSON value, or dropped.  The
reader (``DecisionTree.from_json``, ``Forest.from_json`` or
``model_from_json``) must return a model or raise its own error class with
one line of at most 300 characters.  A loaded tree or forest must then
answer ``predict_batch`` and ``proba_batch`` on a row of its width, and a
loaded baseline must give a probability in [0, 1] for each row of a small
table of its own levels.

The same property holds for the other JSON readers: ``schema_from_json``,
``RecodeRuleSet.from_json`` and ``EliminationTrace.from_json``, whose
values must then write themselves out again.

And no reader skips a key it does not know: one key that no format names,
added to any JSON object of a valid text, is the reader's own error.
"""
import copy
import json
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treebench.baselines import (
    BaselineError,
    model_from_json,
    train_bayes_net,
    train_decision_list,
    train_logistic,
    train_mlp,
)
from treebench.dataset import (
    CategoricalTable,
    DatasetError,
    RecodeRule,
    RecodeRuleSet,
    feature,
    schema_from_json,
    schema_hash,
    schema_to_json,
)
from treebench.forest import Forest, ForestError, ForestParams, train_forest
from treebench.shapley import EliminationStep, EliminationTrace, ShapError
from treebench.tree import (
    DecisionTree,
    TreeError,
    TreeParams,
    train_c50,
    train_cart,
    train_chaid,
    train_quest,
)

READERS = {
    "tree": (DecisionTree.from_json, TreeError),
    "forest": (Forest.from_json, ForestError),
    "baseline": (model_from_json, BaselineError),
}

LABEL = st.text(string.ascii_letters + string.digits + " ,_-", max_size=4) \
    | st.just("k" * 400)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.integers()
    | st.sampled_from([-1, 2**63, 10**400]) | st.floats() | LABEL,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(LABEL, inner, max_size=3),
    max_leaves=6,
)


def _table() -> CategoricalTable:
    rows = np.array([[c, d] for c in (1, 2, 3) for d in (1, 2)] * 4, dtype=np.int64)
    target = (rows[:, 0] == 2) | ((rows[:, 0] == 3) & (rows[:, 1] == 2))
    target[::7] ^= True
    return CategoricalTable([feature("f0", [1, 2, 3]), feature("f1", [1, 2])],
                            rows, target.astype(np.int64))


@pytest.fixture(scope="module")
def texts():
    """(reader, payload) of one valid text per tree grower, a forest and
    each baseline; every tree and forest text holds a split."""
    data = _table()
    trees = [train_c50(data, TreeParams(min_records=1)),
             train_cart(data, TreeParams(min_records=1)),
             train_chaid(data, TreeParams(min_records=1, alpha=0.5)),
             train_quest(data, TreeParams(min_records=1))]
    forest = train_forest(data, ForestParams(n_trees=3, min_records=1, seed=2))
    baselines = [train_logistic(data, l2=0.1),
                 train_mlp(data, widths=(3,), epochs=2, seed=1),
                 train_bayes_net(data),
                 train_decision_list(data, min_coverage=1)]
    out = [("tree", json.loads(t.to_json())) for t in trees]
    out.append(("forest", json.loads(forest.to_json())))
    out.extend(("baseline", json.loads(m.to_json())) for m in baselines)
    assert all("split" in p["root"] for reader, p in out if reader == "tree")
    return out


def field_paths(value, path=()):
    """The path of every field below ``value``: object keys and list
    indices."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from field_paths(item, path + (key,))


def edited(data, payload):
    """``payload`` with one field, at any depth, dropped or replaced by an
    arbitrary JSON value."""
    path = data.draw(st.sampled_from(list(field_paths(payload))), label="path")
    edited = copy.deepcopy(payload)
    parent = edited
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans(), label="drop"):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES, label="value")
    return json.dumps(edited)


def one_line(message: str) -> bool:
    return "\n" not in message and len(message) <= 300


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_model_field_is_read_cleanly(texts, data):
    reader, payload = data.draw(st.sampled_from(texts), label="text")
    text = edited(data, payload)
    read, error = READERS[reader]
    try:
        model = read(text)
    except error as e:
        assert one_line(str(e)), str(e)
        return
    if reader == "baseline":
        rows = np.array([[lv[i % len(lv)] for lv in model.levels] for i in range(3)],
                        dtype=np.int64).reshape(3, len(model.levels))
        p = model.proba_batch(rows)
        assert p.shape == (3,) and ((0 <= p) & (p <= 1)).all(), p
    else:
        row = np.ones((1, len(model.feature_names)), dtype=np.int64)
        model.predict_batch(row)
        model.proba_batch(row)


def _rules() -> RecodeRuleSet:
    """Rules with every predicate, each kind of default and a combine."""
    return RecodeRuleSet(
        features=(
            RecodeRule("sex", ("SEX",), (({"in": [1]}, 0), ({"in": [2]}, 1)),
                       missing=frozenset({8, 9}), default="drop",
                       labels={0: "male", 1: "female"}),
            RecodeRule("speed", ("SPD", "LIM"), (({"lt": 30}, 0), ({"le": 55}, 1),
                                                 ({"gt": 80}, 3), ({"ge": 56}, 2)),
                       combine="max", default=None),
            RecodeRule("light", ("LGT",), (({"any": True}, 4),), default=5),
        ),
        target=RecodeRule("injury", ("SEV",), (({"in": [0]}, 0), ({"any": 1}, 1))))


# each reader's text, its error, and what a value it returns must still do
OTHER_READERS = {
    "schema": (schema_to_json([feature("f0", [1, 2, 3], labels={1: "a"}, missing=[9]),
                               feature("f1", [0, 5])]),
               schema_from_json, DatasetError, lambda schema: schema_hash(schema)),
    "rules": (_rules().to_json(), RecodeRuleSet.from_json, DatasetError,
              lambda rules: (rules.to_json(), rules.output_schema())),
    "trace": (EliminationTrace((
        EliminationStep(("a", "b", "c"), 0.5, "c"),
        EliminationStep(("a", "b"), 0.75, "a"),
        EliminationStep(("b",), 0.625, "b")), 1).to_json(),
              EliminationTrace.from_json, ShapError,
              lambda trace: (trace.to_json(), trace.selected_features)),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_schema_rules_or_trace_field_is_read_cleanly(data):
    text, read, error, use = OTHER_READERS[data.draw(
        st.sampled_from(sorted(OTHER_READERS)), label="reader")]
    try:
        value = read(edited(data, json.loads(text)))
    except error as e:
        assert one_line(str(e)), str(e)
        return
    use(value)


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_an_unknown_key_in_any_object_is_refused(texts, data):
    """A ``typo_`` key, added to any JSON object of a valid text (the top
    level, a node, a split, its params, a rule record, a schema entry, a rule,
    a case, a trace step and so on), is the reader's error in one line."""
    readers = {**READERS, **{name: (read, error) for name, (_, read, error, _)
                             in OTHER_READERS.items()}}
    reader, payload = data.draw(st.sampled_from(
        texts + [(name, json.loads(OTHER_READERS[name][0]))
                 for name in sorted(OTHER_READERS)]), label="text")
    path = data.draw(st.sampled_from([p for p in [(), *field_paths(payload)]
                                      if isinstance(_at(payload, p), dict)]),
                     label="object")
    changed = copy.deepcopy(payload)
    _at(changed, path)["typo_" + data.draw(LABEL, label="key")] = data.draw(
        JSON_VALUES, label="value")
    read, error = readers[reader]
    with pytest.raises(error) as caught:
        read(json.dumps(changed))
    assert one_line(str(caught.value)), str(caught.value)
