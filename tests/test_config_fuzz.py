"""Property: no config value makes a command raise or print a traceback.

One field of a small valid config is replaced by an arbitrary JSON value and
the command that reads the field runs in-process.  It must return 0, 1 or 2,
and a non-zero exit must print exactly one stderr line, starting ``error:``.
"""
import contextlib
import io
import json
import string

import pytest
from hypothesis import given, settings, strategies as st

from treebench import cli
from treebench.dataset import (
    RecodeRule,
    RecodeRuleSet,
    binary_schema,
    generate_synthetic,
    planted_relevance_rules,
    schema_to_json,
)

TREE_KNOBS = ("min_records", "severity", "max_depth", "alpha", "min_gain", "cost")

# (command, path of the replaced field).  A path into roster_params runs that
# family alone.
FIELDS = (
    [("compare", (key,)) for key in
     ("seed", "table", "schema", "folds", "roster", "roster_params")]
    + [("compare", ("roster_params", family, knob))
       for family in ("c50", "chaid", "cart", "quest") for knob in TREE_KNOBS]
    + [("compare", ("roster_params", "mlp", knob))
       for knob in ("widths", "epochs", "learning_rate", "batch_size")]
    + [("compare", ("roster_params", "logistic", "max_iterations")),
       ("compare", ("roster_params", "bayes-net", "structure")),
       ("compare", ("roster_params", "bayes-net", "alpha")),
       ("compare", ("roster_params", "decision-list", "min_coverage"))]
    + [("ingest", (key,)) for key in
       ("raw", "rules", "cohort", "strict", "expected_rows", "delimiter")]
    + [("ingest", ("cohort", key)) for key in sorted(cli._COHORT_KEYS)]
    + [("explain", (key,)) for key in ("forest", "background", "explain_rows")]
    + [("explain", ("forest", knob)) for knob in
       ("n_trees", "features_per_split", "sample_size", "bootstrap",
        "min_records", "max_depth")]
    + [("select-features", key) for key in
       (("folds",), ("background",), ("forest", "max_depth"))]
)

# Small values only: a valid but huge n_trees or epochs would only be slow.
LABEL = st.text(string.ascii_letters + string.digits + " ,_-", max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | LABEL,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(LABEL, inner, max_size=3),
    max_leaves=6,
)

RAW = """ALIGN,PRE,SEX,SEV
2,13,1,0
2,13,2,3
3,13,1,2
1,13,2,4
3,5,1,1
2,13,9,2
3,13,2,0
2,13,1,4
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    schema = binary_schema(3)
    data = generate_synthetic(schema, 8, seed=4,
                              rules=planted_relevance_rules(("f00",)))
    data.to_csv(base / "coded.csv")
    (base / "schema.json").write_text(schema_to_json(schema))
    (base / "raw.csv").write_text(RAW)
    rules = RecodeRuleSet(
        features=(RecodeRule("sex", ("SEX",), (({"in": [1]}, 0), ({"in": [2]}, 1)),
                             missing=frozenset({9})),),
        target=RecodeRule("injury", ("SEV",), (({"in": [0]}, 0), ({"ge": 1}, 1))),
    )
    (base / "rules.json").write_text(rules.to_json())
    return base


def base_config(command: str, path: tuple) -> dict:
    if command == "ingest":
        return {"seed": 1, "raw": "raw.csv", "rules": "rules.json",
                "cohort": {"alignment_field": "ALIGN", "curve_codes": [2, 3],
                           "negotiating_field": "PRE", "negotiating_codes": [13]},
                "expected_rows": 5}
    family = path[1] if len(path) == 3 else "c50"
    params = {"mlp": {"widths": [2], "epochs": 3}}.get(family, {})
    return {"seed": 1, "table": "coded.csv", "schema": "schema.json",
            "folds": 2, "roster": [family], "roster_params": {family: params},
            "forest": {"n_trees": 2, "max_depth": 2}, "background": 4,
            "explain_rows": [0]}


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
def test_any_config_value_exits_cleanly(inputs, field, value):
    command, path = field
    config = base_config(command, path)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    (inputs / "config.json").write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main([command, "--config", str(inputs / "config.json"),
                           "--out", str(inputs / "out")])
    assert status in (0, 1, 2)
    if status:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
