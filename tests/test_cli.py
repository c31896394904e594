import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import treebench
from treebench import cli, shapley
from treebench.cli import ConfigError, load_config
from treebench.dataset import (
    RecodeRule,
    RecodeRuleSet,
    binary_schema,
    generate_synthetic,
    planted_relevance_rules,
    schema_to_json,
)
from treebench.shapley import EliminationTrace
from treebench.tree import TreeParams, predictor_importance, prune_c50, train_c50

from oracles import with_cpus


def write_fixture(path, n=120, m=4, seed=5):
    schema = binary_schema(m)
    data = generate_synthetic(
        schema, n, seed=seed, rules=planted_relevance_rules(("f00", "f01"))
    )
    data.to_csv(path / "coded.csv")
    (path / "schema.json").write_text(schema_to_json(schema))
    return data


def write_config(path, **overrides):
    payload = {
        "seed": 11,
        "table": "coded.csv",
        "schema": "schema.json",
        "folds": 5,
        "roster": ["c50", "cart", "logistic"],
        "forest": {"n_trees": 8, "max_depth": 3},
        "background": 8,
        "out_dir": "artifacts",
    }
    payload.update(overrides)
    payload = {k: v for k, v in payload.items() if v is not None}
    (path / "config.json").write_text(json.dumps(payload))
    return path / "config.json"


def hash_dir(path):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
    }


# ---------------------------------------------------------------------------
# Config parsing


def test_config_requires_seed(tmp_path):
    cfg = write_config(tmp_path, seed=None)
    with pytest.raises(ConfigError, match="seed"):
        load_config(cfg)


def test_config_rejects_unknown_keys(tmp_path):
    cfg = write_config(tmp_path, typo_key=1)
    with pytest.raises(ConfigError, match="typo_key"):
        load_config(cfg)


def test_config_file_must_exist(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_config_overrides(tmp_path):
    cfg = write_config(tmp_path)
    config = load_config(cfg, out_dir=tmp_path / "elsewhere", seed=99)
    assert config.seed == 99
    assert config.out_dir == tmp_path / "elsewhere"


def test_config_paths_resolve_relative_to_file(tmp_path):
    cfg = write_config(tmp_path)
    config = load_config(cfg)
    assert config.table == tmp_path / "coded.csv"
    assert config.out_dir == tmp_path / "artifacts"


def test_config_validation_errors(tmp_path):
    for overrides, fragment in [
        ({"roster": ["c50", "c50"]}, "duplicate"),
        ({"roster": ["ghost"]}, "ghost"),
        ({"roster": []}, "roster"),
        ({"folds": 1}, "folds"),
        ({"seed": -1}, "seed"),
        ({"forest": {"seed": 4}}, "forest.seed"),
        ({"explain_rows": [-2]}, "explain_rows"),
        ({"cohort": {"curve_codes": [2]}}, "alignment_field"),
        ({"roster_params": {"ghost": {}}}, "ghost"),
        ({"background": 0}, "background"),
    ]:
        cfg = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=fragment):
            load_config(cfg)


def test_bad_json_is_config_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


@pytest.mark.parametrize("deep, status", [("config", 2), ("schema", 1)])
def test_json_nested_too_deep_is_one_line_error(tmp_path, capsys, deep, status):
    # the config is a usage error; a schema file's text is an input error
    write_fixture(tmp_path)
    cfg = write_config(tmp_path)
    (tmp_path / f"{deep}.json").write_text("[" * 100_000)
    assert cli.main(["compare", "--config", str(cfg)]) == status
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad JSON: maximum recursion depth exceeded" in err


@pytest.mark.parametrize("deep, status", [("forest", 2), ("schema", 1)])
def test_deeply_nested_value_is_one_bounded_line(tmp_path, capsys, deep, status):
    # a value nested 900 deep is valid JSON; its error line shows only the
    # start of its repr, which is about 1,800 characters long
    write_fixture(tmp_path)
    nested = json.loads("[" * 900 + "]" * 900)
    cfg = write_config(tmp_path, **({"forest": nested} if deep == "forest" else {}))
    if deep == "schema":
        (tmp_path / "schema.json").write_text(json.dumps([nested]))
    assert cli.main(["compare", "--config", str(cfg)]) == status
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "[[[[" in err and "... (1800 characters)" in err
    assert len(err) < 250


def test_running_out_of_memory_is_one_line_error(tmp_path, capsys, monkeypatch):
    # numpy's allocation failure names its array; a bare MemoryError gets
    # fixed text
    cfg = write_config(tmp_path)
    for raised, line in ((MemoryError("Unable to allocate 7.28 TiB"),
                          "error: Unable to allocate 7.28 TiB\n"),
                         (MemoryError(), "error: out of memory\n")):
        def run(config):
            raise raised
        monkeypatch.setitem(cli._COMMANDS, "compare", run)
        assert cli.main(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == line


def test_bad_roster_params_rejected_before_training(tmp_path):
    write_fixture(tmp_path)
    cfg = write_config(
        tmp_path, roster_params={"c50": {"no_such_knob": 3}}
    )
    assert cli.main(["compare", "--config", str(cfg)]) == 2


# ---------------------------------------------------------------------------
# Exit codes


def test_missing_schema_file_is_usage_error(tmp_path, capsys):
    write_fixture(tmp_path)
    (tmp_path / "schema.json").unlink()
    cfg = write_config(tmp_path)
    assert cli.main(["compare", "--config", str(cfg)]) == 2
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("command, overrides, needle", [
    ("compare", {"roster_params": {"cart": {"cost": [[0, -1], [1, 0]]}}}, "cost"),
    ("explain", {"forest": {"n_trees": "x"}}, "n_trees"),
    ("explain", {"forest": {"max_depth": -1}}, "max_depth"),
    ("compare", {"folds": 1000}, "folds"),
    ("select-features", {"folds": 1000}, "folds"),
    ("explain", {"forest": {"features_per_split": 9}}, "features_per_split"),
    ("select-features", {"forest": {"features_per_split": 9}}, "features_per_split"),
    ("compare", {"roster_params": {"c50": {"min_records": "x"}}}, "min_records"),
    ("compare", {"roster_params": {"c50": {"min_records": True}}}, "min_records"),
    ("compare", {"roster_params": {"c50": {"severity": "high"}}}, "severity"),
    ("compare", {"roster": ["chaid"], "roster_params": {"chaid": {"alpha": None}}},
     "alpha"),
    ("compare", {"roster_params": {"cart": {"max_depth": 2.5}}}, "max_depth"),
    ("compare", {"roster": ["quest"], "roster_params": {"quest": {"min_gain": [0]}}},
     "min_gain"),
    ("compare", {"roster": ["mlp"], "roster_params": {"mlp": {"widths": 5}}},
     "widths"),
    ("compare", {"roster": ["mlp"], "roster_params": {"mlp": {"widths": ["4"]}}},
     "widths"),
    # parameters for a family outside the roster are checked all the same
    ("compare", {"roster": ["c50"], "roster_params": {"chaid": {"alpha": None}}},
     "alpha"),
    # baseline knobs are checked before any fold runs
    ("compare", {"roster_params": {"logistic": {"max_iterations": "x"}}},
     "max_iterations"),
    ("compare", {"roster_params": {"logistic": {"tolerance": 0}}}, "tolerance"),
    ("compare", {"roster_params": {"logistic": {"l2": -1}}}, "l2"),
    ("compare", {"roster": ["mlp"], "roster_params": {"mlp": {"widths": [0]}}},
     "widths"),
    ("compare", {"roster": ["mlp"], "roster_params": {"mlp": {"learning_rate": 0}}},
     "learning_rate"),
    ("compare", {"roster": ["mlp"], "roster_params": {"mlp": {"epochs": -1}}},
     "epochs"),
    ("compare", {"roster": ["mlp"], "roster_params": {"mlp": {"batch_size": "8"}}},
     "batch_size"),
    ("compare", {"roster": ["mlp"], "roster_params": {"mlp": {"patience": 0}}},
     "patience"),
    ("compare", {"roster_params": {"bayes-net": {"structure": "loopy"}}},
     "structure"),
    ("compare", {"roster_params": {"bayes-net": {"alpha": 0}}}, "alpha"),
    ("compare", {"roster_params": {"decision-list": {"min_coverage": 0}}},
     "min_coverage"),
    ("compare", {"roster_params": {"decision-list": {"max_literals": 1.5}}},
     "max_literals"),
    ("compare", {"roster_params": {"decision-list": {"purity_threshold": 2}}},
     "purity_threshold"),
    # its confidence factor (100 - severity) / 100 rounds to 1
    ("compare", {"roster_params": {"c50": {"severity": 5e-15}}}, "severity"),
    # the C&R knob that changed no tree is gone
    ("compare", {"roster_params": {"cart": {"cost": [[0, 1], [1, 0]]}}}, "cost"),
    ("compare", {"roster": ["quest"],
                 "roster_params": {"quest": {"cost": [[0, 1], [1, 0]]}}}, "cost"),
    # a knob no trainer takes
    ("compare", {"roster_params": {"logistic": {"bogus": 1}}}, "bogus"),
    ("compare", {"roster": ["mlp"], "roster_params": {"mlp": {"seeds": [1]}}},
     "seeds"),
    ("explain", {"forest": {"n_tree": 4}}, "n_tree"),
    # the forest block is checked at load, whichever command runs
    ("compare", {"forest": {"n_tree": 4}}, "n_tree"),
    # the identity sample of bootstrap false ignores sample_size
    ("explain", {"forest": {"sample_size": 50, "bootstrap": False}}, "sample_size"),
])
def test_bad_config_values_are_usage_errors(tmp_path, capsys, command,
                                            overrides, needle):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, **overrides)
    assert cli.main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert needle in err and "Traceback" not in err
    assert not (tmp_path / "artifacts").exists()


# The TreeParams fields each tree family's grower reads; a valid value of each
GROWER_READS = {
    "c50": ("min_records", "severity", "max_depth", "min_gain"),
    "chaid": ("min_records", "max_depth", "alpha"),
    "cart": ("min_records", "max_depth"),
    "quest": ("min_records", "max_depth"),
}
KNOB_VALUES = {"min_records": 3, "severity": 50.0, "max_depth": 2, "alpha": 0.1,
               "min_gain": 0.0}


@pytest.mark.parametrize("family", sorted(GROWER_READS))
@pytest.mark.parametrize("knob", [f.name for f in fields(TreeParams)])
def test_tree_family_takes_only_the_knobs_its_grower_reads(tmp_path, capsys,
                                                          family, knob):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, roster=[family],
                       roster_params={family: {knob: KNOB_VALUES[knob]}})
    if knob in GROWER_READS[family]:
        assert load_config(cfg).roster_params == {family: {knob: KNOB_VALUES[knob]}}
        return
    assert cli.main(["compare", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"'{knob}'" in err and family in err
    assert not (tmp_path / "artifacts").exists()


def test_unknown_command_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "--config", "x"])
    assert exc.value.code == 2


def test_computation_error_is_exit_1(tmp_path, capsys):
    write_fixture(tmp_path)
    (tmp_path / "coded.csv").write_text("f00,target\n0,caterpillar\n")
    schema = binary_schema(1)
    (tmp_path / "schema.json").write_text(schema_to_json(schema))
    cfg = write_config(tmp_path, roster=["logistic"])
    assert cli.main(["compare", "--config", str(cfg)]) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare


def test_compare_writes_sorted_leaderboard(tmp_path):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path)
    assert cli.main(["compare", "--config", str(cfg)]) == 0
    out = tmp_path / "artifacts"
    lines = (out / "leaderboard.tsv").read_text().strip().split("\n")
    assert lines[0] == "rank\tmodel\taccuracy_pct\tpooled_pct"
    body = [line.split("\t") for line in lines[1:]]
    assert [row[0] for row in body] == ["1", "2", "3"]
    accuracies = [float(row[2]) for row in body]
    assert accuracies == sorted(accuracies, reverse=True)
    report = (out / "report.txt").read_text()
    assert report.startswith("fold plan ")
    assert "coincidence:" in report


def test_compare_importance_file_matches_library(tmp_path):
    data = write_fixture(tmp_path)
    cfg = write_config(tmp_path)
    cli.main(["compare", "--config", str(cfg)])
    lines = (tmp_path / "artifacts" / "importance.tsv").read_text().strip().split("\n")
    assert lines[0] == "feature\tweight"
    parsed = {}
    for line in lines[1:]:
        name, value = line.split("\t")
        parsed[name] = float(value)
    expected = predictor_importance(prune_c50(train_c50(data, TreeParams())))
    assert set(parsed) == set(expected)
    for name in parsed:
        assert abs(parsed[name] - expected[name]) <= 5e-5
    assert abs(sum(parsed.values()) - 1.0) <= 0.01
    weights = [parsed[line.split("\t")[0]] for line in lines[1:]]
    assert weights == sorted(weights, reverse=True)


def test_compare_dot_file_well_formed(tmp_path):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path)
    cli.main(["compare", "--config", str(cfg)])
    dot = (tmp_path / "artifacts" / "best_tree.dot").read_text()
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    assert dot.count("[label=") >= 3
    assert all(line.count('"') % 2 == 0 for line in dot.split("\n"))


def test_compare_rerun_byte_identical(tmp_path):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path)
    cli.main(["compare", "--config", str(cfg)])
    first = hash_dir(tmp_path / "artifacts")
    cli.main(["compare", "--config", str(cfg)])
    assert hash_dir(tmp_path / "artifacts") == first


def test_compare_seed_changes_fold_plan(tmp_path):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path)
    cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path / "a")])
    cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path / "b"),
              "--seed", "12"])
    line_a = (tmp_path / "a" / "report.txt").read_text().split("\n")[0]
    line_b = (tmp_path / "b" / "report.txt").read_text().split("\n")[0]
    assert line_a != line_b


def test_compare_full_roster(tmp_path):
    write_fixture(tmp_path, n=60, m=3)
    cfg = write_config(
        tmp_path,
        roster=list(cli.DEFAULT_ROSTER),
        roster_params={"mlp": {"epochs": 10, "widths": [4]}},
    )
    assert cli.main(["compare", "--config", str(cfg)]) == 0
    lines = (tmp_path / "artifacts" / "leaderboard.tsv").read_text().strip().split("\n")
    assert len(lines) == 1 + 8
    names = {line.split("\t")[1] for line in lines[1:]}
    assert names == set(cli.DEFAULT_ROSTER)


def test_compare_without_tree_families(tmp_path):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, roster=["logistic", "decision-list"])
    assert cli.main(["compare", "--config", str(cfg)]) == 0
    out = tmp_path / "artifacts"
    assert not (out / "best_tree.dot").exists()
    assert not (out / "importance.tsv").exists()
    assert (out / "leaderboard.tsv").exists()


def test_compare_trains_c50_once_on_the_whole_table(tmp_path, monkeypatch):
    """importance.tsv and best_tree.dot share one c50 fit on the table."""
    data = write_fixture(tmp_path)
    cfg = write_config(tmp_path, roster=["c50", "logistic"])
    whole_table_fits = []
    real_train_c50 = cli.train_c50

    def counting(table, params=None):
        whole_table_fits.append(table.n_rows == data.n_rows)
        return real_train_c50(table, params)

    monkeypatch.setattr(cli, "train_c50", counting)
    assert cli.main(["compare", "--config", str(cfg)]) == 0
    assert sum(whole_table_fits) == 1
    dot = (tmp_path / "artifacts" / "best_tree.dot").read_text()
    tree = prune_c50(real_train_c50(data, TreeParams()))
    assert dot == cli.export_dot(tree, data.schema)


def test_import_leaves_scipy_special_unloaded():
    """Only the chi-square p-value and the pruning bound need scipy.special,
    so importing the CLI must not pay for it."""
    env = dict(os.environ, PYTHONPATH=str(Path(treebench.__file__).parents[1]))
    code = "import sys, treebench.cli; sys.exit('scipy.special' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


_POOL_PROBE = """
import sys
import concurrent.futures.process as process
from treebench import cli, evaluation

loaded = []


class Probe(process.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        loaded.append("scipy.special" in sys.modules)
        super().__init__(*args, **kwargs)


process.ProcessPoolExecutor = Probe
evaluation._usable_cpus = lambda: 2  # the pool path on any host
status = cli.main(["compare", "--config", sys.argv[1]])
print(status, loaded)
"""


@pytest.mark.parametrize("roster, loaded", [
    (["c50", "cart", "logistic"], True),
    (["cart", "logistic"], False),
])
def test_compare_pool_forks_after_scipy_special(tmp_path, roster, loaded):
    """With c50 in the roster, its whole-table pruning has loaded
    scipy.special before the fold pool forks, so the workers inherit it; a
    roster without c50 does not load it."""
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, roster=roster)
    env = dict(os.environ, PYTHONPATH=str(Path(treebench.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _POOL_PROBE, str(cfg)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"0 [{loaded}]"


# ---------------------------------------------------------------------------
# select-features


def test_select_features_trace_round_trips(tmp_path):
    write_fixture(tmp_path, m=2)
    cfg = write_config(tmp_path)
    assert cli.main(["select-features", "--config", str(cfg)]) == 0
    out = tmp_path / "artifacts"
    trace = EliminationTrace.from_json((out / "elimination.json").read_text())
    assert len(trace.steps) == 2
    assert trace.to_json() + "\n" == (out / "elimination.json").read_text()
    selected = (out / "selected.txt").read_text().strip().split("\n")
    assert tuple(selected) == trace.selected_features


@pytest.mark.parametrize("n, status", [(2, 2), (3, 2), (5, 0)])
def test_select_features_rejects_folds_that_leave_one_training_row(
        tmp_path, capsys, n, status):
    """Two folds of 2 or 3 rows leave a fold one training row, fewer than
    a forest needs: a usage error raised before any forest grows.  Five
    rows leave every fold at least 2 and train.  On one CPU, so the mock
    sees the fold forests: it cannot look into a forked worker."""
    write_fixture(tmp_path, n=n)
    cfg = write_config(tmp_path, folds=2)
    with mock.patch.object(shapley, "train_forests",
                           wraps=shapley.train_forests) as grow:
        assert with_cpus(1, cli.main, ["select-features", "--config", str(cfg)]) == status
    assert grow.called == (status == 0)
    if status:
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "folds 2" in err and "Traceback" not in err
        assert not (tmp_path / "artifacts").exists()


def test_select_features_keeps_planted_pair(tmp_path):
    write_fixture(tmp_path, n=200, m=5, seed=9)
    cfg = write_config(tmp_path, forest={"n_trees": 12, "max_depth": 3})
    cli.main(["select-features", "--config", str(cfg)])
    selected = (tmp_path / "artifacts" / "selected.txt").read_text().split()
    assert {"f00", "f01"} <= set(selected)


# ---------------------------------------------------------------------------
# explain


def test_explain_local_accuracy_in_file(tmp_path):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, explain_rows=[0, 3, 7])
    assert cli.main(["explain", "--config", str(cfg)]) == 0
    lines = (tmp_path / "artifacts" / "attributions.tsv").read_text().strip().split("\n")
    assert lines[0] == "row\tfeature\tphi\tbase\toutput"
    assert len(lines) == 1 + 3 * 4
    by_row = {}
    for line in lines[1:]:
        rid, _, phi, base, output = line.split("\t")
        entry = by_row.setdefault(rid, [0.0, float(base), float(output)])
        entry[0] += float(phi)
    assert sorted(by_row) == ["0", "3", "7"]
    for total, base, output in by_row.values():
        assert abs(base + total - output) < 1e-9


def test_explain_ranking_descends(tmp_path):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path)
    cli.main(["explain", "--config", str(cfg)])
    lines = (tmp_path / "artifacts" / "shap_ranking.tsv").read_text().strip().split("\n")
    values = [float(line.split("\t")[1]) for line in lines[1:]]
    assert len(values) == 4
    assert values == sorted(values, reverse=True)


def test_explain_constant_target_all_zero(tmp_path):
    schema = binary_schema(3)
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 2, size=(30, 3))
    from treebench.dataset import CategoricalTable

    CategoricalTable(schema, rows, np.zeros(30, dtype=np.int64)).to_csv(
        tmp_path / "coded.csv"
    )
    (tmp_path / "schema.json").write_text(schema_to_json(schema))
    cfg = write_config(tmp_path, explain_rows=[0, 5])
    assert cli.main(["explain", "--config", str(cfg)]) == 0
    lines = (tmp_path / "artifacts" / "attributions.tsv").read_text().strip().split("\n")
    assert all(float(line.split("\t")[2]) == 0.0 for line in lines[1:])


def test_explain_row_out_of_range(tmp_path, capsys):
    write_fixture(tmp_path, n=50)
    cfg = write_config(tmp_path, explain_rows=[49, 50])
    assert cli.main(["explain", "--config", str(cfg)]) == 2
    assert "out of range" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ingest


def ingest_fixture(tmp_path):
    rows = [
        "ALIGN,PRE,SEX,SEV",
        "2,13,1,0",
        "2,13,2,3",
        "3,13,1,2",
        "1,13,2,4",
        "3,5,1,1",
        "2,13,9,2",
        "3,13,2,0",
        "2,13,1,4",
    ]
    (tmp_path / "raw.csv").write_text("\n".join(rows) + "\n")
    rules = RecodeRuleSet(
        features=(
            RecodeRule(
                name="sex",
                source=("SEX",),
                cases=(({"in": [1]}, 0), ({"in": [2]}, 1)),
                missing=frozenset({9}),
            ),
        ),
        target=RecodeRule(
            name="injury",
            source=("SEV",),
            cases=(({"in": [0]}, 0), ({"ge": 1}, 1)),
            missing=frozenset({9}),
        ),
    )
    (tmp_path / "rules.json").write_text(rules.to_json())
    return write_config(
        tmp_path,
        table=None,
        schema=None,
        raw="raw.csv",
        rules="rules.json",
        cohort={
            "alignment_field": "ALIGN",
            "curve_codes": [2, 3],
            "negotiating_field": "PRE",
            "negotiating_codes": [13],
        },
        expected_rows=5,
        out_dir="ingested",
    )


def test_ingest_applies_filter_and_rules(tmp_path, capsys):
    cfg = ingest_fixture(tmp_path)
    assert cli.main(["ingest", "--config", str(cfg)]) == 0
    captured = capsys.readouterr().out
    assert "cohort filter retained 6, discarded 2" in captured
    assert "expected 5 rows: matched" in captured
    out = tmp_path / "ingested"
    coded = (out / "coded.csv").read_text().strip().split("\n")
    assert coded[0] == "sex,target"
    assert len(coded) == 1 + 5
    audit = json.loads((out / "audit.json").read_text())
    assert audit["cohort"] == {"retained": 6, "discarded": 2}
    assert audit["recode"]["dropped_missing_by_rule"]["sex"] == 1
    assert audit["rows_out"] == 5
    assert audit["expected_rows"]["matched"] is True


def test_ingest_unmatched_expectation_still_succeeds(tmp_path, capsys):
    cfg = ingest_fixture(tmp_path)
    payload = json.loads(cfg.read_text())
    payload["expected_rows"] = 740
    cfg.write_text(json.dumps(payload))
    assert cli.main(["ingest", "--config", str(cfg)]) == 0
    assert "expected 740 rows: unmatched (got 5)" in capsys.readouterr().out
    audit = json.loads((tmp_path / "ingested" / "audit.json").read_text())
    assert audit["expected_rows"]["matched"] is False


def test_ingest_rerun_byte_identical(tmp_path):
    cfg = ingest_fixture(tmp_path)
    cli.main(["ingest", "--config", str(cfg)])
    first = hash_dir(tmp_path / "ingested")
    cli.main(["ingest", "--config", str(cfg)])
    assert hash_dir(tmp_path / "ingested") == first


def test_ingest_output_feeds_compare(tmp_path):
    cfg = ingest_fixture(tmp_path)
    cli.main(["ingest", "--config", str(cfg)])
    follow = write_config(
        tmp_path,
        table="ingested/coded.csv",
        schema="ingested/schema.json",
        roster=["c50"],
        folds=2,
    )
    follow = follow.rename(tmp_path / "compare.json")
    assert cli.main(["compare", "--config", str(follow)]) == 0


ABSENT = object()  # the key is left out of the cohort
NEGOTIATING_PAIR = "cohort needs negotiating_field and negotiating_codes together"


@pytest.mark.parametrize("key, value, needle", [
    pytest.param("curve_codes", 5,
                 "cohort 'curve_codes' is not a JSON list of integers: 5",
                 id="curve_codes-5-cohort.curve_codes must be a list of integers"),
    pytest.param("negotiating_codes", 3,
                 "cohort 'negotiating_codes' is not a JSON list of integers: 3",
                 id="negotiating_codes-3-cohort.negotiating_codes must be a list "
                    "of integers"),
    pytest.param("curve_codes", [2, "3"],
                 "cohort 'curve_codes' is not a JSON list of integers: [2, '3']",
                 id="curve_codes-value2-cohort.curve_codes must be a list of "
                    "integers"),
    pytest.param("alignment_field", 5,
                 "cohort 'alignment_field' is not a JSON string: 5",
                 id="alignment_field-5-cohort.alignment_field must be a column "
                    "name"),
    pytest.param("negotiating_field", ["PRE"],
                 "cohort 'negotiating_field' is not a JSON string: ['PRE']",
                 id="negotiating_field-value4-cohort.negotiating_field must be a "
                    "column name"),
    pytest.param("negotiating_field", ABSENT, NEGOTIATING_PAIR,
                 id="codes-without-field"),
    pytest.param("negotiating_codes", ABSENT, NEGOTIATING_PAIR,
                 id="field-without-codes"),
])
def test_bad_cohort_is_usage_error(tmp_path, capsys, key, value, needle):
    cfg = ingest_fixture(tmp_path)
    payload = json.loads(cfg.read_text())
    if value is ABSENT:
        del payload["cohort"][key]
    else:
        payload["cohort"][key] = value
    cfg.write_text(json.dumps(payload))
    assert cli.main(["ingest", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {needle}\n"
    assert not (tmp_path / "ingested").exists()


def test_ingest_cell_outside_int64_is_one_line_error(tmp_path, capsys):
    cfg = ingest_fixture(tmp_path)
    (tmp_path / "raw.csv").write_text("ALIGN,PRE,SEX,SEV\n2,13,1,0\n"
                                      "2,13,99999999999999999999,1\n")
    assert cli.main(["ingest", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {tmp_path / 'raw.csv'}: value '99999999999999999999' "
                   "at row 1, column 'SEX' is outside the 64-bit integer range\n")


@pytest.mark.parametrize("where", ["code", "default"])
def test_ingest_output_code_outside_int64_is_one_line_error(tmp_path, capsys, where):
    cfg = ingest_fixture(tmp_path)
    rules = json.loads((tmp_path / "rules.json").read_text())
    if where == "code":
        rules["features"][0]["cases"][1]["code"] = 2**70
        needle = "case 1 'code'"
    else:
        rules["features"][0]["default"] = 2**70
        needle = "'default'"
    (tmp_path / "rules.json").write_text(json.dumps(rules))
    assert cli.main(["ingest", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: rule 'sex': {needle} is not an integer in [0, 2**63): {2**70}\n")
    assert not (tmp_path / "ingested").exists()


def test_field_over_csv_limit_is_one_line_error(tmp_path, capsys):
    # csv refuses fields over 131072 characters: in a raw extract read by
    # ingest and in a coded table read by compare
    cfg = ingest_fixture(tmp_path)
    (tmp_path / "raw.csv").write_text("ALIGN,PRE,SEX,SEV\n2,13,1,0\n"
                                      "2,13," + "x" * 200000 + ",1\n\n")
    assert cli.main(["ingest", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'raw.csv'}: record at line 3: "
        "field larger than field limit (131072)\n")
    write_fixture(tmp_path, n=8, m=2)
    with open(tmp_path / "coded.csv", "a") as fh:
        fh.write("0,1," + "1" * 200000 + "\n")
    cfg = write_config(tmp_path, folds=2, roster=["logistic"])
    assert cli.main(["compare", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'coded.csv'}: record at line 10: "
        "field larger than field limit (131072)\n")


def run_recording_warnings(argv):
    """``main``'s status and the warnings it lets through."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = cli.main(argv)
    return status, [str(w.message) for w in caught]


def test_failed_ingest_prints_only_the_error(tmp_path, capsys):
    # the empty cohort warns, then recode fails on zero rows
    cfg = ingest_fixture(tmp_path)
    payload = json.loads(cfg.read_text())
    payload["cohort"]["curve_codes"] = [77]
    cfg.write_text(json.dumps(payload))
    status, caught = run_recording_warnings(["ingest", "--config", str(cfg)])
    assert status == 1
    assert capsys.readouterr().err == (
        "error: recode dropped every row; nothing to train on\n")
    assert caught == []


@pytest.mark.parametrize("params, status", [
    ({}, 0),
    ({"logistic": {"max_iterations": 0}}, 1),  # cannot converge: fails on fold 0
])
def test_warnings_reach_stderr_only_on_success(tmp_path, capsys, params, status):
    # two folds of 8 rows: the logistic fit warns on 4 rows and 4 parameters
    write_fixture(tmp_path, n=8, m=3)
    cfg = write_config(tmp_path, folds=2, roster=["logistic"], roster_params=params)
    got, caught = run_recording_warnings(["compare", "--config", str(cfg)])
    assert got == status
    unstable = "logistic fit with 4 rows and 4 parameters may be unstable"
    if status == 0:
        assert caught and set(caught) == {unstable}
        assert capsys.readouterr().err == ""
    else:
        assert caught == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: logistic: ")


def test_ingest_missing_rules_is_usage_error(tmp_path, capsys):
    cfg = ingest_fixture(tmp_path)
    (tmp_path / "rules.json").unlink()
    assert cli.main(["ingest", "--config", str(cfg)]) == 2
    assert "rules" in capsys.readouterr().err


_DELETE = object()


@pytest.mark.parametrize("command, filename, path, value, needle", [
    pytest.param("compare", "schema.json", (1, "name"), _DELETE,
                 "entry 1 has no 'name' key", id="compare-schema.json-1-name"),
    pytest.param("ingest", "rules.json", ("target",), _DELETE,
                 "no 'target' key", id="ingest-rules.json-None-target"),
    pytest.param("compare", "schema.json", (1,), "abc",
                 "schema entry 1 is not a JSON object",
                 id="compare-schema.json-1-not-object"),
    pytest.param("ingest", "rules.json", ("features", 0), 1,
                 "rule features[0] is not a JSON object",
                 id="ingest-rules.json-features0-not-object"),
    pytest.param("ingest", "rules.json", ("features", 0, "cases", 0, "when"),
                 {"in": 5}, "rule 'sex': 'in' is not a JSON list of integers: 5",
                 id="ingest-rules.json-case-in-not-list"),
    pytest.param("compare", "schema.json", (1, "codes"), 5,
                 "schema entry 1 'codes' is not a JSON list of integers",
                 id="compare-schema.json-1-codes-not-list"),
    pytest.param("compare", "schema.json", (1, "codes"), [0, 1, 2**70],
                 "schema entry 1 'codes' is not a JSON list of integers in "
                 "[0, 2**63): [0, 1, 1180591620717411303424]",
                 id="compare-schema.json-1-codes-outside-int64"),
    pytest.param("compare", "schema.json", (1, "missing"), 5,
                 "schema entry 1 'missing' is not a JSON list of integers",
                 id="compare-schema.json-1-missing-not-list"),
    pytest.param("compare", "schema.json", (1, "labels"), [1],
                 "schema entry 1 'labels' is not a JSON object",
                 id="compare-schema.json-1-labels-not-object"),
    pytest.param("compare", "schema.json", (1, "name"), 5,
                 "schema entry 1 'name' is not a JSON string",
                 id="compare-schema.json-1-name-not-string"),
    pytest.param("ingest", "rules.json", ("features", 0, "source"), 5,
                 "rule features[0] 'source' is not a JSON list",
                 id="ingest-rules.json-features0-source-not-list"),
    pytest.param("ingest", "rules.json", ("features", 0, "labels"), [1],
                 "rule features[0] 'labels' is not a JSON object",
                 id="ingest-rules.json-features0-labels-not-object"),
    pytest.param("ingest", "rules.json", ("features", 0, "name"), 5,
                 "rule features[0] 'name' is not a JSON string",
                 id="ingest-rules.json-features0-name-not-string"),
])
def test_missing_schema_or_rules_key_is_one_line_error(tmp_path, capsys, command,
                                                       filename, path, value,
                                                       needle):
    """A malformed schema or rules file: delete the key at ``path``, or set it
    to ``value``, and expect one error line naming the entry."""
    if command == "ingest":
        cfg = ingest_fixture(tmp_path)
    else:
        write_fixture(tmp_path)
        cfg = write_config(tmp_path)
    file = tmp_path / filename
    payload = json.loads(file.read_text())
    parent = payload
    for step in path[:-1]:
        parent = parent[step]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    file.write_text(json.dumps(payload))
    assert cli.main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert needle in err and "Traceback" not in err
