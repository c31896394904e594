"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import manifest  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.COMMANDS))
def test_generator_is_deterministic(workload):
    first, facts = workloads.build_inputs(workload, 5)
    again, _ = workloads.build_inputs(workload, 5)
    other, other_facts = workloads.build_inputs(workload, 6)
    assert first == again
    assert facts["input_sha256"] != other_facts["input_sha256"]
    assert first["config.json"] != other["config.json"]


@pytest.mark.parametrize("workload", sorted(workloads.COMMANDS))
def test_default_seed_inputs_match_reference(workload):
    _, facts = workloads.build_inputs(workload, run.DEFAULT_SEED)
    recorded = REFERENCE["workloads"][workload]["inputs"]
    assert facts["input_sha256"] == recorded["input_sha256"]


def test_independent_recode_counts_drops_in_rule_order():
    rules = {
        "features": [workloads._rule("a", ["A"], [({"any": True}, 0)], [9])],
        "target": workloads._rule("t", ["T"], [({"in": [0]}, 0), ({"le": 5}, 1)], [9]),
    }
    names = ["VALIGN", "P_CRASH1", "A", "T"]
    raw = np.array([[2, 13, 9, 9], [3, 14, 1, 9], [4, 13, 1, 0], [1, 13, 1, 1]])
    expected = workloads.expected_ingest(names, raw, rules)
    audit = json.loads(expected["audit.json"])
    assert audit["cohort"] == {"retained": 3, "discarded": workloads.RAW_ROWS - 3}
    assert audit["recode"]["dropped_missing_by_rule"] == {"a": 1, "t": 1}
    assert expected["coded.csv"] == "a,target\r\n0,0\r\n"


def test_wrappers_cover_every_lookup_and_restore_originals():
    import treebench
    import treebench.cli
    import treebench.tree

    original = treebench.tree.train_c50
    before = {name: dict(vars(m)) for name, m in sys.modules.items()
              if name.startswith("treebench")}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.skipped == []
        assert treebench.cli.train_c50 is treebench.tree.train_c50
        assert treebench.cli.train_c50 is not original
        assert treebench.train_c50.__perfbench_span__ == "tree.train.c50"
        wrapped = {span for _, _, span in spans.TARGETS}
        seen = {getattr(holder, key).__perfbench_span__
                for holder, key, _ in tracer.patched()}
        assert seen == wrapped
    finally:
        tracer.uninstall()
    assert treebench.cli.train_c50 is original
    assert tracer.patched() == []
    for name, attrs in before.items():
        after = vars(sys.modules[name])
        for key, value in attrs.items():
            assert after[key] is value, f"{name}.{key} not restored"
    for module, attr, _ in spans.TARGETS:
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            cls = getattr(sys.modules[module], owner_name)
            assert not hasattr(vars(cls)[method], "__perfbench_span__")


def test_self_times_add_up_to_the_outermost_spans():
    import treebench.cli
    from treebench import TreeParams, binary_schema, generate_synthetic
    from treebench import planted_relevance_rules

    table = generate_synthetic(binary_schema(4), 200, 3, planted_relevance_rules())
    tracer = spans.Tracer()
    tracer.install()
    try:
        tree = treebench.cli.train_c50(table, TreeParams())
        treebench.cli.prune_c50(tree)
    finally:
        tracer.uninstall()
    metrics = tracer.summary()
    outer = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    layers = sum(metrics[name] for name in spans.SELF.values())
    assert layers == pytest.approx(outer, rel=1e-9)
    assert metrics["criteria.info_gain_calls"] > 0
    assert metrics["tree.nodes"] > 1
    assert metrics["tree.train_s.c50"] + metrics["tree.prune_s"] == pytest.approx(outer)


def test_manifest_matches_benchmark_json():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == manifest.benchmark_json(REFERENCE)
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "select-planted",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in committed[kind]}
    env = json.loads(next(line for line in out if line.startswith("env: "))[5:])
    assert {"python", "numpy", "scipy", "nproc", "blas_threads"} <= set(env)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest-200k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
