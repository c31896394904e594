"""Write BENCHMARK.json, and optionally reference.json, from the benchmark's
own definitions.

    python3 perfbench/manifest.py [--reference]

BENCHMARK.json at the repository root lists the command, the workloads and
the metrics of run.py.  Each workload's ``why`` ends with its input sizes
and the start of its input digest at the default seed, so a change to a
workload's inputs shows in BENCHMARK.json.

With ``--reference`` every workload first runs once at the default seed, and
its input digest and artifact digests are recorded in reference.json; run.py
requires them at that seed.  Record them again only when an artifact format
changes on purpose.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

RUN_SECONDS = 30

WHY = {
    "compare-paper": "README config, 8 families x 10 folds: tree growers, "
                     "criteria, baselines and CV do the work, no forest or Shapley",
    "explain-paper": "same table, 64-tree depth-4 forest, background 64: "
                     "Shapley global importance does most of the work",
    "select-planted": "acceptance-07 recipe: 110 forests and per-row forest "
                      "prediction dominate; Shapley with a tiny background",
    "ingest-200k": "raw extract, curve cohort, 12 recode rules: only dataset "
                   "and the ingest path work, at large row scale",
}


def _sizes(inputs: dict) -> str:
    if "columns" in inputs:
        return f"{inputs['rows']}x{inputs['columns']} raw"
    return f"{inputs['rows']}x{inputs['features']}"


def benchmark_json(reference: dict) -> dict:
    workload_list = []
    for name in workloads.COMMANDS:
        inputs = reference["workloads"][name]["inputs"]
        why = (f"{WHY[name]} [{_sizes(inputs)}, inputs sha256 "
               f"{inputs['input_sha256'][:12]} at seed {reference['seed']}]")
        if len(why) > 200:
            raise ValueError(f"why of {name} is {len(why)} characters long")
        workload_list.append({"name": name, "why": why})
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": workload_list,
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in run.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": "lower"}
            for name, unit in run.per_layer_units().items()
        ],
    }


def record_reference(root: Path) -> dict:
    entries = {}
    for name in workloads.COMMANDS:
        work = root / ".bench_work" / f"reference-{name}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            facts = workloads.write_inputs(name, run.DEFAULT_SEED, work / "in")
            bench = run.Bench(root, work, name, run.DEFAULT_SEED)
            sample = bench.cli_run(0, facts)
            if sample.problems:
                raise SystemExit(f"{name}: {'; '.join(sample.problems)}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        entries[name] = {
            "inputs": {k: v for k, v in facts.items() if k != "expected"},
            "artifacts": bench.digests,
        }
    return {"seed": run.DEFAULT_SEED, "workloads": entries}


def main(argv: list[str]) -> int:
    reference_file = HERE / "reference.json"
    if argv == ["--reference"]:
        reference = record_reference(HERE.parent)
        reference_file.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    elif argv:
        print(__doc__, file=sys.stderr)
        return 2
    reference = json.loads(reference_file.read_text())
    manifest = benchmark_json(reference)
    (HERE.parent / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
