"""Seeded inputs and artifact checks for the four benchmark workloads.

The inputs are drawn with numpy alone, never with treebench's own
generators, so a change to the program cannot change what it is fed.  The
same seed always writes byte-identical files.

    python3 perfbench/workloads.py SEED DIR

writes every workload's inputs to DIR/<workload>/ for running a command by
hand.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

ROSTER = ("c50", "chaid", "cart", "quest", "bayes-net", "logistic", "mlp",
          "decision-list")

# Workload -> treebench subcommand.  Why each workload exists is recorded in
# BENCHMARK.json (see manifest.py).
COMMANDS = {
    "compare-paper": "compare",
    "explain-paper": "explain",
    "select-planted": "select-features",
    "ingest-200k": "ingest",
}

# Code counts of the 12 features of the paper-scale crash table (2-6 each).
CRASH_CODES = (2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 4, 3)
CRASH_ROWS = 740
PLANTED_FEATURES = 10
RAW_ROWS = 200_000


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path: Path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _csv(header, rows: np.ndarray, newline: str = "\n") -> str:
    lines = [",".join(header)]
    lines.extend(",".join(map(str, r)) for r in rows.tolist())
    return newline.join(lines) + newline


def _schema_json(features) -> str:
    """The schema file format of ``treebench.dataset.schema_to_json`` for
    (name, codes, labels) triples; a code without a label shows its digits."""
    payload = [
        {
            "name": name,
            "codes": list(codes),
            "missing": [],
            "labels": {str(c): labels.get(c, str(c)) for c in codes},
        }
        for name, codes, labels in features
    ]
    return json.dumps(payload, indent=2, sort_keys=True)


def _sigmoid_draw(rng, score: np.ndarray) -> np.ndarray:
    return (rng.random(score.size) < 1.0 / (1.0 + np.exp(-score))).astype(np.int64)


def crash_table(seed: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """740 rows x 12 coded features with 2-6 codes each; about 55% positive.

    The target mixes main effects and one interaction so every model family
    has structure to find.
    """
    rng = np.random.default_rng([seed, 0])
    rows = np.column_stack([rng.integers(0, k, size=CRASH_ROWS) for k in CRASH_CODES])
    score = (-0.45 + 1.1 * (rows[:, 0] == 1) - 0.8 * (rows[:, 1] == 0)
             + 0.3 * rows[:, 3] - 0.7 * (rows[:, 4] >= 4)
             + 1.2 * ((rows[:, 2] == 1) & (rows[:, 5] == 0))
             - 0.5 * (rows[:, 8] == 2))
    names = [f"f{j:02d}" for j in range(len(CRASH_CODES))]
    return names, rows, _sigmoid_draw(rng, score)


def planted_table(seed: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The recipe of acceptance test 07: 740 rows x 10 binary features whose
    target depends on f00 and f01 only, partly through their interaction."""
    rng = np.random.default_rng([seed, 1])
    rows = rng.integers(0, 2, size=(CRASH_ROWS, PLANTED_FEATURES))
    f00, f01 = rows[:, 0], rows[:, 1]
    score = -0.15 + 2.0 * f00 + 2.0 * f01 - 2.5 * (f00 != f01)
    names = [f"f{j:02d}" for j in range(PLANTED_FEATURES)]
    return names, rows, _sigmoid_draw(rng, score)


# -- ingest-200k: a raw vehicle-style extract and its recode rules ----------

# (column, sampled values, their probabilities, missing codes); missing codes
# come last in each value list.  Probabilities are chosen so the cohort keeps
# about 30% of rows and strict recoding about 80% of those: roughly 48k of
# 200k rows survive.
RAW_COLUMNS = (
    ("CASENUM", None, None, ()),
    ("VEH_NO", (1, 2, 3), (0.6, 0.3, 0.1), ()),
    ("VALIGN", (1, 2, 3, 4, 8, 9), (0.58, 0.17, 0.17, 0.06, 0.01, 0.01), (8, 9)),
    ("P_CRASH1", (1, 6, 13, 14, 15, 98), (0.1, 0.1, 0.6, 0.15, 0.04, 0.01), (98,)),
    ("MAX_VSEV", (0, 1, 2, 3, 4, 9), (0.44, 0.2, 0.18, 0.1, 0.06, 0.02), (9,)),
    ("SPEEDREL", (0, 2, 3, 4, 5, 8, 9), (0.7, 0.08, 0.08, 0.06, 0.06, 0.01, 0.01), (8, 9)),
    ("VSURCOND", (1, 2, 3, 4, 10, 11, 98, 99), (0.6, 0.2, 0.05, 0.05, 0.04, 0.04, 0.01, 0.01), (98, 99)),
    ("LGT_COND", (1, 2, 3, 4, 5, 6, 7, 8, 9), (0.5, 0.2, 0.15, 0.05, 0.04, 0.03, 0.01, 0.01, 0.01), (8, 9)),
    ("WEATHER", (1, 2, 3, 4, 5, 10, 11, 12, 98, 99), (0.6, 0.15, 0.05, 0.05, 0.04, 0.04, 0.03, 0.02, 0.01, 0.01), (98, 99)),
    ("BODY_TYP", tuple(range(1, 98, 3)) + (98, 99), None, (98, 99)),
    ("MOD_YEAR", tuple(range(1990, 2023)) + (9998, 9999), None, (9998, 9999)),
    ("AGE", tuple(range(16, 98)) + (998, 999), None, (998, 999)),
    ("SEX", (1, 2, 8, 9), (0.52, 0.46, 0.01, 0.01), (8, 9)),
    ("REST_USE", (1, 2, 3, 7, 20, 96, 97, 98, 99), (0.5, 0.1, 0.1, 0.05, 0.1, 0.05, 0.08, 0.01, 0.01), (98, 99)),
    ("DRINKING", (0, 1, 8, 9), (0.86, 0.12, 0.01, 0.01), (8, 9)),
    ("TRAV_SP", tuple(range(5, 100, 5)) + (998, 999), None, (998, 999)),
    ("VSPD_LIM", (25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 98, 99), None, (98, 99)),
    ("VPROFILE", (1, 2, 3, 4, 8, 9), (0.5, 0.2, 0.15, 0.13, 0.01, 0.01), ()),
    ("HOUR", tuple(range(24)) + (99,), None, (99,)),
)

COHORT = {
    "alignment_field": "VALIGN",
    "curve_codes": [2, 3, 4],
    "negotiating_field": "P_CRASH1",
    "negotiating_codes": [13, 14],
}


def _rule(name, source, cases, missing, combine="first", labels=None) -> dict:
    return {
        "name": name,
        "source": list(source),
        "combine": combine,
        "cases": [{"when": when, "code": code} for when, code in cases],
        "missing": list(missing),
        "labels": {str(k): v for k, v in (labels or {}).items()},
    }


def _missing(column: str) -> tuple[int, ...]:
    return next(m for c, _, _, m in RAW_COLUMNS if c == column)


def ingest_rules() -> dict:
    """Twelve recode rules using in/lt/le/any predicates, missing codes and
    two max combinations.  Every rule is exhaustive over the values drawn."""
    any_ = {"any": True}
    m = _missing
    features = [
        _rule("curve_direction", ["VALIGN"],
              [({"in": [2]}, 0), ({"in": [3]}, 1), ({"in": [4]}, 2)], m("VALIGN"),
              labels={0: "right", 1: "left", 2: "unknown"}),
        _rule("surface", ["VSURCOND"], [({"in": [1]}, 0), ({"in": [2]}, 1), (any_, 2)],
              m("VSURCOND"), labels={0: "dry", 1: "wet", 2: "other"}),
        _rule("light", ["LGT_COND"], [({"in": [1]}, 0), ({"in": [2, 3]}, 1), (any_, 2)],
              m("LGT_COND")),
        _rule("weather", ["WEATHER"], [({"in": [1]}, 0), ({"le": 5}, 1), (any_, 2)],
              m("WEATHER")),
        _rule("body", ["BODY_TYP"], [({"lt": 10}, 0), ({"lt": 40}, 1), ({"le": 79}, 2),
                                     (any_, 3)], m("BODY_TYP")),
        _rule("vehicle_age", ["MOD_YEAR"], [({"lt": 2005}, 2), ({"lt": 2015}, 1),
                                            (any_, 0)], m("MOD_YEAR")),
        _rule("age_band", ["AGE"], [({"lt": 25}, 0), ({"lt": 45}, 1), ({"lt": 65}, 2),
                                    (any_, 3)], m("AGE")),
        _rule("sex", ["SEX"], [({"in": [1]}, 0), ({"in": [2]}, 1)], m("SEX")),
        _rule("restraint", ["REST_USE"], [({"in": [20, 96]}, 0), (any_, 1)],
              m("REST_USE")),
        _rule("impairment", ["DRINKING", "SPEEDREL"],
              [({"in": [0]}, 0), ({"le": 1}, 1), (any_, 2)],
              sorted(set(m("DRINKING")) | set(m("SPEEDREL"))), combine="max"),
        _rule("speed_band", ["TRAV_SP", "VSPD_LIM"],
              [({"le": 35}, 0), ({"le": 55}, 1), (any_, 2)],
              sorted(set(m("TRAV_SP")) | set(m("VSPD_LIM"))), combine="max"),
    ]
    target = _rule("injury", ["MAX_VSEV"], [({"in": [0]}, 0), (any_, 1)], m("MAX_VSEV"))
    return {"features": features, "target": target}


def raw_extract(seed: int) -> tuple[list[str], np.ndarray]:
    rng = np.random.default_rng([seed, 2])
    columns = []
    for name, values, probs, missing in RAW_COLUMNS:
        if values is None:
            columns.append(np.arange(1, RAW_ROWS + 1))
            continue
        if probs is None:
            # Uniform over reported values; 1% of rows carry a missing code.
            reported = len(values) - len(missing)
            probs = [0.99 / reported] * reported + [0.01 / len(missing)] * len(missing)
        columns.append(rng.choice(np.array(values), size=RAW_ROWS, p=probs))
    return [c[0] for c in RAW_COLUMNS], np.column_stack(columns)


def _case_codes(values: np.ndarray, cases) -> np.ndarray:
    """First matching case wins, as in treebench's recode; -1 where none does."""
    tests = {
        "in": lambda v, a: np.isin(v, a),
        "lt": lambda v, a: v < a,
        "le": lambda v, a: v <= a,
        "any": lambda v, a: np.ones(v.shape, bool),
    }
    out = np.full(values.shape, -1, dtype=np.int64)
    for case in reversed(cases):
        (key, arg), = case["when"].items()
        out[tests[key](values, arg)] = case["code"]
    return out


def expected_ingest(names: list[str], raw: np.ndarray, rules: dict) -> dict[str, str]:
    """The three ingest artifacts, computed independently with numpy.

    Mirrors the documented semantics: cohort filter first, then every rule in
    order; in strict mode the first rule whose source is missing drops the
    row and is charged for it.
    """
    col = {name: raw[:, j] for j, name in enumerate(names)}
    keep = (np.isin(col[COHORT["alignment_field"]], COHORT["curve_codes"])
            & np.isin(col[COHORT["negotiating_field"]], COHORT["negotiating_codes"]))
    retained = int(keep.sum())
    kept = {name: v[keep] for name, v in col.items()}

    alive = np.ones(retained, dtype=bool)
    dropped, coded = {}, []
    for rule in rules["features"] + [rules["target"]]:
        sources = [kept[s] for s in rule["source"]]
        missing = np.zeros(retained, dtype=bool)
        for s in sources:
            missing |= np.isin(s, rule["missing"])
        dropped[rule["name"]] = int((alive & missing).sum())
        alive &= ~missing
        value = sources[0] if rule["combine"] == "first" else np.max(sources, axis=0)
        codes = _case_codes(value, rule["cases"])
        if (codes[alive] < 0).any():
            raise ValueError(f"rule {rule['name']} is not exhaustive over the drawn values")
        coded.append(codes)
    table = np.column_stack(coded)[alive]

    feature_rules = rules["features"]
    schema = [(rule["name"], sorted({c["code"] for c in rule["cases"]}),
               {int(k): v for k, v in rule["labels"].items()})
              for rule in feature_rules]
    rows_out = int(alive.sum())
    audit = {
        "cohort": {"retained": retained, "discarded": RAW_ROWS - retained},
        "recode": {
            "input_rows": retained,
            "retained_rows": rows_out,
            "dropped_rows": retained - rows_out,
            "dropped_missing_by_rule": dict(sorted(dropped.items())),
            "dropped_default_by_rule": {name: 0 for name in sorted(dropped)},
        },
        "rows_out": rows_out,
        "expected_rows": None,
    }
    header = [r["name"] for r in feature_rules] + ["target"]
    return {
        "audit.json": json.dumps(audit, indent=2, sort_keys=True) + "\n",
        "coded.csv": _csv(header, table, newline="\r\n"),
        "schema.json": _schema_json(schema) + "\n",
    }


# -- writing one workload's inputs ------------------------------------------

def readme_config(seed: int) -> dict:
    return {
        "seed": seed,
        "table": "table.csv",
        "schema": "schema.json",
        "folds": 10,
        "roster": list(ROSTER),
        "roster_params": {"mlp": {"epochs": 100}},
        "forest": {"n_trees": 64, "max_depth": 4},
        "background": 64,
        "explain_rows": [0, 1, 2],
        "out_dir": "out",
    }


def _digest(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()


def build_inputs(workload: str, seed: int) -> tuple[dict[str, str], dict]:
    """(file name -> text, facts) for one workload and seed.

    ``facts`` holds the input sizes, the input digest and, for ingest, the
    expected artifacts.
    """
    if workload in ("compare-paper", "explain-paper", "select-planted"):
        if workload == "select-planted":
            names, rows, target = planted_table(seed)
            codes = [(0, 1)] * len(names)
            config = {"seed": seed, "table": "table.csv", "schema": "schema.json",
                      "folds": 10, "background": 8, "out_dir": "out",
                      "forest": {"n_trees": 8, "max_depth": 4, "sample_size": 200}}
        else:
            names, rows, target = crash_table(seed)
            codes = [range(k) for k in CRASH_CODES]
            config = readme_config(seed)
        files = {
            "schema.json": _schema_json([(n, c, {}) for n, c in zip(names, codes)]),
            "table.csv": _csv(names + ["target"], np.column_stack([rows, target])),
            "config.json": json.dumps(config, indent=2),
        }
        facts = {"rows": CRASH_ROWS, "features": len(names),
                 "positive_rate": float(target.mean())}
    elif workload == "ingest-200k":
        names, raw = raw_extract(seed)
        rules = ingest_rules()
        config = {"seed": seed, "raw": "raw.csv", "rules": "rules.json",
                  "cohort": COHORT, "out_dir": "out"}
        files = {
            "raw.csv": _csv(names, raw),
            "rules.json": json.dumps(rules, indent=2),
            "config.json": json.dumps(config, indent=2),
        }
        expected = expected_ingest(names, raw, rules)
        facts = {"rows": RAW_ROWS, "columns": len(names),
                 "rules": len(rules["features"]) + 1,
                 "rows_out": json.loads(expected["audit.json"])["rows_out"],
                 "expected": {k: sha256(v.encode()) for k, v in expected.items()}}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    facts["input_sha256"] = _digest(files)
    return files, facts


def write_inputs(workload: str, seed: int, directory: Path) -> dict:
    files, facts = build_inputs(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        _write(directory / name, text)
    return facts


def artifact_digests(out_dir: Path) -> dict[str, str]:
    return {p.name: sha256(p.read_bytes())
            for p in sorted(out_dir.iterdir()) if p.is_file()}


EXPECTED_ARTIFACTS = {
    "compare-paper": {"best_tree.dot", "importance.tsv", "leaderboard.tsv", "report.txt"},
    "explain-paper": {"attributions.tsv", "shap_ranking.tsv"},
    "select-planted": {"elimination.json", "selected.txt"},
    "ingest-200k": {"audit.json", "coded.csv", "schema.json"},
}


def check_artifacts(workload: str, out_dir: Path, facts: dict) -> list[str]:
    """Problems with one run's artifacts beyond digest agreement; empty if
    none.  Ingest is compared with the independent expectation; the model
    workloads get structural checks."""
    digests = artifact_digests(out_dir)
    missing = sorted(EXPECTED_ARTIFACTS[workload] - set(digests))
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    problems = []
    if workload == "ingest-200k":
        for name, want in facts["expected"].items():
            if digests[name] != want:
                problems.append(f"{name} differs from the independent recode")
    elif workload == "compare-paper":
        lines = (out_dir / "leaderboard.tsv").read_text().splitlines()
        families = sorted(line.split("\t")[1] for line in lines[1:])
        if families != sorted(ROSTER):
            problems.append(f"leaderboard lists {families}")
    elif workload == "explain-paper":
        lines = (out_dir / "shap_ranking.tsv").read_text().splitlines()
        if len(lines) != 1 + facts["features"]:
            problems.append(f"shap_ranking.tsv has {len(lines) - 1} features")
    elif workload == "select-planted":
        kept = set((out_dir / "selected.txt").read_text().split())
        if not {"f00", "f01"} <= kept:
            problems.append(f"planted f00/f01 not both selected: {sorted(kept)}")
    return problems


if __name__ == "__main__":
    import sys

    seed, directory = int(sys.argv[1]), Path(sys.argv[2])
    for name in COMMANDS:
        write_inputs(name, seed, directory / name)
