"""Command-line front end.

Four subcommands cover the pipeline: ``ingest`` turns raw delimited records
into a coded table, ``select-features`` runs the forest-and-attribution
backward elimination, ``compare`` cross-validates the model roster and writes
the report set, and ``explain`` emits per-row attributions for a trained
forest.  Every command is a pure function of (config file, input files,
seed): rerunning writes byte-identical artifacts.

The config file is JSON.  One mandatory master seed fans out to each
stochastic component through a name-keyed hash, so a partial rerun of any
single command sees the same randomness it saw inside a full run.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

from .baselines import (
    BaselineError,
    check_options,
    train_bayes_net,
    train_decision_list,
    train_logistic,
    train_mlp,
)
from .dataset import (
    CategoricalTable,
    RecodeRuleSet,
    filter_curve_cohort,
    load_delimited,
    recode,
    schema_from_json,
    schema_to_json,
)
from .evaluation import RosterEntry, compare_models, make_folds
from .forest import ForestParams, train_forest
from .seeding import derive_seed
from .shapley import (
    CvSpec,
    attribution_table,
    backward_eliminate,
    explain_table,
    make_background,
)
from .tree import (
    TreeParams,
    export_dot,
    predictor_importance,
    prune_c50,
    train_c50,
    train_cart,
    train_chaid,
    train_quest,
)

DEFAULT_ROSTER = (
    "c50",
    "chaid",
    "cart",
    "quest",
    "bayes-net",
    "logistic",
    "mlp",
    "decision-list",
)

TREE_FAMILIES = ("c50", "chaid", "cart", "quest")

_COHORT_KEYS = frozenset(
    {"alignment_field", "curve_codes", "negotiating_field", "negotiating_codes"}
)


class ConfigError(ValueError):
    """Unusable configuration: exits with the usage-error status."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a command needs, resolved relative to the config file."""

    seed: int
    out_dir: Path
    table: Path | None = None
    schema: Path | None = None
    raw: Path | None = None
    rules: Path | None = None
    strict: bool = True
    expected_rows: int | None = None
    cohort: dict | None = None
    delimiter: str = ","
    folds: int = 10
    roster: tuple[str, ...] = DEFAULT_ROSTER
    roster_params: dict = field(default_factory=dict)
    forest: dict = field(default_factory=dict)
    background: int = 64
    explain_rows: tuple[int, ...] = (0,)


_CONFIG_KEYS = frozenset(f.name for f in fields(PipelineConfig))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(value, name: str, minimum: int = 1) -> int:
    if not _is_int(value) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}")
    return value


def _int_list(value, name: str) -> list:
    if not isinstance(value, list) or not all(_is_int(v) for v in value):
        raise ConfigError(f"{name} must be a list of integers")
    return value


def load_config(path, out_dir=None, seed=None) -> PipelineConfig:
    """Parse and validate a JSON config file.

    ``out_dir`` and ``seed`` (the command-line overrides) take precedence
    over the file.  Paths in the file are resolved relative to its parent
    directory, so a config travels with its inputs.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        payload = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: bad JSON: {e}") from e
    if not isinstance(payload, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    unknown = sorted(set(payload) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    if seed is None:
        if "seed" not in payload:
            raise ConfigError("config must set a seed; clock seeding is not supported")
        seed = payload["seed"]
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ConfigError("seed must be an unsigned 64-bit integer")

    base = p.parent

    def path_or_none(key: str) -> Path | None:
        value = payload.get(key)
        if value is None:
            return None
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{key} must be a path string")
        return base / value

    folds = _positive_int(payload.get("folds", 10), "folds", minimum=2)
    background = _positive_int(payload.get("background", 64), "background")

    roster = payload.get("roster", list(DEFAULT_ROSTER))
    if not isinstance(roster, list) or not roster:
        raise ConfigError("roster must be a non-empty list of family names")
    for name in roster:
        if name not in DEFAULT_ROSTER:
            raise ConfigError(
                f"unknown model family {name!r}; choose from "
                f"{', '.join(DEFAULT_ROSTER)}"
            )
    if len(set(roster)) != len(roster):
        raise ConfigError("roster contains duplicate family names")

    roster_params = payload.get("roster_params", {})
    if not isinstance(roster_params, dict):
        raise ConfigError("roster_params must map family name to a parameter object")
    for name, params in roster_params.items():
        if name not in DEFAULT_ROSTER:
            raise ConfigError(f"roster_params names unknown family {name!r}")
        if not isinstance(params, dict):
            raise ConfigError(f"roster_params[{name!r}] must be an object")
        family_trainer(name, params, seed)  # raises on a bad parameter

    forest = payload.get("forest", {})
    if not isinstance(forest, dict):
        raise ConfigError("forest must be a parameter object")
    if "seed" in forest:
        raise ConfigError("forest.seed is derived from the master seed; remove it")

    cohort = payload.get("cohort")
    if cohort is not None:
        if not isinstance(cohort, dict):
            raise ConfigError("cohort must be an object")
        bad = sorted(set(cohort) - _COHORT_KEYS)
        if bad:
            raise ConfigError(f"unknown cohort keys: {', '.join(bad)}")
        if "alignment_field" not in cohort or "curve_codes" not in cohort:
            raise ConfigError("cohort needs alignment_field and curve_codes")
        for key in ("alignment_field", "negotiating_field"):
            if key in cohort and not isinstance(cohort[key], str):
                raise ConfigError(f"cohort.{key} must be a column name")
        for key in ("curve_codes", "negotiating_codes"):
            if key in cohort:
                _int_list(cohort[key], f"cohort.{key}")

    expected = payload.get("expected_rows")
    if expected is not None:
        expected = _positive_int(expected, "expected_rows")

    rows = payload.get("explain_rows", [0])
    if not isinstance(rows, list) or not rows:
        raise ConfigError("explain_rows must be a non-empty list of row indices")
    for r in rows:
        if not _is_int(r) or r < 0:
            raise ConfigError("explain_rows entries must be non-negative integers")

    strict = payload.get("strict", True)
    if not isinstance(strict, bool):
        raise ConfigError("strict must be true or false")
    delimiter = payload.get("delimiter", ",")
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ConfigError("delimiter must be a single character")

    if out_dir is not None:
        out = Path(out_dir)
    else:
        configured = payload.get("out_dir", "out")
        if not isinstance(configured, str) or not configured:
            raise ConfigError("out_dir must be a path string")
        out = base / configured

    return PipelineConfig(
        seed=seed,
        out_dir=out,
        table=path_or_none("table"),
        schema=path_or_none("schema"),
        raw=path_or_none("raw"),
        rules=path_or_none("rules"),
        strict=strict,
        expected_rows=expected,
        cohort=cohort,
        delimiter=delimiter,
        folds=folds,
        roster=tuple(roster),
        roster_params={k: dict(v) for k, v in roster_params.items()},
        forest=dict(forest),
        background=background,
        explain_rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _require_file(path: Path | None, key: str) -> Path:
    if path is None:
        raise ConfigError(f"config does not set {key!r}")
    if not path.is_file():
        raise ConfigError(f"{key} file not found: {path}")
    return path


def _load_table(config: PipelineConfig) -> CategoricalTable:
    schema_path = _require_file(config.schema, "schema")
    table_path = _require_file(config.table, "table")
    schema = schema_from_json(schema_path.read_text())
    return CategoricalTable.from_csv(table_path, schema)


def _check_folds(config: PipelineConfig, table: CategoricalTable,
                 min_train: int = 1) -> None:
    """Fold count within the table, and the smallest training set (the rows
    outside the largest held-out fold) at least ``min_train`` rows."""
    if config.folds > table.n_rows:
        raise ConfigError(
            f"folds {config.folds} exceeds the table's {table.n_rows} rows"
        )
    train = table.n_rows - -(-table.n_rows // config.folds)  # ceiling
    if train < min_train:
        raise ConfigError(
            f"with folds {config.folds}, a fold trains on {train} of the "
            f"table's {table.n_rows} rows; forest training needs at least "
            f"{min_train}"
        )


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _bind_check(fn, params: dict, family: str) -> None:
    try:
        inspect.signature(fn).bind_partial(**params)
    except TypeError as e:
        raise ConfigError(f"bad parameters for {family}: {e}") from None


def _tree_params(params: dict, family: str) -> TreeParams:
    _bind_check(TreeParams, params, family)
    try:
        return TreeParams(**params)
    except ValueError as e:
        raise ConfigError(f"bad parameters for {family}: {e}") from None


def _baseline_params(fn, params: dict, family: str) -> dict:
    _bind_check(fn, params, family)
    try:
        check_options(family, params)
    except BaselineError as e:
        raise ConfigError(f"bad parameters for {family}: {e}") from None
    return params


def family_trainer(name: str, params: dict, master_seed: int):
    """Build one family's trainer callable from its config parameters.

    Tree families share TreeParams; the entropy tree is post-pruned as part
    of training.  The network trainer gets its seed from the master-seed
    fan-out unless the config pins one explicitly.
    """
    if name == "c50":
        tp = _tree_params(params, name)
        return lambda t: prune_c50(train_c50(t, tp))
    if name == "chaid":
        tp = _tree_params(params, name)
        return lambda t: train_chaid(t, tp)
    if name == "cart":
        tp = _tree_params(params, name)
        return lambda t: train_cart(t, tp)
    if name == "quest":
        tp = _tree_params(params, name)
        return lambda t: train_quest(t, tp)
    if name == "logistic":
        kwargs = _baseline_params(train_logistic, params, name)
        return lambda t: train_logistic(t, **kwargs)
    if name == "mlp":
        kwargs = _baseline_params(
            train_mlp, {"seed": derive_seed(master_seed, "mlp"), **params}, name)
        return lambda t: train_mlp(t, **kwargs)
    if name == "bayes-net":
        kwargs = _baseline_params(train_bayes_net, params, name)
        return lambda t: train_bayes_net(t, **kwargs)
    if name == "decision-list":
        kwargs = _baseline_params(train_decision_list, params, name)
        return lambda t: train_decision_list(t, **kwargs)
    raise ConfigError(f"unknown model family: {name}")


def build_roster(config: PipelineConfig) -> list[RosterEntry]:
    entries = []
    for name in config.roster:
        params = config.roster_params.get(name, {})
        entries.append(
            RosterEntry(name, family_trainer(name, params, config.seed), dict(params))
        )
    return entries


def _forest_params(config: PipelineConfig, table: CategoricalTable) -> ForestParams:
    _bind_check(ForestParams, config.forest, "forest")
    try:
        params = ForestParams(
            seed=derive_seed(config.seed, "forest"), **config.forest
        )
        params.resolve_features_per_split(table.n_features)
        return params
    except ValueError as e:
        raise ConfigError(f"bad parameters for forest: {e}") from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_ingest(config: PipelineConfig) -> int:
    """Raw delimited records -> coded table + schema + drop audit."""
    raw_path = _require_file(config.raw, "raw")
    rules_path = _require_file(config.rules, "rules")
    rules = RecodeRuleSet.from_json(rules_path.read_text())

    columns: list[str] = []
    for rule in list(rules.features) + [rules.target]:
        for src in rule.source:
            if src not in columns:
                columns.append(src)
    cohort_audit = None
    if config.cohort is not None:
        for key in ("alignment_field", "negotiating_field"):
            name = config.cohort.get(key)
            if name is not None and name not in columns:
                columns.append(name)

    raw = load_delimited(raw_path, columns, delimiter=config.delimiter)
    print(f"loaded {raw.n_rows} rows from {raw_path.name}")

    if config.cohort is not None:
        raw, retained, discarded = filter_curve_cohort(
            raw,
            config.cohort["alignment_field"],
            config.cohort["curve_codes"],
            config.cohort.get("negotiating_field"),
            config.cohort.get("negotiating_codes", ()),
        )
        cohort_audit = {"retained": retained, "discarded": discarded}
        print(f"cohort filter retained {retained}, discarded {discarded}")

    table, audit = recode(raw, rules, strict=config.strict)
    print(f"recode retained {audit.retained_rows} of {audit.input_rows} rows")

    matched = None
    if config.expected_rows is not None:
        matched = table.n_rows == config.expected_rows
        status = "matched" if matched else f"unmatched (got {table.n_rows})"
        print(f"expected {config.expected_rows} rows: {status}")

    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "coded.csv")
    _write(out / "schema.json", schema_to_json(table.schema) + "\n")
    payload = {
        "cohort": cohort_audit,
        "recode": json.loads(audit.to_json()),
        "rows_out": table.n_rows,
        "expected_rows": (
            None
            if config.expected_rows is None
            else {"expected": config.expected_rows, "matched": matched}
        ),
    }
    _write(out / "audit.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote coded.csv, schema.json, audit.json to {out}")
    return 0


def cmd_select_features(config: PipelineConfig) -> int:
    """Backward elimination over the coded table; writes the trace."""
    table = _load_table(config)
    _check_folds(config, table, min_train=2)
    params = _forest_params(config, table)
    cv = CvSpec(
        k=config.folds, stratified=True, seed=derive_seed(config.seed, "folds")
    )
    trace = backward_eliminate(table, params, cv, background_size=config.background)
    out = config.out_dir
    _write(out / "elimination.json", trace.to_json() + "\n")
    _write(out / "selected.txt", "\n".join(trace.selected_features) + "\n")
    step = trace.steps[trace.selected_index]
    print(
        f"selected {len(trace.selected_features)} of {table.n_features} "
        f"features at {100.0 * step.accuracy:.3f}% cross-validated accuracy"
    )
    print(f"wrote elimination.json, selected.txt to {out}")
    return 0


def _leaderboard_tsv(report) -> str:
    lines = ["rank\tmodel\taccuracy_pct\tpooled_pct"]
    for rank, row in enumerate(report.leaderboard.rows, start=1):
        lines.append(
            f"{rank}\t{row.name}\t{row.accuracy_pct:.3f}\t"
            f"{row.pooled_accuracy_pct:.3f}"
        )
    return "\n".join(lines) + "\n"


def _importance_tsv(weights: dict) -> str:
    ordered = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    lines = ["feature\tweight"]
    for name, value in ordered:
        lines.append(f"{name}\t{value:.4f}")
    return "\n".join(lines) + "\n"


def cmd_compare(config: PipelineConfig) -> int:
    """Cross-validate the roster; write leaderboard, matrices, importance,
    and a DOT render of the best-ranked tree."""
    table = _load_table(config)
    _check_folds(config, table)
    roster = build_roster(config)
    trainers = {entry.name: entry.trainer for entry in roster}
    on_table = {}  # families already trained on the whole table
    if "c50" in trainers:
        # before the fold pool forks: pruning loads scipy.special, which the
        # workers then inherit instead of importing it each
        on_table["c50"] = trainers["c50"](table)
    plan = make_folds(
        table.n_rows,
        config.folds,
        stratified=True,
        labels=table.target,
        seed=derive_seed(config.seed, "folds"),
    )
    report = compare_models(table, roster, plan)

    out = config.out_dir
    _write(out / "leaderboard.tsv", _leaderboard_tsv(report))
    _write(out / "report.txt", report.render())
    written = ["leaderboard.tsv", "report.txt"]

    if "c50" in on_table:
        _write(out / "importance.tsv",
               _importance_tsv(predictor_importance(on_table["c50"])))
        written.append("importance.tsv")
    for row in report.leaderboard.rows:
        if row.name in TREE_FAMILIES:
            best_tree = on_table.get(row.name) or trainers[row.name](table)
            _write(out / "best_tree.dot", export_dot(best_tree, table.schema))
            written.append("best_tree.dot")
            print(f"best tree family: {row.name}")
            break

    top = report.leaderboard.rows[0]
    print(f"top model: {top.name} at {top.accuracy_pct:.3f}%")
    print(f"wrote {', '.join(written)} to {out}")
    return 0


def cmd_explain(config: PipelineConfig) -> int:
    """Train the forest and write attributions for the configured rows."""
    table = _load_table(config)
    for r in config.explain_rows:
        if r >= table.n_rows:
            raise ConfigError(
                f"explain_rows entry {r} out of range for {table.n_rows} rows"
            )
    forest = train_forest(table, _forest_params(config, table))
    background = make_background(
        table, config.background, derive_seed(config.seed, "background")
    )
    attributions, ranking = explain_table(forest, table, background,
                                          config.explain_rows)
    for rid, att in zip(config.explain_rows, attributions):
        gap = abs(att.base_value + sum(att.contributions) - att.model_output)
        if gap > 1e-9:
            raise ValueError(
                f"attribution for row {rid} violates local accuracy "
                f"(gap {gap:.3g}); refusing to write"
            )

    out = config.out_dir
    _write(
        out / "attributions.tsv",
        attribution_table(attributions, list(config.explain_rows)),
    )
    lines = ["feature\tmean_abs_phi"]
    for name, value in ranking:
        lines.append(f"{name}\t{value:.12g}")
    _write(out / "shap_ranking.tsv", "\n".join(lines) + "\n")
    print(f"explained {len(attributions)} rows with {len(ranking)} features")
    print(f"wrote attributions.tsv, shap_ranking.tsv to {out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "ingest": cmd_ingest,
    "select-features": cmd_select_features,
    "compare": cmd_compare,
    "explain": cmd_explain,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treebench",
        description="Decision-tree learning and model-comparison toolkit.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # warnings wait for the outcome: a failed command prints one error line
    with warnings.catch_warnings(record=True) as caught:
        status = _run(args)
    if status == 0:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno,
                                 w.file, w.line)
    return status


def _run(args) -> int:
    try:
        config = load_config(args.config, out_dir=args.out, seed=args.seed)
        return _COMMANDS[args.command](config)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
