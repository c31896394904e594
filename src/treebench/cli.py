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
import functools
import json
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .baselines import (
    OPTIONS,
    train_bayes_net,
    train_decision_list,
    train_logistic,
    train_mlp,
    train_mlps,
)
from .dataset import (
    BOOLEAN,
    CHARACTER,
    CODES,
    INTEGER,
    OBJECT,
    STRING,
    CategoricalTable,
    RecodeRuleSet,
    Rule,
    check,
    check_knobs,
    filter_curve_cohort,
    integer,
    list_of,
    load_delimited,
    optional,
    read_json,
    recode,
    schema_from_json,
    schema_to_json,
)
from .evaluation import RosterEntry, compare_models, make_folds
from .forest import FOREST_RULES, ForestError, ForestParams, train_forest
from .seeding import derive_seed
from .shapley import (
    CvSpec,
    attribution_table,
    backward_eliminate,
    explain_table,
    make_background,
)
from .tree import (
    GROWER_KNOBS,
    TreeError,
    TreeParams,
    export_dot,
    predictor_importance,
    prune_c50,
    train_c50,
    train_cart,
    train_chaid,
    train_quest,
)


# Each model family's (table, params) trainer, the rule of each knob it
# takes and its fold-batch trainer, (table, fold complements, params) ->
# a model or exception per complement, or None.  The order is the default
# roster's, tree growers first.  A tree family takes the TreeParams fields
# its grower reads.  The lambdas look their trainer up when called, so a
# wrapper set on this module's ``train_*`` attribute is the one that runs.
_FAMILIES = {
    "c50": (lambda t, p: prune_c50(train_c50(t, p)), GROWER_KNOBS["c50"], None),
    "chaid": (lambda t, p: train_chaid(t, p), GROWER_KNOBS["chaid"], None),
    "cart": (lambda t, p: train_cart(t, p), GROWER_KNOBS["cart"], None),
    "quest": (lambda t, p: train_quest(t, p), GROWER_KNOBS["quest"], None),
    "bayes-net": (lambda t, p: train_bayes_net(t, **p), OPTIONS["bayes-net"], None),
    "logistic": (lambda t, p: train_logistic(t, **p), OPTIONS["logistic"], None),
    "mlp": (lambda t, p: train_mlp(t, **p), OPTIONS["mlp"],
            lambda t, subsets, p: train_mlps(t, subsets, **p)),
    "decision-list": (lambda t, p: train_decision_list(t, **p),
                      OPTIONS["decision-list"], None),
}

DEFAULT_ROSTER = tuple(_FAMILIES)
TREE_FAMILIES = DEFAULT_ROSTER[:4]


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


_PATHS = ("table", "schema", "raw", "rules")
_PATH = Rule("a path string", lambda v: isinstance(v, str) and v != "")
_SEED = Rule("an unsigned 64-bit integer",
             lambda v: INTEGER.test(v) and 0 <= v < 2**64)

# The rule of each config key
_CONFIG_KEYS = {
    "seed": _SEED,
    "out_dir": _PATH,
    **{key: optional(_PATH) for key in _PATHS},
    "strict": BOOLEAN,
    "expected_rows": optional(integer(1)),
    "cohort": optional(OBJECT),
    "delimiter": CHARACTER,
    "folds": integer(2),
    "roster": Rule(
        "a non-empty list, without duplicates, of " + ", ".join(_FAMILIES),
        lambda v: isinstance(v, list)
        and all(isinstance(name, str) and name in _FAMILIES for name in v)
        and 0 < len(v) == len(set(v))),
    "roster_params": OBJECT,
    "forest": OBJECT,
    "background": integer(1),
    "explain_rows": list_of(integer(0), "a non-empty list of integers >= 0",
                            shortest=1),
}
_COHORT_KEYS = {"alignment_field": STRING, "curve_codes": CODES,
                "negotiating_field": STRING, "negotiating_codes": CODES}
# the forest knobs a config sets: the seed comes from the master seed
_FOREST_KNOBS = {k: rule for k, rule in FOREST_RULES.items() if k != "seed"}


def load_config(path, out_dir=None, seed=None) -> PipelineConfig:
    """Parse and validate a JSON config file.

    ``out_dir`` and ``seed`` (the command-line overrides) take precedence
    over the file.  Paths in the file are resolved relative to its parent
    directory, so a config travels with its inputs.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    payload = read_json(p.read_text(), OBJECT, str(p), ConfigError)
    check_knobs(payload, _CONFIG_KEYS, "config", ConfigError)

    if seed is None:
        if "seed" not in payload:
            raise ConfigError("config must set a seed; clock seeding is not supported")
        seed = payload["seed"]
    check(seed, _SEED, "seed", ConfigError)

    check_knobs(payload.get("roster_params", {}),
                {name: OBJECT for name in _FAMILIES}, "roster_params", ConfigError)
    for name, params in payload.get("roster_params", {}).items():
        roster_entry(name, params, seed)  # raises on a bad parameter

    forest = payload.get("forest", {})
    if "seed" in forest:
        raise ConfigError("forest.seed is derived from the master seed; remove it")
    check_knobs(forest, _FOREST_KNOBS, "forest", ConfigError)
    _forest_params(forest, seed)  # raises on knobs that clash

    cohort = payload.get("cohort")
    if cohort is not None:
        check_knobs(cohort, _COHORT_KEYS, "cohort", ConfigError)
        if "alignment_field" not in cohort or "curve_codes" not in cohort:
            raise ConfigError("cohort needs alignment_field and curve_codes")
        if ("negotiating_field" in cohort) != ("negotiating_codes" in cohort):
            raise ConfigError(
                "cohort needs negotiating_field and negotiating_codes together")

    base = p.parent
    values = dict(payload, seed=seed,
                  out_dir=Path(out_dir) if out_dir is not None
                  else base / payload.get("out_dir", "out"))
    for key in _PATHS:
        if values.get(key) is not None:
            values[key] = base / values[key]
    for key in ("roster", "explain_rows"):
        if key in values:
            values[key] = tuple(values[key])
    return PipelineConfig(**values)


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


def roster_entry(name: str, params: dict, master_seed: int) -> RosterEntry:
    """One family's roster entry, its trainers built from its config
    parameters.

    Every family checks its knobs against ``_FAMILIES``.  Tree families
    share TreeParams; the entropy tree is post-pruned as part of training.
    The network trainer gets its seed from the master-seed fan-out unless
    the config pins one explicitly.
    """
    trainer, knobs, fold_trainer = _FAMILIES[name]
    check_knobs(params, knobs, name, ConfigError)
    if name == "mlp":
        params = {"seed": derive_seed(master_seed, "mlp"), **params}
    if name in TREE_FAMILIES:
        try:
            params = TreeParams(**params)
        except TreeError as e:
            raise ConfigError(f"bad parameters for {name}: {e}") from None
    return RosterEntry(name, functools.partial(trainer, p=params), fold_trainer=(
        fold_trainer and functools.partial(fold_trainer, p=params)))


def build_roster(config: PipelineConfig) -> list[RosterEntry]:
    return [roster_entry(name, config.roster_params.get(name, {}), config.seed)
            for name in config.roster]


def _forest_params(forest: dict, seed: int,
                   table: CategoricalTable | None = None) -> ForestParams:
    """A config's forest block, seeded from the master seed, and checked
    against ``table``'s feature count when given."""
    try:
        params = ForestParams(seed=derive_seed(seed, "forest"), **forest)
        if table is not None:
            params.resolve_features_per_split(table.n_features)
    except ForestError as e:
        raise ConfigError(f"bad parameters for forest: {e}") from None
    return params


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
        raw, retained, discarded = filter_curve_cohort(raw, **config.cohort)
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
    params = _forest_params(config.forest, config.seed, table)
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
        # before the fold pool forks: pruning loads scipy.special._ufuncs,
        # which the workers then inherit instead of importing it each
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
    forest = train_forest(table, _forest_params(config.forest, config.seed, table))
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
    except MemoryError as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
