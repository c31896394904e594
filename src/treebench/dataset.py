"""Coded categorical tables: ingestion, recoding, cohort filtering,
crosstabs, and a seeded synthetic generator.

The raw side of this module deals with delimiter-separated police-report
extracts whose cells are integer codes (including "not reported" style
missing codes).  ``recode`` turns a raw table into a ``CategoricalTable``
of small recoded values plus a binary target, dropping rows with missing
source values.  Tables are immutable after construction and safe to share
across threads.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np


class DatasetError(ValueError):
    """Raised for malformed input files, schemas, or rule sets."""


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureSpec:
    """One categorical column: its code domain, missing codes, and labels.

    ``allowed_codes`` is the set of valid recoded values.  ``missing_codes``
    are raw codes that mean "not reported" / "unknown"; they never overlap
    the allowed set.  ``code_labels`` maps every allowed code to a display
    label (filled with the code's digits when not given).
    """

    name: str
    allowed_codes: tuple[int, ...]
    missing_codes: frozenset[int] = frozenset()
    code_labels: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self):
        codes = tuple(sorted(set(int(c) for c in self.allowed_codes)))
        if not codes:
            raise DatasetError(f"feature {self.name!r}: allowed_codes is empty")
        if any(c < 0 for c in codes):
            raise DatasetError(f"feature {self.name!r}: codes must be non-negative")
        missing = frozenset(int(c) for c in self.missing_codes)
        if missing & set(codes):
            raise DatasetError(
                f"feature {self.name!r}: missing_codes overlap allowed_codes"
            )
        labels = {int(k): str(v) for k, v in self.code_labels.items()}
        for c in codes:
            labels.setdefault(c, str(c))
        object.__setattr__(self, "allowed_codes", codes)
        object.__setattr__(self, "missing_codes", missing)
        object.__setattr__(self, "code_labels", labels)

    def label(self, code: int) -> str:
        return self.code_labels.get(code, str(code))


def feature(name: str, codes: Iterable[int], labels: Mapping[int, str] | None = None,
            missing: Iterable[int] = ()) -> FeatureSpec:
    """Shorthand constructor for a FeatureSpec."""
    return FeatureSpec(name, tuple(codes), frozenset(missing), dict(labels or {}))


def schema_to_json(schema: Sequence[FeatureSpec]) -> str:
    payload = [
        {
            "name": f.name,
            "codes": list(f.allowed_codes),
            "missing": sorted(f.missing_codes),
            "labels": {str(k): v for k, v in sorted(f.code_labels.items())},
        }
        for f in schema
    ]
    return json.dumps(payload, indent=2, sort_keys=True)


def schema_from_json(text: str) -> tuple[FeatureSpec, ...]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise DatasetError(f"bad schema JSON: {e}") from e
    _require(payload, list, "schema")
    specs = []
    for i, item in enumerate(payload):
        entry = f"schema entry {i}"
        _require(item, dict, entry)
        specs.append(FeatureSpec(
            name=_field(item, "name", str, entry),
            allowed_codes=tuple(_field(item, "codes", "codes", entry)),
            missing_codes=frozenset(_field(item, "missing", "codes", entry, ())),
            code_labels=_labels(item, entry),
        ))
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise DatasetError("duplicate feature names in schema")
    return tuple(specs)


# the kinds of parsed JSON value _require accepts: (name, test)
_KINDS = {
    dict: ("a JSON object", lambda v: isinstance(v, dict)),
    list: ("a JSON list", lambda v: isinstance(v, list)),
    str: ("a JSON string", lambda v: isinstance(v, str)),
    int: ("an integer", lambda v: _is_code(v)),
    "codes": ("a JSON list of integers",
              lambda v: isinstance(v, list) and all(map(_is_code, v))),
    "names": ("a JSON list of strings",
              lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
}
_NO_DEFAULT = object()


def _require(item, kind, what: str) -> None:
    """Reject a parsed JSON value that is not of the kind the parser reads."""
    name, test = _KINDS[kind]
    if not test(item):
        raise DatasetError(f"{what} is not {name}: {item!r}")


def _field(item: dict, key: str, kind, what: str, default=_NO_DEFAULT):
    """``item[key]``, checked by ``_require``; an absent key takes ``default``
    and fails without one."""
    if key not in item:
        if default is _NO_DEFAULT:
            raise DatasetError(f"{what} has no {key!r} key")
        return default
    _require(item[key], kind, f"{what} {key!r}")
    return item[key]


def _labels(item: dict, what: str) -> dict[int, str]:
    """The optional ``labels`` object, its keys read as integer codes."""
    labels = _field(item, "labels", dict, what, {})
    try:
        return {int(k): v for k, v in labels.items()}
    except ValueError:
        raise DatasetError(f"{what} 'labels' keys are not all integer codes: "
                           f"{list(labels)!r}") from None


def schema_hash(schema: Sequence[FeatureSpec]) -> str:
    return hashlib.sha256(schema_to_json(schema).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

class RawTable:
    """Columns of raw integer codes, exactly as read from the source file."""

    def __init__(self, columns: Sequence[str], rows: np.ndarray):
        self.columns = tuple(columns)
        self.rows = np.asarray(rows, dtype=np.int64)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise DatasetError("row matrix does not match column list")
        self.rows.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise DatasetError(f"column not found: {name}") from None

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.column_index(name)]

    def take(self, row_indices: np.ndarray) -> "RawTable":
        return RawTable(self.columns, self.rows[row_indices])


class CategoricalTable:
    """Recoded feature matrix plus a binary target.

    Every cell is validated against its column's allowed codes at
    construction; the target holds 0 (no injury) / 1 (injury) style labels.
    """

    def __init__(self, schema: Sequence[FeatureSpec], rows: np.ndarray,
                 target: np.ndarray):
        self.schema = tuple(schema)
        self.rows = np.ascontiguousarray(rows, dtype=np.int64)
        self.target = np.ascontiguousarray(target, dtype=np.int64)
        # a contiguous int64 input comes back as itself; copy it, so freezing
        # the table does not reach the caller's array
        if self.rows is rows:
            self.rows = self.rows.copy()
        if self.target is target:
            self.target = self.target.copy()
        n, m = self.rows.shape if self.rows.ndim == 2 else (0, 0)
        if m != len(self.schema):
            raise DatasetError("row matrix width does not match schema")
        if self.target.shape != (n,):
            raise DatasetError("target length does not match row count")
        if n < 1:
            raise DatasetError("table must contain at least one row")
        if not np.isin(self.target, (0, 1)).all():
            raise DatasetError("target values must be 0 or 1")
        for j, spec in enumerate(self.schema):
            bad = ~np.isin(self.rows[:, j], spec.allowed_codes)
            if bad.any():
                i = int(np.argmax(bad))
                raise DatasetError(
                    f"row {i}, column {spec.name!r}: code "
                    f"{int(self.rows[i, j])} not in allowed codes"
                )
        self.rows.setflags(write=False)
        self.target.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return len(self.schema)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.schema)

    def feature_index(self, name: str) -> int:
        for j, f in enumerate(self.schema):
            if f.name == name:
                return j
        raise DatasetError(f"column not found: {name}")

    def column(self, name: str) -> np.ndarray:
        if name == "target":
            return self.target
        return self.rows[:, self.feature_index(name)]

    def observed_codes(self, j: int) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unique(self.rows[:, j]))

    def take_rows(self, row_indices) -> "CategoricalTable":
        """The selected rows as a new table.  They come from this validated,
        read-only table, so their cells are not checked again."""
        idx = np.asarray(row_indices)
        if idx.ndim != 1:
            raise DatasetError("row selection must be a 1-D index or mask")
        if idx.size == 0 or (idx.dtype == bool and not idx.any()):
            raise DatasetError("table must contain at least one row")
        table = object.__new__(CategoricalTable)
        table.schema = self.schema
        table.rows, table.target = self.rows[idx], self.target[idx]
        table.rows.setflags(write=False)
        table.target.setflags(write=False)
        return table

    def take_features(self, feature_indices: Sequence[int]) -> "CategoricalTable":
        idx = list(feature_indices)
        return CategoricalTable(
            [self.schema[j] for j in idx], self.rows[:, idx], self.target
        )

    def schema_hash(self) -> str:
        return schema_hash(self.schema)

    # -- CSV round trip (header = feature names + "target") -----------------

    def to_csv(self, path) -> None:
        """Write the header through ``csv.writer`` and every row with one
        format; the bytes are the ones ``csv.writer`` gives for the rows."""
        cells = np.column_stack([self.rows, self.target])
        line = ",".join(["%d"] * cells.shape[1]) + "\r\n"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(list(self.feature_names) + ["target"])
            fh.write((line * self.n_rows) % tuple(cells.ravel().tolist()))

    @classmethod
    def from_csv(cls, path, schema: Sequence[FeatureSpec]) -> "CategoricalTable":
        raw = load_delimited(path, [f.name for f in schema] + ["target"])
        cols = [raw.column(f.name) for f in schema]
        rows = np.column_stack(cols) if cols else np.empty((raw.n_rows, 0), int)
        return cls(schema, rows, raw.column("target"))


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def load_delimited(path, schema, delimiter: str = ",", header: bool = True) -> RawTable:
    """Read a delimited text file into a RawTable.

    ``schema`` lists the columns to extract, either as FeatureSpec objects or
    plain names; header matching is case-insensitive.  Cells must parse as
    64-bit integers, optionally padded with spaces or double-quoted; raw
    codes (including missing codes) pass through untouched.
    """
    names = [s.name if isinstance(s, FeatureSpec) else str(s) for s in schema]
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise DatasetError(f"cannot read {path}: {e}") from e
    with fh:
        first = next(_records(path, fh, delimiter), None)
        if first is None:
            raise DatasetError(f"{path}: file is empty")
        if header:
            lookup = {h.strip().lower(): i for i, h in enumerate(first)}
            indices = []
            for name in names:
                if name.lower() not in lookup:
                    raise DatasetError(f"column not found: {name}")
                indices.append(lookup[name.lower()])
        else:
            if len(first) < len(names):
                raise DatasetError(f"{path}: fewer columns than requested")
            indices = list(range(len(names)))
            fh.seek(0)
        rows, count = None, itertools.count(1)  # count: lines loadtxt takes
        first_line = next(fh, "")
        if first_line.strip("\r\n"):  # loadtxt warns on no data
            try:  # one C-level parse; a '"' delimiter is a TypeError to loadtxt
                lines = itertools.chain([first_line], (ln for ln, _ in zip(fh, count)))
                rows = np.loadtxt(lines, dtype=np.int64, delimiter=delimiter,
                                  usecols=indices, comments=None, quotechar='"',
                                  ndmin=2)
            except (ValueError, TypeError):
                pass
        # loadtxt skips blank lines, which the csv module reads as empty rows;
        # the per-cell parse takes those and any failure, and names a bad cell
        if rows is None or len(rows) != next(count):
            fh.seek(0)
            records = _records(path, fh, delimiter)
            if header:
                next(records)
            rows = _parse_cells(path, records, names, indices)
    return RawTable(names, rows)


def _records(path, fh, delimiter: str):
    """``csv.reader`` records of ``fh``; a record csv cannot read (such as a
    field over its size limit) raises DatasetError naming its line."""
    reader = csv.reader(fh, delimiter=delimiter)
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as e:
            raise DatasetError(f"{path}: record at line {reader.line_num}: {e}") from None


def _parse_cells(path, records, names, indices) -> np.ndarray:
    """Parse data records cell by cell; the first bad cell raises."""
    out = []
    for r, row in enumerate(records):
        parsed = []
        for name, i in zip(names, indices):
            cell = row[i].strip() if i < len(row) else ""
            try:
                value = int(cell)
            except ValueError:
                raise DatasetError(f"{path}: non-integer value {cell!r} at row {r}, "
                                   f"column {name!r}") from None
            if not -2**63 <= value < 2**63:
                raise DatasetError(f"{path}: value {cell!r} at row {r}, column "
                                   f"{name!r} is outside the 64-bit integer range")
            parsed.append(value)
        out.append(parsed)
    return np.array(out, dtype=np.int64).reshape(len(out), len(names))


# ---------------------------------------------------------------------------
# Recoding
# ---------------------------------------------------------------------------

# each case predicate key and its test over a column of values
_CASE_TESTS = {
    "in": np.isin,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "any": lambda values, _: np.ones(values.shape, dtype=bool),
}


def _is_code(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_predicate(rule: str, predicate) -> None:
    """Reject a case predicate ``_CASE_TESTS`` cannot evaluate."""
    if not isinstance(predicate, Mapping) or len(predicate) != 1:
        raise DatasetError(
            f"rule {rule!r}: predicate must have exactly one key: {predicate!r}")
    ((key, arg),) = predicate.items()
    if key not in _CASE_TESTS:
        raise DatasetError(f"rule {rule!r}: unknown predicate key {key!r} "
                           f"(expected one of {tuple(_CASE_TESTS)})")
    if key == "in" and not (isinstance(arg, (list, tuple))
                            and all(_is_code(v) for v in arg)):
        raise DatasetError(
            f"rule {rule!r}: 'in' needs a list of integers, got {arg!r}")
    if key not in ("in", "any") and not _is_code(arg):
        raise DatasetError(f"rule {rule!r}: {key!r} needs an integer, got {arg!r}")


@dataclass(frozen=True)
class RecodeRule:
    """Mapping from one (or several combined) raw columns to one coded feature.

    ``cases`` is an ordered list of (predicate, output code) pairs; the first
    matching predicate wins.  ``missing`` lists raw codes treated as
    not-reported.  ``default`` handles raw values no case covers: ``None``
    makes such values an error (rules must be exhaustive), ``"drop"`` drops
    the row, an integer assigns that code.
    """

    name: str
    source: tuple[str, ...]
    cases: tuple[tuple[Mapping, int], ...]
    missing: frozenset[int] = frozenset()
    default: int | str | None = None
    combine: str = "first"
    labels: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self):
        src = (self.source,) if isinstance(self.source, str) else tuple(self.source)
        if not src:
            raise DatasetError(f"rule {self.name!r}: no source column")
        if self.combine not in ("first", "max", "min"):
            raise DatasetError(f"rule {self.name!r}: unknown combine mode {self.combine!r}")
        if not (self.default is None or self.default == "drop"
                or _is_code(self.default)):
            raise DatasetError(f"rule {self.name!r}: default must be None, 'drop', or a code")
        if not self.cases and self.default in (None, "drop"):
            raise DatasetError(f"rule {self.name!r}: no cases and no assigning default")
        for predicate, _ in self.cases:
            _check_predicate(self.name, predicate)
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "cases", tuple((dict(p), int(c)) for p, c in self.cases))
        object.__setattr__(self, "missing", frozenset(int(v) for v in self.missing))

    def output_codes(self) -> tuple[int, ...]:
        codes = {c for _, c in self.cases}
        if isinstance(self.default, int):
            codes.add(self.default)
        return tuple(sorted(codes))


@dataclass(frozen=True)
class RecodeRuleSet:
    """Ordered recode rules for the predictors plus one rule for the target."""

    features: tuple[RecodeRule, ...]
    target: RecodeRule

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        names = [r.name for r in self.features]
        if len(set(names)) != len(names):
            raise DatasetError("duplicate output feature names in rule set")

    def output_schema(self) -> tuple[FeatureSpec, ...]:
        return tuple(
            FeatureSpec(r.name, r.output_codes(), frozenset(), dict(r.labels))
            for r in self.features
        )

    def to_json(self) -> str:
        def rule_payload(r: RecodeRule) -> dict:
            return {
                "name": r.name,
                "source": list(r.source),
                "combine": r.combine,
                "missing": sorted(r.missing),
                "cases": [{"when": dict(p), "code": c} for p, c in r.cases],
                "default": r.default,
                "labels": {str(k): v for k, v in sorted(r.labels.items())},
            }

        payload = {
            "features": [rule_payload(r) for r in self.features],
            "target": rule_payload(self.target),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RecodeRuleSet":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as e:
            raise DatasetError(f"bad rules JSON: {e}") from e

        def parse_rule(item: Mapping, entry: str) -> RecodeRule:
            entry = f"rule {entry}"
            _require(item, dict, entry)
            cases = []
            for k, case in enumerate(_field(item, "cases", list, entry, [])):
                where = f"{entry} case {k}"
                _require(case, dict, where)
                cases.append((_field(case, "when", dict, where),
                              _field(case, "code", int, where)))
            return RecodeRule(
                name=_field(item, "name", str, entry),
                source=tuple(_field(item, "source", "names", entry)),
                cases=tuple(cases),
                missing=frozenset(_field(item, "missing", "codes", entry, ())),
                default=item.get("default"),
                combine=item.get("combine", "first"),
                labels=_labels(item, entry),
            )

        _require(payload, dict, "rules file")
        features = _field(payload, "features", list, "rules file")
        target = _field(payload, "target", dict, "rules file")
        return cls(
            features=tuple(parse_rule(r, f"features[{i}]")
                           for i, r in enumerate(features)),
            target=parse_rule(target, "target"),
        )


@dataclass
class RecodeAudit:
    """Droppage accounting from one recode pass."""

    input_rows: int
    retained_rows: int
    dropped_missing: dict[str, int]
    dropped_default: dict[str, int]

    @property
    def dropped_rows(self) -> int:
        return self.input_rows - self.retained_rows

    def to_json(self) -> str:
        return json.dumps(
            {
                "input_rows": self.input_rows,
                "retained_rows": self.retained_rows,
                "dropped_rows": self.dropped_rows,
                "dropped_missing_by_rule": dict(sorted(self.dropped_missing.items())),
                "dropped_default_by_rule": dict(sorted(self.dropped_default.items())),
            },
            indent=2,
            sort_keys=True,
        )


def recode(raw: RawTable, rules: RecodeRuleSet, strict: bool = True
           ) -> tuple[CategoricalTable, RecodeAudit]:
    """Apply a rule set to a raw table, producing a coded table and an audit.

    In strict mode a row is dropped as soon as any rule's source value is a
    missing code; the audit counts drops per rule.  With ``strict=False``
    missing codes get no special treatment and must be covered by the rule's
    cases or default.  A raw value covered by no case and no default raises.
    """
    all_rules = list(rules.features) + [rules.target]
    # raises on an unknown column
    columns = {s: raw.column(s) for r in all_rules for s in r.source}

    dropped_missing: dict[str, int] = {r.name: 0 for r in all_rules}
    dropped_default: dict[str, int] = {r.name: 0 for r in all_rules}
    alive = np.ones(raw.n_rows, dtype=bool)  # rows no rule has dropped yet
    uncovered = None  # (row, rule name, value) of the first uncovered value
    coded = []
    for rule in all_rules:  # a row is charged to the first rule that drops it
        first = columns[rule.source[0]]
        if rule.combine == "first":
            missing, value = np.isin(first, list(rule.missing)), first
        else:
            sources = np.stack([columns[s] for s in rule.source])
            missing = np.isin(sources, list(rule.missing)).any(axis=0)
            value = sources.max(axis=0) if rule.combine == "max" else sources.min(axis=0)
        if strict:
            dropped_missing[rule.name] += int(np.count_nonzero(alive & missing))
            alive &= ~missing
        else:
            value = np.where(missing, first, value)

        codes = np.zeros(raw.n_rows, dtype=np.int64)
        covered = np.zeros(raw.n_rows, dtype=bool)
        for predicate, code in reversed(rule.cases):  # the first match wins
            ((key, arg),) = predicate.items()
            hit = _CASE_TESTS[key](value, arg)
            codes[hit] = code
            covered |= hit
        if _is_code(rule.default):
            codes[~covered] = rule.default
        else:  # "drop" or None: an uncovered row leaves the output
            bad = alive & ~covered
            alive &= covered
            if rule.default == "drop":
                dropped_default[rule.name] += int(np.count_nonzero(bad))
            elif bad.any() and (uncovered is None or np.argmax(bad) < uncovered[0]):
                i = int(np.argmax(bad))
                uncovered = (i, rule.name, int(value[i]))
        coded.append(codes)

    if uncovered is not None:
        i, name, value = uncovered
        raise DatasetError(f"rule {name!r}: raw value {value} at row {i} is not "
                           "covered by any case (rules must be exhaustive)")
    audit = RecodeAudit(raw.n_rows, int(np.count_nonzero(alive)),
                        dropped_missing, dropped_default)
    if not alive.any():
        raise DatasetError("recode dropped every row; nothing to train on")
    cells = np.column_stack([c[alive] for c in coded])
    table = CategoricalTable(rules.output_schema(), cells[:, :-1], cells[:, -1])
    return table, audit


# ---------------------------------------------------------------------------
# Cohort filter
# ---------------------------------------------------------------------------

def filter_curve_cohort(
    raw: RawTable,
    alignment_field: str,
    curve_codes: Iterable[int],
    negotiating_field: str | None = None,
    negotiating_codes: Iterable[int] = (),
) -> tuple[RawTable, int, int]:
    """Keep rows on a curve (right / left / unknown direction) whose vehicle
    was negotiating the curve before the critical event.

    Returns (filtered table, retained count, discarded count).  An empty
    result is a warning, not an error.
    """
    mask = np.isin(raw.column(alignment_field), list(curve_codes))
    if negotiating_field is not None:
        mask &= np.isin(raw.column(negotiating_field), list(negotiating_codes))
    retained = int(mask.sum())
    discarded = raw.n_rows - retained
    if retained == 0:
        warnings.warn("curve-cohort filter retained zero rows", stacklevel=2)
    return raw.take(np.flatnonzero(mask)), retained, discarded


# ---------------------------------------------------------------------------
# Crosstab
# ---------------------------------------------------------------------------

@dataclass
class CrosstabReport:
    """Counts of one variable against another with row/column/cell
    percentages.  Percentages are exact fractions internally; ``render``
    rounds to whole percent for display."""

    row_variable: str
    col_variable: str
    row_codes: tuple[int, ...]
    col_codes: tuple[int, ...]
    counts: np.ndarray
    row_labels: tuple[str, ...] = ()
    col_labels: tuple[str, ...] = ()

    @property
    def grand_total(self) -> int:
        return int(self.counts.sum())

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def row_pct(self) -> np.ndarray:
        totals = self.row_totals[:, None]
        return np.divide(100.0 * self.counts, totals, where=totals > 0,
                         out=np.zeros_like(self.counts, dtype=float))

    @property
    def col_pct(self) -> np.ndarray:
        totals = self.col_totals[None, :]
        return np.divide(100.0 * self.counts, totals, where=totals > 0,
                         out=np.zeros_like(self.counts, dtype=float))

    @property
    def cell_pct(self) -> np.ndarray:
        return 100.0 * self.counts / self.grand_total

    def render(self) -> str:
        row_names = self.row_labels or tuple(str(c) for c in self.row_codes)
        col_names = self.col_labels or tuple(str(c) for c in self.col_codes)
        lines = [f"{self.row_variable} x {self.col_variable}"]
        header = ["category"] + [
            f"{c} (n / row% / col% / cell%)" for c in col_names
        ] + ["total"]
        lines.append(" | ".join(header))
        for i, name in enumerate(row_names):
            cells = [
                f"{int(self.counts[i, j])} / {round(self.row_pct[i, j])} / "
                f"{round(self.col_pct[i, j])} / {round(self.cell_pct[i, j])}"
                for j in range(len(col_names))
            ]
            lines.append(" | ".join([str(name)] + cells + [str(int(self.row_totals[i]))]))
        lines.append(
            " | ".join(
                ["total"]
                + [str(int(t)) for t in self.col_totals]
                + [str(self.grand_total)]
            )
        )
        return "\n".join(lines)


def crosstab(table: RawTable | CategoricalTable, row_var: str, col_var: str
             ) -> CrosstabReport:
    """Contingency table of ``row_var`` against ``col_var`` (``"target"``
    resolves to the target column of a coded table)."""
    row_values = table.column(row_var)
    col_values = table.column(col_var)
    row_codes = tuple(int(c) for c in np.unique(row_values))
    col_codes = tuple(int(c) for c in np.unique(col_values))
    counts = np.zeros((len(row_codes), len(col_codes)), dtype=np.int64)
    row_pos = {c: i for i, c in enumerate(row_codes)}
    col_pos = {c: j for j, c in enumerate(col_codes)}
    for rv, cv in zip(row_values, col_values):
        counts[row_pos[int(rv)], col_pos[int(cv)]] += 1

    def labels_for(name, codes):
        if isinstance(table, CategoricalTable) and name != "target":
            spec = table.schema[table.feature_index(name)]
            return tuple(spec.label(c) for c in codes)
        return tuple(str(c) for c in codes)

    return CrosstabReport(
        row_variable=row_var,
        col_variable=col_var,
        row_codes=row_codes,
        col_codes=col_codes,
        counts=counts,
        row_labels=labels_for(row_var, row_codes),
        col_labels=labels_for(col_var, col_codes),
    )


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticRules:
    """Generative recipe for synthetic coded tables.

    Feature columns are drawn independently from per-feature categorical
    distributions (uniform over allowed codes when unspecified).  The target
    is either a copy of one feature (``copy_of``) or a Bernoulli draw from a
    logistic score: intercept + sum of weight * code over ``weights`` plus
    ``disagreements`` terms that add weight whenever two named features carry
    different codes (an interaction invisible to main-effects models).
    """

    intercept: float = 0.0
    weights: Mapping[str, float] = field(default_factory=dict)
    disagreements: tuple[tuple[str, str, float], ...] = ()
    feature_probs: Mapping[str, Sequence[float]] = field(default_factory=dict)
    copy_of: str | None = None

    def relevant_features(self) -> tuple[str, ...]:
        if self.copy_of is not None:
            return (self.copy_of,)
        names = [n for n, w in self.weights.items() if w != 0.0]
        for a, b, w in self.disagreements:
            if w != 0.0:
                names.extend((a, b))
        return tuple(dict.fromkeys(names))


def generate_synthetic(
    schema: Sequence[FeatureSpec],
    n: int,
    seed: int,
    rules: SyntheticRules,
) -> CategoricalTable:
    """Draw a deterministic synthetic table from a generative recipe.

    The same (schema, n, seed, rules) always produces the identical table.
    """
    if n < 1:
        raise DatasetError("n must be at least 1")
    rng = np.random.default_rng(seed)
    columns = []
    for spec in schema:
        codes = np.array(spec.allowed_codes)
        probs = rules.feature_probs.get(spec.name)
        if probs is None:
            p = np.full(len(codes), 1.0 / len(codes))
        else:
            p = np.asarray(probs, dtype=float)
            if p.shape != codes.shape or abs(p.sum() - 1.0) > 1e-9:
                raise DatasetError(
                    f"feature_probs for {spec.name!r} must match its code count "
                    "and sum to 1"
                )
        columns.append(rng.choice(codes, size=n, p=p))
    rows = np.column_stack(columns)
    by_name = {spec.name: j for j, spec in enumerate(schema)}

    if rules.copy_of is not None:
        target = rows[:, by_name[rules.copy_of]].copy()
        if not np.isin(target, (0, 1)).all():
            raise DatasetError("copy_of target requires a binary source feature")
    else:
        score = np.full(n, rules.intercept)
        for name, w in rules.weights.items():
            score += w * rows[:, by_name[name]]
        for a, b, w in rules.disagreements:
            score += w * (rows[:, by_name[a]] != rows[:, by_name[b]])
        p1 = 1.0 / (1.0 + np.exp(-score))
        target = (rng.random(n) < p1).astype(np.int64)
    return CategoricalTable(schema, rows, target)


def binary_schema(n_features: int, prefix: str = "f") -> tuple[FeatureSpec, ...]:
    """n binary features named f00, f01, ... (two-digit suffix keeps sort
    order stable)."""
    return tuple(
        FeatureSpec(f"{prefix}{j:02d}", (0, 1)) for j in range(n_features)
    )


def planted_relevance_rules(
    relevant: Sequence[str] = ("f00", "f01"),
    weight: float = 2.0,
    shift: float = 0.18,
) -> SyntheticRules:
    """Strong main-effect features among noise.

    The intercept centers the logistic score at ``shift`` for the average
    row, putting the positive rate near 0.53 at the defaults, which matches
    the injury balance of the curve-crash cohort this toolkit targets.
    """
    return SyntheticRules(
        intercept=shift - weight * len(relevant) / 2.0,
        weights={name: weight for name in relevant},
    )


def planted_interaction_rules(
    pair: tuple[str, str] = ("f00", "f01"),
    weight: float = 2.5,
    intercept: float = -1.1,
) -> SyntheticRules:
    """A pure two-feature interaction with no main effects: the logistic
    score moves only when the pair's codes disagree."""
    return SyntheticRules(intercept=intercept, disagreements=((pair[0], pair[1], weight),))
