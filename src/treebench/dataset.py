"""Coded categorical tables: ingestion, recoding, cohort filtering, and a
seeded synthetic generator.

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
from dataclasses import MISSING, dataclass, field, fields
from numbers import Integral, Real
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class DatasetError(ValueError):
    """Raised for malformed input files, schemas, or rule sets."""


# ---------------------------------------------------------------------------
# Rules: one vocabulary checks every schema and rules field, config key and
# parameter knob.  A failure is one line, ``<what> is not <rule>: <value>``,
# raised as the caller's error class.
# ---------------------------------------------------------------------------

class Rule(NamedTuple):
    text: str  # what a value must be, as an error names it
    test: Callable[[object], bool]


def _is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def integer(minimum: int | None = None) -> Rule:
    """An integer (never a bool), at least ``minimum`` when given."""
    if minimum is None:
        return Rule("an integer", _is_integer)
    return Rule(f"an integer >= {minimum}",
                lambda v: _is_integer(v) and v >= minimum)


def number(text: str, test: Callable[[Real], bool]) -> Rule:
    """A real number (never a bool) that passes ``test``."""
    return Rule(text, lambda v: isinstance(v, Real) and not isinstance(v, bool)
                and test(v))


def optional(rule: Rule) -> Rule:
    return Rule(f"null or {rule.text}", lambda v: v is None or rule.test(v))


def list_of(rule: Rule, text: str, shortest: int = 0) -> Rule:
    """A list or tuple of at least ``shortest`` items, whose every item
    passes ``rule``."""
    return Rule(text, lambda v: isinstance(v, (list, tuple))
                and len(v) >= shortest and all(map(rule.test, v)))


OBJECT = Rule("a JSON object", lambda v: isinstance(v, dict))
LIST = Rule("a JSON list", lambda v: isinstance(v, list))
STRING = Rule("a JSON string", lambda v: isinstance(v, str))
BOOLEAN = Rule("true or false", lambda v: isinstance(v, bool))
CHARACTER = Rule("a single character", lambda v: isinstance(v, str) and len(v) == 1)
INTEGER = integer()
# a code or count that numpy holds as int64
NATURAL = Rule("an integer in [0, 2**63)", lambda v: _is_integer(v) and 0 <= v < 2**63)
CODES = list_of(INTEGER, "a JSON list of integers")
NATURALS = list_of(NATURAL, "a JSON list of integers in [0, 2**63)")
NAMES = list_of(STRING, "a JSON list of strings")
ANY = Rule("any JSON value", lambda v: True)  # a field checked elsewhere, or ignored
_NO_DEFAULT = object()
_SHOWN = 120  # characters of an offending value that an error line shows


def _shown(value) -> str:
    """At most ``_SHOWN`` characters of the value's ``repr``."""
    shown = repr(value)
    if len(shown) > _SHOWN:
        shown = shown[:_SHOWN] + f"... ({len(shown)} characters)"
    return shown


def check(value, rule: Rule, what: str, error: type = DatasetError):
    """``value``, unless it fails ``rule``: then ``error`` names ``what`` and
    shows the value by ``_shown``."""
    if not rule.test(value):
        raise error(f"{what} is not {rule.text}: {_shown(value)}")
    return value


def read_json(text: str, rule: Rule, what: str, error: type = DatasetError):
    """The JSON value of ``text``, checked by ``rule``; text that is not
    JSON, or nests too deep to parse, is ``error`` naming ``what``."""
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise error(f"{what}: bad JSON: {e}") from None
    return check(value, rule, what, error)


def check_key(item: Mapping, key: str, rule: Rule, what: str,
              default=_NO_DEFAULT, error: type = DatasetError):
    """``item[key]``, checked by ``rule``; an absent key takes ``default``
    and fails without one."""
    if key not in item:
        if default is _NO_DEFAULT:
            raise error(f"{what} has no {key!r} key")
        return default
    return check(item[key], rule, f"{what} {key!r}", error)


def read_fields(item, fields: Mapping, what: str, error: type = DatasetError) -> dict:
    """``{key: value}`` of the JSON object ``item`` for each field of the
    ``{key: rule | (rule, default)}`` table ``fields``, in table order, each
    checked by ``check_key``; then a key the table does not name is refused."""
    check(item, OBJECT, what, error)
    values = {}
    for key, spec in fields.items():
        # a Rule is itself a tuple, so it is told apart first
        rule, default = (spec, _NO_DEFAULT) if isinstance(spec, Rule) else spec
        values[key] = check_key(item, key, rule, what, default, error)
    for key in item:
        if key not in fields:
            raise error(f"{what} has an unknown field {_shown(key)}")
    return values


def ruled(rule: Rule, default=MISSING, *, factory=MISSING):
    """A dataclass field whose value, as JSON or as a knob, is checked by ``rule``."""
    return field(default=default, default_factory=factory, metadata={"rule": rule})


def rules_of(cls) -> dict[str, Rule]:
    """The ``{field: rule}`` table of a dataclass whose every field is ``ruled``,
    in field order; a field without a rule is a ``KeyError``."""
    return {f.name: f.metadata["rule"] for f in fields(cls)}


def check_knobs(knobs: Mapping, rules: Mapping[str, Rule], owner: str,
                error: type = DatasetError) -> None:
    """Check every knob of ``owner`` by its rule; a key ``rules`` does not
    name is unknown."""
    for key in knobs:
        if key not in rules:
            raise error(f"unknown knob {_shown(key)}; {owner} takes {', '.join(rules)}")
        check_key(knobs, key, rules[key], owner, error=error)


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


# The fields of a schema entry
_SCHEMA_ENTRY = {"name": STRING, "codes": NATURALS, "missing": (CODES, ()),
                 "labels": (OBJECT, {})}


def schema_from_json(text: str) -> tuple[FeatureSpec, ...]:
    specs = []
    for i, item in enumerate(read_json(text, LIST, "schema")):
        entry = f"schema entry {i}"
        name, codes, missing, labels = read_fields(item, _SCHEMA_ENTRY, entry).values()
        specs.append(FeatureSpec(name, tuple(codes), frozenset(missing),
                                 _labels(labels, entry)))
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise DatasetError("duplicate feature names in schema")
    return tuple(specs)


def _labels(labels: dict, what: str) -> dict[int, str]:
    """A ``labels`` object, its keys read as integer codes and its values
    checked as strings."""
    try:
        codes = [int(k) for k in labels]
    except ValueError:
        raise DatasetError(f"{what} 'labels' keys are not all integer codes: "
                           f"{_shown(list(labels))}") from None
    return {code: check(label, STRING, f"{what} label {code}")
            for code, label in zip(codes, labels.values())}


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
        # copies, so freezing the table does not reach the caller's arrays
        self.rows = np.array(rows, dtype=np.int64, order="C")
        self.target = np.array(target, dtype=np.int64, order="C")
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

def load_delimited(path, names: Sequence[str], delimiter: str = ",") -> RawTable:
    """Read a delimited text file with a header line into a RawTable.

    ``names`` lists the columns to extract; header matching is
    case-insensitive.  Cells must parse as 64-bit integers, optionally
    padded with spaces or double-quoted; raw codes (including missing
    codes) pass through untouched.
    """
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise DatasetError(f"cannot read {path}: {e}") from e
    with fh:
        first = next(_records(path, fh, delimiter), None)
        if first is None:
            raise DatasetError(f"{path}: file is empty")
        lookup = {h.strip().lower(): i for i, h in enumerate(first)}
        indices = []
        for name in names:
            if name.lower() not in lookup:
                raise DatasetError(f"column not found: {name}")
            indices.append(lookup[name.lower()])
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


def _check_predicate(rule: str, predicate) -> None:
    """Reject a case predicate ``_CASE_TESTS`` cannot evaluate."""
    if not isinstance(predicate, Mapping) or len(predicate) != 1:
        raise DatasetError(
            f"rule {rule!r}: predicate must have exactly one key: {_shown(predicate)}")
    ((key, arg),) = predicate.items()
    if key not in _CASE_TESTS:
        raise DatasetError(f"rule {rule!r}: unknown predicate key {_shown(key)} "
                           f"(expected one of {tuple(_CASE_TESTS)})")
    if key != "any":
        check(arg, CODES if key == "in" else INTEGER, f"rule {rule!r}: {key!r}")


_COMBINE = Rule("'first', 'max' or 'min'", lambda v: v in ("first", "max", "min"))
_DEFAULT = Rule("null, 'drop' or an integer",
                lambda v: v is None or v == "drop" or _is_integer(v))
# The fields of a rule (``RecodeRule`` checks its default and combine) and a
# case; a rules file's are ``RecodeRuleSet``'s
_RULE_FIELDS = {"name": STRING, "source": NAMES, "cases": (LIST, []),
                "missing": (CODES, ()), "default": (ANY, None),
                "combine": (ANY, "first"), "labels": (OBJECT, {})}
_CASE_FIELDS = {"when": OBJECT, "code": INTEGER}


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
        check(self.combine, _COMBINE, f"rule {self.name!r}: 'combine'")
        check(self.default, _DEFAULT, f"rule {self.name!r}: 'default'")
        if not self.cases and self.default in (None, "drop"):
            raise DatasetError(f"rule {self.name!r}: no cases and no assigning default")
        for k, (predicate, code) in enumerate(self.cases):
            _check_predicate(self.name, predicate)
            check(code, NATURAL, f"rule {self.name!r}: case {k} 'code'")
        if _is_integer(self.default):
            check(self.default, NATURAL, f"rule {self.name!r}: 'default'")
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

    features: tuple[RecodeRule, ...] = ruled(LIST)
    target: RecodeRule = ruled(OBJECT)

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
        def parse_rule(item, entry: str) -> RecodeRule:
            entry = f"rule {entry}"
            fields = read_fields(item, _RULE_FIELDS, entry)
            fields["cases"] = tuple(
                tuple(read_fields(case, _CASE_FIELDS, f"{entry} case {k}").values())
                for k, case in enumerate(fields["cases"]))
            fields["labels"] = _labels(fields["labels"], entry)
            return RecodeRule(**fields)

        features, target = read_fields(read_json(text, ANY, "rules file"),
                                       rules_of(cls), "rules file").values()
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
        if _is_integer(rule.default):
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
