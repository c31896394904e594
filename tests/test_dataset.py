"""Ingestion, recoding, cohort filtering, and the synthetic generator."""
import csv
import json
import warnings
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treebench.cli import PipelineConfig
from treebench.dataset import (
    INTEGER,
    CategoricalTable,
    DatasetError,
    FeatureSpec,
    RawTable,
    RecodeAudit,
    RecodeRule,
    RecodeRuleSet,
    Rule,
    SyntheticRules,
    binary_schema,
    feature,
    filter_curve_cohort,
    generate_synthetic,
    load_delimited,
    planted_interaction_rules,
    planted_relevance_rules,
    recode,
    rules_of,
    ruled,
    schema_from_json,
    schema_hash,
    schema_to_json,
)
from treebench.forest import ForestParams
from treebench.shapley import EliminationStep, EliminationTrace
from treebench.tree import TreeParams


def write_csv(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("cls", [TreeParams, ForestParams, PipelineConfig, EliminationStep,
                                 EliminationTrace, RecodeRuleSet], ids=lambda c: c.__name__)
def test_every_field_of_a_ruled_record_carries_its_rule(cls):
    """The knob, config and file tables are their dataclass's rules, so a
    field is named once; the table's order, which error lines list, is the
    field order."""
    assert all(isinstance(f.metadata.get("rule"), Rule) for f in fields(cls))
    assert list(rules_of(cls)) == [f.name for f in fields(cls)]


def test_a_field_without_a_rule_has_no_rules_table():
    @dataclass
    class Knobs:
        checked: int = ruled(INTEGER, 1)
        unchecked: int = 2

    with pytest.raises(KeyError, match="rule"):
        rules_of(Knobs)


class TestFeatureSpec:
    def test_labels_autofill(self):
        spec = FeatureSpec("grade", (0, 1), code_labels={0: "level"})
        assert spec.label(0) == "level"
        assert spec.label(1) == "1"

    def test_empty_codes_rejected(self):
        with pytest.raises(DatasetError):
            FeatureSpec("grade", ())

    def test_missing_overlap_rejected(self):
        with pytest.raises(DatasetError):
            FeatureSpec("grade", (0, 1), missing_codes=frozenset({1}))

    def test_schema_json_round_trip(self):
        schema = (
            feature("speed", (0, 1), {0: "<46", 1: ">=46"}, missing=(98, 99)),
            feature("grade", (0, 1)),
        )
        back = schema_from_json(schema_to_json(schema))
        assert back == schema
        assert schema_hash(back) == schema_hash(schema)

    def test_schema_json_label_key_error_is_one_short_line(self):
        # a 400-character key gave a line of over 400 characters
        payload = json.loads(schema_to_json((feature("grade", (0, 1)),)))
        payload[0]["labels"] = {"k" * 400: "x"}
        with pytest.raises(DatasetError, match="'labels' keys are not all integer") as info:
            schema_from_json(json.dumps(payload))
        assert "\n" not in str(info.value) and len(str(info.value)) <= 300

    def test_schema_json_label_value_must_be_a_string(self):
        # any other value was stored as its Python str
        payload = json.loads(schema_to_json((feature("grade", (0, 1)),)))
        payload[0]["labels"] = {"0": {"a": [1, None]}, "1": "one"}
        with pytest.raises(DatasetError) as info:
            schema_from_json(json.dumps(payload))
        assert str(info.value) == (
            "schema entry 0 label 0 is not a JSON string: {'a': [1, None]}")

    def test_schema_json_duplicate_names_rejected(self):
        # the table loader would read the shared column twice
        schema = (feature("grade", (0, 1)), feature("grade", (0, 1, 2)))
        with pytest.raises(DatasetError, match="duplicate feature names"):
            schema_from_json(schema_to_json(schema))


class TestLoadDelimited:
    def test_pass_through(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "A,B\n1,2\n3,4\n98,6\n")
        raw = load_delimited(path, ["A", "B"])
        assert raw.n_rows == 3
        assert raw.column("A").tolist() == [1, 3, 98]
        assert raw.column("B").tolist() == [2, 4, 6]

    def test_header_case_insensitive(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "speed_limit\n45\n")
        raw = load_delimited(path, ["SPEED_LIMIT"])
        assert raw.column("SPEED_LIMIT").tolist() == [45]

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "A,B\n1,2\n")
        with pytest.raises(DatasetError, match="column not found: GRADE"):
            load_delimited(path, ["A", "GRADE"])

    def test_non_integer_cell(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "A,B\n1,2\n3,NA\n")
        with pytest.raises(DatasetError, match=r"row 1.*'B'"):
            load_delimited(path, ["A", "B"])

    def test_tab_delimiter(self, tmp_path):
        path = write_csv(tmp_path / "t.tsv", "A\tB\n1\t2\n")
        raw = load_delimited(path, ["A", "B"], delimiter="\t")
        assert raw.column("B").tolist() == [2]

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_delimited(tmp_path / "absent.csv", ["A"])

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "")
        with pytest.raises(DatasetError):
            load_delimited(path, ["A"])

    @pytest.mark.parametrize("cell", ["99999999999999999999", "9223372036854775808",
                                      "-9223372036854775809"])
    def test_cell_outside_int64(self, tmp_path, cell):
        path = write_csv(tmp_path / "t.csv", f"A,B\n1,2\n3,{cell}\n")
        with pytest.raises(DatasetError) as info:
            load_delimited(path, ["A", "B"])
        assert str(info.value) == (f"{path}: value {cell!r} at row 1, column 'B' "
                                   "is outside the 64-bit integer range")

    @pytest.mark.parametrize("text, line", [
        ("A,{big}\n1,2\n", 1),  # the header
        ("A,B\n1,{big}\n\n", 2),  # the per-cell path, after a blank line
        ("A,B\n1,2\n3,{digits}\n", 3),  # a cell loadtxt cannot hold
    ], ids=["header", "text-cell", "digit-cell"])
    def test_field_over_csv_limit(self, tmp_path, text, line):
        # csv refuses fields over 131072 characters
        path = write_csv(tmp_path / "t.csv",
                         text.format(big="x" * 200000, digits="9" * 200000))
        with pytest.raises(DatasetError) as info:
            load_delimited(path, ["A", "B"])
        assert str(info.value) == (f"{path}: record at line {line}: "
                                   "field larger than field limit (131072)")

    def test_int64_limits_load(self, tmp_path):
        path = write_csv(tmp_path / "t.csv",
                         "A\n9223372036854775807\n-9223372036854775808\n")
        assert load_delimited(path, ["A"]).column("A").tolist() == [2**63 - 1, -2**63]

    @pytest.mark.parametrize("text, row, name", [
        ("A,B\n1,2\n\n3,4\n", 1, "A"),  # a blank line
        ("A,B\r\n1,2\r\n\r\n", 1, "A"),
        ("A,B\n1,2\n3\n", 1, "B"),  # a short row
    ], ids=["blank-line", "blank-crlf-line", "short-row"])
    def test_blank_line_and_short_row(self, tmp_path, text, row, name):
        path = write_csv(tmp_path / "t.csv", text)
        with pytest.raises(DatasetError) as info:
            load_delimited(path, ["A", "B"])
        assert str(info.value) == (f"{path}: non-integer value '' at row {row}, "
                                   f"column {name!r}")

    @pytest.mark.parametrize("text", ["A,B\n", "A,B"])
    def test_header_only_is_empty_table(self, tmp_path, text):
        path = write_csv(tmp_path / "t.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = load_delimited(path, ["B", "A"])
        assert raw.rows.shape == (0, 2)
        assert raw.columns == ("B", "A")

    def test_quote_as_delimiter(self, tmp_path):
        # loadtxt refuses a delimiter equal to its quote character
        path = write_csv(tmp_path / "t.csv", 'A"B\n1"2\n')
        raw = load_delimited(path, ["B", "A"], delimiter='"')
        assert raw.rows.tolist() == [[2, 1]]

    def test_padded_and_quoted_cells(self, tmp_path):
        path = write_csv(tmp_path / "t.csv",
                         'A,B,note\n 1 ,"2","x,y"\n"-3" , +4 ,z\n')
        raw = load_delimited(path, ["B", "A"])
        assert raw.rows.tolist() == [[2, 1], [4, -3]]


def speed_year_rules(default=None):
    return RecodeRuleSet(
        features=(
            RecodeRule(
                name="speed_limit",
                source=("VSPD_LIM",),
                cases=(({"lt": 46}, 0), ({"ge": 46}, 1)),
                missing=frozenset({98, 99}),
                labels={0: "<46", 1: ">=46"},
            ),
            RecodeRule(
                name="model_year",
                source=("MOD_YEAR",),
                cases=(({"lt": 2010}, 0), ({"ge": 2010}, 1)),
                missing=frozenset({9998, 9999}),
                default=default,
            ),
        ),
        target=RecodeRule(
            name="injury",
            source=("INJ",),
            cases=(({"in": [0]}, 0), ({"in": [1]}, 1)),
        ),
    )


class TestRecode:
    def test_threshold_codes(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            "VSPD_LIM,MOD_YEAR,INJ\n45,2009,0\n55,2010,1\n46,2015,1\n",
        )
        raw = load_delimited(path, ["VSPD_LIM", "MOD_YEAR", "INJ"])
        table, audit = recode(raw, speed_year_rules())
        assert table.column("speed_limit").tolist() == [0, 1, 1]
        assert table.column("model_year").tolist() == [0, 1, 1]
        assert table.target.tolist() == [0, 1, 1]
        assert audit.dropped_rows == 0

    def test_strict_drops_missing(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            "VSPD_LIM,MOD_YEAR,INJ\n45,2009,0\n98,2012,1\n50,9999,0\n",
        )
        raw = load_delimited(path, ["VSPD_LIM", "MOD_YEAR", "INJ"])
        table, audit = recode(raw, speed_year_rules())
        assert table.n_rows == 1
        assert audit.input_rows == 3
        assert audit.retained_rows == 1
        assert audit.dropped_missing["speed_limit"] == 1
        assert audit.dropped_missing["model_year"] == 1

    def test_strict_output_has_no_missing_codes(self):
        rng = np.random.default_rng(7)
        n = 300
        raw = RawTable(
            ["VSPD_LIM", "MOD_YEAR", "INJ"],
            np.column_stack([
                rng.choice([25, 45, 55, 98, 99], size=n),
                rng.choice([2004, 2012, 9998, 9999], size=n),
                rng.integers(0, 2, size=n),
            ]),
        )
        rules = speed_year_rules()
        table, audit = recode(raw, rules)
        assert audit.retained_rows == table.n_rows
        for rule, name in [(rules.features[0], "speed_limit"),
                           (rules.features[1], "model_year")]:
            assert not np.isin(table.column(name), sorted(rule.missing)).any()

    def test_uncovered_value_raises(self):
        raw = RawTable(["X", "INJ"], np.array([[5, 1]]))
        rules = RecodeRuleSet(
            features=(
                RecodeRule("x", ("X",), cases=(({"in": [0, 1]}, 0),)),
            ),
            target=RecodeRule("injury", ("INJ",), cases=(({"any": True}, 1),)),
        )
        with pytest.raises(DatasetError, match="not .*covered|covered"):
            recode(raw, rules)

    def test_default_code_and_default_drop(self):
        raw = RawTable(["X", "INJ"], np.array([[5, 1], [0, 0]]))
        with_code = RecodeRuleSet(
            features=(RecodeRule("x", ("X",), cases=(({"in": [0]}, 0),), default=1),),
            target=RecodeRule("injury", ("INJ",), cases=(({"in": [0]}, 0), ({"in": [1]}, 1))),
        )
        table, _ = recode(raw, with_code)
        assert table.column("x").tolist() == [1, 0]

        with_drop = RecodeRuleSet(
            features=(RecodeRule("x", ("X",), cases=(({"in": [0]}, 0),), default="drop"),),
            target=RecodeRule("injury", ("INJ",), cases=(({"in": [0]}, 0), ({"in": [1]}, 1))),
        )
        table, audit = recode(raw, with_drop)
        assert table.n_rows == 1
        assert audit.dropped_default["x"] == 1

    def test_unknown_source_column(self):
        raw = RawTable(["X", "INJ"], np.array([[0, 1]]))
        rules = RecodeRuleSet(
            features=(RecodeRule("y", ("Y",), cases=(({"any": True}, 0),)),),
            target=RecodeRule("injury", ("INJ",), cases=(({"any": True}, 1),)),
        )
        with pytest.raises(DatasetError, match="column not found: Y"):
            recode(raw, rules)

    @pytest.mark.parametrize("cases, match", [
        # an unknown key behind a catch-all case would never be evaluated
        ((({"any": 1}, 0), ({"zz": 1}, 1)), "unknown predicate key 'zz'"),
        ((({"in": 5}, 0),), "'in' is not a JSON list of integers: 5"),
        ((({"in": [1, "2"]}, 0),), "'in' is not a JSON list of integers"),
        ((({"lt": 1.5}, 0),), "'lt' is not an integer: 1.5"),
        ((({"ge": True}, 0),), "'ge' is not an integer: True"),
        ((({"lt": 1, "gt": 0}, 0),), "exactly one key"),
        (((5, 0),), "exactly one key"),
    ], ids=["unknown-key-behind-catch-all", "in-not-list", "in-non-integer",
            "lt-float", "ge-bool", "two-keys", "not-object"])
    def test_bad_predicate_rejected_at_construction(self, cases, match):
        with pytest.raises(DatasetError, match=match):
            RecodeRule("x", ("X",), cases=cases)

    @pytest.mark.parametrize("cases, default, match", [
        ((({"any": True}, 2**63),), None, "case 0 'code' is not an integer in "
         "\\[0, 2\\*\\*63\\): 9223372036854775808"),
        ((({"in": [0]}, 0), ({"any": True}, -1)), None, "case 1 'code' .*: -1"),
        ((({"in": [0]}, 0),), 2**70, f"'default' is not an integer in .*: {2**70}"),
        ((({"in": [0]}, 0),), -1, "'default' is not an integer in .*: -1"),
    ], ids=["code-2**63", "code-negative", "default-2**70", "default-negative"])
    def test_output_code_outside_int64_rejected_at_construction(self, cases, default,
                                                               match):
        # a recoded column is int64 and a schema's codes are non-negative
        with pytest.raises(DatasetError, match=f"^rule 'x': {match}"):
            RecodeRule("x", ("X",), cases=cases, default=default)
        top = RecodeRule("x", ("X",), cases=(({"in": [0]}, 2**63 - 1),), default=0)
        assert top.output_codes() == (0, 2**63 - 1)

    def test_first_match_wins(self):
        raw = RawTable(["X", "INJ"], np.array([[40, 1]]))
        rules = RecodeRuleSet(
            features=(
                RecodeRule(
                    "x", ("X",),
                    cases=(({"lt": 46}, 0), ({"lt": 100}, 1)),
                ),
            ),
            target=RecodeRule("injury", ("INJ",), cases=(({"any": True}, 1),)),
        )
        table, _ = recode(raw, rules)
        assert table.column("x").tolist() == [0]

    def test_rules_json_round_trip(self):
        rules = speed_year_rules(default=0)
        back = RecodeRuleSet.from_json(rules.to_json())
        assert back == rules
        assert back.to_json() == rules.to_json()

    @pytest.mark.parametrize("key, value, match", [
        ("source", ["VSPD_LIM", 5],
         "rule features\\[0\\] 'source' is not a JSON list of strings"),
        ("source", "VSPD_LIM", "rule features\\[0\\] 'source' is not a JSON list"),
        ("missing", [True], "rule features\\[0\\] 'missing' is not a JSON list of integers"),
        ("cases", [{"when": {"any": 1}, "code": [1]}],
         "rule features\\[0\\] case 0 'code' is not an integer"),
        ("cases", [{"when": 5, "code": 1}],
         "rule features\\[0\\] case 0 'when' is not a JSON object"),
        ("cases", [{"code": 1}], "rule features\\[0\\] case 0 has no 'when' key"),
        ("default", 1.5, "'default' is not null, 'drop' or an integer: 1.5"),
        ("labels", {"0": "low", "x": "high"},
         "rule features\\[0\\] 'labels' keys are not all integer codes"),
        ("labels", {"0": [1, 2]},
         "^rule features\\[0\\] label 0 is not a JSON string: \\[1, 2\\]$"),
    ], ids=["source-entry", "source-string", "missing-bool", "code-list",
            "when-not-object", "when-absent", "default-float", "label-key",
            "label-value"])
    def test_rules_json_field_types(self, key, value, match):
        payload = json.loads(speed_year_rules().to_json())
        payload["features"][0][key] = value
        with pytest.raises(DatasetError, match=match):
            RecodeRuleSet.from_json(json.dumps(payload))

    @pytest.mark.parametrize("fields", [
        {"labels": {"k" * 400: "x"}},
        {"cases": [{"when": {"k" * 400: 1}, "code": 1}]},
        {"cases": [{"when": {"in": [1], "k" * 400: 1}, "code": 1}]},
    ], ids=["label-key", "predicate-key", "two-key-predicate"])
    def test_rules_json_error_is_one_short_line(self, fields):
        # each 400-character key gave a line of over 400 characters
        payload = json.loads(speed_year_rules().to_json())
        payload["features"][0].update(fields)
        with pytest.raises(DatasetError) as info:
            RecodeRuleSet.from_json(json.dumps(payload))
        assert "\n" not in str(info.value) and len(str(info.value)) <= 300

    def test_combined_sources(self):
        # severity rollup across two occupant columns: worst (max) wins
        raw = RawTable(
            ["P1", "P2", "INJ"],
            np.array([[0, 1, 1], [0, 0, 0], [9, 1, 1]]),
        )
        rules = RecodeRuleSet(
            features=(
                RecodeRule(
                    "any_injury", ("P1", "P2"),
                    cases=(({"ge": 1}, 1), ({"lt": 1}, 0)),
                    missing=frozenset({9}),
                    combine="max",
                ),
            ),
            target=RecodeRule("injury", ("INJ",), cases=(({"in": [0]}, 0), ({"in": [1]}, 1))),
        )
        table, audit = recode(raw, rules)
        assert table.column("any_injury").tolist() == [1, 0]
        assert audit.dropped_missing["any_injury"] == 1


class TestCurveCohort:
    def make_raw(self):
        # alignment: 1 straight, 2 curve right, 3 curve left, 4 curve unknown
        # movement: 1 going straight, 2 negotiating a curve
        rows = np.array([
            [1, 2], [2, 2], [2, 1], [3, 2], [4, 2], [1, 1], [2, 2],
        ])
        return RawTable(["ALIGN", "MOVEMENT"], rows)

    def test_alignment_only(self):
        raw = self.make_raw()
        kept, retained, discarded = filter_curve_cohort(raw, "ALIGN", (2, 3, 4))
        assert retained == 5
        assert discarded == 2
        assert np.isin(kept.column("ALIGN"), (2, 3, 4)).all()

    def test_with_negotiating_predicate(self):
        raw = self.make_raw()
        kept, retained, discarded = filter_curve_cohort(
            raw, "ALIGN", (2, 3, 4), "MOVEMENT", (2,)
        )
        assert retained == 4
        assert discarded == 3
        assert (kept.column("MOVEMENT") == 2).all()

    def test_straight_excluded(self):
        raw = self.make_raw()
        kept, _, _ = filter_curve_cohort(raw, "ALIGN", (2, 3, 4))
        assert not (kept.column("ALIGN") == 1).any()

    def test_empty_result_warns(self):
        raw = self.make_raw()
        with pytest.warns(UserWarning):
            _, retained, discarded = filter_curve_cohort(raw, "ALIGN", (9,))
        assert retained == 0
        assert discarded == raw.n_rows

    def test_unknown_field(self):
        with pytest.raises(DatasetError):
            filter_curve_cohort(self.make_raw(), "NOPE", (2,))


class TestCategoricalTable:
    def test_cell_validation(self):
        schema = (feature("a", (0, 1)),)
        with pytest.raises(DatasetError, match="row 1.*'a'.*code 7"):
            CategoricalTable(schema, np.array([[0], [7]]), np.array([0, 1]))

    def test_target_validation(self):
        schema = (feature("a", (0, 1)),)
        with pytest.raises(DatasetError):
            CategoricalTable(schema, np.array([[0]]), np.array([2]))

    def test_take_rows_and_features(self):
        schema = binary_schema(3)
        table = CategoricalTable(
            schema,
            np.array([[0, 1, 0], [1, 0, 1], [1, 1, 1]]),
            np.array([0, 1, 1]),
        )
        sub = table.take_rows([0, 2])
        assert sub.n_rows == 2
        assert sub.target.tolist() == [0, 1]
        narrowed = table.take_features([2, 0])
        assert narrowed.feature_names == ("f02", "f00")
        assert narrowed.rows.tolist() == [[0, 0], [1, 1], [1, 1]]

    def test_take_rows_empty_selection_is_one_line_error(self):
        table = CategoricalTable(binary_schema(2), np.array([[0, 1], [1, 0]]),
                                 np.array([1, 0]))
        for selection in ([], np.array([], dtype=np.int64), [False, False]):
            with pytest.raises(DatasetError, match="at least one row") as info:
                table.take_rows(selection)
            assert "\n" not in str(info.value)

    def test_take_rows_result_is_read_only(self):
        table = CategoricalTable(binary_schema(2), np.array([[0, 1], [1, 0]]),
                                 np.array([1, 0]))
        sub = table.take_rows([1, 1, 0])
        assert sub.rows.tolist() == [[1, 0], [1, 0], [0, 1]]
        assert sub.target.tolist() == [0, 0, 1]
        assert sub.schema == table.schema
        with pytest.raises(ValueError):
            sub.rows[0, 0] = 0
        with pytest.raises(ValueError):
            sub.target[0] = 1

    def test_callers_arrays_stay_writeable(self):
        rows = np.zeros((3, 2), dtype=np.int64)
        target = np.array([0, 1, 0], dtype=np.int64)
        table = CategoricalTable(binary_schema(2), rows, target)
        assert rows.flags.writeable and target.flags.writeable
        rows[0, 0] = 1
        target[0] = 1
        assert table.rows[0, 0] == 0 and table.target[0] == 0
        with pytest.raises(ValueError):
            table.rows[0, 0] = 1
        with pytest.raises(ValueError):
            table.target[0] = 1

    def test_csv_round_trip(self, tmp_path):
        schema = binary_schema(2)
        table = CategoricalTable(
            schema, np.array([[0, 1], [1, 0]]), np.array([1, 0])
        )
        path = tmp_path / "table.csv"
        table.to_csv(path)
        back = CategoricalTable.from_csv(path, schema)
        assert np.array_equal(back.rows, table.rows)
        assert np.array_equal(back.target, table.target)

    def test_rows_are_immutable(self):
        table = CategoricalTable(
            binary_schema(1), np.array([[0]]), np.array([1])
        )
        with pytest.raises(ValueError):
            table.rows[0, 0] = 1


class TestGenerateSynthetic:
    def test_deterministic(self):
        schema = binary_schema(5)
        rules = planted_relevance_rules()
        a = generate_synthetic(schema, 740, seed=7, rules=rules)
        b = generate_synthetic(schema, 740, seed=7, rules=rules)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.target, b.target)
        c = generate_synthetic(schema, 740, seed=8, rules=rules)
        assert not np.array_equal(a.target, c.target)

    def test_copy_rule_is_separable(self):
        schema = binary_schema(4)
        table = generate_synthetic(
            schema, 100, seed=3, rules=SyntheticRules(copy_of="f02")
        )
        assert np.array_equal(table.target, table.column("f02"))

    def test_default_rules_class_ratio(self):
        # empirical frequency oracle: the positive rate of the default recipe
        # should sit within 5% (relative) of the cohort's 394/740
        schema = binary_schema(10)
        table = generate_synthetic(
            schema, 10_000, seed=19, rules=planted_relevance_rules()
        )
        ratio = table.target.mean()
        assert abs(ratio - 394 / 740) / (394 / 740) < 0.05

    def test_interaction_has_no_main_effect(self):
        # disagreement recipe: each feature alone is uninformative, the
        # disagreement indicator is strongly informative
        schema = binary_schema(4)
        table = generate_synthetic(
            schema, 20_000, seed=23, rules=planted_interaction_rules(("f00", "f01"))
        )
        y = table.target
        for name in ("f00", "f01"):
            x = table.column(name)
            gap = abs(y[x == 1].mean() - y[x == 0].mean())
            assert gap < 0.03
        disagree = table.column("f00") != table.column("f01")
        gap = y[disagree].mean() - y[~disagree].mean()
        assert gap > 0.25

    def test_feature_probs_validation(self):
        schema = binary_schema(2)
        with pytest.raises(DatasetError):
            generate_synthetic(
                schema, 10, seed=1,
                rules=SyntheticRules(feature_probs={"f00": (0.9, 0.9)}),
            )

    def test_n_validation(self):
        with pytest.raises(DatasetError):
            generate_synthetic(binary_schema(2), 0, seed=1, rules=SyntheticRules())


# ---------------------------------------------------------------------------
# Column paths against the per-cell and per-row code they replaced.  The
# oracles below are that code, kept verbatim apart from being free functions.


def load_delimited_by_cell(path, names, delimiter=","):
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise DatasetError(f"cannot read {path}: {e}") from e
    with fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            first = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: file is empty") from None
        lookup = {h.strip().lower(): i for i, h in enumerate(first)}
        indices = []
        for name in names:
            if name.lower() not in lookup:
                raise DatasetError(f"column not found: {name}")
            indices.append(lookup[name.lower()])
        out = []
        for r, row in enumerate(reader):
            parsed = []
            for name, i in zip(names, indices):
                cell = row[i].strip() if i < len(row) else ""
                try:
                    parsed.append(int(cell))
                except ValueError:
                    raise DatasetError(
                        f"{path}: non-integer value {cell!r} at row {r}, "
                        f"column {name!r}"
                    ) from None
            out.append(parsed)
    rows = np.array(out, dtype=np.int64) if out else np.empty((0, len(names)), np.int64)
    return RawTable(names, rows)


def _match(predicate, value):
    ((key, arg),) = predicate.items()
    if key == "in":
        return value in arg
    if key == "lt":
        return value < arg
    if key == "le":
        return value <= arg
    if key == "gt":
        return value > arg
    if key == "ge":
        return value >= arg
    return True


def combined_value(rule, raw, row):
    """Resolve the source value for one row; None means missing."""
    values = [int(raw.rows[row, raw.column_index(s)]) for s in rule.source]
    present = [v for v in values if v not in rule.missing]
    if rule.combine == "first":
        if values[0] in rule.missing:
            return None
        return values[0]
    if not present or len(present) != len(values):
        # max/min combinations need every source reported
        return None
    return max(present) if rule.combine == "max" else min(present)


def apply_rule(rule, value):
    for predicate, code in rule.cases:
        if _match(predicate, value):
            return code
    return rule.default


def recode_by_row(raw, rules, strict=True):
    all_rules = list(rules.features) + [rules.target]
    for rule in all_rules:
        for src in rule.source:
            raw.column_index(src)  # raises on unknown column

    dropped_missing = {r.name: 0 for r in all_rules}
    dropped_default = {r.name: 0 for r in all_rules}
    out_rows = []
    out_target = []

    for i in range(raw.n_rows):
        coded = []
        keep = True
        for rule in all_rules:
            value = combined_value(rule, raw, i)
            if value is None:
                if strict:
                    dropped_missing[rule.name] += 1
                    keep = False
                    break
                value = int(raw.rows[i, raw.column_index(rule.source[0])])
            result = apply_rule(rule, value)
            if result is None:
                raise DatasetError(
                    f"rule {rule.name!r}: raw value {value} at row {i} is not "
                    "covered by any case (rules must be exhaustive)"
                )
            if result == "drop":
                dropped_default[rule.name] += 1
                keep = False
                break
            coded.append(int(result))
        if keep:
            out_target.append(coded.pop())
            out_rows.append(coded)

    audit = RecodeAudit(
        input_rows=raw.n_rows,
        retained_rows=len(out_rows),
        dropped_missing=dropped_missing,
        dropped_default=dropped_default,
    )
    if not out_rows:
        raise DatasetError("recode dropped every row; nothing to train on")
    table = CategoricalTable(rules.output_schema(), out_rows, out_target)
    return table, audit


def to_csv_by_row(table, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(table.feature_names) + ["target"])
        for i in range(table.n_rows):
            writer.writerow(
                [int(v) for v in table.rows[i]] + [int(table.target[i])]
            )


def outcome(fn, *args, **kwargs):
    """What a call gives: its value, or the message of its DatasetError."""
    try:
        return fn(*args, **kwargs)
    except DatasetError as e:
        return f"DatasetError: {e}"


HEADER = ("Alpha", "beta", "GAMMA", "dElta", "eps")
PADS = st.sampled_from(["", " ", "  ", "\t", "\xa0"])
BAD_CELLS = st.sampled_from(["", "NA", "1.5", "1e3", "1_000", "١٢", "0x1f",
                             "--1", "+", "1 2", '"1', "٣"])


@st.composite
def cells(draw, delimiter):
    """One cell's text: an integer, padded, signed or quoted, or a bad cell."""
    if draw(st.integers(0, 9)) == 0:
        text = draw(BAD_CELLS)
    else:
        value = draw(st.integers(-2**63, 2**63 - 1) | st.integers(-3, 120))
        text = ("+" if value >= 0 and draw(st.booleans()) else "") + str(value)
    text = draw(PADS) + text + draw(PADS)
    if draw(st.booleans()) or delimiter in text:
        text = '"' + text + '"'
    return text


@st.composite
def unused_cells(draw, delimiter):
    """Text in a column nobody asks for: anything, quoted when it must be."""
    text = draw(st.text(alphabet='ab 9,;|\t"\n', max_size=5))
    if any(c in text for c in (delimiter, '"', "\n")) or draw(st.booleans()):
        text = '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def delimited_files(draw):
    """(text, requested names, delimiter) for ``load_delimited``."""
    delimiter = draw(st.sampled_from([",", "\t", ";", "|", " "]))
    width = draw(st.integers(1, len(HEADER)))
    used = draw(st.lists(st.integers(0, width - 1), unique=True, max_size=width))
    names = [HEADER[j].swapcase() if draw(st.booleans()) else HEADER[j] for j in used]
    if draw(st.integers(0, 9)) == 0:
        names.append("absent")
    lines = [delimiter.join(draw(PADS) + h + draw(PADS) for h in HEADER[:width])]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")  # a blank line
            continue
        row = [draw(cells(delimiter)) if j in used else draw(unused_cells(delimiter))
               for j in range(width)]
        if draw(st.integers(0, 7)) == 0:
            row = row[:draw(st.integers(0, width - 1))]  # a short row
        elif draw(st.integers(0, 5)) == 0:
            row += [draw(unused_cells(delimiter))]  # an extra column
        lines.append(delimiter.join(row))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return text, names, delimiter


@settings(max_examples=400, deadline=None)
@given(case=delimited_files())
def test_load_delimited_matches_per_cell_parse(tmp_path_factory, case):
    text, names, delimiter = case
    path = tmp_path_factory.mktemp("raw") / "raw.txt"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt must not warn on no data
        got = outcome(load_delimited, path, names, delimiter=delimiter)
    want = outcome(load_delimited_by_cell, path, names, delimiter=delimiter)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.columns == want.columns
        assert got.rows.shape == want.rows.shape
        assert got.rows.tolist() == want.rows.tolist()


PREDICATES = st.one_of(
    st.builds(lambda v: {"in": v}, st.lists(st.integers(-2, 6), max_size=3)),
    st.builds(lambda k, v: {k: v}, st.sampled_from(["lt", "le", "gt", "ge"]),
              st.integers(-3, 7)),
    st.just({"any": True}),
)


@st.composite
def recode_rules(draw, name, codes):
    cases = draw(st.lists(st.tuples(PREDICATES, codes), max_size=3))
    # a rule with no cases needs a default code
    defaults = st.sampled_from([None, "drop"]) | codes if cases else codes
    return RecodeRule(
        name=name,
        source=tuple(draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=3))),
        cases=tuple(cases),
        missing=frozenset(draw(st.lists(st.integers(-2, 6), max_size=3))),
        default=draw(defaults),
        combine=draw(st.sampled_from(["first", "max", "min"])),
    )


@st.composite
def recode_cases(draw):
    """(raw table, rule set, strict) with values that rules may miss."""
    n = draw(st.integers(0, 20))
    rows = draw(st.lists(st.lists(st.integers(-2, 6), min_size=3, max_size=3),
                         min_size=n, max_size=n))
    raw = RawTable(["A", "B", "C"], np.array(rows, dtype=np.int64).reshape(n, 3))
    n_features = draw(st.integers(0, 3))
    features = tuple(draw(recode_rules(f"f{j}", st.integers(0, 3)))
                     for j in range(n_features))
    # a rare target code of 2 breaks the 0/1 target check; a target named
    # like a feature shares its audit counts
    target = draw(recode_rules(draw(st.sampled_from(["injury", "f0"])),
                               st.sampled_from([0, 1] * 10 + [2])))
    return raw, RecodeRuleSet(features, target), draw(st.booleans())


def example_case(columns, rows, features, strict=True):
    """A hand-made ``recode_cases`` draw; the target takes every row as 1."""
    target = RecodeRule("injury", ("A",), cases=(({"any": True}, 1),))
    raw = RawTable(columns, np.array(rows, dtype=np.int64))
    return raw, RecodeRuleSet(tuple(features), target), strict


@settings(max_examples=500, deadline=None)
@given(case=recode_cases())
# a later rule fails on an earlier row, so it names the error
@example(case=example_case(["A"], [[5], [0]], [
    RecodeRule("f0", ("A",), cases=(({"in": [5]}, 0),)),
    RecodeRule("f1", ("A",), cases=(({"in": [0]}, 0),))]))
# two rules fail on one row: the earlier rule names the error
@example(case=example_case(["A"], [[5]], [
    RecodeRule("f0", ("A",), cases=(({"in": [0]}, 0),)),
    RecodeRule("f1", ("A",), cases=(({"in": [1]}, 0),))]))
# not strict: a missing source of max gives the first source's raw value
@example(case=example_case(["A", "B"], [[1, 9]], [
    RecodeRule("f0", ("A", "B"), cases=(({"le": 1}, 0), ({"any": True}, 1)),
               missing=frozenset({9}), combine="max")], strict=False))
# a row dropped as missing is not charged to a later rule's "drop" default
@example(case=example_case(["A"], [[9], [3]], [
    RecodeRule("f0", ("A",), cases=(({"any": True}, 0),), missing=frozenset({9})),
    RecodeRule("f1", ("A",), cases=(({"in": [3]}, 0),), default="drop")]))
def test_recode_matches_per_row_loop(case):
    raw, rules, strict = case
    got = outcome(recode, raw, rules, strict=strict)
    want = outcome(recode_by_row, raw, rules, strict=strict)
    if isinstance(want, str):
        assert got == want
    else:
        (table, audit), (want_table, want_audit) = got, want
        assert table.schema == want_table.schema
        assert table.rows.tolist() == want_table.rows.tolist()
        assert table.target.tolist() == want_table.target.tolist()
        assert audit.to_json() == want_audit.to_json()


@settings(max_examples=200, deadline=None)
@given(names=st.lists(st.text(alphabet='ab ,"\n', min_size=1, max_size=4),
                      unique=True, max_size=4),
       n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_to_csv_matches_csv_writer(tmp_path_factory, names, n, seed):
    rng = np.random.default_rng(seed)
    schema = tuple(feature(name, range(12)) for name in names)
    table = CategoricalTable(schema, rng.integers(0, 12, size=(n, len(names))),
                             rng.integers(0, 2, size=n))
    directory = tmp_path_factory.mktemp("csv")
    table.to_csv(directory / "got.csv")
    to_csv_by_row(table, directory / "want.csv")
    assert (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()


COHORT_CODES = st.lists(st.integers(0, 4), max_size=4)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-1, 1)),
                     max_size=12),
       curve_codes=COHORT_CODES, negotiating_codes=st.none() | COHORT_CODES)
def test_filter_curve_cohort_matches_per_row_loop(rows, curve_codes, negotiating_codes):
    """The kept rows, in order, are the ones a per-row loop keeps; every row
    is retained or discarded, and an empty cohort warns."""
    raw = RawTable(["ALIGN", "PRE", "OTHER"], np.array(rows, dtype=np.int64).reshape(-1, 3))
    negotiating = () if negotiating_codes is None else ("PRE", negotiating_codes)
    want = [list(row) for row in rows if row[0] in curve_codes
            and (negotiating_codes is None or row[1] in negotiating_codes)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kept, retained, discarded = filter_curve_cohort(raw, "ALIGN", curve_codes,
                                                        *negotiating)
    assert kept.columns == raw.columns
    assert kept.rows.tolist() == want
    assert retained == len(want) and retained + discarded == len(rows)
    assert [str(w.message) for w in caught] == (
        [] if want else ["curve-cohort filter retained zero rows"])
