"""Ingestion, recoding, cohort filtering, crosstabs, and the synthetic
generator."""
import json
import warnings

import numpy as np
import pytest

from treebench.dataset import (
    CategoricalTable,
    CrosstabReport,
    DatasetError,
    FeatureSpec,
    RawTable,
    RecodeRule,
    RecodeRuleSet,
    SyntheticRules,
    binary_schema,
    crosstab,
    feature,
    filter_curve_cohort,
    generate_synthetic,
    load_delimited,
    planted_interaction_rules,
    planted_relevance_rules,
    recode,
    schema_from_json,
    schema_hash,
    schema_to_json,
)


def write_csv(path, text):
    path.write_text(text)
    return str(path)


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

    def test_headerless(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "1,2\n3,4\n")
        raw = load_delimited(path, ["A", "B"], header=False)
        assert raw.n_rows == 2
        assert raw.column("A").tolist() == [1, 3]

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_delimited(tmp_path / "absent.csv", ["A"])

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "")
        with pytest.raises(DatasetError):
            load_delimited(path, ["A"])


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
        ((({"in": 5}, 0),), "'in' needs a list of integers"),
        ((({"in": [1, "2"]}, 0),), "'in' needs a list of integers"),
        ((({"lt": 1.5}, 0),), "'lt' needs an integer"),
        ((({"ge": True}, 0),), "'ge' needs an integer"),
        ((({"lt": 1, "gt": 0}, 0),), "exactly one key"),
        (((5, 0),), "exactly one key"),
    ], ids=["unknown-key-behind-catch-all", "in-not-list", "in-non-integer",
            "lt-float", "ge-bool", "two-keys", "not-object"])
    def test_bad_predicate_rejected_at_construction(self, cases, match):
        with pytest.raises(DatasetError, match=match):
            RecodeRule("x", ("X",), cases=cases)

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
        ("default", 1.5, "default must be None, 'drop', or a code"),
        ("labels", {"0": "low", "x": "high"},
         "rule features\\[0\\] 'labels' keys are not all integer codes"),
    ], ids=["source-entry", "source-string", "missing-bool", "code-list",
            "when-not-object", "when-absent", "default-float", "label-key"])
    def test_rules_json_field_types(self, key, value, match):
        payload = json.loads(speed_year_rules().to_json())
        payload["features"][0][key] = value
        with pytest.raises(DatasetError, match=match):
            RecodeRuleSet.from_json(json.dumps(payload))

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


class TestCrosstab:
    def test_alignment_frequency_row(self):
        # curve-right region of the published alignment frequency table:
        # 1502 without injury, 1581 with, row percentages 49 / 51
        align = np.concatenate([
            np.full(1502, 2), np.full(1581, 2), np.full(10, 1), np.full(12, 1),
        ])
        outcome = np.concatenate([
            np.zeros(1502, int), np.ones(1581, int), np.zeros(10, int), np.ones(12, int),
        ])
        raw = RawTable(["ALIGN", "OUT"], np.column_stack([align, outcome]))
        report = crosstab(raw, "ALIGN", "OUT")
        i = report.row_codes.index(2)
        assert report.counts[i].tolist() == [1502, 1581]
        assert int(report.row_totals[i]) == 3083
        assert [round(v) for v in report.row_pct[i]] == [49, 51]
        assert report.grand_total == raw.n_rows

    def test_single_class_column(self):
        raw = RawTable(["A", "B"], np.array([[0, 1], [1, 1], [0, 1]]))
        report = crosstab(raw, "A", "B")
        assert report.counts.shape == (2, 1)
        assert np.allclose(report.row_pct, 100.0)

    def test_symmetric_quarters(self):
        rows = np.array([[0, 0], [0, 0], [0, 1], [0, 1],
                         [1, 0], [1, 0], [1, 1], [1, 1]])
        report = crosstab(RawTable(["A", "B"], rows), "A", "B")
        assert np.allclose(report.cell_pct, 25.0)

    def test_cell_pct_sums_to_100(self):
        rng = np.random.default_rng(11)
        rows = np.column_stack([
            rng.integers(0, 4, size=200), rng.integers(0, 3, size=200)
        ])
        report = crosstab(RawTable(["A", "B"], rows), "A", "B")
        assert report.cell_pct.sum() == pytest.approx(100.0, abs=0.5)
        assert report.counts.sum() == report.grand_total == 200

    def test_coded_table_with_target_and_labels(self):
        schema = (feature("speed", (0, 1), {0: "<46", 1: ">=46"}),)
        table = CategoricalTable(
            schema, np.array([[0], [1], [1]]), np.array([0, 1, 1])
        )
        report = crosstab(table, "speed", "target")
        assert report.row_labels == ("<46", ">=46")
        assert report.counts.tolist() == [[1, 0], [0, 2]]
        text = report.render()
        assert "speed x target" in text
        assert "total" in text

    def test_missing_variable(self):
        raw = RawTable(["A"], np.array([[0]]))
        with pytest.raises(DatasetError):
            crosstab(raw, "A", "B")


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

    def test_relevant_features_listed(self):
        rules = planted_relevance_rules(("f00", "f01"))
        assert rules.relevant_features() == ("f00", "f01")
        pair_rules = planted_interaction_rules(("f02", "f05"))
        assert set(pair_rules.relevant_features()) == {"f02", "f05"}

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
