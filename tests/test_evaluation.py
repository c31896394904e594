import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treebench import cli, evaluation
from treebench.baselines import (
    train_bayes_net,
    train_decision_list,
    train_logistic,
    train_mlp,
    train_mlps,
)
from treebench.dataset import (
    CategoricalTable,
    binary_schema,
    feature,
    generate_synthetic,
    planted_interaction_rules,
    schema_to_json,
)
from treebench.evaluation import (
    CoincidenceMatrix,
    EvalError,
    FoldPlan,
    LeaderboardRow,
    Leaderboard,
    RosterEntry,
    coincidence,
    compare_models,
    cross_validate,
    make_folds,
    overall_accuracy,
    predict_labels,
)
from treebench.forest import ForestParams, train_forest
from treebench.tree import (
    TreeParams,
    prune_c50,
    train_c50,
    train_cart,
    train_chaid,
    train_quest,
)

from oracles import fold_buckets, predict, with_cpus
from oracles import train_mlp as oracle_train_mlp


def majority_trainer(table):
    label = int(np.bincount(table.target, minlength=2).argmax())
    return lambda rows: np.full(len(rows), label, dtype=np.int64)


def random_table(n, m=3, codes=2, seed=0):
    rng = np.random.default_rng(seed)
    schema = [feature(f"f{j}", range(codes)) for j in range(m)]
    return CategoricalTable(
        schema, rng.integers(0, codes, size=(n, m)), rng.integers(0, 2, size=n)
    )


# ---------------------------------------------------------------------------
# Fold plans


def test_folds_partition_indices():
    y = np.random.default_rng(1).integers(0, 2, size=53)
    plan = make_folds(53, 7, stratified=True, labels=y, seed=4)
    seen = sorted(i for fold in plan.folds for i in fold)
    assert seen == list(range(53))
    sizes = [len(f) for f in plan.folds]
    assert max(sizes) - min(sizes) <= 1


def test_leave_one_out_shape():
    y = np.array([0, 1] * 5)
    plan = make_folds(10, 10, stratified=True, labels=y, seed=0)
    assert all(len(f) == 1 for f in plan.folds)


def test_740_rows_divide_evenly():
    y = np.array([1] * 394 + [0] * 346)
    plan = make_folds(740, 10, stratified=True, labels=y, seed=2)
    assert all(len(f) == 74 for f in plan.folds)
    positives = {int(y[list(f)].sum()) for f in plan.folds}
    assert positives <= {39, 40}


def test_stratified_class_balance_within_one():
    rng = np.random.default_rng(8)
    for trial in range(10):
        n = int(rng.integers(30, 200))
        k = int(rng.integers(2, 11))
        y = rng.integers(0, 2, size=n)
        plan = make_folds(n, k, stratified=True, labels=y, seed=trial)
        per_fold = [int(y[list(f)].sum()) for f in plan.folds]
        assert max(per_fold) - min(per_fold) <= 1


def test_fold_determinism_and_hash():
    y = np.random.default_rng(3).integers(0, 2, size=40)
    a = make_folds(40, 5, stratified=True, labels=y, seed=9)
    b = make_folds(40, 5, stratified=True, labels=y, seed=9)
    c = make_folds(40, 5, stratified=True, labels=y, seed=10)
    assert a.folds == b.folds
    assert a.plan_hash() == b.plan_hash()
    assert a.plan_hash() != c.plan_hash()


def test_unstratified_mode():
    plan = make_folds(20, 4, stratified=False, seed=1)
    seen = sorted(i for fold in plan.folds for i in fold)
    assert seen == list(range(20))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(2, 60), st.integers(1, 3), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_make_folds_matches_per_row_deal(data, n, classes, stratified, seed):
    k = data.draw(st.integers(2, n), label="k")
    y = np.array(data.draw(st.lists(st.integers(0, classes - 1), min_size=n,
                                    max_size=n), label="y"), dtype=np.int64)
    plan = make_folds(n, k, stratified=stratified,
                      labels=y if stratified else None, seed=seed)
    assert plan.folds == fold_buckets(n, k, stratified, y, seed)


def test_fold_input_validation():
    y = np.zeros(10, dtype=np.int64)
    with pytest.raises(EvalError):
        make_folds(10, 1, stratified=False)
    with pytest.raises(EvalError):
        make_folds(10, 11, stratified=True, labels=y)
    with pytest.raises(EvalError):
        make_folds(10, 5, stratified=True, labels=None)
    with pytest.raises(EvalError):
        make_folds(10, 5, stratified=True, labels=np.zeros(9, dtype=np.int64))


def test_fold_plan_self_validation():
    with pytest.raises(EvalError):
        FoldPlan(2, ((0, 1), (1, 2)), False, 0)
    with pytest.raises(EvalError):
        FoldPlan(2, ((0, 1, 2, 3, 4), (5,)), False, 0)


# ---------------------------------------------------------------------------
# Cross-validation


def test_majority_baseline_accuracy():
    data = random_table(100, seed=5)
    plan = make_folds(100, 10, stratified=True, labels=data.target, seed=0)
    result = cross_validate(majority_trainer, data, plan)
    rate = max(np.mean(data.target), 1 - np.mean(data.target))
    assert abs(result.mean_accuracy - rate) < 0.11
    assert len(result.predicted) == 100
    assert -1 not in result.predicted


def test_mean_equals_pooled_for_equal_folds():
    data = random_table(100, seed=6)
    plan = make_folds(100, 10, stratified=True, labels=data.target, seed=1)
    result = cross_validate(majority_trainer, data, plan)
    assert abs(result.mean_accuracy - result.pooled_accuracy) < 1e-12


def test_separable_data_perfect_score():
    rng = np.random.default_rng(12)
    rows = rng.integers(0, 2, size=(60, 2))
    data = CategoricalTable(
        [feature("f0", (0, 1)), feature("f1", (0, 1))], rows, rows[:, 0]
    )
    plan = make_folds(60, 6, stratified=True, labels=data.target, seed=0)
    result = cross_validate(
        lambda t: train_c50(t, TreeParams(min_records=1)), data, plan
    )
    assert result.mean_accuracy == 1.0


def test_trainer_failure_names_fold():
    data = random_table(30, seed=7)
    plan = make_folds(30, 5, stratified=True, labels=data.target, seed=0)

    def broken(table):
        raise RuntimeError("boom")

    with pytest.raises(EvalError, match="fold 0"):
        cross_validate(broken, data, plan)


def test_cross_validate_fits_no_fold_after_a_failing_one():
    data = random_table(30, seed=7)
    plan = make_folds(30, 5, stratified=True, labels=data.target, seed=0)
    for failing in (0, 2):
        calls = []

        def trainer(table):
            calls.append(table.n_rows)
            if len(calls) > failing:
                raise RuntimeError("boom")
            return majority_trainer(table)

        with pytest.raises(EvalError, match=f"^trainer failed on fold {failing}: boom$"):
            cross_validate(trainer, data, plan)
        assert len(calls) == failing + 1


def test_plan_size_mismatch():
    data = random_table(30, seed=7)
    plan = make_folds(29, 5, stratified=False, seed=0)
    with pytest.raises(EvalError):
        cross_validate(majority_trainer, data, plan)


def test_predict_labels_dispatch():
    data = random_table(40, seed=9)
    rows = data.rows[:5]
    models = (
        train_c50(data),
        train_forest(data, ForestParams(n_trees=3, seed=0)),
        train_logistic(data),
        train_mlp(data, epochs=3, seed=1),
        train_bayes_net(data),
        train_decision_list(data),
    )
    for model in models:
        labels = predict_labels(model, rows)
        probs = model.proba_batch(rows)
        assert labels.dtype == np.int64 and probs.dtype == np.float64
        assert labels.shape == probs.shape == (5,)
        assert ((probs >= 0.0) & (probs <= 1.0)).all()
        if model is models[0]:
            # a tree labels by leaf majority, never by thresholding
            expected = [predict(model, row)[0] for row in rows]
        else:
            expected = [int(p >= 0.5) for p in probs]
        assert labels.tolist() == expected
    assert list(predict_labels(lambda r: np.ones(len(r)), rows)) == [1] * 5
    with pytest.raises(EvalError):
        predict_labels(object(), rows)


# ---------------------------------------------------------------------------
# Coincidence matrix and overall accuracy


def test_published_matrix_consistency():
    truth = [0] * 346 + [1] * 394
    predicted = [0] * 206 + [1] * 140 + [0] * 69 + [1] * 325
    matrix = coincidence(truth, predicted)
    assert matrix.counts == ((206, 140), (69, 325))
    assert tuple(round(p) for p in matrix.row_percentages) == (60, 82)
    assert abs(overall_accuracy(matrix) - 71.757) < 0.001
    assert abs(overall_accuracy([[206, 140], [69, 325]]) - 71.757) < 0.001


def test_perfect_prediction():
    matrix = coincidence([0, 1, 0, 1], [0, 1, 0, 1])
    assert matrix.counts == ((2, 0), (0, 2))
    assert matrix.row_percentages == (100.0, 100.0)
    assert overall_accuracy(matrix) == 100.0


def test_degenerate_all_ones_predictor():
    truth = [0] * 5 + [1] * 5
    matrix = coincidence(truth, [1] * 10)
    assert matrix.counts == ((0, 5), (0, 5))
    assert overall_accuracy(matrix) == 50.0


def test_zero_diagonal():
    assert overall_accuracy([[0, 3], [4, 0]]) == 0.0


def test_accuracy_identity_with_elementwise_mean():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(1, 200))
        t = rng.integers(0, 2, size=n)
        p = rng.integers(0, 2, size=n)
        direct = 100.0 * float(np.mean(t == p))
        assert abs(overall_accuracy(coincidence(t, p)) - direct) < 1e-12


def test_matrix_input_validation():
    with pytest.raises(EvalError):
        coincidence([0, 1], [0])
    with pytest.raises(EvalError):
        coincidence([0, 2], [0, 1])
    with pytest.raises(EvalError):
        overall_accuracy([[0, 0], [0, 0]])
    with pytest.raises(EvalError):
        overall_accuracy([[1, 2, 3]])
    with pytest.raises(EvalError):
        CoincidenceMatrix(((1, -1), (0, 0)))


def test_matrix_render_rounds():
    matrix = coincidence([0] * 346 + [1] * 394,
                         [0] * 206 + [1] * 140 + [0] * 69 + [1] * 325)
    lines = matrix.render().split("\n")
    assert "206" in lines[1] and "60" in lines[1]
    assert "325" in lines[2] and "82" in lines[2]


# ---------------------------------------------------------------------------
# Leaderboard


def test_single_majority_roster():
    data = random_table(60, seed=30)
    plan = make_folds(60, 6, stratified=True, labels=data.target, seed=0)
    report = compare_models(
        data, [RosterEntry("majority", majority_trainer)], plan
    )
    assert len(report.leaderboard.rows) == 1
    row = report.leaderboard.rows[0]
    rate = 100.0 * max(np.mean(data.target), 1 - np.mean(data.target))
    assert abs(row.accuracy_pct - rate) < 11.0
    assert "majority" in report.coincidence


def test_rows_sorted_by_accuracy_not_input_order():
    rng = np.random.default_rng(31)
    rows = rng.integers(0, 2, size=(60, 2))
    data = CategoricalTable(
        [feature("f0", (0, 1)), feature("f1", (0, 1))], rows, rows[:, 0]
    )
    plan = make_folds(60, 6, stratified=True, labels=data.target, seed=0)
    roster = [
        RosterEntry("weak", majority_trainer),
        RosterEntry("strong",
                    lambda t: train_c50(t, TreeParams(min_records=1))),
    ]
    report = compare_models(data, roster, plan)
    names = [r.name for r in report.leaderboard.rows]
    assert names == ["strong", "weak"]
    assert report.fold_plan_hash == plan.plan_hash()


def test_accuracy_tie_sorts_by_name():
    data = random_table(40, seed=32)
    plan = make_folds(40, 4, stratified=True, labels=data.target, seed=0)
    roster = [
        RosterEntry("zeta", majority_trainer),
        RosterEntry("alpha", majority_trainer),
    ]
    report = compare_models(data, roster, plan)
    assert [r.name for r in report.leaderboard.rows] == ["alpha", "zeta"]


def test_compare_models_error_paths():
    data = random_table(30, seed=33)
    plan = make_folds(30, 5, stratified=True, labels=data.target, seed=0)
    with pytest.raises(EvalError):
        compare_models(data, [], plan)

    def broken(table):
        raise RuntimeError("nope")

    with pytest.raises(EvalError, match="bad_family"):
        compare_models(data, [RosterEntry("bad_family", broken)], plan)


def test_report_renders_and_repeats():
    data = random_table(50, seed=34)
    plan = make_folds(50, 5, stratified=True, labels=data.target, seed=1)
    roster = [RosterEntry("majority", majority_trainer)]
    first = compare_models(data, roster, plan).render()
    second = compare_models(data, roster, plan).render()
    assert first == second
    assert first.startswith("fold plan ")
    assert "majority" in first


def test_leaderboard_sort_enforced():
    rows = (
        LeaderboardRow("low", 40.0, 40.0, (0.4,)),
        LeaderboardRow("high", 90.0, 90.0, (0.9,)),
    )
    with pytest.raises(EvalError):
        Leaderboard(rows)


def test_interaction_favors_tree_over_logistic():
    schema = binary_schema(3)
    wins = 0
    for seed in range(3):
        data = generate_synthetic(
            schema, 200, seed=40 + seed,
            rules=planted_interaction_rules(("f00", "f01")),
        )
        plan = make_folds(200, 5, stratified=True, labels=data.target,
                          seed=seed)
        roster = [
            RosterEntry("c50", lambda t: train_c50(t, TreeParams())),
            RosterEntry("logistic", train_logistic),
        ]
        report = compare_models(data, roster, plan)
        scores = {r.name: r.accuracy_pct for r in report.leaderboard.rows}
        wins += scores["c50"] >= scores["logistic"]
    assert wins >= 2


# ---------------------------------------------------------------------------
# Forked worker pool against the in-process loop


def comparison_outcome(data, roster, plan):
    try:
        report = compare_models(data, roster, plan)
    except EvalError as exc:
        return "error", str(exc)
    return report.render(), report.leaderboard.rows, report.coincidence


FAMILIES = {
    "c50": lambda t: prune_c50(train_c50(t, TreeParams())),
    "chaid": lambda t: train_chaid(t, TreeParams()),
    "cart": lambda t: train_cart(t, TreeParams()),
    "quest": lambda t: train_quest(t, TreeParams()),
    "logistic": train_logistic,
    "mlp": lambda t: train_mlp(t, widths=(3,), epochs=4, seed=1),
    "bayes-net": lambda t: train_bayes_net(t, structure="greedy-search"),
    "decision-list": train_decision_list,
}


@settings(max_examples=6, deadline=None)
@given(n=st.integers(12, 40), m=st.integers(1, 3), codes=st.integers(2, 3),
       k=st.integers(2, 4), seed=st.integers(0, 2**16),
       names=st.lists(st.sampled_from(sorted(FAMILIES)), min_size=1,
                      max_size=4, unique=True))
def test_pool_and_inline_loop_agree(n, m, codes, k, seed, names):
    data = random_table(n, m=m, codes=codes, seed=seed)
    plan = make_folds(n, k, stratified=False, seed=seed)
    roster = [RosterEntry(name, FAMILIES[name]) for name in names]
    inline = with_cpus(1, comparison_outcome, data, roster, plan)
    pooled = with_cpus(2, comparison_outcome, data, roster, plan)
    assert pooled == inline


def test_pool_fits_run_in_forked_workers():
    parent = os.getpid()

    def where(table):  # labels 1 for a fit outside this process
        return lambda rows: np.full(len(rows), int(os.getpid() != parent))

    data = random_table(20, seed=3)
    plan = make_folds(20, 4, stratified=False, seed=0)
    roster = [RosterEntry("where", where)]
    truth = data.target.tolist()
    for n_cpus, label in ((1, 0), (2, 1)):
        result = with_cpus(n_cpus, compare_models, data, roster, plan)
        counts = result.coincidence["where"].counts
        assert counts[0][label] + counts[1][label] == len(truth)
    assert multiprocessing.active_children() == []


def held_fold_trainer(plan, failing_folds, message):
    """A majority trainer that raises on the folds in ``failing_folds``,
    telling folds apart by which row identifiers the training table lacks."""
    held = {frozenset(f): i for i, f in enumerate(plan.folds)}

    def trainer(table):
        ids = frozenset((table.rows[:, 0]).tolist())
        fold = held[frozenset(range(plan.n_rows)) - ids]
        if fold in failing_folds:
            raise RuntimeError(message)
        return majority_trainer(table)

    return trainer


def test_first_failure_in_serial_order_wins():
    n = 30
    rng = np.random.default_rng(5)
    data = CategoricalTable([feature("id", range(n)), feature("f", (0, 1))],
                            np.column_stack([np.arange(n),
                                             rng.integers(0, 2, n)]),
                            rng.integers(0, 2, n))
    plan = make_folds(n, 5, stratified=True, labels=data.target, seed=1)
    roster = [
        RosterEntry("fine", majority_trainer),
        RosterEntry("third", held_fold_trainer(plan, {3}, "only fold 3")),
        RosterEntry("every", held_fold_trainer(plan, set(range(5)), "always")),
    ]
    expected = "third: trainer failed on fold 3: only fold 3"
    for n_cpus in (1, 2):
        with pytest.raises(EvalError) as info:
            with_cpus(n_cpus, compare_models, data, roster, plan)
        assert str(info.value) == expected
        assert multiprocessing.active_children() == []


def batched_mlp(**options):
    """The roster entry of an MLP family whose folds train together."""
    return RosterEntry("mlp", lambda t: train_mlp(t, **options),
                       fold_trainer=lambda d, subsets: train_mlps(d, subsets, **options))


def test_fold_batch_family_gives_the_per_fold_report():
    data = random_table(60, m=3, codes=3, seed=7)
    plan = make_folds(60, 4, stratified=True, labels=data.target, seed=7)
    options = dict(widths=(4, 3), epochs=6, batch_size=8, seed=2)
    calls = []

    def together(d, subsets):
        calls.append(len(subsets))
        return train_mlps(d, subsets, **options)

    one_by_one = [RosterEntry("c50", FAMILIES["c50"]),
                  RosterEntry("mlp", lambda t: oracle_train_mlp(t, **options)),
                  RosterEntry("logistic", train_logistic)]
    batched = list(one_by_one)
    batched[1] = RosterEntry("mlp", one_by_one[1].trainer, fold_trainer=together)
    expected = comparison_outcome(data, one_by_one, plan)
    assert with_cpus(1, comparison_outcome, data, batched, plan) == expected
    assert calls == [4]  # one call for the four folds
    assert with_cpus(2, comparison_outcome, data, batched, plan) == expected
    assert multiprocessing.active_children() == []


def test_diverging_mlp_fails_on_its_lowest_failing_fold():
    # at this learning rate folds 1 and 2 diverge, fold 2 first (epoch 3) and
    # fold 1 later (epoch 9); the error is fold 1's, as the per-fold loop
    # raises it, whether the folds train together or not, on any CPU count
    data = random_table(100, m=4, codes=3, seed=5)
    plan = make_folds(100, 5, stratified=True, labels=data.target, seed=5)
    options = dict(widths=(8,), epochs=20, seed=1, learning_rate=2e306)
    expected = "mlp: trainer failed on fold 1: training loss became non-finite at epoch 9"
    for entry in (RosterEntry("mlp", lambda t: oracle_train_mlp(t, **options)),
                  batched_mlp(**options)):
        for n_cpus in (1, 2):
            with pytest.raises(EvalError) as info:
                with_cpus(n_cpus, compare_models, data,
                          [RosterEntry("fine", majority_trainer), entry], plan)
            assert str(info.value) == expected
    assert multiprocessing.active_children() == []


def test_fold_batch_failures_keep_the_family_order():
    # the batched family's task runs first, yet an earlier family's failure
    # is the one raised; a fold-batch trainer that raises fails on fold 0
    n = 30
    rng = np.random.default_rng(5)
    data = CategoricalTable([feature("id", range(n)), feature("f", (0, 1))],
                            np.column_stack([np.arange(n), rng.integers(0, 2, n)]),
                            rng.integers(0, 2, n))
    plan = make_folds(n, 5, stratified=True, labels=data.target, seed=1)

    def refuses(d, subsets):
        raise RuntimeError("no batch today")

    broken = RosterEntry("broken", majority_trainer, fold_trainer=refuses)
    for roster, expected in (
        ([RosterEntry("third", held_fold_trainer(plan, {3}, "only fold 3")), broken],
         "third: trainer failed on fold 3: only fold 3"),
        ([broken, RosterEntry("third", held_fold_trainer(plan, {3}, "only fold 3"))],
         "broken: trainer failed on fold 0: no batch today"),
    ):
        for n_cpus in (1, 2):
            with pytest.raises(EvalError) as info:
                with_cpus(n_cpus, compare_models, data, roster, plan)
            assert str(info.value) == expected
    assert multiprocessing.active_children() == []


def test_dead_worker_fails_the_comparison():
    parent = os.getpid()

    def dies_in_worker(table):
        if os.getpid() != parent:
            os._exit(3)  # as if killed: no exception, no result
        return majority_trainer(table)

    data = random_table(20, seed=6)
    plan = make_folds(20, 4, stratified=False, seed=0)
    roster = [RosterEntry("doomed", dies_in_worker)]
    with pytest.raises(EvalError, match="worker process stopped"):
        with_cpus(2, compare_models, data, roster, plan)
    assert multiprocessing.active_children() == []


def out_of_memory(table):
    raise MemoryError()


@pytest.mark.parametrize("run", [
    lambda data, plan: cross_validate(out_of_memory, data, plan),
    lambda data, plan: with_cpus(1, compare_models, data,
                                 [RosterEntry("oom", out_of_memory)], plan),
    lambda data, plan: with_cpus(2, compare_models, data,
                                 [RosterEntry("oom", out_of_memory)], plan),
], ids=["cross-validate", "compare-one-cpu", "compare-two-cpus"])
def test_fold_error_without_a_message_names_the_exception(run):
    data = random_table(20, seed=6)
    plan = make_folds(20, 4, stratified=False, seed=0)
    with pytest.raises(EvalError, match="trainer failed on fold 0: MemoryError$"):
        run(data, plan)
    assert multiprocessing.active_children() == []


ORPHAN_SCRIPT = """
import os, time
import numpy as np
from treebench.dataset import CategoricalTable, feature
from treebench.evaluation import RosterEntry, compare_models, make_folds

def slow(table):  # names its process in one write, then outlasts the test
    os.write(1, f"{os.getpid()}\\n".encode())
    time.sleep(60)

os.sched_getaffinity = lambda pid: {0, 1}
rng = np.random.default_rng(0)
data = CategoricalTable([feature("f", (0, 1))], rng.integers(0, 2, size=(20, 1)),
                        rng.integers(0, 2, size=20))
compare_models(data, [RosterEntry("slow", slow)], make_folds(20, 4, stratified=False))
"""


def running(pid):
    """Whether process ``pid`` still runs; a zombie has exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.exists("/proc/self/stat")),
                    reason="needs fork and /proc")
def test_pool_workers_exit_when_their_parent_is_killed():
    src = os.path.dirname(os.path.dirname(evaluation.__file__))
    child = subprocess.Popen([sys.executable, "-c", ORPHAN_SCRIPT],
                             stdout=subprocess.PIPE, bufsize=0,
                             env=dict(os.environ, PYTHONPATH=src))
    workers = set()
    try:
        while len(workers) < 2 and select.select([child.stdout], [], [], 30)[0]:
            workers.add(int(child.stdout.readline()))
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    assert len(workers) == 2 and child.pid not in workers
    deadline = time.monotonic() + 5
    while any(map(running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if running(pid)]
    for pid in left:  # leave no process behind, even when the test fails
        os.kill(pid, signal.SIGKILL)
    assert left == []


def test_pool_and_inline_loop_record_the_same_warnings():
    def warning_trainer(table):
        warnings.warn(f"fit on {table.n_rows} rows", RuntimeWarning)
        return majority_trainer(table)

    data = random_table(23, seed=4)
    plan = make_folds(23, 4, stratified=False, seed=2)
    roster = [RosterEntry("a", warning_trainer), RosterEntry("b", warning_trainer)]

    def recorded(n_cpus):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with_cpus(n_cpus, compare_models, data, roster, plan)
        return [(str(w.message), w.category, w.filename, w.lineno)
                for w in caught]

    inline = recorded(1)
    assert len(inline) == 8
    assert inline[0] == ("fit on 17 rows", RuntimeWarning, __file__,
                         warning_trainer.__code__.co_firstlineno + 1)
    assert recorded(2) == inline


@pytest.mark.parametrize("params, status", [
    ({}, 0),
    ({"logistic": {"max_iterations": 0}}, 1),  # cannot converge: fails on fold 0
])
def test_cli_output_does_not_depend_on_cpu_count(tmp_path, capsys, monkeypatch,
                                                params, status):
    # 8 rows in 2 folds: each logistic fit warns about 4 rows and 4 parameters
    schema = binary_schema(3)
    generate_synthetic(schema, 8, seed=5,
                       rules=planted_interaction_rules(("f00", "f01"))).to_csv(
        tmp_path / "coded.csv")
    (tmp_path / "schema.json").write_text(schema_to_json(schema))
    (tmp_path / "config.json").write_text(json.dumps({
        "seed": 11, "table": "coded.csv", "schema": "schema.json", "folds": 2,
        "roster": ["c50", "logistic"], "roster_params": params}))

    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename,
                                                lineno, line))

    monkeypatch.chdir(tmp_path)  # both runs print "wrote ... to out"
    outputs = []
    for n_cpus in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("default")  # once per location, as outside tests
            warnings.showwarning = show  # stderr, not pytest's recorder
            got = with_cpus(n_cpus, cli.main, ["compare", "--config",
                                               str(tmp_path / "config.json"),
                                               "--out", "out"])
        assert got == status
        captured = capsys.readouterr()
        outputs.append((captured.out, captured.err))
        assert multiprocessing.active_children() == []
    assert outputs[0] == outputs[1]
    err = outputs[0][1]
    if status == 0:
        assert err.count("may be unstable") == 1
    else:
        assert err.count("\n") == 1 and err.startswith("error: logistic: ")
