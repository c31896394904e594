import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treebench import baselines as baselines_module
from treebench.baselines import (
    BaselineError,
    BayesNetModel,
    ConvergenceError,
    DecisionListModel,
    DecisionRule,
    LogisticModel,
    MlpModel,
    bayes_joint_probability,
    check_options,
    mlp_loss_and_gradients,
    model_from_json,
    predict_batch,
    train_bayes_net,
    train_decision_list,
    train_logistic,
    train_mlp,
    train_mlps,
)
from treebench.dataset import CategoricalTable, feature
from treebench.evaluation import make_folds

import oracles


def table_from(rows, target, codes=None):
    rows = np.asarray(rows, dtype=np.int64)
    if codes is None:
        codes = [tuple(range(int(rows[:, j].max()) + 1))
                 for j in range(rows.shape[1])]
    schema = [feature(f"f{j}", c) for j, c in enumerate(codes)]
    return CategoricalTable(schema, rows, np.asarray(target, dtype=np.int64))


def logit(p):
    return math.log(p / (1.0 - p))


def predict_proba(model, row) -> float:
    """Class-1 probability of one row, through the batch protocol."""
    return float(model.proba_batch(np.asarray(row)[None])[0])


def predict(model, row) -> int:
    return int(model.predict_batch(np.asarray(row)[None])[0])


# ---------------------------------------------------------------------------
# Logistic regression


def test_logistic_null_model():
    rows = [[0]] * 50 + [[1]] * 50
    target = [1] * 30 + [0] * 20 + [1] * 30 + [0] * 20
    model = train_logistic(table_from(rows, target))
    assert abs(model.intercept - logit(0.6)) < 1e-6
    assert abs(model.coefficients[0]) < 1e-6


def test_logistic_two_by_two_closed_form():
    rows = [[0]] * 50 + [[1]] * 50
    target = [1] * 10 + [0] * 40 + [1] * 40 + [0] * 10
    model = train_logistic(table_from(rows, target))
    expected = logit(0.8) - logit(0.2)
    assert abs(model.coefficients[0] - expected) < 1e-3
    assert abs(model.intercept - logit(0.2)) < 1e-3


def test_logistic_predictions_in_open_interval():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 3, size=(60, 2))
    target = rng.integers(0, 2, size=60)
    model = train_logistic(table_from(rows, target, [(0, 1, 2), (0, 1, 2)]))
    for row in rows[:20]:
        p = predict_proba(model, row)
        assert 0.0 < p < 1.0
        assert predict(model, row) == (1 if p >= 0.5 else 0)


def test_logistic_score_equations_hold():
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 2, size=(80, 3))
    z = -0.5 + rows[:, 0] * 1.2 - rows[:, 1] * 0.7
    target = (rng.random(80) < 1 / (1 + np.exp(-z))).astype(int)
    data = table_from(rows, target, [(0, 1)] * 3)
    l2 = 1e-6
    model = train_logistic(data, l2=l2)
    x = np.hstack([np.ones((80, 1)),
                   np.stack([rows[:, j] == 1 for j in range(3)], axis=1)])
    beta = np.array([model.intercept, *model.coefficients])
    p = 1 / (1 + np.exp(-(x @ beta)))
    score = x.T @ (target - p) - l2 * beta
    assert np.abs(score).max() < 1e-8 * 80


def test_logistic_separable_data_stays_finite():
    rows = [[0]] * 20 + [[1]] * 20
    target = [0] * 20 + [1] * 20
    model = train_logistic(table_from(rows, target))
    assert all(math.isfinite(c) for c in model.coefficients)
    assert predict(model, [0]) == 0 and predict(model, [1]) == 1


def test_logistic_non_convergence_error():
    rows = [[0]] * 20 + [[1]] * 20
    target = [1] * 5 + [0] * 15 + [1] * 15 + [0] * 5
    with pytest.raises(ConvergenceError) as exc:
        train_logistic(table_from(rows, target), max_iterations=0)
    assert exc.value.iterations == 0
    assert exc.value.gradient_norm > 0


def test_logistic_iteration_budget_boundary():
    # a fit that converges after k Newton steps converges within a budget of
    # exactly k, to the same model, and fails within k - 1
    rows = [[0]] * 20 + [[1]] * 20
    target = [1] * 5 + [0] * 15 + [1] * 15 + [0] * 5
    data = table_from(rows, target)
    model = train_logistic(data)
    k = model.iterations
    assert k >= 1
    exact = train_logistic(data, max_iterations=k)
    assert exact.iterations == k and exact.to_json() == model.to_json()
    with pytest.raises(ConvergenceError) as exc:
        train_logistic(data, max_iterations=k - 1)
    assert exc.value.iterations == k - 1
    assert f"did not converge in {k - 1} iterations" in str(exc.value)


def test_logistic_warns_when_underdetermined():
    rows = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    target = [0, 1, 0]
    with pytest.warns(UserWarning):
        train_logistic(table_from(rows, target, [(0, 1, 2)] * 3))


def test_logistic_deterministic():
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 2, size=(50, 2))
    target = rng.integers(0, 2, size=50)
    data = table_from(rows, target, [(0, 1)] * 2)
    a = train_logistic(data)
    b = train_logistic(data)
    assert a.coefficients == b.coefficients and a.intercept == b.intercept


# ---------------------------------------------------------------------------
# Feed-forward network


def build_mlp_table(seed=9, n=60):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, [3, 2], size=(n, 2))
    target = rng.integers(0, 2, size=n)
    return table_from(rows, target, [(0, 1, 2), (0, 1)])


def test_mlp_gradient_matches_central_differences():
    data = build_mlp_table()
    model = train_mlp(data, epochs=2, seed=4)
    rows, target = data.rows, data.target
    _, grads_w, grads_b = mlp_loss_and_gradients(model, rows, target)
    rng = np.random.default_rng(17)
    eps = 1e-5

    def loss_with(weights, biases):
        probe = MlpModel(model.feature_names, model.levels, tuple(weights),
                         tuple(biases), "tanh", model.schema_hash, model.seed)
        return mlp_loss_and_gradients(probe, rows, target)[0]

    for _ in range(5):
        k = int(rng.integers(len(model.weights)))
        i = int(rng.integers(model.weights[k].shape[0]))
        j = int(rng.integers(model.weights[k].shape[1]))
        up = [w.copy() for w in model.weights]
        down = [w.copy() for w in model.weights]
        up[k][i, j] += eps
        down[k][i, j] -= eps
        numeric = (loss_with(up, model.biases)
                   - loss_with(down, model.biases)) / (2 * eps)
        analytic = grads_w[k][i, j]
        rel = abs(numeric - analytic) / max(1e-12, abs(numeric) + abs(analytic))
        assert rel < 1e-4
    for _ in range(3):
        k = int(rng.integers(len(model.biases)))
        i = int(rng.integers(model.biases[k].shape[0]))
        up = [b.copy() for b in model.biases]
        down = [b.copy() for b in model.biases]
        up[k][i] += eps
        down[k][i] -= eps
        numeric = (loss_with(model.weights, up)
                   - loss_with(model.weights, down)) / (2 * eps)
        analytic = grads_b[k][i]
        rel = abs(numeric - analytic) / max(1e-12, abs(numeric) + abs(analytic))
        assert rel < 1e-4


def test_mlp_learns_separable_data():
    rng = np.random.default_rng(2)
    rows = rng.integers(0, 2, size=(80, 2))
    target = rows[:, 0]
    data = table_from(rows, target, [(0, 1)] * 2)
    model = train_mlp(data, seed=0)
    accuracy = np.mean(predict_batch(model, rows) == target)
    assert accuracy >= 0.95


def test_mlp_zero_epochs_near_constant():
    data = build_mlp_table()
    model = train_mlp(data, epochs=0, seed=6)
    probs = [predict_proba(model, row) for row in data.rows[:20]]
    assert max(probs) - min(probs) < 0.2
    assert all(0.2 < p < 0.8 for p in probs)


def test_mlp_deterministic_and_structured():
    data = build_mlp_table()
    a = train_mlp(data, epochs=3, seed=8)
    b = train_mlp(data, epochs=3, seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert len(a.weights) == 6  # five hidden layers plus the output layer
    assert a.weights[-1].shape[0] == 1


def test_mlp_option_validation():
    data = build_mlp_table()
    with pytest.raises(BaselineError):
        train_mlp(data, widths=(0,))
    with pytest.raises(BaselineError):
        train_mlp(data, learning_rate=0.0)
    with pytest.raises(BaselineError):
        train_mlp(data, batch_size=0)


def test_check_options_rejects_an_unknown_knob():
    with pytest.raises(BaselineError, match="'bogus'"):
        check_options("logistic", {"bogus": 1})


def test_mlp_divergence_raises():
    data = build_mlp_table()
    with pytest.raises(ConvergenceError):
        train_mlp(data, learning_rate=1e308, epochs=5, seed=1)


def mlp_outcome(fit):
    """A trained network as the float.hex of every weight and bias, or a
    ConvergenceError as its message and epoch."""
    if isinstance(fit, ConvergenceError):
        return "error", str(fit), fit.iterations
    return [[float.hex(float(v)) for v in p.ravel()] + [p.shape]
            for p in fit.weights + fit.biases]


def oracle_outcome(table, **options):
    try:
        return mlp_outcome(oracles.train_mlp(table, **options))
    except ConvergenceError as error:
        return mlp_outcome(error)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 45), m=st.integers(1, 3), codes=st.integers(2, 3),
       k=st.integers(2, 5), extra=st.integers(0, 2**16), data_seed=st.integers(0, 2**16),
       widths=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       batch_size=st.integers(1, 12), epochs=st.integers(0, 6),
       patience=st.integers(1, 3), seed=st.integers(0, 3),
       learning_rate=st.sampled_from([0.1, 2.0, 1e307, 3e307]))
@example(n=9, m=2, codes=2, k=3, extra=1, data_seed=0, widths=[3], batch_size=4,
         epochs=4, patience=1, seed=0, learning_rate=0.1)  # no validation rows
@example(n=40, m=3, codes=3, k=4, extra=2, data_seed=1, widths=[4, 2],
         batch_size=5, epochs=0, patience=1, seed=1, learning_rate=0.1)
@example(n=11, m=3, codes=2, k=4, extra=8430, data_seed=17271, widths=[1, 1],
         batch_size=8, epochs=6, patience=3, seed=1,
         learning_rate=3e307)  # one network's validation loss overflows
def test_train_mlps_matches_the_per_table_oracle(n, m, codes, k, extra, data_seed,
                                                 widths, batch_size, epochs,
                                                 patience, seed, learning_rate):
    """Every network of the stack is the one the per-table loop trains, to the
    last bit, or fails with the same error at the same epoch: on fold
    complements (sizes a row apart) and on one random subset besides, with
    batch sizes that do and do not divide the training sizes."""
    rng = np.random.default_rng(data_seed)
    data = table_from(rng.integers(0, codes, size=(n, m)), rng.integers(0, 2, n),
                      [tuple(range(codes))] * m)
    subsets = [make_folds(n, k, stratified=False, seed=extra).train_indices(i)
               for i in range(k)] if k <= n else []
    subsets.append(np.flatnonzero(rng.random(n) < 0.6) if n > 1 else np.arange(n))
    subsets = [s for s in subsets if s.size]
    options = dict(widths=tuple(widths), learning_rate=learning_rate, epochs=epochs,
                   batch_size=batch_size, patience=patience, seed=seed)
    fits = train_mlps(data, subsets, **options)
    assert len(fits) == len(subsets)
    for rows, fit in zip(subsets, fits):
        assert mlp_outcome(fit) == oracle_outcome(data.take_rows(rows), **options)


def test_train_mlps_fails_only_the_networks_that_diverge():
    # at this learning rate folds 1 and 2 of 5 diverge, fold 2 three epochs
    # in and fold 1 nine; the other networks train on to their own stop
    rng = np.random.default_rng(5)
    data = table_from(rng.integers(0, 3, size=(100, 4)), rng.integers(0, 2, 100),
                      [(0, 1, 2)] * 4)
    plan = make_folds(100, 5, stratified=True, labels=data.target, seed=5)
    subsets = [plan.train_indices(i) for i in range(5)]
    options = dict(widths=(8,), epochs=20, seed=1, learning_rate=2e306)
    fits = train_mlps(data, subsets, **options)
    outcomes = [mlp_outcome(fit) for fit in fits]
    assert [o[0] == "error" for o in outcomes] == [False, True, True, False, False]
    assert [fits[1].iterations, fits[2].iterations] == [9, 3]
    for rows, outcome in zip(subsets, outcomes):
        assert outcome == oracle_outcome(data.take_rows(rows), **options)


def test_train_mlp_is_the_one_table_stack():
    data = build_mlp_table()
    for options in (dict(epochs=3, seed=8), dict(widths=(4, 3), epochs=12, batch_size=7)):
        assert mlp_outcome(train_mlp(data, **options)) == oracle_outcome(data, **options)
        whole, = train_mlps(data, [np.arange(data.n_rows)], **options)
        assert mlp_outcome(whole) == oracle_outcome(data, **options)


def test_train_mlps_refuses_an_empty_subset():
    with pytest.raises(BaselineError, match="at least one row"):
        train_mlps(build_mlp_table(), [np.arange(5), np.arange(0)])


def test_mlp_layer_chain_validation():
    data = build_mlp_table()
    model = train_mlp(data, epochs=1, seed=1)
    broken = list(model.weights)
    broken[2] = np.zeros((16, 7))
    with pytest.raises(BaselineError):
        MlpModel(model.feature_names, model.levels, tuple(broken),
                 model.biases, "tanh", model.schema_hash, 1)


# ---------------------------------------------------------------------------
# Bayesian network


def test_bayes_posterior_hand_computed():
    rows = [[0]] * 6 + [[1]] * 4
    target = [0, 0, 0, 0, 1, 1, 0, 1, 1, 1]
    model = train_bayes_net(table_from(rows, target))
    # counts: f=0 -> target (4,2); f=1 -> target (1,3); priors (5,5)
    # alpha=1: P(t=1)=6/12, P(f0=0|t=1)=3/7, P(f0=0|t=0)=5/7
    expected = (0.5 * 3 / 7) / (0.5 * 3 / 7 + 0.5 * 5 / 7)
    assert abs(predict_proba(model, [0]) - expected) < 1e-12


def test_bayes_joint_normalizes():
    rng = np.random.default_rng(23)
    rows = rng.integers(0, [3, 2, 2], size=(40, 3))
    target = rng.integers(0, 2, size=40)
    for structure in ("naive", "greedy-search"):
        model = train_bayes_net(
            table_from(rows, target, [(0, 1, 2), (0, 1), (0, 1)]),
            structure=structure,
        )
        total = 0.0
        for t in (0, 1):
            for a in (0, 1, 2):
                for b in (0, 1):
                    for c in (0, 1):
                        total += bayes_joint_probability(model, t, [a, b, c])
        assert abs(total - 1.0) < 1e-12


def test_bayes_cpt_rows_sum_to_one():
    rng = np.random.default_rng(29)
    rows = rng.integers(0, 3, size=(30, 2))
    target = rng.integers(0, 2, size=30)
    model = train_bayes_net(table_from(rows, target, [(0, 1, 2)] * 2))
    for node, cpt in model.cpts.items():
        assert np.allclose(cpt.sum(axis=-1), 1.0, atol=1e-12)


def test_bayes_large_alpha_uniform():
    rows = [[0]] * 8 + [[1]] * 2
    target = [0] * 5 + [1] * 5
    model = train_bayes_net(table_from(rows, target), alpha=1e9)
    for cpt in model.cpts.values():
        assert np.allclose(cpt, 1.0 / cpt.shape[-1], atol=1e-6)


def test_bayes_greedy_no_worse_than_naive():
    rng = np.random.default_rng(31)
    f0 = rng.integers(0, 2, size=100)
    flip = rng.random(100) < 0.1
    f1 = np.where(flip, 1 - f0, f0)
    target = (rng.random(100) < np.where(f0 == 1, 0.8, 0.2)).astype(int)
    data = table_from(np.stack([f0, f1], axis=1), target, [(0, 1)] * 2)
    naive = train_bayes_net(data, structure="naive")
    greedy = train_bayes_net(data, structure="greedy-search")
    assert greedy.score >= naive.score - 1e-9


def test_bayes_input_validation():
    data = table_from([[0], [1]], [0, 1])
    with pytest.raises(BaselineError):
        train_bayes_net(data, structure="loopy")
    with pytest.raises(BaselineError):
        train_bayes_net(data, alpha=0.0)
    model = train_bayes_net(data)
    with pytest.raises(BaselineError):
        predict_proba(model, [7])


def test_bayes_cycle_rejected():
    model = train_bayes_net(table_from([[0], [1]], [0, 1]))
    with pytest.raises(BaselineError):
        BayesNetModel(model.feature_names, model.levels,
                      {"target": ("f0",), "f0": ("target",)},
                      model.cpts, 1.0, 0.0, model.schema_hash)


# ---------------------------------------------------------------------------
# Decision list


def test_decision_list_pure_feature():
    rows = [[0]] * 5 + [[1]] * 5
    target = [0] * 5 + [1] * 5
    model = train_decision_list(table_from(rows, target))
    assert len(model.rules) == 1
    assert model.rules[0].literals == ((0, 0),)
    assert model.rules[0].klass == 0
    assert model.default_class == 1
    assert np.mean(predict_batch(model, np.array(rows)) == target) == 1.0


def test_decision_list_rule_coverage_disjoint():
    rng = np.random.default_rng(37)
    rows = rng.integers(0, 3, size=(80, 3))
    target = ((rows[:, 0] == 1) | (rows[:, 1] == 2)).astype(int)
    data = table_from(rows, target, [(0, 1, 2)] * 3)
    model = train_decision_list(data)
    claimed = np.full(80, -1)
    for rank, rule in enumerate(model.rules):
        for i, row in enumerate(rows):
            if claimed[i] == -1 and all(row[j] == code for j, code in rule.literals):
                claimed[i] = rank
    for rank, rule in enumerate(model.rules):
        assert int((claimed == rank).sum()) == rule.coverage


def test_decision_list_first_match_wins():
    model = DecisionListModel(
        feature_names=("f0",),
        levels=((0, 1),),
        rules=(
            DecisionRule(((0, 0),), 1, 0.9, 5),
            DecisionRule(((0, 0),), 0, 0.8, 5),
        ),
        default_class=0,
        default_precision=0.6,
        schema_hash="0" * 16,
    )
    assert predict_proba(model, [0]) == 0.9
    assert predict_proba(model, [1]) == 1.0 - 0.6


def test_decision_list_recovers_planted_rules():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        rows = rng.integers(0, [2, 3, 2], size=(100, 3))
        target = ((rows[:, 0] == 1) | (rows[:, 1] == 1)).astype(int)
        data = table_from(rows, target, [(0, 1), (0, 1, 2), (0, 1)])
        model = train_decision_list(data)
        hits += bool(np.all(predict_batch(model, rows) == target))
    assert hits >= 18


def test_decision_list_thresholds():
    rows = [[0]] * 5 + [[1]] * 5
    target = [0] * 5 + [1] * 5
    model = train_decision_list(table_from(rows, target), min_coverage=6)
    assert model.rules == ()
    with pytest.raises(BaselineError):
        train_decision_list(table_from(rows, target), min_coverage=0)
    with pytest.raises(BaselineError):
        train_decision_list(table_from(rows, target), max_literals=0)


def test_decision_list_probability_is_rule_precision():
    rows = [[0]] * 8 + [[1]] * 8
    target = [0] * 7 + [1] + [1] * 6 + [0] * 2
    model = train_decision_list(table_from(rows, target))
    for rule in model.rules:
        row = np.zeros(1, dtype=np.int64)
        row[0] = rule.literals[0][1]
        expected = rule.precision if rule.klass == 1 else 1 - rule.precision
        assert predict_proba(model, row) == pytest.approx(expected, abs=1e-12)
        break


def scalar_grow_rule(rows, y, levels, max_literals):
    """Oracle for the hit-matrix ``_grow_rule``: the per-literal loop it
    replaced, one mask and one class count per (feature, code) and step,
    the winner the tuple maximum of (precision, coverage, -feature, -code).
    """
    def laplace(class_count, covered):
        return (class_count + 1.0) / (covered + 2.0)

    def majority(labels):
        counts = np.bincount(labels, minlength=2)
        klass = int(np.argmax(counts))
        return klass, int(counts[klass])

    mask = np.ones(len(y), dtype=bool)
    literals = []
    klass, top = majority(y)
    precision = laplace(top, len(y))
    while len(literals) < max_literals:
        used = {j for j, _ in literals}
        best = None
        for j in range(rows.shape[1]):
            if j in used:
                continue
            for code in levels[j]:
                sub = mask & (rows[:, j] == code)
                covered = int(sub.sum())
                if covered == 0:
                    continue
                sub_class, sub_top = majority(y[sub])
                cand = (laplace(sub_top, covered), covered, -j, -code)
                if best is None or cand > best[0]:
                    best = (cand, j, code, sub, sub_class)
        if best is None or best[0][0] <= precision + 1e-12:
            break
        cand, j, code, sub, sub_class = best
        literals.append((j, code))
        mask = sub
        precision = cand[0]
        klass = sub_class
    if not literals:
        return None
    return DecisionRule(tuple(literals), klass, precision, int(mask.sum())), mask


@st.composite
def tied_tables(draw):
    """Small tables with many ties: few rows, 2-3 codes, and sometimes a
    copy of the first column, so two features score the same."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 4))
    codes = [tuple(sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=3))))
             for _ in range(m)]
    rows = np.array([[draw(st.sampled_from(c)) for c in codes] for _ in range(n)],
                    dtype=np.int64).reshape(n, m)
    if draw(st.booleans()):
        rows = np.hstack([rows, rows[:, :1]])
        codes.append(codes[0])
    target = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return table_from(rows, target, codes)


@settings(max_examples=300, deadline=None)
@given(data=tied_tables(), min_coverage=st.integers(1, 3),
       purity=st.sampled_from([0.0, 0.5, 0.8]), max_literals=st.integers(1, 4))
# codes 0 and 1 tie on precision 2/3 (1 of 1 and 3 of 4); coverage decides
@example(data=table_from([[0]] + [[1]] * 4 + [[2]] * 4,
                         [1, 1, 1, 1, 0, 1, 1, 0, 0], [(0, 1, 2)]),
         min_coverage=1, purity=0.5, max_literals=2)
def test_decision_list_matches_scalar_oracle(data, min_coverage, purity, max_literals):
    """The hit-matrix rule growth gives the very same model text as the
    per-literal loop, ties in precision and coverage included."""
    options = dict(min_coverage=min_coverage, purity_threshold=purity,
                   max_literals=max_literals)
    batched = train_decision_list(data, **options).to_json()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baselines_module, "_grow_rule", scalar_grow_rule)
        assert train_decision_list(data, **options).to_json() == batched


# ---------------------------------------------------------------------------
# Shared contract


def trained_quartet():
    rng = np.random.default_rng(41)
    rows = rng.integers(0, 2, size=(60, 2))
    target = (rows[:, 0] ^ (rng.random(60) < 0.15)).astype(int)
    data = table_from(rows, target, [(0, 1)] * 2)
    return data, [
        train_logistic(data),
        train_mlp(data, epochs=3, seed=1),
        train_bayes_net(data),
        train_decision_list(data),
    ]


def test_predict_proba_bounds_and_threshold():
    data, models = trained_quartet()
    for model in models:
        for row in data.rows[:15]:
            p = predict_proba(model, row)
            assert 0.0 <= p <= 1.0
            assert predict(model, row) == (1 if p >= 0.5 else 0)


def test_row_length_mismatch_rejected():
    _, models = trained_quartet()
    for model in models:
        with pytest.raises(BaselineError):
            predict_proba(model, [0, 1, 0])


def test_unknown_model_rejected():
    with pytest.raises(BaselineError, match="unknown model kind 'tree'"):
        model_from_json('{"kind": "tree"}')
    with pytest.raises(BaselineError, match="unknown model kind None"):
        model_from_json('{"feature_names": []}')


def test_serialization_round_trips():
    data, models = trained_quartet()
    probe = data.rows[:10]
    for model in models:
        text = model.to_json()
        restored = model_from_json(text)
        assert restored.to_json() == text
        before = [predict_proba(model, r) for r in probe]
        after = [predict_proba(restored, r) for r in probe]
        assert before == after


def test_logistic_model_requires_finite_coefficients():
    with pytest.raises(BaselineError):
        LogisticModel(("f0",), ((0, 1),), float("nan"), (0.0,), "0" * 16, 1)
