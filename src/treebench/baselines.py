"""Non-tree comparison classifiers behind one shared contract.

Four model families live here: penalized logistic regression, a small
feed-forward network, a discrete Bayesian network, and a sequential-covering
decision list.  Every trained model answers ``proba_batch(rows)`` with the
probability of class 1 for each row of a matrix, and ``predict_batch``
thresholds that at 0.5.  ``to_json`` writes a model as one JSON object, its
``kind`` plus every field, and ``model_from_json`` reads any of them back.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .dataset import (ANY, LIST, NAMES, NATURAL, NATURALS, OBJECT, CategoricalTable,
                      Rule, _is_integer, _shown, check, check_key, check_knobs,
                      integer, list_of, number, read_fields, read_json)

__all__ = [
    "BaselineError",
    "ConvergenceError",
    "LogisticModel",
    "MlpModel",
    "BayesNetModel",
    "DecisionRule",
    "DecisionListModel",
    "train_logistic",
    "train_mlp",
    "train_mlps",
    "train_bayes_net",
    "train_decision_list",
    "mlp_loss_and_gradients",
    "check_options",
    "predict_batch",
    "model_from_json",
]


class BaselineError(ValueError):
    """Invalid input or row/schema mismatch for a baseline model."""


class ConvergenceError(BaselineError):
    """Optimization failed to converge; carries the final diagnostics."""

    def __init__(self, message: str, iterations: int, gradient_norm: float):
        super().__init__(message)
        self.iterations = iterations
        self.gradient_norm = gradient_norm


# ---------------------------------------------------------------------------
# One-hot encoding shared by logistic and MLP models


def _one_hot(rows: np.ndarray, levels) -> np.ndarray:
    """Indicator matrix of a row matrix: one column per non-reference code
    (all codes of ``levels[j]`` but the first) of each feature j."""
    cols = [rows[:, j] == code for j, lv in enumerate(levels) for code in lv[1:]]
    if not cols:
        return np.zeros((rows.shape[0], 0))
    return np.stack(cols, axis=1).astype(float)


def _width(levels) -> int:
    """Columns of ``_one_hot`` over ``levels``."""
    return sum(len(lv) - 1 for lv in levels)


def _tuples(items) -> tuple:
    return tuple(tuple(v) for v in items)


def _arrays(items) -> tuple:
    return tuple(np.array(v, dtype=float) for v in items)


# Decoders from the JSON value of the fields every baseline has.
_DECODERS = {"feature_names": tuple, "levels": _tuples}


class _Baseline:
    """What every baseline shares: class 1 when P(class 1) >= 0.5, and one
    JSON object holding ``kind`` and every field.  A subclass names its
    ``kind`` and the ``decoders`` of fields not stored in their JSON form."""

    def to_json(self) -> str:
        payload = {"kind": self.kind}
        payload.update((f.name, getattr(self, f.name)) for f in fields(self))
        return json.dumps(payload, sort_keys=True, default=_json_value)

    def predict_batch(self, rows) -> np.ndarray:
        return (self.proba_batch(rows) >= 0.5).astype(np.int64)

    def _check_rows(self, rows) -> np.ndarray:
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != len(self.feature_names):
            raise BaselineError(
                f"rows have shape {arr.shape}, model expects "
                f"{len(self.feature_names)} columns"
            )
        return arr


# ---------------------------------------------------------------------------
# Trainer options


_POSITIVE = number("a finite number > 0", lambda v: 0 < v < math.inf)
_UNIT = number("a number in [0, 1]", lambda v: 0 <= v <= 1)

# family -> the rule of each knob its trainer takes
OPTIONS = {
    "logistic": {
        "max_iterations": integer(0),
        "tolerance": _POSITIVE,
        "l2": number("a finite number >= 0", lambda v: 0 <= v < math.inf),
    },
    "mlp": {
        "widths": list_of(integer(1), "a list of integers >= 1"),
        "learning_rate": _POSITIVE,
        "epochs": integer(0),
        "batch_size": integer(1),
        "patience": integer(1),
        "seed": integer(0),
    },
    "bayes-net": {
        "structure": Rule("'naive' or 'greedy-search'",
                          lambda v: v in ("naive", "greedy-search")),
        "alpha": _POSITIVE,
    },
    "decision-list": {
        "min_coverage": integer(1),
        "purity_threshold": _UNIT,
        "max_literals": integer(1),
    },
}


def check_options(family: str, options: dict) -> None:
    """Raise BaselineError for the first knob of a baseline trainer
    (``logistic``, ``mlp``, ``bayes-net`` or ``decision-list``) that it does
    not take or that breaks its rule.  Every trainer checks its own knobs
    here."""
    check_knobs(options, OPTIONS[family], family, BaselineError)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0, else e^z / (1 + e^z): no exp overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# Logistic regression


@dataclass(frozen=True)
class LogisticModel(_Baseline):
    kind = "logistic"
    decoders = {"coefficients": tuple}

    feature_names: tuple[str, ...]
    levels: tuple[tuple[int, ...], ...]
    intercept: float
    coefficients: tuple[float, ...]
    schema_hash: str
    iterations: int

    def __post_init__(self):
        values = (self.intercept,) + self.coefficients
        # a finite sum of magnitudes bounds every row's logit
        if not math.isfinite(sum(map(abs, values))):
            raise BaselineError("logistic coefficients must be finite, and so must "
                                "the sum of their magnitudes")
        if len(self.coefficients) != _width(self.levels):
            raise BaselineError(f"logistic model has {len(self.coefficients)} "
                                f"coefficients, its levels give {_width(self.levels)}")

    def proba_batch(self, rows) -> np.ndarray:
        x = _one_hot(self._check_rows(rows), self.levels)
        return _sigmoid(self.intercept + x @ np.array(self.coefficients))


def _penalized_ll(y, x, beta, l2):
    z = x @ beta
    ll = float(np.sum(y * z - np.logaddexp(0.0, z)))
    return ll - 0.5 * l2 * float(beta @ beta)


def train_logistic(data: CategoricalTable, max_iterations: int = 100,
                   tolerance: float = 1e-8, l2: float = 1e-6) -> LogisticModel:
    """Fit a ridge-penalized logistic model by Newton iteration.

    The design matrix is the dummy coding of every feature (reference code
    dropped) plus an intercept column.  Iteration stops when the penalized
    score vector has infinity norm below ``tolerance``.
    """
    check_options("logistic", {"max_iterations": max_iterations,
                               "tolerance": tolerance, "l2": l2})
    levels = tuple(spec.allowed_codes for spec in data.schema)
    x = np.hstack([np.ones((data.n_rows, 1)), _one_hot(data.rows, levels)])
    y = data.target.astype(float)
    n, p = x.shape
    if n < p + 1:
        warnings.warn(
            f"logistic fit with {n} rows and {p} parameters may be unstable",
            UserWarning,
            stacklevel=2,
        )
    beta = np.zeros(p)
    for iteration in range(max_iterations + 1):
        prob = _sigmoid(x @ beta)
        grad = x.T @ (y - prob) - l2 * beta
        norm = float(np.abs(grad).max())
        if norm < tolerance:
            return LogisticModel(
                data.feature_names, levels, float(beta[0]),
                tuple(float(b) for b in beta[1:]), data.schema_hash(),
                iteration,
            )
        if iteration == max_iterations:
            break
        w = prob * (1.0 - prob)
        hessian = (x * w[:, None]).T @ x + l2 * np.eye(p)
        step = np.linalg.solve(hessian, grad)
        current = _penalized_ll(y, x, beta, l2)
        scale = 1.0
        for _ in range(40):
            trial = beta + scale * step
            if _penalized_ll(y, x, trial, l2) >= current - 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
    raise ConvergenceError(
        f"logistic regression did not converge in {max_iterations} iterations "
        f"(gradient norm {norm:.3e})",
        max_iterations, norm,
    )


# ---------------------------------------------------------------------------
# Feed-forward network


@dataclass(frozen=True, eq=False)
class MlpModel(_Baseline):
    kind = "mlp"
    decoders = {"weights": _arrays, "biases": _arrays}

    feature_names: tuple[str, ...]
    levels: tuple[tuple[int, ...], ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activation: str
    schema_hash: str
    seed: int

    def __post_init__(self):
        if not self.weights or len(self.biases) != len(self.weights):
            raise BaselineError("mlp needs one or more layers, each with a weight "
                                "matrix and a bias vector")
        width = _width(self.levels)
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or w.shape[1] != width or b.shape != w.shape[:1]:
                raise BaselineError("layer dimensions do not chain")
            # inputs lie in [-1, 1], so finite row sums of magnitudes bound
            # every unit's sum
            with np.errstate(over="ignore"):
                bounds = np.abs(w).sum(axis=1) + np.abs(b)
            if not np.isfinite(bounds).all():
                raise BaselineError("mlp weights and biases must be finite, and so "
                                    "must each unit's sum of their magnitudes")
            width = w.shape[0]
        if width != 1:
            raise BaselineError("output layer must have width 1")
        check(self.activation, Rule("'tanh'", lambda v: v == "tanh"), "mlp activation",
              BaselineError)

    def proba_batch(self, rows) -> np.ndarray:
        x = _one_hot(self._check_rows(rows), self.levels)
        return _sigmoid(_mlp_logits(self.weights, self.biases, x))


def _mlp_forward(weights, biases, x):
    """Return per-layer activations; the last entry is the output logit.

    One network takes weights [out, in] and rows [batch, in].  A stack of
    networks takes weights [networks, out, in] and rows [networks, batch,
    in]; each slice of its products is then the product of the slices."""
    activations = [x]
    a = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (w, b) in enumerate(zip(weights, biases)):
            z = a @ w.swapaxes(-1, -2) + b[..., None, :]
            a = z if k == len(weights) - 1 else np.tanh(z)
            activations.append(a)
    return activations


def _mlp_logits(weights, biases, x: np.ndarray) -> np.ndarray:
    return _mlp_forward(weights, biases, x)[-1][..., 0]


def mlp_loss_and_gradients(model: MlpModel, rows, targets):
    """Mean cross-entropy and its analytic gradients for a row batch."""
    x = _one_hot(model._check_rows(rows), model.levels)
    loss, grads_w, grads_b = _mlp_loss_and_gradients(
        model.weights, model.biases, x, np.asarray(targets, dtype=float))
    return float(loss), grads_w, grads_b


def _mlp_loss_and_gradients(weights, biases, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and its gradients on an encoded batch, of one
    network or of each network of a stack (see ``_mlp_forward``)."""
    acts = _mlp_forward(weights, biases, x)
    z = acts[-1][..., 0]
    loss = _cross_entropy(z, y)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = ((_sigmoid(z) - y) / z.shape[-1])[..., None]
        grads_w, grads_b = [], []
        for k in range(len(weights) - 1, -1, -1):
            grads_w.append(delta.swapaxes(-1, -2) @ acts[k])
            grads_b.append(delta.sum(axis=-2))
            if k > 0:
                delta = (delta @ weights[k]) * (1.0 - acts[k] ** 2)
    return loss, grads_w[::-1], grads_b[::-1]


def _cross_entropy(z: np.ndarray, y: np.ndarray):
    """Mean cross-entropy of logits ``z`` for targets ``y``, over the last
    (batch) axis."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.mean(np.logaddexp(0.0, z) - y * z, axis=-1)


def _init_layers(sizes, rng):
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def train_mlp(data: CategoricalTable, widths: tuple[int, ...] = (16,) * 5,
              learning_rate: float = 0.1, epochs: int = 200,
              batch_size: int = 32, patience: int = 10,
              seed: int = 0) -> MlpModel:
    """Train the feed-forward network with early stopping.

    Five tanh hidden layers by default, logistic output, mini-batch gradient
    descent on cross-entropy.  A seeded 10% holdout supplies the validation
    error; training keeps the weights from the best validation epoch and
    stops after ``patience`` epochs without improvement.  This is the
    one-table case of ``train_mlps``.
    """
    model, = train_mlps(data, [np.arange(data.n_rows)], widths=widths,
                        learning_rate=learning_rate, epochs=epochs,
                        batch_size=batch_size, patience=patience, seed=seed)
    if isinstance(model, ConvergenceError):
        raise model
    return model


def _run(mask: np.ndarray):
    """The positions where ``mask`` holds: a slice when they are one run, so
    that indexing with it gives views, else an index array."""
    pos = np.flatnonzero(mask)
    if pos.size and pos[-1] - pos[0] + 1 == pos.size:
        return slice(pos[0], pos[-1] + 1)
    return pos


def train_mlps(data: CategoricalTable, subsets, widths: tuple[int, ...] = (16,) * 5,
               learning_rate: float = 0.1, epochs: int = 200,
               batch_size: int = 32, patience: int = 10, seed: int = 0) -> list:
    """One network per row subset of ``data`` (a sequence of index arrays),
    all trained in lockstep.

    Entry i is the model ``train_mlp(data.take_rows(subsets[i]), ...)``
    returns, weight for weight, or the ConvergenceError that call raises.
    ``data`` is encoded once, and each step gathers its batch rows by index.
    The networks in training keep their parameters as rows of one [networks,
    parameters] array and take each mini-batch step together, as stacked
    [networks, batch, width] products: the full batches of every network
    that has one left, then the ragged last batches, grouped by length.  A
    network leaves the stack when it stops early or its loss turns
    non-finite.
    """
    check_options("mlp", {"widths": widths, "learning_rate": learning_rate,
                          "epochs": epochs, "batch_size": batch_size,
                          "patience": patience, "seed": seed})
    levels = tuple(spec.allowed_codes for spec in data.schema)
    x_all = _one_hot(data.rows, levels)
    y_all = data.target.astype(float)
    train, val = [], []  # each network's rows of data, in holdout order
    for rows in subsets:
        rows = np.asarray(rows)
        if rows.size == 0:
            raise BaselineError("every row subset needs at least one row")
        order = rows[np.random.default_rng([int(seed), 0]).permutation(rows.size)]
        n_val = rows.size // 10
        train.append(order[n_val:])
        val.append(order[:n_val] if n_val else order)
    n_train = np.array([t.size for t in train])
    n_val = np.array([v.size for v in val])

    weights, biases = _init_layers([x_all.shape[1], *widths, 1],
                                   np.random.default_rng([int(seed), 1]))
    shapes = [p.shape for p in weights + biases]
    ends = np.cumsum([p.size for p in weights + biases])
    n_layers = len(weights)

    def layers(flat: np.ndarray) -> list:
        """Views of each network's weights, then biases, in ``flat``."""
        return [flat[:, end - math.prod(shape):end].reshape(len(flat), *shape)
                for shape, end in zip(shapes, ends)]

    live = np.arange(len(train))  # the networks in training, in stack order
    flat = np.repeat(np.concatenate([p.ravel() for p in weights + biases])[None],
                     live.size, axis=0)
    params = layers(flat)
    best_flat = flat.copy()
    stale = np.zeros(live.size, dtype=np.int64)
    # networks with equally many training rows draw the same permutations
    shufflers = {size: np.random.default_rng([int(seed), 2]) for size in set(n_train)}
    fits: list = [None] * len(train)

    def stack(sel) -> tuple[list, list]:
        """The weights and biases of the networks at ``sel``."""
        views = [p[sel] for p in params]
        return views[:n_layers], views[n_layers:]

    def val_losses() -> np.ndarray:
        losses = np.empty(live.size)
        for size in sorted(set(n_val[live].tolist())):  # np.unique would import numpy.ma
            sel = _run(n_val[live] == size)
            rows = np.stack([val[i] for i in live[sel]])
            losses[sel] = _cross_entropy(_mlp_logits(*stack(sel), x_all[rows]),
                                         y_all[rows])
        return losses

    def step(sel, rows: np.ndarray) -> None:
        """One SGD step of the networks at ``sel`` on their batch ``rows``.
        A network whose loss is not finite fails, left as it was, and takes
        no more steps this epoch (``ok``)."""
        if not len(rows):
            return
        loss, gw, gb = _mlp_loss_and_gradients(*stack(sel), x_all[rows], y_all[rows])
        grads = np.concatenate([g.reshape(len(g), -1) for g in gw + gb], axis=1)
        finite = np.isfinite(loss)
        if not finite.all():
            pos = np.arange(live.size)[sel]
            for p in pos[~finite]:
                ok[p] = False
                fits[live[p]] = ConvergenceError(
                    f"training loss became non-finite at epoch {epoch}",
                    epoch, float("inf"))
            sel, grads = pos[finite], grads[finite]
        flat[sel] -= learning_rate * grads

    def model(p: int) -> MlpModel:
        views = [np.array(v[0]) for v in layers(best_flat[p:p + 1])]
        return MlpModel(data.feature_names, levels, tuple(views[:n_layers]),
                        tuple(views[n_layers:]), "tanh", data.schema_hash(),
                        int(seed))

    def keep(mask: np.ndarray) -> None:
        nonlocal live, flat, params, best_flat, best, stale
        live, flat, best_flat = live[mask], flat[mask], best_flat[mask]
        params, best, stale = layers(flat), best[mask], stale[mask]

    best = val_losses()
    for epoch in range(epochs):
        if not live.size:
            break
        # this epoch's batch rows: row p holds network p's shuffled training
        # rows, padded to the longest
        lengths = n_train[live]
        perms = {size: shufflers[size].permutation(size) for size in set(lengths)}
        order = np.zeros((live.size, lengths.max()), dtype=np.intp)
        for p, i in enumerate(live):
            order[p, :lengths[p]] = train[i][perms[lengths[p]]]
        ok = np.ones(live.size, dtype=bool)
        full, tail = np.divmod(lengths, batch_size)
        for s in range(full.max()):
            sel = _run((full > s) & ok)
            step(sel, order[sel, s * batch_size:(s + 1) * batch_size])
        for size in sorted(set(tail[tail > 0].tolist())):
            pos = np.flatnonzero((tail == size) & ok)
            step(pos, order[pos[:, None], lengths[pos, None] - size + np.arange(size)])
        keep(ok)

        losses = val_losses()
        finite = np.isfinite(losses)
        for p in np.flatnonzero(~finite):
            fits[live[p]] = ConvergenceError(
                f"validation loss became non-finite at epoch {epoch}",
                epoch, float("inf"))
        better = finite & (losses < best - 1e-12)
        best_flat[better] = flat[better]
        best = np.where(better, losses, best)
        stale = np.where(better, 0, stale + 1)
        for p in np.flatnonzero(finite & (stale >= patience)):
            fits[live[p]] = model(p)
        keep(np.array([fits[i] is None for i in live], dtype=bool))
    for p, i in enumerate(live):
        fits[i] = model(p)
    return fits


# ---------------------------------------------------------------------------
# Discrete Bayesian network


@dataclass(frozen=True, eq=False)
class BayesNetModel(_Baseline):
    """DAG over the target plus features with smoothed conditional tables.

    ``parents`` maps each node to its parent tuple; ``cpts`` maps each node
    to an array whose leading axes follow the parent order and whose last
    axis runs over the node's own levels.
    """

    kind = "bayes_net"
    decoders = {
        "parents": lambda d: {k: tuple(v) for k, v in d.items()},
        "cpts": lambda d: {k: np.array(v, dtype=float) for k, v in d.items()},
    }

    feature_names: tuple[str, ...]
    levels: tuple[tuple[int, ...], ...]
    parents: dict
    cpts: dict
    alpha: float
    score: float
    schema_hash: str

    def __post_init__(self):
        counts = dict(zip(self.feature_names, map(len, self.levels)), target=2)
        nodes = set(self.parents)
        if not nodes <= set(counts) or set(self.cpts) != nodes or \
                not nodes.issuperset(p for par in self.parents.values() for p in par):
            raise BaselineError("bayes net nodes must be features or the target, "
                                "each with one CPT, and every parent a node")
        if _topological_order(self.parents) is None:
            raise BaselineError("bayes net graph contains a cycle")
        for node, table in self.cpts.items():
            shape = tuple(counts[p] for p in self.parents[node] + (node,))
            if table.shape != shape:
                raise BaselineError(f"CPT for {_shown(node)} has shape {table.shape}, "
                                    f"its parents' and its own levels give {shape}")
            if not (table > 0).all():
                raise BaselineError(f"CPT for {_shown(node)} has an entry <= 0")
            if not np.allclose(table.sum(axis=-1), 1.0, atol=1e-12):
                raise BaselineError(f"CPT rows for {_shown(node)} do not sum to 1")

    def _log_joints(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Log joint probability of each row with target 0 and with target 1.

        Terms are added in sorted node order, so a serialization round trip
        reproduces the sums bit for bit.  Each term is ``math.log`` of a CPT
        entry: numpy's log differs from it in the last bit for some inputs,
        which would move labels at exact posterior ties.
        """
        rows = self._check_rows(rows)
        level = {name: _level_index(name, rows[:, j], self.levels[j])
                 for j, name in enumerate(self.feature_names)}
        joints = []
        for t in (0, 1):
            level["target"] = np.full(rows.shape[0], t)
            total = 0.0
            for node in sorted(self.parents):
                log_cpt = np.frompyfunc(math.log, 1, 1)(self.cpts[node])
                idx = tuple(level[p] for p in self.parents[node] + (node,))
                total = total + log_cpt[idx].astype(float)
            joints.append(total)
        return joints[0], joints[1]

    def proba_batch(self, rows) -> np.ndarray:
        log0, log1 = self._log_joints(rows)
        peak = np.maximum(log0, log1)
        w0, w1 = np.exp(log0 - peak), np.exp(log1 - peak)
        return w1 / (w0 + w1)


def _topological_order(parents: dict) -> list | None:
    remaining = {node: set(par) for node, par in parents.items()}
    order = []
    while remaining:
        ready = sorted(n for n, par in remaining.items() if not par)
        if not ready:
            return None
        for node in ready:
            order.append(node)
            del remaining[node]
        for par in remaining.values():
            par.difference_update(ready)
    return order


def _level_index(node: str, codes: np.ndarray, levels) -> np.ndarray:
    """Position of each code in ``levels``; a code outside them is an error."""
    hits = codes[:, None] == np.asarray(levels)[None, :]
    unknown = ~hits.any(axis=1)
    if unknown.any():
        raise BaselineError(
            f"column {node!r}: code {int(codes[unknown][0])} not in schema")
    return hits.argmax(axis=1)


def _fit_cpt(columns, node_levels, node, parents, alpha):
    """Smoothed table of ``node`` given ``parents`` from level-index columns."""
    counts = np.zeros([len(node_levels[p]) for p in parents + (node,)])
    np.add.at(counts, tuple(columns[p] for p in parents + (node,)), 1.0)
    smoothed = counts + alpha
    return smoothed / smoothed.sum(axis=-1, keepdims=True)


def _log_likelihood(columns, parents, cpts) -> float:
    total = 0.0
    for node, par in parents.items():
        idx = tuple(columns[p] for p in par + (node,))
        total += float(np.log(cpts[node][idx]).sum())
    return total


def _parameter_count(parents, node_levels) -> int:
    count = 0
    for node, par in parents.items():
        rows = 1
        for p in par:
            rows *= len(node_levels[p])
        count += rows * (len(node_levels[node]) - 1)
    return count


def train_bayes_net(data: CategoricalTable, structure: str = "naive",
                    alpha: float = 1.0) -> BayesNetModel:
    """Fit CPTs over a naive (target-to-feature) or greedily searched DAG.

    Greedy search starts from the naive structure and keeps adding the
    feature-to-feature edge that most improves a penalized log-likelihood
    score (penalty (log n / 2) per free parameter) until no addition helps.
    """
    check_options("bayes-net", {"structure": structure, "alpha": alpha})
    names = data.feature_names
    levels = tuple(spec.allowed_codes for spec in data.schema)
    node_levels = {"target": (0, 1), **dict(zip(names, levels))}
    # each node's column of level indices (not raw codes), once per fit
    columns = {node: _level_index(node, data.column(node), lv)
               for node, lv in node_levels.items()}

    parents = {"target": ()}
    for name in names:
        parents[name] = ("target",)

    def score_of(structure_parents) -> float:
        cpts = {
            node: _fit_cpt(columns, node_levels, node, par, alpha)
            for node, par in structure_parents.items()
        }
        ll = _log_likelihood(columns, structure_parents, cpts)
        penalty = 0.5 * math.log(data.n_rows) * _parameter_count(
            structure_parents, node_levels
        )
        return ll - penalty

    best_score = score_of(parents)
    if structure == "greedy-search":
        improved = True
        while improved:
            improved = False
            best_edge = None
            for child in names:
                for parent in names:
                    if parent == child or parent in parents[child]:
                        continue
                    trial = dict(parents)
                    trial[child] = tuple(sorted(parents[child] + (parent,)))
                    if _topological_order(trial) is None:
                        continue
                    trial_score = score_of(trial)
                    if trial_score > best_score + 1e-9 and (
                        best_edge is None or trial_score > best_edge[0]
                    ):
                        best_edge = (trial_score, parent, child)
            if best_edge is not None:
                score, parent, child = best_edge
                parents[child] = tuple(sorted(parents[child] + (parent,)))
                best_score = score
                improved = True

    cpts = {
        node: _fit_cpt(columns, node_levels, node, par, alpha)
        for node, par in parents.items()
    }
    return BayesNetModel(names, levels, dict(parents), cpts, float(alpha),
                         float(best_score), data.schema_hash())


def bayes_joint_probability(model: BayesNetModel, target: int,
                            codes) -> float:
    """Joint probability of one full assignment (target plus all features)."""
    return math.exp(model._log_joints(np.asarray(codes)[None])[int(target)][0])


# ---------------------------------------------------------------------------
# Decision list


@dataclass(frozen=True)
class DecisionRule:
    """Conjunction of (feature, code) literals with a class and precision."""

    literals: tuple[tuple[int, int], ...]
    klass: int
    precision: float
    coverage: int


def _json_value(value):
    """``json.dumps`` fallback: a rule becomes its record, an array a list."""
    if isinstance(value, DecisionRule):
        return {"literals": value.literals, "class": value.klass,
                "precision": value.precision, "coverage": value.coverage}
    return value.tolist()


_CLASS = Rule("0 or 1", lambda v: _is_integer(v) and v in (0, 1))
# The fields of a rule record; ``DecisionListModel`` checks class and precision
_RULE_FIELDS = {"literals": LIST, "class": ANY, "precision": ANY, "coverage": NATURAL}


def _rules(items) -> tuple:
    records = (read_fields(r, _RULE_FIELDS, f"decision rule {i}", BaselineError).values()
               for i, r in enumerate(items))
    return tuple(DecisionRule(_tuples(literals), *rest) for literals, *rest in records)


@dataclass(frozen=True)
class DecisionListModel(_Baseline):
    kind = "decision_list"
    decoders = {"rules": _rules}

    feature_names: tuple[str, ...]
    levels: tuple[tuple[int, ...], ...]
    rules: tuple[DecisionRule, ...]
    default_class: int
    default_precision: float
    schema_hash: str

    def __post_init__(self):
        check(self.default_class, _CLASS, "decision list default class", BaselineError)
        check(self.default_precision, _UNIT, "decision list default precision",
              BaselineError)
        literal = Rule("a [feature index, code] pair naming one of the feature's "
                       "levels", lambda v: len(v) == 2 and _is_integer(v[0])
                       and 0 <= v[0] < len(self.levels) and v[1] in self.levels[v[0]])
        for i, rule in enumerate(self.rules):
            check(rule.klass, _CLASS, f"decision rule {i} class", BaselineError)
            check(rule.precision, _UNIT, f"decision rule {i} precision", BaselineError)
            for item in rule.literals:
                check(item, literal, f"decision rule {i} literal", BaselineError)

    def proba_batch(self, rows) -> np.ndarray:
        """Class-1 probability of the first rule each row matches."""
        rows = self._check_rows(rows)
        p = self.default_precision
        out = np.full(rows.shape[0], p if self.default_class == 1 else 1.0 - p)
        unclaimed = np.ones(rows.shape[0], dtype=bool)
        for rule in self.rules:
            hit = unclaimed.copy()
            for j, code in rule.literals:
                hit &= rows[:, j] == code
            p = rule.precision
            out[hit] = p if rule.klass == 1 else 1.0 - p
            unclaimed &= ~hit
        return out


def _laplace(class_count: int, covered: int) -> float:
    return (class_count + 1.0) / (covered + 2.0)


def _majority(y: np.ndarray) -> tuple[int, int]:
    counts = np.bincount(y, minlength=2)
    klass = int(np.argmax(counts))
    return klass, int(counts[klass])


def _grow_rule(rows, y, levels, max_literals):
    """Greedy literal growth; returns the rule or None for the empty prefix.

    One hit matrix per rule marks which rows each (feature, code) literal
    covers.  A step scores every literal from column sums over the rows the
    rule covers so far and takes the lexicographic maximum of (Laplace
    precision, coverage, -feature, -code).
    """
    feature = np.repeat(np.arange(rows.shape[1]), [len(lv) for lv in levels])
    code = np.array([c for lv in levels for c in lv], dtype=np.int64)
    hits = rows[:, feature] == code
    mask = np.ones(len(y), dtype=bool)
    free = np.ones(len(code), dtype=bool)  # literal on a feature not yet used
    literals: list[tuple[int, int]] = []
    klass, majority = _majority(y)
    precision = _laplace(majority, len(y))
    while len(literals) < max_literals:
        sub = hits[mask]
        covered = sub.sum(axis=0)
        ones = sub[y[mask] == 1].sum(axis=0)
        laplace = (np.maximum(ones, covered - ones) + 1.0) / (covered + 2.0)
        live = np.flatnonzero(free & (covered > 0))
        if not live.size:
            break
        best = live[np.lexsort((-code[live], -feature[live], covered[live],
                                laplace[live]))[-1]]
        if laplace[best] <= precision + 1e-12:
            break
        literals.append((int(feature[best]), int(code[best])))
        mask &= hits[:, best]
        precision = float(laplace[best])
        klass = int(ones[best] > covered[best] - ones[best])
        free &= feature != feature[best]
    if not literals:
        return None
    return DecisionRule(tuple(literals), klass, precision, int(mask.sum())), mask


def train_decision_list(data: CategoricalTable, min_coverage: int = 2,
                        purity_threshold: float = 0.5,
                        max_literals: int = 5) -> DecisionListModel:
    """Sequential covering: grow a rule, remove its rows, repeat.

    Rule growth adds the literal with the best Laplace-corrected precision
    (ties broken toward higher coverage, then lower feature and code) and
    stops when no literal strictly improves.  A rule is kept only when it
    meets the coverage and purity thresholds.
    """
    check_options("decision-list", {"min_coverage": min_coverage,
                                    "purity_threshold": purity_threshold,
                                    "max_literals": max_literals})
    levels = tuple(spec.allowed_codes for spec in data.schema)
    rows = data.rows
    y = data.target
    remaining = np.arange(data.n_rows)
    rules = []
    while remaining.size:
        grown = _grow_rule(rows[remaining], y[remaining], levels, max_literals)
        if grown is None:
            break
        rule, covered_mask = grown
        if rule.coverage < min_coverage or rule.precision < purity_threshold:
            break
        rules.append(rule)
        remaining = remaining[~covered_mask]
    # the default rule: majority of the uncovered rows, or of all if none
    rest = y[remaining] if remaining.size else y
    default_class, default_majority = _majority(rest)
    return DecisionListModel(
        data.feature_names, levels, tuple(rules), default_class,
        _laplace(default_majority, rest.size), data.schema_hash(),
    )


# ---------------------------------------------------------------------------
# Shared prediction contract and serialization


def predict_batch(model, rows) -> np.ndarray:
    """Predicted classes for a row matrix."""
    return model.predict_batch(rows)


_KINDS = {cls.kind: cls for cls in
          (LogisticModel, MlpModel, BayesNetModel, DecisionListModel)}
_KIND = Rule("one of " + ", ".join(_KINDS),
             lambda v: isinstance(v, str) and v in _KINDS)


def model_from_json(text: str):
    """Rebuild a baseline model serialized by its ``to_json``.  The fields
    every baseline has are checked by rule; any other fault that a decoder
    or the model's constructor meets is one ``BaselineError`` line, its
    exception shown by ``_shown``."""
    payload = read_json(text, OBJECT, "model", BaselineError)
    kind = check_key(payload, "kind", _KIND, "model", error=BaselineError)
    del payload["kind"]
    names = check_key(payload, "feature_names", NAMES, f"{kind} model",
                      error=BaselineError)
    levels = Rule("one list of integers in [0, 2**63) per feature name",
                  lambda v: isinstance(v, list) and len(v) == len(names)
                  and all(map(NATURALS.test, v)))
    check_key(payload, "levels", levels, f"{kind} model", error=BaselineError)
    if not all(payload["levels"]):
        raise BaselineError(f"{kind} model 'levels' holds a feature with no codes")
    cls = _KINDS[kind]
    decoders = {**_DECODERS, **cls.decoders}
    try:
        return cls(**{k: decoders[k](v) if k in decoders else v
                      for k, v in payload.items()})
    except BaselineError:
        raise
    except Exception as e:
        raise BaselineError(f"malformed {kind} model: {_shown(e)}") from None
