"""Reference implementations that the fast paths in ``src/`` are checked
against.  No command uses them."""
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from treebench.baselines import ConvergenceError, MlpModel, _init_layers, _one_hot
from treebench.criteria import _as_counts, entropy
from treebench.shapley import _weight_tables
from treebench.tree import (
    _GAIN_EPS,
    DecisionTree,
    Split,
    TreeError,
    TreeNode,
    pessimistic_error_bound,
)


def branch_for(split: Split, code: int) -> int | None:
    """The child of ``split`` whose code set holds ``code``, or None."""
    for k, codes in enumerate(split.branches):
        if code in codes:
            return k
    return None


def predict(tree: DecisionTree, row) -> tuple[int, float]:
    """Route one row to a leaf and return (class, confidence): the per-row
    walk that ``predict_batch`` and ``proba_batch`` must agree with.

    A code with no matching branch stops the descent at that node and
    returns the node's own majority; every schema-conforming row therefore
    gets a prediction.
    """
    row = np.asarray(row)
    if row.shape != (len(tree.feature_names),):
        raise TreeError(
            f"row has {row.shape} values, schema expects {len(tree.feature_names)}"
        )
    node = tree.root
    while not node.is_leaf:
        k = branch_for(node.split, int(row[node.split.feature]))
        if k is None:
            break
        child = node.children[k]
        if child.total == 0:
            break
        node = child
    return node.prediction, node.confidence


def leaf_label(counts, parent=None) -> tuple[int, float]:
    """(class, confidence) of a node of class ``counts``, one node at a
    time: the rule ``tree._node_labels`` applies to whole arrays.

    The majority class wins, ties going to class 0, at its share of the
    rows; an empty node takes ``parent``, its parent's (class, confidence).
    """
    values = [int(c) for c in counts]
    total = sum(values)
    if total == 0:
        if parent is None:
            raise TreeError("cannot label a node with no rows and no parent")
        return parent
    pred = values.index(max(values))
    return pred, values[pred] / total


def slot_tables(step, slot: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(feature, codes, class counts [k, 2]) for each candidate feature
    showing at least two codes at the slot's node, one feature at a time:
    the reference for one slot of ``_Step.tables``."""
    cube = step.cube[slot].T
    present = cube.any(axis=1)
    tables = []
    for f in step.candidates[slot]:
        block = slice(step.starts[f], step.starts[f + 1])
        keep = present[block]
        if np.count_nonzero(keep) >= 2:
            tables.append((f, step.universes[f][keep], cube[block][keep]))
    return tables


def per_node(choose):
    """A step chooser running the one-node ``choose(idx, counts, tables)``
    on each slot in turn: how a scalar chooser oracle plugs into the grow
    skeleton."""
    return lambda step: [choose(step.idx[i], step.counts[i], slot_tables(step, i))
                         for i in range(len(step.idx))]


def info_gain(parent, children) -> float:
    """One partition's information gain, one child at a time: the scalar
    formula that ``criteria.info_gain`` computes for stacks.

    Children with zero rows carry zero weight.  Child totals must sum to the
    parent total.
    """
    p = _as_counts(parent)
    kids = [_as_counts(k) for k in children]
    total = p.sum()
    if total <= 0:
        raise ValueError("info_gain undefined for an empty parent")
    child_total = sum(k.sum() for k in kids)
    if child_total != total:
        raise ValueError(
            f"partition totals ({child_total:g}) do not match parent ({total:g})"
        )
    weighted = 0.0
    for k in kids:
        n = k.sum()
        if n > 0:
            weighted += (n / total) * entropy(k)
    return entropy(p) - weighted


def _predicted_errors(counts: np.ndarray, cf: float) -> float:
    total = int(counts.sum())
    if total == 0:
        return 0.0
    errors = total - int(counts.max())
    return total * pessimistic_error_bound(errors, total, cf)


def _subtree_errors(node: TreeNode, cf: float) -> float:
    if node.is_leaf:
        return _predicted_errors(node.counts, cf)
    return sum(_subtree_errors(c, cf) for c in node.children)


def _as_pruned_leaf(node: TreeNode) -> TreeNode:
    return TreeNode(counts=node.counts, prediction=node.prediction,
                    confidence=node.confidence)


def prune_c50(tree: DecisionTree, severity: float | None = None) -> DecisionTree:
    """Pessimistic pruning by recursion, with one scalar bound per visit:
    the reference for ``tree.prune_c50``.

    Two stages: a local bottom-up pass replaces a subtree by a leaf when the
    leaf's predicted error count does not exceed the subtree's, then a
    global top-down pass removes any surviving subtree whose aggregate
    predicted error exceeds its leaf replacement.
    """
    severity = tree.params.severity if severity is None else severity
    if not 0.0 < severity < 100.0:
        raise TreeError("severity must lie in (0, 100)")
    cf = (100.0 - severity) / 100.0

    def local(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            return _as_pruned_leaf(node)
        kept = TreeNode(
            counts=node.counts, prediction=node.prediction,
            confidence=node.confidence, split=node.split,
            children=tuple(local(c) for c in node.children), score=node.score,
        )
        if _predicted_errors(node.counts, cf) <= _subtree_errors(kept, cf) + _GAIN_EPS:
            return _as_pruned_leaf(node)
        return kept

    def global_pass(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            return node
        if _subtree_errors(node, cf) > _predicted_errors(node.counts, cf) + _GAIN_EPS:
            return _as_pruned_leaf(node)
        node.children = tuple(global_pass(c) for c in node.children)
        return node

    return replace(tree, root=global_pass(local(tree.root)))


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind by the recurrence
    S(i, j) = j S(i - 1, j) + S(i - 1, j - 1): the reference for
    ``tree.stirling2``."""
    if k < 0 or k > n:
        return 0
    row = [1] + [0] * k
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def with_cpus(n_cpus, fn, *args):
    """Run ``fn`` as if ``n_cpus`` CPUs were usable: 1 keeps every task of
    ``evaluation._task_pool`` in this process, the serial reference; more
    runs them in a pool of forked workers."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)),
                      raising=False)
        return fn(*args)


def fold_buckets(n: int, k: int, stratified: bool, y, seed: int) -> tuple:
    """Reference for ``evaluation.make_folds``: the same shuffles, then each
    row dealt in turn to the next fold by one shared cursor."""
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(k)]
    cursor = 0
    if stratified:
        for klass in np.unique(y):
            idx = np.flatnonzero(y == klass)
            rng.shuffle(idx)
            for i in idx:
                buckets[cursor % k].append(int(i))
                cursor += 1
    else:
        idx = np.arange(n)
        rng.shuffle(idx)
        for i in idx:
            buckets[cursor % k].append(int(i))
            cursor += 1
    return tuple(tuple(sorted(b)) for b in buckets)


def _sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _mlp_forward(weights, biases, x):
    activations = [x]
    a = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (w, b) in enumerate(zip(weights, biases)):
            z = a @ w.T + b
            a = z if k == len(weights) - 1 else np.tanh(z)
            activations.append(a)
    return activations


def _bce(weights, biases, x, y) -> float:
    z = _mlp_forward(weights, biases, x)[-1][:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean(np.logaddexp(0.0, z) - y * z))


def _mlp_loss_and_gradients(weights, biases, x, y):
    acts = _mlp_forward(weights, biases, x)
    z = acts[-1][:, 0]
    n = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        delta = ((_sigmoid(z) - y) / n)[:, None]
        grads_w, grads_b = [], []
        for k in range(len(weights) - 1, -1, -1):
            grads_w.append(delta.T @ acts[k])
            grads_b.append(delta.sum(axis=0))
            if k > 0:
                delta = (delta @ weights[k]) * (1.0 - acts[k] ** 2)
    return loss, list(reversed(grads_w)), list(reversed(grads_b))


def train_mlp(data, widths=(16,) * 5, learning_rate=0.1, epochs=200,
              batch_size=32, patience=10, seed=0) -> MlpModel:
    """Reference for ``baselines.train_mlps``: one network on 2-D arrays,
    mini-batch by mini-batch, as ``train_mlp`` trained before the stacked
    loop."""
    levels = tuple(spec.allowed_codes for spec in data.schema)
    x_all = _one_hot(data.rows, levels)
    y_all = data.target.astype(float)
    n = data.n_rows
    rng = np.random.default_rng([int(seed), 0])
    order = rng.permutation(n)
    n_val = n // 10
    val_idx, train_idx = order[:n_val], order[n_val:]
    x_train, y_train = x_all[train_idx], y_all[train_idx]
    x_val = x_all[val_idx] if n_val else x_train
    y_val = y_all[val_idx] if n_val else y_train

    sizes = [x_all.shape[1], *widths, 1]
    weights, biases = _init_layers(sizes, np.random.default_rng([int(seed), 1]))
    best = (_bce(weights, biases, x_val, y_val), weights, biases)
    stale = 0
    shuffle_rng = np.random.default_rng([int(seed), 2])
    for epoch in range(epochs):
        perm = shuffle_rng.permutation(train_idx.size)
        for start in range(0, train_idx.size, batch_size):
            batch = perm[start:start + batch_size]
            loss, gw, gb = _mlp_loss_and_gradients(
                weights, biases, x_train[batch], y_train[batch])
            if not math.isfinite(loss):
                raise ConvergenceError(
                    f"training loss became non-finite at epoch {epoch}",
                    epoch, float("inf"))
            weights = [w - learning_rate * g for w, g in zip(weights, gw)]
            biases = [b - learning_rate * g for b, g in zip(biases, gb)]
        val_loss = _bce(weights, biases, x_val, y_val)
        if not math.isfinite(val_loss):
            raise ConvergenceError(
                f"validation loss became non-finite at epoch {epoch}",
                epoch, float("inf"))
        if val_loss < best[0] - 1e-12:
            best = (val_loss, weights, biases)
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    return MlpModel(data.feature_names, levels,
                    tuple(np.array(w) for w in best[1]),
                    tuple(np.array(b) for b in best[2]),
                    "tanh", data.schema_hash(), int(seed))


def tree_phi(stops, row_pos: np.ndarray, back_pos: np.ndarray,
             m: int) -> np.ndarray:
    """One tree's contribution matrix (rows x features), averaged over the
    background, one stop at a time: the reference for each tree's game in
    ``shapley._tree_games``.  ``stops`` is the tree's ``DecisionTree.stops``
    over codes whose universe positions are ``row_pos`` and ``back_pos``."""
    n_rows, n_back = row_pos.shape[0], back_pos.shape[0]
    phi = np.zeros((n_rows, m))
    for value, masks in stops:
        if not masks or value == 0.0:
            continue
        feats = sorted(masks)
        # rows with the same fail set share one exact per-background sum;
        # the background is not deduplicated, so that sum keeps its order.
        # A row's fail set is an integer code (bit i: path feature i
        # fails), a Python int past int64's bits, and the kernel runs once
        # per distinct code.
        dtype = np.int64 if len(feats) <= 62 else object
        code = np.zeros(n_rows, dtype=dtype)
        for i, f in enumerate(feats):
            code |= (~masks[f][row_pos[:, f]]).astype(dtype) << i
        fails, code = np.unique(code, return_inverse=True)
        x_fail = fails[:, None] >> np.arange(len(feats), dtype=dtype) & 1 == 1
        z_fail = np.stack([~masks[f][back_pos[:, f]] for f in feats], axis=1)
        dead = (x_fail[:, None, :] & z_fail[None, :, :]).any(axis=2)
        a, b = z_fail.sum(axis=1)[None, :], x_fail.sum(axis=1)[:, None]
        wa, wb = _weight_tables(len(feats))
        gain = np.where(dead, 0.0, wa[a, b])
        loss = np.where(dead, 0.0, wb[a, b])
        per_pair = (z_fail[None, :, :] * gain[:, :, None]).sum(axis=1) \
            - (x_fail[:, None, :] * loss[:, :, None]).sum(axis=1)
        phi[:, feats] += (value * per_pair / n_back)[code]
    return phi


def tree_games(stop_lists, pos: np.ndarray, n_back: int, m: int):
    """``shapley._tree_games`` from the per-stop oracle: each tree's
    ``tree_phi`` at every row of ``pos``, and the tree's value at each row,
    the value of the stop whose masks the row's codes all pass."""
    back = pos[pos.shape[0] - n_back:]
    for stops in stop_lists:
        game = np.zeros((m + 1, pos.shape[0]))
        game[:m] = tree_phi(stops, pos, back, m).T
        for value, masks in stops:
            reached = np.ones(pos.shape[0], dtype=bool)
            for f, mask in masks.items():
                reached &= mask[pos[:, f]]
            game[m, reached] = value
        yield game


def phi_matrix(model, rows: np.ndarray, back: np.ndarray) -> np.ndarray:
    """The contributions of ``shapley._phi_matrix``, one tree at a time
    through ``tree_phi``."""
    both = np.concatenate([rows, back])
    universes, positions = [], np.empty_like(both)
    for j in range(both.shape[1]):
        universe, positions[:, j] = np.unique(both[:, j], return_inverse=True)
        universes.append(universe)
    phi = np.zeros((rows.shape[0], both.shape[1]))
    for tree in model.members:
        phi += tree_phi(tree.stops(universes, model.leaf_value),
                        positions[:rows.shape[0]], positions[rows.shape[0]:],
                        both.shape[1])
    return phi / len(model.members)
