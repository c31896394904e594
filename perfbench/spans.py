"""Per-layer spans for a traced treebench run, recorded from outside.

``Tracer.install`` replaces the package's functions with timing wrappers at
every treebench module attribute that holds them, which is where callers
look them up (``treebench.cli.train_c50`` as well as
``treebench.tree.train_c50``).  Nothing in the package changes on disk and
``uninstall`` puts every original back.

Each call becomes a span (name, start, end, parent) kept in memory until
``summary`` turns the spans into per-layer metrics.  The layer of a span is
the part of its name before the first dot.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, span name).  A dotted attribute names a method.
TARGETS = (
    ("treebench.dataset", "load_delimited", "dataset.load_delimited"),
    ("treebench.dataset", "recode", "dataset.recode"),
    ("treebench.dataset", "filter_curve_cohort", "dataset.filter_cohort"),
    ("treebench.dataset", "CategoricalTable.to_csv", "dataset.to_csv"),
    ("treebench.dataset", "CategoricalTable.take_rows", "dataset.take_rows"),
    ("treebench.criteria", "info_gain", "criteria.info_gain"),
    ("treebench.criteria", "chi_square", "criteria.chi_square"),
    ("treebench.criteria", "gini_decrease", "criteria.gini_decrease"),
    ("treebench.tree", "train_c50", "tree.train.c50"),
    ("treebench.tree", "train_chaid", "tree.train.chaid"),
    ("treebench.tree", "train_cart", "tree.train.cart"),
    ("treebench.tree", "train_quest", "tree.train.quest"),
    ("treebench.tree", "prune_c50", "tree.prune"),
    ("treebench.tree", "predict_batch", "tree.predict"),
    ("treebench.forest", "train_forest", "forest.train"),
    ("treebench.forest", "Forest.predict_batch", "forest.predict"),
    ("treebench.shapley", "global_importance", "shapley.global_importance"),
    ("treebench.shapley", "shap_batch", "shapley.shap_batch"),
    ("treebench.shapley", "backward_eliminate", "shapley.backward_eliminate"),
    # The one kernel entry behind every attribution path, elimination's
    # included; private, so it may vanish in a refactor (then it is skipped).
    ("treebench.shapley", "_phi_matrix", "shapley.phi_matrix"),
    ("treebench.baselines", "train_mlp", "baselines.train.mlp"),
    ("treebench.baselines", "train_logistic", "baselines.train.logistic"),
    ("treebench.baselines", "train_bayes_net", "baselines.train.bayes-net"),
    ("treebench.baselines", "train_decision_list", "baselines.train.decision-list"),
    ("treebench.baselines", "predict_batch", "baselines.predict"),
    ("treebench.evaluation", "make_folds", "evaluation.make_folds"),
    ("treebench.evaluation", "cross_validate", "evaluation.cross_validate"),
    ("treebench.evaluation", "predict_labels", "evaluation.predict_labels"),
    ("treebench.evaluation", "compare_models", "evaluation.compare_models"),
)

# Layers with spans.  The CLI layer has none: its self time is the traced
# wall time minus the self times of these, which run.py works out.
LAYERS = ("dataset", "criteria", "tree", "forest", "shapley", "baselines",
          "evaluation")

# Per-layer metric -> span name whose outermost calls' durations it sums.
TIMED = {
    "dataset.load_delimited_s": "dataset.load_delimited",
    "dataset.recode_s": "dataset.recode",
    "dataset.filter_cohort_s": "dataset.filter_cohort",
    "dataset.to_csv_s": "dataset.to_csv",
    "dataset.take_rows_s": "dataset.take_rows",
    "tree.train_s.c50": "tree.train.c50",
    "tree.train_s.chaid": "tree.train.chaid",
    "tree.train_s.cart": "tree.train.cart",
    "tree.train_s.quest": "tree.train.quest",
    "tree.prune_s": "tree.prune",
    "tree.predict_s": "tree.predict",
    "forest.train_s": "forest.train",
    "forest.predict_s": "forest.predict",
    "shapley.global_importance_s": "shapley.global_importance",
    "shapley.shap_batch_s": "shapley.shap_batch",
    "baselines.train_s.mlp": "baselines.train.mlp",
    "baselines.train_s.logistic": "baselines.train.logistic",
    "baselines.train_s.bayes-net": "baselines.train.bayes-net",
    "baselines.train_s.decision-list": "baselines.train.decision-list",
    "baselines.predict_s": "baselines.predict",
}
# Per-layer metric -> span name whose calls it counts.
CALLS = {
    "dataset.take_rows_calls": "dataset.take_rows",
    "criteria.info_gain_calls": "criteria.info_gain",
    "criteria.chi_square_calls": "criteria.chi_square",
    "criteria.gini_decrease_calls": "criteria.gini_decrease",
}
# Counts that _counter derives from arguments and results.
COUNTED = ("dataset.rows_in", "dataset.rows_out", "tree.nodes", "forest.trees",
           "forest.nodes", "shapley.pair_evals", "evaluation.fits")
# Self time per layer: the layer's spans minus the parts their child spans
# cover.  The criterion kernels call nothing traced, so theirs is criteria.s.
SELF = {layer: ("criteria.s" if layer == "criteria" else f"{layer}.self_s")
        for layer in LAYERS}


def _trees(model) -> tuple:
    return tuple(getattr(model, "trees", None) or (model,))


def _counter(span_name: str):
    """What a finished call adds to the counts, from its arguments and
    result, through public attributes only."""
    from treebench.tree import leaf_count, node_count

    if span_name == "dataset.load_delimited":
        return lambda args, result: {"dataset.rows_in": result.n_rows}
    if span_name == "dataset.recode":
        return lambda args, result: {"dataset.rows_out": result[0].n_rows}
    if span_name.startswith("tree.train."):
        return lambda args, result: {"tree.nodes": node_count(result)}
    if span_name == "forest.train":
        return lambda args, result: {
            "forest.trees": len(result.trees),
            "forest.nodes": sum(node_count(t) for t in result.trees),
        }
    if span_name == "shapley.phi_matrix":
        # Leaf x row x background pairs the pairwise kernel evaluates.
        return lambda args, result: {"shapley.pair_evals": (
            sum(leaf_count(t) for t in _trees(args[0]))
            * len(args[1]) * len(args[2]))}
    if span_name == "evaluation.cross_validate":
        return lambda args, result: {"evaluation.fits": len(result.fold_accuracies)}
    return None


class Tracer:
    def __init__(self):
        # One record per call: [name, start, end, parent index, outermost].
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTED, 0)
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, counter=None):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  not self._active.get(name)]
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self._active[name] -= 1
        if counter is not None:
            try:
                counted = counter(args, result)
            except Exception as exc:  # a refactored result type must not stop the run
                self.skipped.append(f"count for {name}: {exc!r}")
            else:
                for key, value in counted.items():
                    self.counts[key] += int(value)
        return result

    def wrap(self, name: str, fn):
        counter = _counter(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        traced.__perfbench_span__ = name
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at each treebench attribute that holds it."""
        importlib.import_module("treebench.cli")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "treebench" or n.startswith("treebench."))]
        for module_name, attr, span in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(span, original)
            for holder in [owner] if path else modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    def patched(self) -> list[tuple[object, str, object]]:
        """(holder, attribute, original) for every attribute now wrapped."""
        return list(self._patched)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics (seconds and counts) from the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _, outermost), covered in zip(self.spans, child_time):
            layer_self[name.split(".", 1)[0]] += end - start - covered
            calls[name] = calls.get(name, 0) + 1
            if outermost:
                inclusive[name] = inclusive.get(name, 0.0) + end - start
        metrics = {m: inclusive.get(n, 0.0) for m, n in TIMED.items()}
        metrics.update({m: calls.get(n, 0) for m, n in CALLS.items()})
        metrics.update(self.counts)
        metrics.update({SELF[layer]: layer_self[layer] for layer in LAYERS})
        return metrics
