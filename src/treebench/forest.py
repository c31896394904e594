"""Random forest over binary Gini trees, used for feature screening.

Each member tree trains on a seeded bootstrap sample and draws a fresh
random feature subset at every node.  Per-tree generators depend only on
(seed, tree index), so training order and parallelism cannot change the
result, and out-of-bag rows give an internal accuracy estimate.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dataset import CategoricalTable
from .tree import DecisionTree, TreeNode, TreeParams, _gini_chooser, _grow


class ForestError(ValueError):
    """Raised for invalid forest parameters or unusable out-of-bag state."""


# Smallest valid value of each integer field of ForestParams.  None is also
# valid where it is the default.
_MINIMUM = {"n_trees": 1, "features_per_split": 1, "sample_size": 1,
            "min_records": 1, "max_depth": 0, "seed": 0}


@dataclass(frozen=True)
class ForestParams:
    """Ensemble knobs.  ``features_per_split`` defaults to ceil(sqrt(m));
    ``sample_size`` defaults to n; ``bootstrap=False`` uses the identity
    sample (every tree sees all rows, still with feature subsampling)."""

    n_trees: int = 500
    features_per_split: int | None = None
    sample_size: int | None = None
    bootstrap: bool = True
    min_records: int = 2
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.bootstrap, bool):
            raise ForestError(
                f"bootstrap must be true or false, got {self.bootstrap!r}")
        for f in fields(self):
            value, minimum = getattr(self, f.name), _MINIMUM.get(f.name)
            if minimum is None or (value is None and f.default is None):
                continue
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or value < minimum):
                raise ForestError(
                    f"{f.name} must be an integer >= {minimum}, got {value!r}")

    def resolve_features_per_split(self, m: int) -> int:
        if self.features_per_split is None:
            return int(np.ceil(np.sqrt(m)))
        if self.features_per_split > m:
            raise ForestError(
                f"features_per_split {self.features_per_split} exceeds "
                f"feature count {m}"
            )
        return self.features_per_split

    def tree_params(self) -> TreeParams:
        return TreeParams(min_records=self.min_records, max_depth=self.max_depth)


def bootstrap_indices(params: ForestParams, n: int, tree_index: int) -> np.ndarray:
    """Row multiset for one tree, a pure function of (seed, tree index)."""
    if not params.bootstrap:
        return np.arange(n)
    size = params.sample_size or n
    rng = np.random.default_rng([params.seed, tree_index])
    return np.sort(rng.integers(0, n, size=size))


@dataclass(eq=False)
class Forest:
    trees: tuple[DecisionTree, ...]
    bags: tuple[np.ndarray, ...]
    params: ForestParams
    feature_names: tuple[str, ...]
    schema_hash: str
    n_rows: int

    def proba_batch(self, rows) -> np.ndarray:
        """Fraction of trees voting class 1, per row."""
        return sum(t.predict_batch(rows) for t in self.trees) / len(self.trees)

    def predict_batch(self, rows) -> np.ndarray:
        """Majority vote per row; exact ties go to class 1."""
        return (self.proba_batch(rows) >= 0.5).astype(np.int64)

    # -- Shapley view: the trees averaged, and the value of a stop ---------

    @property
    def members(self) -> tuple[DecisionTree, ...]:
        return self.trees

    @staticmethod
    def leaf_value(node: TreeNode) -> float:
        """A member's class-1 vote at this node."""
        return 1.0 if node.prediction == 1 else 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "params": asdict(self.params),
                "feature_names": list(self.feature_names),
                "schema_hash": self.schema_hash,
                "n_rows": self.n_rows,
                "trees": [t.payload() for t in self.trees],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Forest":
        payload = json.loads(text)
        params = ForestParams(**payload["params"])
        n = payload["n_rows"]
        trees = tuple(DecisionTree.from_payload(t) for t in payload["trees"])
        bags = tuple(
            bootstrap_indices(params, n, i) for i in range(len(trees))
        )
        return cls(
            trees=trees,
            bags=bags,
            params=params,
            feature_names=tuple(payload["feature_names"]),
            schema_hash=payload["schema_hash"],
            n_rows=n,
        )


def _require_rows(n: int) -> None:
    if n < 2:
        raise ForestError("forest training needs at least 2 rows")


def train_forests(data: CategoricalTable, params: ForestParams,
                  row_sets) -> list[Forest]:
    """One ensemble of binary Gini trees per row set (a sequence of index
    arrays into ``data``).

    The forest of ``rows`` is ``train_forest(data.take_rows(rows), params)``:
    its bags and ``n_rows`` count positions in ``rows``.  Every member of
    every forest grows in one lockstep batch over index views of ``data``,
    with root row indices ``rows[bag]``, so no row set is copied.  A member
    keeps its own generator and preorder, and the Gini choice at a node
    depends only on the codes present there, so a forest is the same
    whether it grows alone or in a batch.
    """
    for rows in row_sets:
        _require_rows(len(rows))
    k = params.resolve_features_per_split(data.n_features)
    tree_params = params.tree_params()
    bags = [tuple(bootstrap_indices(params, len(rows), i)
                  for i in range(params.n_trees)) for rows in row_sets]
    members = [(rows[bag], np.random.default_rng([params.seed, i, 1]))
               for rows, forest_bags in zip(row_sets, bags)
               for i, bag in enumerate(forest_bags)]
    roots = iter(_grow(data, tree_params, _gini_chooser, "binary", True,
                       members, k))
    schema_hash = data.schema_hash()
    return [
        Forest(
            trees=tuple(
                DecisionTree(root=next(roots), algorithm="forest_member",
                             params=tree_params, feature_names=data.feature_names,
                             schema_hash=schema_hash, n_rows=len(bag))
                for bag in forest_bags),
            bags=forest_bags,
            params=params,
            feature_names=data.feature_names,
            schema_hash=schema_hash,
            n_rows=len(rows),
        )
        for rows, forest_bags in zip(row_sets, bags)
    ]


def train_forest(data: CategoricalTable, params: ForestParams | None = None) -> Forest:
    """Train the ensemble of binary Gini trees on every row of ``data``."""
    [forest] = train_forests(data, params or ForestParams(),
                             [np.arange(data.n_rows)])
    return forest


def oob_accuracy(forest: Forest, data: CategoricalTable) -> float:
    """Accuracy over rows predicted only by trees whose bag excluded them.

    Rows present in every bag are left out of the estimate; if no row is
    out of bag anywhere, there is nothing to score and an error is raised.
    """
    if data.n_rows != forest.n_rows:
        raise ForestError("data row count does not match the trained forest")
    out_of_bag = np.ones((len(forest.trees), data.n_rows), dtype=bool)
    for t, bag in enumerate(forest.bags):
        out_of_bag[t, bag] = False
    voters = out_of_bag.sum(axis=0)
    scored = voters > 0
    if not scored.any():
        raise ForestError("no out-of-bag rows")
    votes = np.zeros(data.n_rows, dtype=np.int64)
    for tree, oob in zip(forest.trees, out_of_bag):
        votes[oob] += tree.predict_batch(data.rows[oob])
    labels = votes[scored] / voters[scored] >= 0.5
    return int(np.sum(labels == data.target[scored])) / int(scored.sum())
