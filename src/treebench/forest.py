"""Random forest over binary Gini trees, used for feature screening.

Each member tree trains on a seeded bootstrap sample and draws a fresh
random feature subset at every node.  Per-tree generators depend only on
(seed, tree index), so training order and parallelism cannot change the
result.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import (ANY, BOOLEAN, LIST, NAMES, OBJECT, STRING, CategoricalTable,
                      check_knobs, integer, optional, read_fields, read_json,
                      rules_of, ruled)
from .tree import (DecisionTree, TreeError, TreeNode, TreeParams, _gini_chooser,
                   _grow, node_payload)


class ForestError(ValueError):
    """Raised for invalid forest parameters."""


# The fields of a forest payload
_PAYLOAD_FIELDS = {"params": OBJECT, "feature_names": NAMES, "schema_hash": STRING,
                   "n_rows": integer(2), "trees": LIST}


@dataclass(frozen=True)
class ForestParams:
    """Ensemble knobs.  ``features_per_split`` defaults to ceil(sqrt(m));
    ``sample_size`` defaults to n; ``bootstrap=False`` uses the identity
    sample (every tree sees all rows, still with feature subsampling), so
    it takes no ``sample_size``."""

    n_trees: int = ruled(integer(1), 500)
    features_per_split: int | None = ruled(optional(integer(1)), None)
    sample_size: int | None = ruled(optional(integer(1)), None)
    bootstrap: bool = ruled(BOOLEAN, True)
    min_records: int = ruled(integer(1), 2)
    max_depth: int | None = ruled(optional(integer(0)), None)
    seed: int = ruled(integer(0), 0)

    def __post_init__(self):
        check_knobs(vars(self), FOREST_RULES, "ForestParams", ForestError)
        if self.sample_size is not None and not self.bootstrap:
            raise ForestError("sample_size is set with bootstrap false, whose "
                              "identity sample ignores it")

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


FOREST_RULES = rules_of(ForestParams)


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
                "trees": [node_payload(t.root) for t in self.trees],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Forest":
        """The forest of a ``to_json`` text: each of its ``trees`` is the root
        of what ``train_forests`` grows, a ``forest_member`` over the forest's
        names and hash whose root totals its bag."""
        params, names, schema_hash, n_rows, roots = read_fields(
            read_json(text, ANY, "forest payload", ForestError), _PAYLOAD_FIELDS,
            "forest payload", ForestError).values()
        check_knobs(params, FOREST_RULES, "ForestParams", ForestError)
        params = ForestParams(**params)
        member = {"algorithm": "forest_member", "params": asdict(params.tree_params()),
                  "feature_names": names, "schema_hash": schema_hash,
                  "n_rows": params.sample_size or n_rows}
        if len(roots) != params.n_trees:
            raise ForestError(f"the forest holds {len(roots)} trees, "
                              f"not its n_trees {params.n_trees}")
        trees = []
        for i, root in enumerate(roots):
            try:
                trees.append(DecisionTree.from_payload({**member, "root": root}))
            except TreeError as e:
                raise ForestError(f"forest member {i}: {e}") from None
        return cls(tuple(trees), params, tuple(names), schema_hash, n_rows)


def _require_rows(n: int) -> None:
    if n < 2:
        raise ForestError("forest training needs at least 2 rows")


def train_forests(data: CategoricalTable, params: ForestParams,
                  row_sets) -> list[Forest]:
    """One ensemble of binary Gini trees per row set (a sequence of index
    arrays into ``data``).

    The forest of ``rows`` is ``train_forest(data.take_rows(rows), params)``:
    its members' bags and its ``n_rows`` count positions in ``rows``.  Every
    member of every forest grows in one lockstep batch over index views of
    ``data``, with root row indices ``rows[bag]``, so no row set is copied.
    A member keeps its own generator and preorder, and the Gini choice at a
    node depends only on the codes present there, so a forest is the same
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
    roots = iter(_grow(data, tree_params, _gini_chooser, resplit=True, members=members,
                       features_per_split=k))
    schema_hash = data.schema_hash()
    return [
        Forest(
            trees=tuple(
                DecisionTree(root=next(roots), algorithm="forest_member",
                             params=tree_params, feature_names=data.feature_names,
                             schema_hash=schema_hash, n_rows=len(bag))
                for bag in forest_bags),
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

