"""The exact JSON text of hand-built models, one per model family.

The expected strings were written by the code that predates the shared
``to_json`` protocol, so these tests pin every family's payload bytes:
baselines (``kind`` plus every field, sorted keys, one line), a decision
tree with a multiway and a binary split, and a two-member forest (both
indented by two spaces).  Each text also loads back to the same text.
A tree node holds its counts and score, and its split and children when it
splits, never its label; a forest lists its members' root nodes.  A tree
text that stores labels, or a split's arity, still loads, and a forest
text with whole member payloads is refused.

The ``elimination.json`` that ``select-features`` writes for one small
planted table is pinned at two seeds as well; each step's accuracy comes
from that step's fold forests.  So is the text of a hand-built two-step
trace.
"""
import json

import numpy as np
import pytest

from treebench import cli

from treebench.baselines import (
    BayesNetModel,
    DecisionListModel,
    DecisionRule,
    LogisticModel,
    MlpModel,
    model_from_json,
)
from treebench.dataset import (
    binary_schema,
    generate_synthetic,
    planted_relevance_rules,
    schema_to_json,
)
from treebench.forest import Forest, ForestError, ForestParams
from treebench.shapley import EliminationStep, EliminationTrace
from treebench.tree import DecisionTree, Split, TreeNode, TreeParams

HASH = "0123456789abcdef"


def leaf(counts, confidence):
    counts = np.array(counts, dtype=np.int64)
    return TreeNode(counts, int(counts[1] > counts[0]), confidence)


def split(counts, confidence, feature, branches, children, score):
    node = leaf(counts, confidence)
    node.split = Split(feature, branches)
    node.children = tuple(children)
    node.score = score
    return node


def hand_models():
    """One model per baseline kind, every value chosen by hand."""
    logistic = LogisticModel(("f0", "f1"), ((0, 1), (0, 1, 2)), -0.25,
                             (1.5, -0.125, 0.1), HASH, 7)
    mlp = MlpModel(("f0",), ((0, 1, 2),),
                   (np.array([[0.5, -0.25], [0.125, 1.0]]),
                    np.array([[1.5, -2.0]])),
                   (np.array([0.0, 0.1]), np.array([-0.3])),
                   "tanh", HASH, 42)
    # parents and tables in unsorted order: the payload sorts them
    bayes = BayesNetModel(("f0", "f1"), ((0, 1), (1, 2)),
                          {"target": (), "f1": ("f0", "target"), "f0": ("target",)},
                          {"target": np.array([0.4, 0.6]),
                           "f1": np.array([[[0.2, 0.8], [0.7, 0.3]],
                                           [[0.5, 0.5], [0.1, 0.9]]]),
                           "f0": np.array([[0.25, 0.75], [0.5, 0.5]])},
                          1.0, -12.375, HASH)
    rules = DecisionListModel(("f0", "f1"), ((0, 1), (0, 1, 2)),
                              (DecisionRule(((1, 2), (0, 0)), 1, 0.8, 3),
                               DecisionRule(((0, 1),), 0, 2 / 3, 4)),
                              0, 0.6, HASH)
    return {"logistic": logistic, "mlp": mlp, "bayes_net": bayes,
            "decision_list": rules}


def hand_tree():
    """A multiway root whose middle child splits binary; the last child is
    empty and keeps its parent's label."""
    binary = split([3, 4], 4 / 7, 1, ((0,), (1, 2)),
                   [leaf([3, 0], 1.0), leaf([0, 4], 1.0)], 0.25)
    root = split([6, 5], 6 / 11, 0, ((0,), (1,), (2,)),
                 [leaf([3, 1], 0.75), binary, leaf([0, 0], 6 / 11)], 0.125)
    return DecisionTree(root, "c50",
                        TreeParams(min_records=3),
                        ("f0", "f1"), HASH, 11)


def hand_forest():
    params = ForestParams(n_trees=2, max_depth=1, seed=5)
    members = (
        split([2, 3], 0.6, 0, ((1,), (0, 2)),
              [leaf([0, 3], 1.0), leaf([2, 0], 1.0)], 0.48),
        leaf([4, 1], 0.8),
    )
    trees = tuple(DecisionTree(root, "forest_member", params.tree_params(),
                               ("f0", "f1"), HASH, 5) for root in members)
    return Forest(trees, params, ("f0", "f1"), HASH, 5)


BASELINE_TEXT = {
    "logistic": (
        '{"coefficients": [1.5, -0.125, 0.1], "feature_names": ["f0", '
        '"f1"], "intercept": -0.25, "iterations": 7, "kind": "logistic", '
        '"levels": [[0, 1], [0, 1, 2]], '
        '"schema_hash": "0123456789abcdef"}'
    ),
    "mlp": (
        '{"activation": "tanh", "biases": [[0.0, 0.1], [-0.3]], '
        '"feature_names": ["f0"], "kind": "mlp", "levels": [[0, 1, 2]], '
        '"schema_hash": "0123456789abcdef", "seed": 42, '
        '"weights": [[[0.5, -0.25], [0.125, 1.0]], [[1.5, -2.0]]]}'
    ),
    "bayes_net": (
        '{"alpha": 1.0, "cpts": {"f0": [[0.25, 0.75], [0.5, 0.5]], '
        '"f1": [[[0.2, 0.8], [0.7, 0.3]], [[0.5, 0.5], [0.1, 0.9]]], '
        '"target": [0.4, 0.6]}, "feature_names": ["f0", "f1"], '
        '"kind": "bayes_net", "levels": [[0, 1], [1, 2]], '
        '"parents": {"f0": ["target"], "f1": ["f0", "target"], '
        '"target": []}, "schema_hash": "0123456789abcdef", '
        '"score": -12.375}'
    ),
    "decision_list": (
        '{"default_class": 0, "default_precision": 0.6, '
        '"feature_names": ["f0", "f1"], "kind": "decision_list", '
        '"levels": [[0, 1], [0, 1, 2]], "rules": [{"class": 1, '
        '"coverage": 3, "literals": [[1, 2], [0, 0]], "precision": 0.8}, '
        '{"class": 0, "coverage": 4, "literals": [[0, 1]], '
        '"precision": 0.6666666666666666}], '
        '"schema_hash": "0123456789abcdef"}'
    ),
}

TREE_TEXT = """\
{
  "algorithm": "c50",
  "feature_names": [
    "f0",
    "f1"
  ],
  "n_rows": 11,
  "params": {
    "alpha": 0.05,
    "max_depth": null,
    "min_gain": 1e-12,
    "min_records": 3,
    "severity": 75.0
  },
  "root": {
    "children": [
      {
        "counts": [
          3,
          1
        ],
        "score": 0.0
      },
      {
        "children": [
          {
            "counts": [
              3,
              0
            ],
            "score": 0.0
          },
          {
            "counts": [
              0,
              4
            ],
            "score": 0.0
          }
        ],
        "counts": [
          3,
          4
        ],
        "score": 0.25,
        "split": {
          "branches": [
            [
              0
            ],
            [
              1,
              2
            ]
          ],
          "feature": 1
        }
      },
      {
        "counts": [
          0,
          0
        ],
        "score": 0.0
      }
    ],
    "counts": [
      6,
      5
    ],
    "score": 0.125,
    "split": {
      "branches": [
        [
          0
        ],
        [
          1
        ],
        [
          2
        ]
      ],
      "feature": 0
    }
  },
  "schema_hash": "0123456789abcdef"
}"""

# The text of hand_tree() in the format whose nodes also stored their label
# and whose splits their arity
LABELLED_TREE_TEXT = """\
{
  "algorithm": "c50",
  "feature_names": [
    "f0",
    "f1"
  ],
  "n_rows": 11,
  "params": {
    "alpha": 0.05,
    "max_depth": null,
    "min_gain": 1e-12,
    "min_records": 3,
    "severity": 75.0
  },
  "root": {
    "children": [
      {
        "confidence": 0.75,
        "counts": [
          3,
          1
        ],
        "prediction": 0,
        "score": 0.0
      },
      {
        "children": [
          {
            "confidence": 1.0,
            "counts": [
              3,
              0
            ],
            "prediction": 0,
            "score": 0.0
          },
          {
            "confidence": 1.0,
            "counts": [
              0,
              4
            ],
            "prediction": 1,
            "score": 0.0
          }
        ],
        "confidence": 0.5714285714285714,
        "counts": [
          3,
          4
        ],
        "prediction": 1,
        "score": 0.25,
        "split": {
          "arity": "binary",
          "branches": [
            [
              0
            ],
            [
              1,
              2
            ]
          ],
          "feature": 1
        }
      },
      {
        "confidence": 0.5454545454545454,
        "counts": [
          0,
          0
        ],
        "prediction": 0,
        "score": 0.0
      }
    ],
    "confidence": 0.5454545454545454,
    "counts": [
      6,
      5
    ],
    "prediction": 0,
    "score": 0.125,
    "split": {
      "arity": "multiway",
      "branches": [
        [
          0
        ],
        [
          1
        ],
        [
          2
        ]
      ],
      "feature": 0
    }
  },
  "schema_hash": "0123456789abcdef"
}"""

FOREST_TEXT = """\
{
  "feature_names": [
    "f0",
    "f1"
  ],
  "n_rows": 5,
  "params": {
    "bootstrap": true,
    "features_per_split": null,
    "max_depth": 1,
    "min_records": 2,
    "n_trees": 2,
    "sample_size": null,
    "seed": 5
  },
  "schema_hash": "0123456789abcdef",
  "trees": [
    {
      "children": [
        {
          "counts": [
            0,
            3
          ],
          "score": 0.0
        },
        {
          "counts": [
            2,
            0
          ],
          "score": 0.0
        }
      ],
      "counts": [
        2,
        3
      ],
      "score": 0.48,
      "split": {
        "branches": [
          [
            1
          ],
          [
            0,
            2
          ]
        ],
        "feature": 0
      }
    },
    {
      "counts": [
        4,
        1
      ],
      "score": 0.0
    }
  ]
}"""

# The text of hand_forest() in the format whose members were whole tree
# payloads
MEMBER_FOREST_TEXT = """\
{
  "feature_names": [
    "f0",
    "f1"
  ],
  "n_rows": 5,
  "params": {
    "bootstrap": true,
    "features_per_split": null,
    "max_depth": 1,
    "min_records": 2,
    "n_trees": 2,
    "sample_size": null,
    "seed": 5
  },
  "schema_hash": "0123456789abcdef",
  "trees": [
    {
      "algorithm": "forest_member",
      "feature_names": [
        "f0",
        "f1"
      ],
      "n_rows": 5,
      "params": {
        "alpha": 0.05,
        "max_depth": 1,
        "min_gain": 1e-12,
        "min_records": 2,
        "severity": 75.0
      },
      "root": {
        "children": [
          {
            "confidence": 1.0,
            "counts": [
              0,
              3
            ],
            "prediction": 1,
            "score": 0.0
          },
          {
            "confidence": 1.0,
            "counts": [
              2,
              0
            ],
            "prediction": 0,
            "score": 0.0
          }
        ],
        "confidence": 0.6,
        "counts": [
          2,
          3
        ],
        "prediction": 1,
        "score": 0.48,
        "split": {
          "arity": "binary",
          "branches": [
            [
              1
            ],
            [
              0,
              2
            ]
          ],
          "feature": 0
        }
      },
      "schema_hash": "0123456789abcdef"
    },
    {
      "algorithm": "forest_member",
      "feature_names": [
        "f0",
        "f1"
      ],
      "n_rows": 5,
      "params": {
        "alpha": 0.05,
        "max_depth": 1,
        "min_gain": 1e-12,
        "min_records": 2,
        "severity": 75.0
      },
      "root": {
        "confidence": 0.8,
        "counts": [
          4,
          1
        ],
        "prediction": 0,
        "score": 0.0
      },
      "schema_hash": "0123456789abcdef"
    }
  ]
}"""


@pytest.mark.parametrize("kind", sorted(BASELINE_TEXT))
def test_baseline_payload_bytes(kind):
    model = hand_models()[kind]
    assert model.to_json() == BASELINE_TEXT[kind]
    assert model_from_json(BASELINE_TEXT[kind]).to_json() == BASELINE_TEXT[kind]


def test_tree_payload_bytes():
    assert hand_tree().to_json() == TREE_TEXT
    assert DecisionTree.from_json(TREE_TEXT).to_json() == TREE_TEXT


def test_forest_payload_bytes():
    assert hand_forest().to_json() == FOREST_TEXT
    assert Forest.from_json(FOREST_TEXT).to_json() == FOREST_TEXT
    # the format whose splits also stored their arity loads as this one
    older = FOREST_TEXT.replace('"branches": [', '"arity": "binary", "branches": [')
    assert older != FOREST_TEXT and Forest.from_json(older).to_json() == FOREST_TEXT


def test_labelled_tree_text_loads_with_the_labels_of_its_counts():
    """A tree text whose nodes store their labels, and whose splits their
    arity, loads: both are ignored, and every node's label follows from its
    counts."""
    tree = DecisionTree.from_json(LABELLED_TREE_TEXT)
    assert tree.to_json() == TREE_TEXT
    rows = np.array([[a, b] for a in range(4) for b in range(4)])
    assert np.array_equal(tree.proba_batch(rows), hand_tree().proba_batch(rows))
    assert np.array_equal(tree.predict_batch(rows), hand_tree().predict_batch(rows))


def test_member_forest_text_is_refused():
    """A forest text whose members are whole tree payloads is refused with
    one line: a member is a root node, which holds counts."""
    with pytest.raises(ForestError, match="^forest member 0: .*'counts'") as info:
        Forest.from_json(MEMBER_FOREST_TEXT)
    assert "\n" not in str(info.value)


ELIMINATION_TEXT = {
    0: (
        '{"selected_index": 3, "steps": [{"accuracy": 0.7166666666666667, '
        '"active_features": ["f00", "f01", "f02", "f03"], "dropped": "f03"}, '
        '{"accuracy": 0.75, "active_features": ["f00", "f01", "f02"], '
        '"dropped": "f02"}, {"accuracy": 0.75, "active_features": ["f00", '
        '"f01"], "dropped": "f00"}, {"accuracy": 0.7666666666666667, '
        '"active_features": ["f01"], "dropped": "f01"}]}\n'
    ),
    1: (
        '{"selected_index": 3, "steps": [{"accuracy": 0.6, '
        '"active_features": ["f00", "f01", "f02", "f03"], "dropped": "f02"}, '
        '{"accuracy": 0.6833333333333332, "active_features": ["f00", "f01", '
        '"f03"], "dropped": "f03"}, {"accuracy": 0.7166666666666667, '
        '"active_features": ["f00", "f01"], "dropped": "f00"}, '
        '{"accuracy": 0.7666666666666667, "active_features": ["f01"], '
        '"dropped": "f01"}]}\n'
    ),
}


TRACE_TEXT = (
    '{"selected_index": 0, "steps": [{"accuracy": 0.7166666666666667, '
    '"active_features": ["speed", "grade"], "dropped": "grade"}, '
    '{"accuracy": 0.5, "active_features": ["speed"], "dropped": "speed"}]}'
)


def test_trace_payload_bytes():
    """A trace's text: sorted keys on one line, each step's names a list,
    a numpy accuracy written as its float."""
    trace = EliminationTrace((
        EliminationStep(("speed", "grade"), np.float64(43) / 60, "grade"),
        EliminationStep(("speed",), 0.5, "speed")), selected_index=0)
    assert trace.to_json() == TRACE_TEXT
    assert EliminationTrace.from_json(TRACE_TEXT) == trace


@pytest.mark.parametrize("seed", sorted(ELIMINATION_TEXT))
def test_elimination_file_bytes(tmp_path, seed):
    schema = binary_schema(4)
    generate_synthetic(schema, 60, seed=21,
                       rules=planted_relevance_rules(("f00", "f01"))
                       ).to_csv(tmp_path / "coded.csv")
    (tmp_path / "schema.json").write_text(schema_to_json(schema))
    (tmp_path / "config.json").write_text(json.dumps({
        "seed": seed, "table": "coded.csv", "schema": "schema.json",
        "folds": 4, "forest": {"n_trees": 4, "max_depth": 3},
        "background": 8, "out_dir": "out"}))
    assert cli.main(["select-features", "--config",
                     str(tmp_path / "config.json")]) == 0
    text = (tmp_path / "out" / "elimination.json").read_text()
    assert text == ELIMINATION_TEXT[seed]
