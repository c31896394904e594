"""Reference implementations that the fast paths in ``src/`` are checked
against.  No command uses them."""
import numpy as np

from treebench.tree import DecisionTree, TreeError


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
        k = node.split.branch_for(int(row[node.split.feature]))
        if k is None:
            break
        child = node.children[k]
        if child.total == 0:
            break
        node = child
    return node.prediction, node.confidence
