"""Decision-tree learning and model comparison for coded categorical tables.

The package covers one pipeline end to end: ingest and recode raw delimited
records, rank features with forest-based Shapley attributions and backward
elimination, cross-validate eight classifier families on shared folds, and
emit leaderboard, coincidence-matrix, importance, and DOT-format artifacts.
"""

from .baselines import (
    BaselineError,
    BayesNetModel,
    ConvergenceError,
    DecisionListModel,
    DecisionRule,
    LogisticModel,
    MlpModel,
    bayes_joint_probability,
    mlp_loss_and_gradients,
    model_from_json,
    predict_batch,
    train_bayes_net,
    train_decision_list,
    train_logistic,
    train_mlp,
    train_mlps,
)
from .criteria import (
    ChiSquareResult,
    DegenerateTableError,
    chi_square,
    chi_square_sf,
    entropy,
    gini,
    gini_decrease,
    info_gain,
)
from .dataset import (
    CategoricalTable,
    DatasetError,
    FeatureSpec,
    RawTable,
    RecodeAudit,
    RecodeRule,
    RecodeRuleSet,
    SyntheticRules,
    binary_schema,
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
from .evaluation import (
    CoincidenceMatrix,
    ComparisonReport,
    CvResult,
    EvalError,
    FoldPlan,
    Leaderboard,
    LeaderboardRow,
    RosterEntry,
    coincidence,
    compare_models,
    cross_validate,
    make_folds,
    overall_accuracy,
    predict_labels,
)
from .forest import (
    Forest,
    ForestError,
    ForestParams,
    bootstrap_indices,
    train_forest,
)
from .seeding import derive_seed
from .shapley import (
    BackgroundSet,
    CvSpec,
    EliminationStep,
    EliminationTrace,
    ShapAttribution,
    ShapError,
    attribution_table,
    backward_eliminate,
    brute_force_shap,
    explain_table,
    global_importance,
    make_background,
    shap_batch,
    shap_values,
)
from .tree import (
    DecisionTree,
    Split,
    TreeError,
    TreeNode,
    TreeParams,
    export_dot,
    leaf_count,
    node_count,
    pessimistic_error_bound,
    predict_batch as tree_predict_batch,
    predictor_importance,
    prune_c50,
    train_c50,
    train_cart,
    train_chaid,
    train_quest,
    tree_depth,
)

__version__ = "0.1.0"
