"""Three-way decisions (accept / defer / reject) from time-dependent losses.

The package turns a six-entry loss matrix whose entries vary with a
time parameter ``t`` into acceptance and rejection thresholds, applies
them to a tabular dataset through rough-set membership probabilities,
and cross-checks every assignment against the minimum-expected-risk
rule the thresholds were derived from.
"""

from .config import ConfigError, RunConfig, TimeGrid
from .expr import (
    BinOp,
    Const,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    TimeExpr,
    Var,
    parse,
)
from .losses import (
    Entry,
    FuzzyElement,
    FuzzyLoss,
    IntervalLoss,
    LossMatrix,
    LossModelError,
    NormalBandLoss,
    OrderingMode,
    OrderingViolation,
    PointLoss,
    UniformLoss,
    cut_set,
    evaluate_entry,
    evaluate_matrix,
    validate_ordering,
)
from .risk import RiskTriple, expected_risks, min_risk_region
from .rough import (
    DegenerateThresholdsError,
    InformationSystem,
    Partition,
    Region,
    RegionAssignment,
    classify,
    conditional_probability,
    partition,
)
from .sweep import (
    BlockLayout,
    DatasetError,
    StrictSweepError,
    SweepRow,
    check_ordering,
    emit_outputs,
    load_dataset,
    run_sweep,
    thresholds_at,
)
from .thresholds import (
    BandPair,
    DegenerateMatrixError,
    OrderingViolationError,
    PointPair,
    ThresholdError,
    band_extremes,
    band_thresholds,
    point_thresholds,
)

__version__ = "0.1.0"

__all__ = [
    "BandPair",
    "BinOp",
    "BlockLayout",
    "ConfigError",
    "Const",
    "DatasetError",
    "DegenerateMatrixError",
    "DegenerateThresholdsError",
    "Entry",
    "ExprEvalError",
    "ExprSyntaxError",
    "FuzzyElement",
    "FuzzyLoss",
    "InformationSystem",
    "IntervalLoss",
    "LossMatrix",
    "LossModelError",
    "Neg",
    "NormalBandLoss",
    "OrderingMode",
    "OrderingViolation",
    "OrderingViolationError",
    "Partition",
    "PointLoss",
    "PointPair",
    "Region",
    "RegionAssignment",
    "RiskTriple",
    "RunConfig",
    "StrictSweepError",
    "SweepRow",
    "ThresholdError",
    "TimeExpr",
    "TimeGrid",
    "UniformLoss",
    "Var",
    "band_extremes",
    "band_thresholds",
    "check_ordering",
    "classify",
    "conditional_probability",
    "cut_set",
    "emit_outputs",
    "evaluate_entry",
    "evaluate_matrix",
    "expected_risks",
    "load_dataset",
    "min_risk_region",
    "parse",
    "partition",
    "point_thresholds",
    "run_sweep",
    "thresholds_at",
    "validate_ordering",
]
