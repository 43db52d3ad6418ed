"""Point-by-point tennis analytics: cleaning, momentum scoring, prediction."""

from .errors import (
    DataError,
    DataQualityWarning,
    DegenerateRangeError,
    EmptyInputError,
    ImputationError,
    InsufficientDataError,
    RowParseError,
    SchemaError,
    UndefinedCorrelationError,
    UnknownMatchError,
)
from .ingest import (
    BoxplotReport,
    MatchTimeline,
    MissingReport,
    PointRecord,
    impute_missing,
    load_matches,
    parse_score_token,
)
from .indicators import (
    IndicatorVector,
    PcaResult,
    compute_indicators,
    normalize_minmax,
    pca_reduce,
    positivize,
)
from .fuzzy import (
    FuzzyHierarchy,
    MembershipVector,
    MomentumPoint,
    entropy_weights,
    evaluate_membership,
    first_level_eval,
    momentum_score,
    momentum_series,
    second_level_eval,
)
from .momentum import (
    CorrelationMatrix,
    MomentumSample,
    TurningPointStats,
    correlation_matrix,
    detect_turning_points,
    extra_feature_columns,
    extract_momentum_samples,
    pearson,
    turning_point_stats,
)
from .grnn import (
    CvConfig,
    EvalReport,
    GrnnModel,
    SweepResult,
    evaluate,
    expand_features,
    grnn_predict,
    rank_extras_by_correlation,
    train_cv,
)

__version__ = "0.1.0"
