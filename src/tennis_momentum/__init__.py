"""Point-by-point tennis analytics: cleaning, momentum scoring, prediction.

The public names below are imported from their layer on first use (PEP
562), so ``import tennis_momentum`` loads no layer and a command pays only
for the layers it runs.
"""

from importlib import import_module as _import_module

# public name -> the module that defines it
_SOURCES = {
    name: module
    for module, names in {
        "errors": (
            "DataError", "DataQualityWarning", "EmptyInputError", "ImputationError",
            "InsufficientDataError", "RowParseError", "SchemaError",
            "UndefinedCorrelationError", "UnknownMatchError",
        ),
        "ingest": ("BoxplotReport", "MatchTimeline", "load_matches", "parse_score_token"),
        "records": ("PointRecord", "impute_missing"),
        "indicators": ("PcaResult", "normalize_minmax", "pca_reduce"),
        "fuzzy": (
            "FuzzyHierarchy", "MembershipVector", "MomentumPoint", "entropy_weights",
            "evaluate_membership", "first_level_eval", "momentum_score",
            "momentum_series", "second_level_eval",
        ),
        "momentum": (
            "CorrelationMatrix", "MomentumSample", "correlation_matrix",
            "detect_turning_points", "extra_feature_columns", "extract_momentum_samples",
            "pearson", "turning_point_stats",
        ),
        "grnn": (
            "CvConfig", "EvalReport", "GrnnModel", "SweepResult", "evaluate",
            "expand_features", "grnn_predict", "rank_extras_by_correlation", "train_cv",
        ),
    }.items()
    for name in names
}

__all__ = list(_SOURCES)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
