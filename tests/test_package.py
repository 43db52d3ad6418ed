import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

import tennis_momentum

# Every public name of the package root. A removal or an addition edits
# this list on purpose.
PUBLIC_NAMES = {
    # errors
    "DataError", "DataQualityWarning", "DegenerateRangeError", "EmptyInputError",
    "ImputationError", "InsufficientDataError", "RowParseError", "SchemaError",
    "UndefinedCorrelationError", "UnknownMatchError",
    # ingest
    "BoxplotReport", "MatchTimeline", "MissingReport", "load_matches",
    "parse_score_token",
    # records
    "PointRecord", "impute_missing",
    # indicators
    "IndicatorVector", "PcaResult", "compute_indicators", "normalize_minmax",
    "pca_reduce", "positivize",
    # fuzzy
    "FuzzyHierarchy", "MembershipVector", "MomentumPoint", "entropy_weights",
    "evaluate_membership", "first_level_eval", "momentum_score", "momentum_series",
    "second_level_eval",
    # momentum
    "CorrelationMatrix", "MomentumSample", "TurningPointStats", "correlation_matrix",
    "detect_turning_points", "extra_feature_columns", "extract_momentum_samples",
    "pearson", "turning_point_stats",
    # grnn
    "CvConfig", "EvalReport", "GrnnModel", "SweepResult", "evaluate",
    "expand_features", "grnn_predict", "rank_extras_by_correlation", "train_cv",
}


def test_package_root_public_names_are_pinned():
    # the root resolves its names on first use, so its vars() fill as they
    # are read: check the declared names, the listed names and each value
    assert len(PUBLIC_NAMES) == 50
    assert set(tennis_momentum.__all__) == PUBLIC_NAMES
    listed = {
        name for name in dir(tennis_momentum)
        if not name.startswith("_")
        and not isinstance(getattr(tennis_momentum, name), types.ModuleType)
    }
    assert listed == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(tennis_momentum, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("tennis_momentum.")
        assert getattr(home, name) is value
    with pytest.raises(AttributeError):
        tennis_momentum.no_such_name


def test_package_imports_only_the_standard_library_numpy_and_itself():
    # scipy is installed but undeclared, so no package module may import it
    allowed = set(sys.stdlib_module_names) | {"numpy", "tennis_momentum"}
    for path in sorted(Path(tennis_momentum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno}: {name}"
