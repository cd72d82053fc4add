"""Drift-aware stream classification toolkit.

Hybrid ensembles of batch and online learners: statistical drift monitoring
over adjacent instance windows, drift-gated shadow retraining of batch
members, and weighted-voting or dynamic-switching prediction combination,
evaluated prequentially (test-then-train).
"""

import logging

from .core import (
    ConfigError,
    DataError,
    FeatureKind,
    Instance,
    MetricError,
    Schema,
    SchemaError,
    ToolkitError,
)
from .drift import DriftStrategy, DriftVerdict, Trigger, check_windows, select_test, strategy_catalog
from .ensemble import (
    EnsembleConfig,
    HybridEnsemble,
    MemberSpec,
    StepResult,
    combine_votes,
    compute_weights,
)
from .evaluation import ConfusionMatrix, PrequentialState, RankedMethod, RunReport, f1_macro, ranking
from .experiment import ExperimentConfig, parse_config, run_experiment, run_stream
from .ingest import IngestConfig, SynthConfig, generate_synthetic, preprocess_csv, replay, stream_schema

__version__ = "0.1.0"

# Swallowed member failures are logged with their tracebacks; without a
# handler of the package's own, logging's last-resort handler would print
# each one to stderr when the application configures no logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "ConfigError",
    "ConfusionMatrix",
    "DataError",
    "DriftStrategy",
    "DriftVerdict",
    "EnsembleConfig",
    "ExperimentConfig",
    "FeatureKind",
    "HybridEnsemble",
    "IngestConfig",
    "Instance",
    "MemberSpec",
    "MetricError",
    "PrequentialState",
    "RankedMethod",
    "RunReport",
    "Schema",
    "SchemaError",
    "StepResult",
    "SynthConfig",
    "ToolkitError",
    "Trigger",
    "check_windows",
    "combine_votes",
    "compute_weights",
    "f1_macro",
    "generate_synthetic",
    "parse_config",
    "preprocess_csv",
    "ranking",
    "replay",
    "run_experiment",
    "run_stream",
    "select_test",
    "strategy_catalog",
    "stream_schema",
    "__version__",
]
