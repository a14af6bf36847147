"""Topological detection of repeating structure in 1-D signals.

The pipeline: normalize a signal, pick an embedding lag from its lag
correlation, lift it to a delay-coordinate point cloud, subsample, build
a Rips filtration, and read periodicity off the one-dimensional
persistence bars. A piecewise-sinusoid model covers synthesis of test
signals and fitting of real ones.
"""

from .detector import (
    DetectionReport,
    EvaluationResult,
    PipelineConfig,
    detect,
    evaluate,
    significance,
)
from .embedding import (
    PointCloud,
    acl,
    delay_embed,
    find_delay,
    read_cloud_csv,
    select_delay,
    write_cloud_csv,
)
from .errors import (
    DimensionMismatchError,
    EmptyArtifactError,
    EmptyAudioError,
    EmptyCloudError,
    InsufficientPeaksError,
    InvalidRangeError,
    MalformedHeaderError,
    NoCriticalPointsError,
    NoZeroCrossingError,
    NoZeroCrossingsError,
    NTooLargeError,
    PhaseConditionError,
    SignalTooShortError,
    TopoperiodError,
    UnsupportedEncodingError,
)
from .metrics import bottleneck, hausdorff
from .model import (
    PiecewiseSinusoidModel,
    SegmentEstimate,
    SinusoidSegment,
    estimate_segments,
    fit_envelope,
    fit_model,
    graph,
    synthesize,
)
from .persistence import (
    Filtration,
    PersistenceDiagram,
    PersistenceInterval,
    h1_diagram,
    persistent_homology,
    rips_filtration,
)
from .render import render_svg
from .signal_io import Signal, load_csv, load_wav, normalize, save_csv, window
from .subsampling import SplitMix64, maxmin, random_subsample

__version__ = "0.1.0"

__all__ = [
    "DetectionReport",
    "DimensionMismatchError",
    "EmptyArtifactError",
    "EmptyAudioError",
    "EmptyCloudError",
    "EvaluationResult",
    "Filtration",
    "InsufficientPeaksError",
    "InvalidRangeError",
    "MalformedHeaderError",
    "NTooLargeError",
    "NoCriticalPointsError",
    "NoZeroCrossingError",
    "NoZeroCrossingsError",
    "PersistenceDiagram",
    "PersistenceInterval",
    "PhaseConditionError",
    "PiecewiseSinusoidModel",
    "PipelineConfig",
    "PointCloud",
    "SegmentEstimate",
    "Signal",
    "SignalTooShortError",
    "SinusoidSegment",
    "SplitMix64",
    "TopoperiodError",
    "UnsupportedEncodingError",
    "acl",
    "h1_diagram",
    "bottleneck",
    "delay_embed",
    "detect",
    "estimate_segments",
    "evaluate",
    "find_delay",
    "fit_envelope",
    "fit_model",
    "graph",
    "hausdorff",
    "load_csv",
    "load_wav",
    "maxmin",
    "normalize",
    "persistent_homology",
    "random_subsample",
    "read_cloud_csv",
    "render_svg",
    "rips_filtration",
    "save_csv",
    "select_delay",
    "significance",
    "synthesize",
    "window",
    "write_cloud_csv",
]
