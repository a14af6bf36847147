"""Domain error types.

Every error carries a stable ``kind`` string so callers (notably the CLI)
can emit machine-readable reports without matching on class names.
"""

from __future__ import annotations


class TopoperiodError(Exception):
    """Base class for all domain errors raised by this package."""

    kind: str = "Error"


class MalformedHeaderError(TopoperiodError):
    """Input file is not a valid container (bad magic, truncated chunk)."""

    kind = "MalformedHeader"


class UnsupportedEncodingError(TopoperiodError):
    """Audio encoding outside the supported uncompressed PCM subset."""

    kind = "UnsupportedEncoding"


class EmptyAudioError(TopoperiodError):
    """Audio payload has too few samples to form a signal."""

    kind = "EmptyAudio"


class InvalidRangeError(TopoperiodError):
    """Window bounds are reversed, out of range, or select too little data."""

    kind = "InvalidRange"


class PhaseConditionError(TopoperiodError):
    """Segment phases break the continuity recurrence at a boundary."""

    kind = "PhaseConditionViolated"


class NoZeroCrossingsError(TopoperiodError):
    """Signal never crosses zero, so no gap structure can be estimated."""

    kind = "NoZeroCrossings"


class InsufficientPeaksError(TopoperiodError):
    """Fewer than two positive local maxima, envelope cannot be fitted."""

    kind = "InsufficientPeaks"


class NoCriticalPointsError(TopoperiodError):
    """Correlation curve is monotone, it has no critical points."""

    kind = "NoCriticalPoints"


class NoZeroCrossingError(TopoperiodError):
    """Correlation curve has no sign change to select a delay from."""

    kind = "NoZeroCrossing"


class SignalTooShortError(TopoperiodError):
    """Signal is too short for the requested delay embedding."""

    kind = "SignalTooShort"


class NTooLargeError(TopoperiodError):
    """Requested subsample size exceeds the number of available points."""

    kind = "NTooLarge"


class EmptyCloudError(TopoperiodError):
    """Operation requires a nonempty point cloud."""

    kind = "EmptyCloud"


class DimensionMismatchError(TopoperiodError):
    """Point clouds live in different ambient dimensions."""

    kind = "DimensionMismatch"


class EmptyArtifactError(TopoperiodError):
    """Nothing to render."""

    kind = "EmptyArtifact"
