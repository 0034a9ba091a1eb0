"""Runtime failure modes shared across the analysis pipeline."""

__all__ = [
    "EvasionError",
    "KnobError",
    "ResolutionError",
    "SimultaneousEventsError",
    "WitnessError",
]


class KnobError(ValueError):
    """An analysis option is outside its valid range (bad input, not a failure)."""


class EvasionError(RuntimeError):
    """Base class for analysis failures that a finer run could resolve."""


class ResolutionError(EvasionError):
    """The grid or time sampling is too coarse to separate what happened."""


class SimultaneousEventsError(ResolutionError):
    """Two coverage transitions could not be separated in time."""


class WitnessError(EvasionError):
    """No witness path could be assembled at the current resolution."""
