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
    """The grid or time sampling is too coarse to separate what happened.

    hint names the knob to change as a command line action, such as
    "raise --cells"; the CLI prints it with the error.
    """

    def __init__(self, detail: str, *, hint: str) -> None:
        super().__init__(detail)
        self.hint = hint


class SimultaneousEventsError(ResolutionError):
    """Two coverage transitions could not be separated in time."""


class WitnessError(EvasionError):
    """No witness path could be assembled at the current resolution."""
