"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; all inherit from FdelabError so CLI entry points can catch one type.
"""


class FdelabError(Exception):
    """Base class for all package errors."""


class InvalidParameter(FdelabError):
    """A model parameter violates its validity inequality."""


class EmptyRegion(InvalidParameter):
    """A sampling region has no points, e.g. an empty band at some tau."""


class NonPositiveInput(FdelabError):
    """An input required to be strictly positive was not."""


class TimeBeyondExtinction(FdelabError):
    """A time value t >= T was passed to a transform that needs t < T."""


class OutOfDomain(FdelabError):
    """Evaluation requested outside a profile's domain."""


class NonConvergent(FdelabError):
    """An iterative or summed quantity produced no usable value."""


class NonFinite(FdelabError):
    """A function returned a non-finite value where finiteness is required."""


class NoBracket(FdelabError):
    """Root bracketing expansion exhausted its budget without a sign change."""


class BlowupGuardTripped(FdelabError):
    """ODE state magnitude exceeded the configured blowup guard."""


class StepUnderflow(FdelabError):
    """ODE or PDE stepper could not make progress at the minimum step."""


class PositivityUnattained(FdelabError):
    """Doubling search for a positivity constant exhausted its budget."""


class TargetBelowRange(FdelabError):
    """Matching target is not reachable by the inner profile (tau too small)."""


class ExtrapolationUnstable(FdelabError):
    """Limit extrapolation did not stabilize over the sampled window."""


class NoAdmissibleEpsilon(FdelabError):
    """No epsilon in [0, 1/4) satisfies the corner/ordering verdicts."""


class NonPositiveProfile(FdelabError):
    """Operator evaluation hit a profile value <= 0."""


class VerdictViolated(FdelabError):
    """A sign verdict failed; carries the worst offending point."""

    def __init__(self, message, worst_point=None):
        super().__init__(message)
        self.worst_point = worst_point


class ThresholdSearchExhausted(FdelabError):
    """Threshold doubling search ran out of budget before a verdict passed."""


class EpsilonOutOfRange(FdelabError):
    """Requested epsilon is outside the admissible (0, min(eps1, eps2)) range."""


class NewtonDiverged(FdelabError):
    """Damped Newton iteration for an implicit step failed to converge."""


class PositivityLost(FdelabError):
    """PDE stepper could not preserve positivity even after step rejection."""


class NotBetweenBarriers(FdelabError):
    """Initial data fails the barrier ordering precondition."""


class InsufficientDecades(FdelabError):
    """Trajectory does not span enough decades of (T - t) for a rate fit."""


class InsufficientTail(FdelabError):
    """Self-similar profile tail too short for the asymptotic fit."""


class SlopeNotConverged(UserWarning):
    """Shoot reached s_max before the slope stabilized (warning, not error)."""
