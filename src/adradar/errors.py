"""Exception types raised by the simulation and estimation stages."""


class ScenarioError(ValueError):
    """Scene configuration produces an unusable geometry (nonpositive ranges or colliding delays)."""


class BeamMeasurementError(ValueError):
    """Beam pattern has no usable mainlobe for a width measurement, or the
    design cannot reach the requested width: a configuration error."""


class EstimationError(RuntimeError):
    """Base class for failures inside the estimation pipeline."""


class NoTargetError(EstimationError):
    """No correlation lag exceeded the detection threshold."""


class DetectionShortfallError(EstimationError):
    """Fewer peaks above threshold than the number of expected targets."""


class SingularDesignError(EstimationError):
    """Least-squares design matrix is singular or ill-conditioned."""


class LseWindowError(EstimationError):
    """The least-squares window reaches outside the frame's synthesized samples."""


class ZeroCoefficientError(EstimationError, ZeroDivisionError):
    """A frame-0 LSE coefficient is exactly zero, so no Doppler ratio exists."""


class AggregationError(RuntimeError):
    """No successful trials to aggregate."""
