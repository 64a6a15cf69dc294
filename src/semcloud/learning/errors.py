from ..errors import LearningError


class DimensionMismatch(LearningError):
    """Input feature count does not match the model."""


class Divergence(LearningError):
    """Training loss became non-finite."""


class EmptyModel(LearningError):
    """Prediction requested from a model with no stored samples."""


class ZeroMeanTruth(LearningError):
    """nmae undefined: ground-truth mean is zero."""
