"""Exception types shared across the package."""


class InvalidArgument(ValueError):
    """An argument violates a documented precondition."""


class ShapeMismatch(InvalidArgument):
    """Two arrays that must share a shape do not."""


class DegenerateMixture(ValueError):
    """Mixture responsibilities underflowed everywhere."""


class SeamMismatch(ValueError):
    """Adjacent clips disagree on their shared boundary frame."""
