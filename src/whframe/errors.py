"""Error types shared across the package."""

__all__ = ["LatticeError", "NotAFrameError", "NotTightError"]


class LatticeError(ValueError):
    """Lattice parameters are invalid (e.g. a step does not divide L)."""


class NotAFrameError(ValueError):
    """The Weyl-Heisenberg system has no positive lower frame bound."""


class NotTightError(ValueError):
    """The window is not a normalized tight generator (spectrum not flat)."""
