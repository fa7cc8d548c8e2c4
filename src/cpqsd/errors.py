"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A config value is outside its documented range, or inconsistent."""


class ResolutionError(RuntimeError):
    """A statistical procedure ran out of resolution (population collapse,
    all-zero counts where a positive estimate is required, fit impossible)."""


class CensoredError(RuntimeError):
    """A window-truncated query touched the boundary, so the answer would be
    silently wrong rather than approximate."""
