"""Exception types shared across the package, and the checks that every
public entry point runs on its input: bad input, a non-number among them,
raises ParameterError and never turns into a silently wrong number."""

import math
import operator


class ParameterError(ValueError):
    """A config value is outside its documented range, or inconsistent."""


class ResolutionError(RuntimeError):
    """A statistical procedure ran out of resolution (population collapse,
    all-zero counts where a positive estimate is required, fit impossible)."""


class CensoredError(RuntimeError):
    """A window-truncated query touched the boundary, so the answer would be
    silently wrong rather than approximate.  Nothing in the package raises
    it; it stays only because perfbench/workloads.OP_ERRORS names it, until
    ROADMAP item 2 removes it."""


def is_scalar(x):
    """Whether x is one value and not a bool: a bool compares as 0 or 1,
    and an array with axes compares elementwise, so a range check would
    take either for a number.  Python and numpy numbers and 0-d arrays
    are scalars."""
    dtype = getattr(x, "dtype", None)
    if dtype is None:
        return not isinstance(x, bool)
    return dtype.kind != "b" and x.ndim == 0


def check_integer(x, what, lo=None):
    """x as an int, at least lo if given; a float is rejected, not
    truncated, and so is a bool."""
    try:
        i = operator.index(x)
    except TypeError:
        i = None
    if i is None or isinstance(x, bool):
        raise ParameterError(f"{what} must be an integer, got {x!r}")
    if lo is not None and i < lo:
        raise ParameterError(f"{what} must be >= {lo}, got {i}")
    return i


def check_positive(x, what):
    """x, one finite number > 0: a rate or a horizon."""
    try:
        if is_scalar(x) and 0 < x < math.inf:
            return x
    except TypeError:
        pass
    raise ParameterError(f"{what} must be finite and > 0, got {x!r}")


def check_time(t, what="time"):
    """t, one finite number >= 0: a time, or another amount that may be
    0, such as a weight."""
    try:
        if is_scalar(t) and 0 <= t < math.inf:
            return t
    except TypeError:
        pass
    raise ParameterError(f"{what} must be finite and >= 0, got {t!r}")


def check_sites(sites, what):
    """sites as a frozenset of ints: a finite set of sites of Z, or of
    offsets; each element is a `what`."""
    try:
        return frozenset(check_integer(x, what) for x in sites)
    except TypeError:
        raise ParameterError(f"expected a collection of {what}s, "
                             f"got {sites!r}") from None


def check_seed(seed, what="seed"):
    """seed as an int, an unsigned 64-bit word."""
    seed = check_integer(seed, what, 0)
    if seed >= 2**64:
        raise ParameterError(f"{what} must be below 2**64, got {seed}")
    return seed
