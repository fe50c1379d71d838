"""Working-precision conventions.

All numeric routines take an explicit decimal precision ``dps`` (default 50)
and carry GUARD extra digits internally.  Values returned to the caller are
mpmath numbers rounded to the requested precision.
"""

from __future__ import annotations

import contextlib

import mpmath
from mpmath import mpf, mpc

DEFAULT_DPS = 50
GUARD = 10


@contextlib.contextmanager
def working(dps: int = DEFAULT_DPS, extra: int = 0):
    """Context with dps + GUARD + extra decimal digits of working precision."""
    with mpmath.mp.workdps(dps + GUARD + extra):
        yield mpmath.mp


def rounded(x, dps: int):
    """Round x to dps digits (the value a caller is entitled to rely on)."""
    with mpmath.mp.workdps(dps):
        return +x


def agree_digits(a, b) -> int:
    """Number of agreeing significant digits of a and b (0 if wildly apart)."""
    a, b = mpmath.mpf(a) if not isinstance(a, (mpf, mpc)) else a, b
    diff = abs(a - b)
    if diff == 0:
        return mpmath.mp.dps
    scale = max(abs(a), abs(b))
    if scale == 0:
        return mpmath.mp.dps
    rel = diff / scale
    if rel >= 1:
        return 0
    return int(mpmath.floor(-mpmath.log10(rel)))
