"""Conversions between theta-function notation conventions.

Covers the elliptic-integral normalization Theta_r(u) = theta_r(u/(2K))
with K = (pi/2)*theta_3(0)^2, the multiplicative coordinates (z, q),
and the two rescaled characteristic conventions found in the classical
literature.  Two further variations are documentation notes only: the
occasional "theta_0" in older books is our theta_4, and one classical
family takes pi*u where we take u.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .core import PI, Characteristics, ModularParameter, cexp, theta_char
from .core import theta  # noqa: F401  unused; perfbench's layer tracer wraps it here
from .reduction import eval_reduced

__all__ = [
    "elliptic_k",
    "big_theta",
    "multiplicative_coords",
    "convert_characteristics",
]


def elliptic_k(tau: ModularParameter) -> complex:
    """K = (pi/2)*theta_3(0|tau)^2 with the reduced theta_3, accurate next to cusps too.

    K, the complete elliptic integral of the first kind, depends on tau
    alone, so it is summed once per tau and cached by value: the key is
    (tau.tau, copysign(1.0, Re tau)), like the reduction path's, so
    Re tau = 0.0 and -0.0 stay apart.  A hit returns bit for bit what the
    sum gives.

    ValueError where K under- or overflows doubles (theta_3(0) is far below
    1e-154 next to some cusps): a zero K would make Theta_r divide by zero.
    The error is not cached; every call at such a tau raises it.
    """
    tv = tau.tau
    return _elliptic_k(tv, math.copysign(1.0, tv.real))


@lru_cache(maxsize=4096)
def _elliptic_k(tv: complex, re_sign: float) -> complex:
    """elliptic_k of ModularParameter(tv); re_sign only splits the key."""
    t3 = eval_reduced(3, 0.0, ModularParameter(tv))
    k = 0.5 * PI * t3 * t3
    if not k or not cmath.isfinite(k):
        raise ValueError(f"K = (pi/2)*theta_3(0)^2 under- or overflows doubles: {k!r}")
    return k


def big_theta(r: int, u: complex, tau: ModularParameter) -> complex:
    """Theta_r(u|tau) = theta_r(u / (2K) | tau); ValueError where K is out of range.

    K comes from elliptic_k's per-tau cache (keyed by the value of tau
    and the sign of Re tau), so at a tau seen before this is one reduced
    sum, not two.  A ValueError of eval_reduced that quotes u/(2K) quotes
    the caller's u first.
    """
    u = complex(u)
    w = u / (2.0 * elliptic_k(tau))
    try:
        return eval_reduced(r, w, tau)
    except ValueError as exc:
        raise ValueError(str(exc).replace(f"u={w!r}", f"u={u!r} (u/(2K)={w!r})")) from None


def multiplicative_coords(u: complex, tau: ModularParameter) -> tuple[complex, complex]:
    """(z, q) = (exp(2*pi*i*u), exp(pi*i*tau)); |q| < 1 always."""
    return cexp(2j * PI * complex(u)), tau.q


def convert_characteristics(
    convention: str, a: float, b: float, u: complex, tau: ModularParameter
) -> complex:
    """Rescaled-characteristic theta values of the older conventions.

    "W":  exp(pi*i*a*b)    * theta_{-a/2, b/2}(u|tau)
    "HC": exp(-pi*i*a*b/2) * theta_{a/2, b/2}(u|tau)
    """
    if convention == "W":
        phase = cexp(1j * PI * a * b)
        chars = Characteristics(-a / 2.0, b / 2.0)
    elif convention == "HC":
        phase = cexp(-0.5j * PI * a * b)
        chars = Characteristics(a / 2.0, b / 2.0)
    else:
        raise ValueError(f"convention must be 'W' or 'HC', got {convention!r}")
    return phase * theta_char(chars, u, tau)
