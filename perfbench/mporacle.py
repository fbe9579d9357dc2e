"""Independent high-precision reference values for the eval workloads.

Built on mpmath only; nothing here calls thetakit.

Every reference is the defining series

    theta_{a,b}(u|tau) = sum_k exp(pi*i*tau*(k+a)^2 + 2*pi*i*(k+a)*(u+b))

summed directly, without any modular or lattice reduction, at 50 or
more digits.  Near a cusp the true value can lie hundreds of orders of
magnitude below the largest term, so a fixed precision returns
cancellation noise there.  The sum therefore carries a bound on its
rounding error, and the precision is doubled until that bound is
10^-AGREE_DIGITS of the result, or until it proves the value lies below
the smallest normal double.

mpmath's own jtheta is the second, independent reference: the
benchmark's tests compare it with this series and with thetakit.  It is
not used in the runs because it evaluates q**(n*n) by a complex power
for every term (about 60 ms per near-cusp point at 50 digits, seconds
at the 300-800 digits those points need).  jtheta multiplies theta_1
and theta_2 by the principal root q**(1/4), while thetakit uses
exp(i*pi*tau/4); the two differ by a fourth root of unity once Re tau
leaves (-1, 1], and jtheta() below multiplies by their ratio.
"""

from __future__ import annotations

import math
import sys

import mpmath

DPS = 50
AGREE_DIGITS = 20
MAX_DPS = 3200

# the catalog's verify tolerance
REL_TOL = 1e-9

# theta_r = sign * theta_{a,b}, the classical half-integer characteristics
_CHARACTERISTICS = {1: (0.5, 0.5, -1), 2: (0.5, 0.0, 1), 3: (0.0, 0.0, 1), 4: (0.0, 0.5, 1)}

_DBL_MAX = mpmath.mpf(sys.float_info.max)
_DBL_MIN = mpmath.mpf(sys.float_info.min)


class OracleError(ArithmeticError):
    """The reference did not converge below MAX_DPS digits."""


class BelowDoubleRange:
    """A reference proven smaller in magnitude than the smallest normal double."""

    def __init__(self, bound: mpmath.mpf):
        self.bound = bound

    def __repr__(self) -> str:
        return f"BelowDoubleRange(|value| <= {mpmath.nstr(self.bound, 5)})"


def _series(a: float, b: float, u: mpmath.mpc, tau: mpmath.mpc):
    """theta_{a,b}(u|tau) at the working precision, with a rounding-error bound.

    |term(x)| = exp(-pi*t*x^2 - 2*pi*x*y) with x = k + a, t = Im tau and
    y = Im u is a Gaussian in x.  Summation runs outward from its peak
    until a term falls 10^-(dps+10) below the peak.  Successive terms
    differ by exp(pi*i*(tau*(2x+1) + 2w)), which itself changes by q^2
    per step, so each term costs two multiplications and the k-th term
    carries about 2k roundings; 4 * terms^2 * eps * peak bounds them all.
    """
    t = float(tau.imag)
    y = float(u.imag)

    def log_mag(k: int) -> float:
        x = k + a
        return -math.pi * t * x * x - 2.0 * math.pi * x * y

    k0 = round(-y / t - a)
    peak = max(log_mag(k) for k in (k0 - 1, k0, k0 + 1))
    cut = peak - (mpmath.mp.dps + 10) * math.log(10.0)
    ipi = 1j * mpmath.pi
    w = u + b
    q2 = mpmath.exp(2 * ipi * tau)
    x0 = k0 + mpmath.mpf(a)
    first = mpmath.exp(ipi * (tau * x0 * x0 + 2 * x0 * w))
    total = first
    terms = 1
    for step in (1, -1):
        ratio = mpmath.exp(ipi * (tau * (2 * step * x0 + 1) + 2 * step * w))
        term = first
        k = k0
        while True:
            term *= ratio
            ratio *= q2
            k += step
            total += term
            terms += 1
            if (k - k0) * step > 2 and log_mag(k) < cut:
                break
    eps = mpmath.mpf(10) ** (-mpmath.mp.dps)
    bound = 4 * terms * terms * eps * mpmath.exp(peak) + eps * abs(total)
    return total, bound


def _certified(a: float, b: float, u, tau: complex, sign: int = 1):
    """sign * theta_{a,b}(u|tau) to AGREE_DIGITS digits, or BelowDoubleRange."""
    dps = DPS
    while dps <= MAX_DPS:
        with mpmath.workdps(dps):
            value, bound = _series(a, b, mpmath.mpc(u), mpmath.mpc(tau))
            if bound <= mpmath.mpf(10) ** -AGREE_DIGITS * abs(value):
                return sign * value
            if abs(value) + bound < _DBL_MIN:
                return BelowDoubleRange(abs(value) + bound)
        dps *= 2
    raise OracleError(f"reference did not converge at {MAX_DPS} digits")


def theta(r: int, u, tau: complex):
    """theta_r(u|tau), r = 1..4."""
    a, b, sign = _CHARACTERISTICS[r]
    return _certified(a, b, u, tau, sign)


def theta_char(a: float, b: float, u: complex, tau: complex):
    """theta_{a,b}(u|tau)."""
    return _certified(a, b, u, tau)


def elliptic_k(tau: complex) -> mpmath.mpc:
    """K = (pi/2) * theta_3(0|tau)^2."""
    t3 = theta(3, 0j, tau)
    with mpmath.workdps(DPS):
        return mpmath.pi / 2 * t3 * t3


def big_theta(r: int, u: complex, tau: complex, k: mpmath.mpc):
    """Theta_r(u|tau) = theta_r(u / (2K) | tau), with K from elliptic_k(tau)."""
    with mpmath.workdps(DPS):
        arg = mpmath.mpc(u) / (2 * k)
    return theta(r, arg, tau)


def jtheta(r: int, u: complex, tau: complex) -> mpmath.mpc:
    """theta_r(u|tau) from mpmath.jtheta at DPS digits, in thetakit's convention."""
    with mpmath.workdps(DPS):
        t = mpmath.mpc(tau)
        q = mpmath.exp(1j * mpmath.pi * t)
        value = mpmath.jtheta(r, mpmath.pi * mpmath.mpc(u), q)
        if r in (1, 2):
            value *= mpmath.exp(1j * mpmath.pi * t / 4) / mpmath.nthroot(q, 4)
        return value


def relative_error(value: complex, ref: mpmath.mpc) -> float:
    """|value - ref| / |ref| (absolute error when ref is exactly 0)."""
    with mpmath.workdps(DPS):
        diff = abs(mpmath.mpc(value) - ref)
        scale = abs(ref)
        return float(diff / scale) if scale else float(diff)


def outside_double_range(ref) -> bool:
    """True when |ref| is above the largest or below the smallest normal double."""
    if isinstance(ref, BelowDoubleRange):
        return True
    with mpmath.workdps(DPS):
        mag = abs(ref)
        return mag > _DBL_MAX or 0 < mag < _DBL_MIN


def classify(outcome, ref) -> str:
    """Outcome of one evaluator call against its reference value.

    outcome is the returned complex or the raised exception.  Returns
    "ok", "raised", "nonfinite", "range" or "mismatch".  "range" is a
    finite result that is wrong because the true value lies outside the
    double range, or because the result underflowed to zero or a
    subnormal.  Raising an ArithmeticError where the true value lies
    outside the double range is the documented way to refuse such a
    point, so it counts as "ok".
    """
    if isinstance(outcome, BaseException):
        if isinstance(outcome, ArithmeticError) and outside_double_range(ref):
            return "ok"
        return "raised"
    if not (math.isfinite(outcome.real) and math.isfinite(outcome.imag)):
        return "nonfinite"
    if isinstance(ref, BelowDoubleRange):
        return "range"
    if relative_error(outcome, ref) <= REL_TOL:
        return "ok"
    if abs(outcome) < sys.float_info.min or outside_double_range(ref):
        return "range"
    return "mismatch"
