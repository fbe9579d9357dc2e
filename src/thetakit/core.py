"""Direct numerical evaluation of Jacobi theta functions.

Implements the two-characteristic series

    theta_{a,b}(u|tau) = sum_k exp{pi*i*tau*(k+a)^2 + 2*pi*i*(k+a)*(u+b)}

together with the four classical functions theta_1..theta_4 (its
half-integer specializations), their infinite-product forms, and the
theta constants theta_1'(0), theta_2(0), theta_3(0), theta_4(0).

Truncation is certified, not heuristic: the symmetric window [-N, N] is
chosen so that a geometric majorant of the dropped tail stays below the
tolerance, scaled by the peak term magnitude.  Inside the reduced cell
that majorant is bounded once, so the window there is the constant N
(no search).  All arithmetic is double precision.  Convergence degrades
as Im(tau) -> 0; callers who need that regime should go through the
reduction module, which maps any valid (u, tau) into the
fast-convergence cell first.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import repeat

__all__ = [
    "PI",
    "TruncationError",
    "ModularParameter",
    "Characteristics",
    "cexp",
    "INDEX_CHARACTERISTICS",
    "truncation_index",
    "theta_char",
    "theta",
    "theta_product",
    "theta_constants",
    "theta1_prime0",
    "gauss_product_theta4",
]

PI = math.pi
_TWO_PI = 2.0 * math.pi
_IPI = 1j * PI
_TWO_IPI = 2.0 * _IPI  # q^2 = exp(_TWO_IPI * tau)

# exp() overflows just above this; used to saturate rather than raise.
_EXP_MAX = 709.0

# The one accuracy of every sum and product: absolute tail target (scaled
# by max(1, peak term) in the series) and hard cap on the terms or factors.
_TOL = 1e-15
_MAX_TERMS = 1000

# Fixed window radius inside the reduced cell Im tau >= sqrt(3)/2,
# |Im u| <= Im tau/2, and N + 1 on its rim |Im u| <= Im tau (see _window).
N = 5
_CELL_IM_TAU = math.sqrt(3.0) / 2.0

# theta_product forms sin(pi*u) and cos(pi*u) directly below this |Im u|
# (accurate near their zeros) and as saturating exponentials above it.
_TRIG_IM_U = 200.0


class TruncationError(ArithmeticError):
    """No admissible truncation index exists under the term cap.

    Signals the caller to reduce the arguments (see the reduction
    module) before evaluating.
    """


def cexp(z: complex) -> complex:
    """exp(z) saturating to a complex infinity instead of raising.

    A component whose cos/sin is zero saturates to that signed zero, not
    to inf * 0 = nan.
    """
    z = complex(z)
    if z.real > _EXP_MAX:
        c, s = math.cos(z.imag), math.sin(z.imag)
        return complex(math.inf * c if c else c, math.inf * s if s else s)
    return cmath.exp(z)


def _exp_multiplier(mu: complex, u: complex) -> complex:
    """exp(mu) of the log multiplier of a reduced value at u, on the
    branch the evaluators' inline cmath.exp leaves: mu.real > _EXP_MAX
    or nan.

    A finite mu saturates as in cexp.  A mu that is not finite overflowed
    on its way, in the lattice shift or in a u^2/tau phase of the word:
    ValueError, as for any u that cannot be reduced.
    """
    if not cmath.isfinite(mu):
        raise _multiplier_overflow(u)
    return cexp(mu)


def _multiplier_overflow(u: complex) -> ValueError:
    return ValueError(f"cannot reduce u: the log multiplier of u={u!r} overflows doubles")


@dataclass(frozen=True)
class ModularParameter:
    """Modular parameter restricted to the open upper half-plane.

    The positivity of Im(tau) is enforced here, once, so every series
    built on top is guaranteed a nome with |q| < 1.
    """

    tau: complex

    def __post_init__(self):
        tau = complex(self.tau)
        object.__setattr__(self, "tau", tau)
        if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
            raise ValueError("tau must be finite")
        if tau.imag <= 0.0:
            raise ValueError(f"Im(tau) must be strictly positive, got {tau.imag!r}")

    @property
    def q(self) -> complex:
        """Nome exp(pi*i*tau); |q| < 1 by construction."""
        return cmath.exp(1j * PI * self.tau)

    def scaled(self, factor: int) -> "ModularParameter":
        """The parameter factor*tau (used for the tau <-> 2tau families)."""
        return ModularParameter(factor * self.tau)


@dataclass(frozen=True)
class Characteristics:
    """Real characteristic pair (a, b) of theta_{a,b}."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("characteristics must be finite reals")


# index r -> (a, b, prefactor) per theta_r = prefactor * theta_{a,b}
INDEX_CHARACTERISTICS = {
    1: (0.5, 0.5, -1.0),
    2: (0.5, 0.0, 1.0),
    3: (0.0, 0.0, 1.0),
    4: (0.0, 0.5, 1.0),
}


def _check_index(r: int) -> None:
    """ValueError unless r is an int in 1..4; a bool or a float is no index."""
    if r not in (1, 2, 3, 4) or type(r) is not int:
        raise ValueError(f"theta index must be an int in 1..4, got {r!r}")


def _finite_u(u: complex) -> complex:
    """complex(u), or ValueError where it is not finite."""
    u = complex(u)
    if not cmath.isfinite(u):
        raise ValueError("u must be finite")
    return u


def truncation_index(tau: ModularParameter, u: complex, a: float, tol: float) -> int:
    """Smallest N whose majorant tail over |k| >= N stays below tol.

    The term of index k is bounded by |q|^{(k+a)^2} * e^{2*pi*|Im u|*|k+a|};
    past the peak each step shrinks the bound by at least
    |q|^{2(k+a)} * e^{2*pi*|Im u|}, so the tail is summed geometrically.
    Finite for every Im(tau) > 0, but raises TruncationError when the
    needed N exceeds _MAX_TERMS (reduce the arguments first), and
    ValueError unless tol is finite and positive and u is finite.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    t = tau.tau.imag
    y = abs(_finite_u(u).imag)
    a0 = a - round(a)  # exact series reindexing; |a0| <= 1/2
    log_q = -PI * t
    tpy = _TWO_PI * y
    for n in range(1, _MAX_TERMS + 1):
        bound = 0.0
        usable = True
        for x0 in (n + a0, n - a0):  # first right / left tail offsets, both >= 1/2
            lead = log_q * x0 * x0 + tpy * x0
            ratio = log_q * (2.0 * x0 + 1.0) + tpy
            if ratio >= 0.0 or lead >= _EXP_MAX:
                usable = False
                break
            bound += math.exp(lead) / -math.expm1(ratio)
        if usable and bound < tol:
            return n
    raise TruncationError(
        f"truncation window exceeds max_terms={_MAX_TERMS} "
        f"(Im tau={t:.3g}, |Im u|={y:.3g}); reduce the arguments first"
    )


def _peak_log(t: float, y_signed: float, a0: float) -> float:
    """Log-magnitude of the largest series term (discrete peak)."""
    k0 = round(-y_signed / t - a0)
    best = -math.inf
    for k in (k0 - 1, k0, k0 + 1):
        x = k + a0
        best = max(best, -PI * t * x * x - _TWO_PI * x * y_signed)
    return best


def _window(tau: ModularParameter, u: complex, a: float) -> int:
    """Window radius for absolute error < _TOL * max(1, peak term).

    The constant N in the reduced cell (Im tau >= sqrt(3)/2, 2*|Im u| <=
    Im tau), else a search.  The reduced kernels never search: N there and
    N + 1 on the rim |Im u| <= Im tau, at every end of reduction._walk_tau,
    Im tau >= sqrt(3)/2 - 2^-50.  Proof: truncation_index's majorant is
    largest at Im tau = sqrt(3)/2, a0 = 1/2 (for any a0, f(n + a0) +
    f(n - a0) <= f(n - 1/2) + f(n + 1/2), the one-sided tail f convex)
    and the largest |Im u|: 2.5e-19 at N and 1.8e-23 at N + 1, 1.2e-4 and
    2.3e-9 of the peak-scaled target; the 2^-50 moves it in the 15th digit.
    Its exponents are at most -pi*Im tau*x*(x - 1) and -2*pi*Im tau*x at
    x >= 9/2 for N, -pi*Im tau*x*(x - 2) and -pi*Im tau*(2x - 1) at
    x >= 11/2 for N + 1, so both only shrink as Im tau grows.  The peak is
    capped at _EXP_MAX, where the target _TOL * e^709 ~ 8e292 is finite.
    """
    t = tau.tau.imag
    if t >= _CELL_IM_TAU and 2.0 * abs(u.imag) <= t:
        return N
    peak = _peak_log(t, u.imag, a - round(a))
    tol = _TOL * math.exp(min(peak, _EXP_MAX)) if peak > 0.0 else _TOL
    return truncation_index(tau, u, a, tol)


def _nome_sq(tv: complex) -> complex:
    """q^2 = exp(2*pi*i*tv), the last factor of _series' term recurrence."""
    return cmath.exp(_TWO_IPI * tv)


def _series(
    n: int, a0: float, v: complex, tv: complex, alternating: bool, q2: complex
) -> complex:
    """sum_{|k|<=n} (+-1)^k exp(pi*i*(tv*x^2 + 2*x*v)), x = k + a0.

    The one summation behind every theta value.  alternating puts in
    the exact sign (-1)^k of a half-integer b.  The sum starts at the
    discrete peak k0 = round(-Im v/Im tv - a0), clamped to the window
    (a half-integer tie goes to the side the sign of Im v selects, since
    -Im v/Im tv can round away into a0 at a huge Im tv; at Im v = 0 it
    stays with round), and walks outward by the term recurrence
    term *= ratio, ratio *= q^2: the step from x to x + 1 is
    exp(pi*i*(tv*(2x+1) + 2v)), and each further step multiplies it by
    q2 = _nome_sq(tv), which the caller passes in so that a reduced tau
    pays for it once.  That takes 3 exponentials, and q2, instead of 2n + 1.
    The term modulus is a Gaussian in x whose centre lies within 1/2 of
    x0 (or past the window edge that k0 was clamped to), so every step
    leads away from the centre, every ratio has modulus <= 1 and no
    partial term overflows.
    A saturated (non-finite) peak term is returned as it is, so the sum
    never turns it into nan.
    In the reduced cell (n = N, |Im v| <= Im tv/2, a0 in {0, 1/2}) c lies
    in [-1, 1/2], so k0 is -1, 0 or 1 (1 only at a tie) and each side
    takes N -+ k0 = 4 to 6 steps.  There the walk is written out: four
    steps a side, then a fifth and a sixth where the side takes them, no
    ratio *= q2 after a side's last term, and the sums as left-to-right
    chains 0j + t1 + t2 + ..., which make the loop's additions in its
    order.  One loop, over the two sides, runs for every other (n, k0).

    alternating=None returns (plain, alternating), both bit-equal to
    alternating=False and True.  In the cell they come from one walk
    with two accumulators, the second adding +-term by the parity of k:
    IEEE negation is exact, so each term of the alternating recurrence
    is exactly +-term (up to the sign of an exact zero, which no sum
    started at 0j can keep), and each accumulator makes the same
    additions in the same order as its own one-sum call.  Off the cell
    they are the two single sums.

    The pins hold this body bit for bit: a rewrite that changes an
    operand or the order of the operations needs a re-pin and an
    accuracy check.
    """
    c = -v.imag / tv.imag - a0
    if c < -n:
        c = -n
    elif c > n:
        c = n
    k0 = round(c)
    if abs(c - k0) == 0.5 and v.imag:
        k0 = math.floor(c) if v.imag > 0.0 else math.ceil(c)
    cell = n == N and -1 <= k0 <= 1
    if alternating is None and not cell:
        return _series(n, a0, v, tv, False, q2), _series(n, a0, v, tv, True, q2)
    x0 = k0 + a0
    x2 = 2.0 * x0
    v2 = 2.0 * v
    z = _IPI * (tv * x0 * x0 + x2 * v)
    peak = cmath.exp(z) if z.real <= _EXP_MAX else cexp(z)
    up, down = n - k0, n + k0  # steps x0 -> x0 + 1 and x0 -> x0 - 1
    if alternating is None:
        alt_peak = -peak if k0 & 1 else peak
        if not cmath.isfinite(peak):
            return peak, alt_peak
        ratio = cmath.exp(_IPI * (tv * (x2 + 1.0) + v2))
        t1 = peak * ratio
        t2 = t1 * (ratio := ratio * q2)
        t3 = t2 * (ratio := ratio * q2)
        t4 = t3 * (ratio := ratio * q2)
        if k0:  # odd: 4 or 6 steps a side, and t1 adds to the alternating sum
            s = 0j + t1 + t2 + t3 + t4
            a = 0j + t1 - t2 + t3 - t4
            if up > 4:
                t5 = t4 * (ratio := ratio * q2)
                t6 = t5 * (ratio * q2)
                s = s + t5 + t6
                a = a + t5 - t6
        else:  # even: 5 steps a side, and t1 subtracts
            t5 = t4 * (ratio * q2)
            s = 0j + t1 + t2 + t3 + t4 + t5
            a = 0j - t1 + t2 - t3 + t4 - t5
        ratio = cmath.exp(_IPI * (tv * (1.0 - x2) - v2))
        t1 = peak * ratio
        t2 = t1 * (ratio := ratio * q2)
        t3 = t2 * (ratio := ratio * q2)
        t4 = t3 * (ratio := ratio * q2)
        if k0:
            s = s + t1 + t2 + t3 + t4
            a = a + t1 - t2 + t3 - t4
            if down > 4:
                t5 = t4 * (ratio := ratio * q2)
                t6 = t5 * (ratio * q2)
                s = s + t5 + t6
                a = a + t5 - t6
        else:
            t5 = t4 * (ratio * q2)
            s = s + t1 + t2 + t3 + t4 + t5
            a = a - t1 + t2 - t3 + t4 - t5
        return peak + s, alt_peak + a
    if alternating and (k0 & 1):
        peak = -peak
    if not cmath.isfinite(peak):
        return peak
    # |ratio| <= 1: cmath.exp cannot overflow on it
    if cell:
        ratio = cmath.exp(_IPI * (tv * (x2 + 1.0) + v2))
        if alternating:
            ratio = -ratio
        t1 = peak * ratio
        t2 = t1 * (ratio := ratio * q2)
        t3 = t2 * (ratio := ratio * q2)
        t4 = t3 * (ratio := ratio * q2)
        s = 0j + t1 + t2 + t3 + t4
        if up > 4:
            t5 = t4 * (ratio := ratio * q2)
            s += t5
            if up > 5:
                s += t5 * (ratio * q2)
        ratio = cmath.exp(_IPI * (tv * (1.0 - x2) - v2))
        if alternating:
            ratio = -ratio
        t1 = peak * ratio
        t2 = t1 * (ratio := ratio * q2)
        t3 = t2 * (ratio := ratio * q2)
        t4 = t3 * (ratio := ratio * q2)
        s = s + t1 + t2 + t3 + t4
        if down > 4:
            t5 = t4 * (ratio := ratio * q2)
            s += t5
            if down > 5:
                s += t5 * (ratio * q2)
        return peak + s
    s = 0j
    # the up side, then the down side, whose step exp(pi*i*(tv*(1 - x2) - v2))
    # is the up side's at -x2, -v2 bit for bit (IEEE a - b is a + (-b))
    for steps, x2s, v2s in ((up, x2, v2), (down, -x2, -v2)):
        if steps:
            term = peak
            ratio = cmath.exp(_IPI * (tv * (x2s + 1.0) + v2s))
            if alternating:
                ratio = -ratio
            for _ in repeat(None, steps):
                term *= ratio
                ratio *= q2
                s += term
    return peak + s


def theta_char(chars: Characteristics, u: complex, tau: ModularParameter) -> complex:
    """theta_{a,b}(u|tau) through the reduced theta_3, by the exact shift

        theta_{a,b}(u|tau) = exp(pi*i*tau*a0^2 + 2*pi*i*a0*(u + b))
                             * theta_3(u + b0 + a0*tau | tau),

    a0 = a - round(a), b0 = b - round(b).  theta_3 goes through
    reduction.eval_reduced's route, and the prefactor joins its log
    multiplier before the one exponential, so the accuracy is relative,
    as for eval_reduced, not the absolute _TOL * max(1, peak term) of a
    direct sum, and it holds at every valid tau.  A u that cannot be
    reduced, or whose log multiplier overflows, raises ValueError.
    """
    u = complex(u)
    tv = tau.tau
    a0 = chars.a - round(chars.a)
    w = u + (chars.b - round(chars.b)) + a0 * tv
    if math.isfinite(w.real):  # else the reduction raises its ValueError
        w -= round(w.real)  # period 1 of theta_3: keeps the word's u^2/tau phases small
    path = reduction._tau_path(tv, math.copysign(1.0, tv.real))  # reduction._path, inline
    value, mu = reduction._reduced_theta(3, w, path)
    z = mu + _IPI * (tv * a0 * a0 + 2.0 * a0 * (u + chars.b))
    return value * (cmath.exp(z) if z.real <= _EXP_MAX else _exp_multiplier(z, u))


def theta(r: int, u: complex, tau: ModularParameter) -> complex:
    """theta_r(u|tau), r in {1,2,3,4}: theta_{a,b} at half-integer a, b.

    Direct summation certifies an absolute error of _TOL * max(1, peak
    term), not a relative one: at tau = 0.002i, theta_1(0.625) and
    theta_2(0.125), equal in exact arithmetic, differ by 7e-6 relative.
    reduction.eval_reduced gives relative accuracy (1.1e-15 and 1.5e-13
    against mpmath there).  TruncationError where the window needs more
    than _MAX_TERMS terms (at u = 0, below Im tau ~ 1.2e-5), ValueError
    where u is not finite.
    """
    _check_index(r)
    u = _finite_u(u)
    a0 = 0.5 if r < 3 else 0.0
    s = _series(_window(tau, u, a0), a0, u, tau.tau, r in (1, 4), _nome_sq(tau.tau))
    return complex(s.imag, -s.real) if r == 1 else s  # -i*s with no inf*0 = nan


def theta_product(r: int, u: complex, tau: ModularParameter) -> complex:
    """theta_r(u|tau) by the triple product; independent oracle for theta().

    Factors are multiplied until the remaining ones provably deviate
    from 1 by less than _TOL; TruncationError past _MAX_TERMS of them,
    ValueError where u is not finite and where the product overflows
    doubles (a saturated factor would turn it into inf * 0 = nan).
    """
    _check_index(r)
    u = _finite_u(u)
    tv = tau.tau
    t = tv.imag
    y = abs(u.imag)
    aq2 = math.exp(-2.0 * PI * t)  # |q|^2
    sign = -1.0 if r in (1, 4) else 1.0
    odd_exponent = r in (3, 4)  # q^{2n-1} in the u-dependent factors

    if r in (1, 2) and y < _TRIG_IM_U:
        trig = cmath.sin(PI * u) if r == 1 else cmath.cos(PI * u)
        p = 2.0 * cexp(1j * PI * tv / 4.0) * trig
    elif r in (1, 2):
        # 2*q^(1/4)*sin(pi*u) and 2*q^(1/4)*cos(pi*u) as two exponentials
        # each, since sin and cos overflow once |Im u| passes ~225.  Here
        # one term outweighs the other by e^(2*pi*_TRIG_IM_U): no cancellation
        up = cexp(1j * PI * (tv / 4.0 + u))
        down = cexp(1j * PI * (tv / 4.0 - u))
        if r == 1:
            p = up - down
            p = complex(p.imag, -p.real)  # -i*p with no inf*0 = nan
        else:
            p = up + down
    else:
        p = 1.0 + 0j

    # q-powers and z are combined in one exponent so extreme |Im u|
    # cannot produce 0 * inf
    for n in range(1, _MAX_TERMS + 1):
        e = 2 * n - 1 if odd_exponent else 2 * n
        even = 1.0 - cexp(2j * PI * tv * n)
        plus = 1.0 + sign * cexp(1j * PI * (tv * e + 2.0 * u))
        minus = 1.0 + sign * cexp(1j * PI * (tv * e - 2.0 * u))
        p *= even * plus * minus
        # the remaining factors deviate from 1 by at most this much
        log_u_dev = -PI * t * (e + 2.0) + _TWO_PI * y
        next_dev = aq2 ** (n + 1) + (
            2.0 * math.exp(log_u_dev) if log_u_dev < 0.0 else math.inf
        )
        if next_dev / (1.0 - aq2) < _TOL:
            if not cmath.isfinite(p):
                raise ValueError(
                    f"theta_{r}(u|tau) overflows doubles at u={u!r}, tau={tv!r}: "
                    "the triple product leaves the double range"
                )
            return p
    raise TruncationError(
        f"product truncation exceeds max_terms={_MAX_TERMS} "
        f"(|q|={math.sqrt(aq2):.6f} or |Im u|={y:.3g} too large); "
        "reduce the arguments first"
    )


def theta1_prime0(tau: ModularParameter) -> complex:
    """theta_1'(0|tau) by term-wise differentiation of the theta_1 series:

        theta_1'(0) = pi * sum_k (-1)^k (2k+1) q^{(k+1/2)^2}
    """
    n = truncation_index(tau, 0.0, 0.5, _TOL) + 2
    tv = tau.tau
    s = 0j
    for k in range(-n - 1, n + 1):  # pair k with -k-1 so both halves are kept
        x = k + 0.5
        term = (2 * k + 1) * cexp(1j * PI * tv * x * x)
        if k & 1:
            term = -term
        s += term
    return PI * s


def theta_constants(tau: ModularParameter) -> tuple[complex, complex, complex, complex]:
    """(theta_1'(0), theta_2(0), theta_3(0), theta_4(0)) at the given tau,
    by direct summation: theta1_prime0 and theta(r, 0j, tau)."""
    return theta1_prime0(tau), theta(2, 0j, tau), theta(3, 0j, tau), theta(4, 0j, tau)


def gauss_product_theta4(tau: ModularParameter) -> complex:
    """theta_4(0|tau) as the alternating product prod (1-q^n)/(1+q^n).

    A route independent of both the series and the triple product.
    TruncationError past _MAX_TERMS factors, or at once where |q| rounds to 1.
    """
    q = tau.q
    aq = abs(q)
    p = 1.0 + 0j
    qn = 1.0 + 0j
    an = 1.0
    for n in range(1, _MAX_TERMS + 1 if aq < 1.0 else 1):  # no tail bound at |q| = 1
        qn *= q
        an *= aq
        p *= (1.0 - qn) / (1.0 + qn)
        if 2.0 * an * aq / (1.0 - aq) < _TOL:
            return p
    raise TruncationError(
        f"product truncation exceeds max_terms={_MAX_TERMS} "
        f"(|q|={aq:.6f} too close to 1)"
    )


# reduction imports this module, so it comes last; theta_char reads it
from . import reduction  # noqa: E402
